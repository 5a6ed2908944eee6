//! # ftmap-lint
//!
//! Project-invariant static analyzer for the ftmap-rs workspace, run as a CI
//! gate (`cargo run --release --bin ftmap-lint`).
//!
//! The workspace's architecture rests on invariants no compiler checks: the
//! timeline is *modeled* (wall-clock reads are confined to the profiling
//! layer), kernel launches and transfer accounting go through `gpu-sim`'s
//! audited entry points, and the scheduler/serve hot paths never panic
//! themselves: a panic in a batch's own work fails that batch, every waiter
//! resolves, and the pipeline keeps serving. This crate enforces those
//! invariants with a dependency-free Rust lexer feeding a token-level rule
//! engine — see [`RULES`] for the catalog and the README's *Correctness
//! tooling* section for the suppression format. Two cross-file rules keep
//! the workspace's public API down to what it uses: `unreferenced-pub`
//! (nothing references the item) and `overexposed-pub` (no other crate names
//! it).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

mod lexer;
mod rules;

pub use rules::{lint_files, lint_workspace, Diagnostic, RuleInfo, RULES};
