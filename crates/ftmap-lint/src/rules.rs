//! The project-invariant rules and the engine that runs them.
//!
//! Every rule is a token-level check over [`crate::lexer`] output, scoped by
//! workspace-relative path. The invariants are the ones the modeled-timeline
//! architecture depends on (see the repository README's *Correctness
//! tooling* section):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wall-clock` | wall-clock reads only in the wall-profiling allowlist |
//! | `launch-layer-only` | raw device launches confined to `gpu-sim` |
//! | `accounted-transfers` | transfers go through accounted helpers |
//! | `no-panic-in-workers` | scheduler/serve hot paths use typed failure paths |
//! | `justified-allows` | every `#[allow(…)]` carries a written justification |
//!
//! Suppression: a comment containing `lint-allow(<rule>): <reason>` on the
//! same line as the finding, anywhere in a contiguous comment block that
//! spans the finding's line, or in a block ending on the line directly
//! above it. `#[cfg(test)]` regions are skipped entirely — the invariants
//! protect shipped modeled-timeline code, not test scaffolding.

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// One rule violation, anchored to a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Human explanation of the violation and the sanctioned alternative.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    /// `path:line: rule: message` — one line, greppable, CI-friendly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// Name and one-line summary of a rule (for `--list-rules` and docs).
pub struct RuleInfo {
    /// The rule's name as used in `lint-allow(...)` suppressions.
    pub name: &'static str,
    /// What the rule enforces.
    pub summary: &'static str,
}

/// Every rule the engine runs, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        summary: "std::time::Instant / SystemTime banned outside the wall-profiling \
                  allowlist (gpu-sim timing/device, ftmap-bench); use gpu_sim::wall_timed",
    },
    RuleInfo {
        name: "launch-layer-only",
        summary: "raw LaunchConfig / .launch() confined to gpu-sim; \
                  consumers go through the KernelLaunch builder",
    },
    RuleInfo {
        name: "accounted-transfers",
        summary: "raw record_transfer / Transfer construction confined to gpu-sim; \
                  consumers use the accounted upload_*/download_* helpers",
    },
    RuleInfo {
        name: "no-panic-in-workers",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! banned in \
                  scheduler and serve hot paths; use the typed error/poison paths",
    },
    RuleInfo {
        name: "justified-allows",
        summary: "every #[allow(...)] needs an adjacent \
                  `lint-allow(justified-allows): reason` comment",
    },
];

/// Paths allowed to read the wall clock: the wall-profiling layer itself and
/// the benchmark harnesses (whose whole job is measuring the host).
fn wall_clock_allowed(path: &str) -> bool {
    path == "crates/gpu-sim/src/timing.rs"
        || path == "crates/gpu-sim/src/device.rs"
        || path.starts_with("crates/ftmap-bench/")
}

/// The launch/transfer layers live here; inside the crate the raw API *is*
/// the implementation.
fn is_gpu_sim(path: &str) -> bool {
    path.starts_with("crates/gpu-sim/")
}

/// Files whose panics would strand batches or wedge the service: the phased
/// scheduler's workers and everything the serve dispatcher runs.
fn is_worker_hot_path(path: &str) -> bool {
    path.starts_with("crates/gpu-sim/src/sched/") || path.starts_with("crates/ftmap-serve/src/")
}

/// Contiguous comments folded into one block (doc comments, `//` runs and
/// block comments on adjacent lines group together).
struct CommentBlock {
    text: String,
    start_line: usize,
    end_line: usize,
}

fn group_comments(comments: &[Comment]) -> Vec<CommentBlock> {
    let mut blocks: Vec<CommentBlock> = Vec::new();
    for c in comments {
        match blocks.last_mut() {
            Some(block) if c.start_line <= block.end_line + 1 => {
                block.text.push('\n');
                block.text.push_str(&c.text);
                block.end_line = block.end_line.max(c.end_line);
            }
            _ => blocks.push(CommentBlock {
                text: c.text.clone(),
                start_line: c.start_line,
                end_line: c.end_line,
            }),
        }
    }
    blocks
}

/// Per-file analysis context shared by all rules.
struct FileCtx<'a> {
    path: &'a str,
    tokens: &'a [Token],
    blocks: Vec<CommentBlock>,
    test_lines: BTreeSet<usize>,
}

impl FileCtx<'_> {
    /// True when a `lint-allow(rule)` comment covers `line`: same line, a
    /// block spanning the line, or a block ending directly above it.
    fn suppressed(&self, rule: &str, line: usize) -> bool {
        let marker = format!("lint-allow({rule})");
        self.blocks
            .iter()
            .any(|b| (b.start_line <= line && line <= b.end_line + 1) && b.text.contains(&marker))
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_lines.contains(&line)
    }

    fn punct_at(&self, i: usize, ch: char) -> bool {
        self.tokens
            .get(i)
            .map(|t| t.kind == TokenKind::Punct && t.text == ch.to_string())
            .unwrap_or(false)
    }
}

/// Marks every line covered by a `#[cfg(test)]` item (the attribute, any
/// stacked attributes after it, and the following balanced-brace block or
/// semicolon-terminated item).
fn test_region_lines(tokens: &[Token]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let (is_attr, attr_end) = attribute_at(tokens, i);
        if !is_attr {
            i += 1;
            continue;
        }
        let attr_tokens = &tokens[i..attr_end];
        let is_cfg_test = attr_tokens.iter().any(|t| t.text == "cfg")
            && attr_tokens.iter().any(|t| t.text == "test");
        if !is_cfg_test {
            i = attr_end;
            continue;
        }
        let region_start = tokens[i].line;
        // Skip any further stacked attributes, then consume the item.
        let mut j = attr_end;
        loop {
            let (stacked, next) = attribute_at(tokens, j);
            if !stacked {
                break;
            }
            j = next;
        }
        let mut depth = 0usize;
        let mut region_end = tokens.get(j).map(|t| t.line).unwrap_or(region_start);
        while j < tokens.len() {
            let t = &tokens[j];
            match t.text.as_str() {
                "{" if t.kind == TokenKind::Punct => depth += 1,
                "}" if t.kind == TokenKind::Punct => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        region_end = t.line;
                        j += 1;
                        break;
                    }
                }
                ";" if t.kind == TokenKind::Punct && depth == 0 => {
                    region_end = t.line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            region_end = t.line;
            j += 1;
        }
        lines.extend(region_start..=region_end);
        i = j.max(attr_end);
    }
    lines
}

/// Is `tokens[i..]` the start of an attribute (`#[…]` or `#![…]`)? Returns
/// the index one past its closing `]`.
fn attribute_at(tokens: &[Token], i: usize) -> (bool, usize) {
    if tokens.get(i).map(|t| t.text != "#").unwrap_or(true) {
        return (false, i);
    }
    let mut j = i + 1;
    if tokens.get(j).map(|t| t.text == "!").unwrap_or(false) {
        j += 1;
    }
    if tokens.get(j).map(|t| t.text != "[").unwrap_or(true) {
        return (false, i);
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (true, j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (true, tokens.len())
}

/// Lints one file's source text. `path` must be workspace-relative with
/// forward slashes — the rules' scoping predicates match on it.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let ctx = FileCtx {
        path,
        tokens: &lexed.tokens,
        blocks: group_comments(&lexed.comments),
        test_lines: test_region_lines(&lexed.tokens),
    };
    let mut diags = Vec::new();
    no_wall_clock(&ctx, &mut diags);
    launch_layer_only(&ctx, &mut diags);
    accounted_transfers(&ctx, &mut diags);
    no_panic_in_workers(&ctx, &mut diags);
    justified_allows(&ctx, &mut diags);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn emit(
    ctx: &FileCtx<'_>,
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    line: usize,
    msg: String,
) {
    if ctx.in_test(line) || ctx.suppressed(rule, line) {
        return;
    }
    diags.push(Diagnostic { path: ctx.path.to_string(), line, rule, message: msg });
}

fn no_wall_clock(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if wall_clock_allowed(ctx.path) {
        return;
    }
    for t in ctx.tokens {
        if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                ctx,
                diags,
                "no-wall-clock",
                t.line,
                format!(
                    "`{}` read outside the wall-profiling layer; measure through \
                     `gpu_sim::wall_timed` so wall time cannot leak into modeled-time \
                     arithmetic",
                    t.text
                ),
            );
        }
    }
}

fn launch_layer_only(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if is_gpu_sim(ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "LaunchConfig" {
            emit(
                ctx,
                diags,
                "launch-layer-only",
                t.line,
                "raw `LaunchConfig` outside gpu-sim; build launches with \
                 `KernelLaunch::on(device).grid(..).threads(..)`"
                    .to_string(),
            );
        }
        if t.text == "launch" && i > 0 && ctx.punct_at(i - 1, '.') && ctx.punct_at(i + 1, '(') {
            emit(
                ctx,
                diags,
                "launch-layer-only",
                t.line,
                "raw `.launch()` device call outside gpu-sim; go through the \
                 `KernelLaunch` builder so grid shape and stats accounting stay \
                 in the launch layer"
                    .to_string(),
            );
        }
    }
}

fn accounted_transfers(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if is_gpu_sim(ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "record_transfer" {
            emit(
                ctx,
                diags,
                "accounted-transfers",
                t.line,
                "raw `record_transfer` outside gpu-sim; use the accounted \
                 `upload_bytes`/`upload_slice`/`download_slice` helpers so every byte \
                 lands in the transfer ledger exactly once"
                    .to_string(),
            );
        }
        if t.text == "Transfer" && ctx.punct_at(i + 1, ':') && ctx.punct_at(i + 2, ':') {
            emit(
                ctx,
                diags,
                "accounted-transfers",
                t.line,
                "raw `Transfer` construction outside gpu-sim; the accounted \
                 upload/download helpers build and record transfers themselves"
                    .to_string(),
            );
        }
    }
}

fn no_panic_in_workers(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if !is_worker_hot_path(ctx.path) {
        return;
    }
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && ctx.punct_at(i - 1, '.')
            && ctx.punct_at(i + 1, '(')
        {
            emit(
                ctx,
                diags,
                "no-panic-in-workers",
                t.line,
                format!(
                    "`.{}()` in a scheduler/serve hot path; a panic here strands \
                     batches — use `gpu_sim::sync::locked`/`wait_on` for locks and the \
                     typed poison/strand paths for failures",
                    t.text
                ),
            );
        }
        if PANIC_MACROS.contains(&t.text.as_str()) && ctx.punct_at(i + 1, '!') {
            emit(
                ctx,
                diags,
                "no-panic-in-workers",
                t.line,
                format!(
                    "`{}!` in a scheduler/serve hot path; workers must fail through \
                     the typed poison/strand channel, not unwind",
                    t.text
                ),
            );
        }
    }
}

fn justified_allows(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    let mut i = 0usize;
    while i < ctx.tokens.len() {
        let (is_attr, end) = attribute_at(ctx.tokens, i);
        if !is_attr {
            i += 1;
            continue;
        }
        let has_allow = ctx.tokens[i..end].iter().any(|t| t.text == "allow");
        if has_allow {
            emit(
                ctx,
                diags,
                "justified-allows",
                ctx.tokens[i].line,
                "`#[allow(...)]` without a `lint-allow(justified-allows): reason` \
                 comment; write down why the lint does not apply here"
                    .to_string(),
            );
        }
        i = end;
    }
}

/// Recursively lints every `.rs` file under `root`, skipping `vendor/`,
/// `target/`, `.git/` and the linter's own violation fixtures. Returns the
/// diagnostics and the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        diags.extend(lint_source(rel, &src));
    }
    Ok((diags, files.len()))
}

const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}
