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
//! | `unreferenced-pub` | every public item is referenced outside its own file's tests |
//! | `overexposed-pub` | every public item is named outside its own crate's library |
//!
//! Suppression: a comment containing `lint-allow(<rule>): <reason>` on the
//! same line as the finding, anywhere in a contiguous comment block that
//! spans the finding's line, or in a block ending on the line directly
//! above it. `#[cfg(test)]` (and `#[cfg(all(…, test, …))]`) regions are
//! skipped entirely — the invariants protect shipped modeled-timeline code,
//! not test scaffolding.
//!
//! The first five rules look at one file at a time. The two `pub` rules are
//! cross-file passes ([`lint_files`]) over one shared index of who names
//! what.
//!
//! `unreferenced-pub` audits the `pub` functions, constants, statics,
//! structs, enums, traits and type aliases declared in production code under
//! `crates/*/src`. A candidate is referenced when its identifier appears
//! outside a `use` declaration in any other scanned file, test code included
//! (a re-export is not a use; the name before a `use … as` rename is). In
//! its own file only non-test code counts, and for a type only a mention in
//! another `pub` item's signature or `pub` field — narrowing a type named
//! there would trip `private_interfaces`.
//!
//! `overexposed-pub` audits the same items, and `pub mod`s, in a crate's
//! library sources (`crates/<c>/src/` except `main.rs` and `src/bin/`). An
//! item stays `pub` when some other crate names it: another crate's
//! sources, any `tests/` or `benches/` file, a bin, the root package,
//! `examples/`, `benchmark/`, or a compiled doc-test. `use` paths count
//! there, so a module reached only through `use c::m::item` stays public. So
//! does a type named in the signature or `pub` field of an item that stays
//! `pub`. Anything else is flagged: `pub(crate)` when another file of the
//! crate, or code outside the item's inline module, names it; private
//! otherwise. An item `unreferenced-pub` reports is left to it (one finding
//! per item: delete it, do not narrow it).
//!
//! Both rules match by identifier, so they can only under-report: a dead
//! method that shares its name with a live one, or an internal item that
//! shares its name with something another crate names, is missed, but a live
//! item is never called dead and an item another crate names is never
//! called overexposed.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
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
    RuleInfo {
        name: "unreferenced-pub",
        summary: "every pub item under crates/*/src is referenced from another file \
                  (tests, examples and benchmark/ included) or from its own non-test code",
    },
    RuleInfo {
        name: "overexposed-pub",
        summary: "every pub item of a crate's library is named by another crate (its tests, \
                  benches, bins, doc-tests, examples, benchmark/ included) or by a pub \
                  signature that is; else pub(crate), or private if only its file names it",
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
        if !is_cfg_test(&tokens[i..attr_end]) {
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

/// Does this attribute compile its item only under test: `cfg(test)` or
/// `cfg(all(…, test, …))`? `cfg(not(test))` and `cfg(any(test, …))` items
/// also exist outside tests, so they are production code.
fn is_cfg_test(attr: &[Token]) -> bool {
    let texts: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    let args = match texts.iter().position(|&t| t == "cfg") {
        Some(at) if texts.get(at + 1) == Some(&"(") => &texts[at + 2..],
        _ => return false,
    };
    if args.starts_with(&["test", ")"]) {
        return true;
    }
    if !args.starts_with(&["all", "("]) {
        return false;
    }
    let mut depth = 0usize;
    for &t in &args[2..] {
        match t {
            "(" => depth += 1,
            ")" if depth == 0 => return false,
            ")" => depth -= 1,
            "test" if depth == 0 => return true,
            _ => {}
        }
    }
    false
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

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, lexed: &'a Lexed) -> Self {
        FileCtx {
            path,
            tokens: &lexed.tokens,
            blocks: group_comments(&lexed.comments),
            test_lines: test_region_lines(&lexed.tokens),
        }
    }

    /// The per-file rules, in reporting order.
    fn lint(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        no_wall_clock(self, &mut diags);
        launch_layer_only(self, &mut diags);
        accounted_transfers(self, &mut diags);
        no_panic_in_workers(self, &mut diags);
        justified_allows(self, &mut diags);
        diags
    }
}

/// Lints a set of `(path, source)` files as one workspace: every per-file
/// rule on each file, then the cross-file `unreferenced-pub` and
/// `overexposed-pub` passes over all of them. Paths must be workspace-relative with forward slashes — the rules'
/// scoping predicates match on them. Diagnostics come back sorted by path,
/// line and rule.
pub fn lint_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let ctxs: Vec<FileCtx<'_>> =
        files.iter().zip(&lexed).map(|((path, _), lexed)| FileCtx::new(path, lexed)).collect();
    let mut diags: Vec<Diagnostic> = ctxs.iter().flat_map(FileCtx::lint).collect();
    let index = PubIndex::new(&ctxs);
    unreferenced_pub(&ctxs, &index, &mut diags);
    overexposed_pub(&ctxs, &index, &mut diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
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
                 `upload_bytes`/`download_slice` helpers so every byte \
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

/// A `pub` declaration: an item (`kind` names it) or a `pub` field (`kind`
/// is `None`). `sig` is the token range whose type mentions make a type
/// public interface: a function's signature, a const's or static's type, an
/// enum's or trait's whole body, an alias, a field's type. `body` is a
/// struct's or union's field list (empty for everything else), so a field
/// can find the struct it belongs to.
struct PubDecl<'a> {
    kind: Option<&'a str>,
    name: usize,
    sig: Range<usize>,
    body: Range<usize>,
}

/// Index of the first `stop` token at bracket depth 0 from `from` on (a
/// closing bracket that would go below depth 0 also stops). `->` is not a
/// closing angle bracket.
fn scan_to(tokens: &[Token], from: usize, stop: &[&str]) -> usize {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut depth = 0usize;
    for i in from..tokens.len() {
        match text(i) {
            t if depth == 0 && stop.contains(&t) => return i,
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if text(i - 1) == "-" => {}
            ")" | "]" | "}" | ">" if depth == 0 => return i,
            ")" | "]" | "}" | ">" => depth -= 1,
            _ => {}
        }
    }
    tokens.len()
}

/// Every non-restricted `pub` declaration in `tokens`.
fn pub_decls(tokens: &[Token]) -> Vec<PubDecl<'_>> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let scan_to = |from: usize, stop: &[&str]| scan_to(tokens, from, stop);
    let mut decls = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "pub" || text(i + 1) == "(" {
            continue;
        }
        let mut j = i + 1;
        while matches!(text(j), "unsafe" | "async" | "extern")
            || tokens.get(j).is_some_and(|t| t.kind == TokenKind::Literal)
            || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe" | "async"))
        {
            j += 1;
        }
        let name = if text(j) == "static" && text(j + 1) == "mut" { j + 2 } else { j + 1 };
        let (kind, sig) = match text(j) {
            "use" | "crate" | "impl" | "macro_rules" => continue,
            "mod" => (Some("mod"), i..name + 1),
            "fn" => (Some("fn"), i..scan_to(j, &["{", ";"])),
            "const" | "static" => (Some(text(j)), i..scan_to(j, &["=", ";"])),
            "type" => (Some("type"), i..scan_to(j, &[";"])),
            "struct" | "union" => (Some(text(j)), i..name + 1),
            "enum" | "trait" => (Some(text(j)), i..scan_to(scan_to(j, &["{"]) + 1, &[]) + 1),
            _ if text(j + 1) == ":" && text(j + 2) != ":" => (None, j + 2..scan_to(j + 2, &[","])),
            _ => (None, j..scan_to(j, &[","])),
        };
        let body = match kind {
            Some("struct" | "union") => {
                let open = scan_to(name + 1, &["{", "(", ";"]);
                if text(open) == ";" {
                    0..0
                } else {
                    open..scan_to(open + 1, &[])
                }
            }
            _ => 0..0,
        };
        decls.push(PubDecl { kind, name, sig: sig.start..sig.end.min(tokens.len()), body });
    }
    decls
}

/// Production code whose `pub` items the `unreferenced-pub` rule audits.
fn is_crate_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// The crate whose library `path` belongs to: `<c>` for `crates/<c>/src/`,
/// except `src/main.rs` and `src/bin/`, which are crates of their own.
fn library_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let src = rest.strip_prefix("src/")?;
    (src != "main.rs" && !src.starts_with("bin/")).then_some(krate)
}

/// For each token, whether it lies in a `use` declaration (`use` … `;`). The
/// name before an `as` does not: it is used under its new name.
fn use_declaration_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut inside = false;
    let renamed = |i: usize| tokens.get(i + 1).is_some_and(|t| t.text == "as");
    tokens
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if t.kind == TokenKind::Ident && t.text == "use" {
                inside = true;
            }
            let this = inside && !renamed(i);
            if t.kind == TokenKind::Punct && t.text == ";" {
                inside = false;
            }
            this
        })
        .collect()
}

/// Does a doc-comment fence with this info string hold a compiled doc-test?
/// Rustdoc compiles an untagged fence and one tagged only with its own
/// attributes; `ignore`, `text` and any other language are not compiled.
fn compiled_fence(info: &str) -> bool {
    info.split(|c: char| c == ',' || c.is_whitespace()).filter(|t| !t.is_empty()).all(|t| {
        matches!(t, "rust" | "no_run" | "should_panic" | "compile_fail" | "test_harness")
            || t.starts_with("edition")
    })
}

/// The words of every line inside a compiled doc-test fence in a `///` or
/// `//!` comment. Each doc-test is a crate of its own, so what it names is
/// named from outside.
fn doctest_words(blocks: &[CommentBlock]) -> Vec<&str> {
    let mut words = Vec::new();
    for block in blocks {
        let mut fence = None; // Some(compiled) inside a fence
        for line in block.text.lines().map(str::trim_start) {
            let Some(doc) = line.strip_prefix("///").or_else(|| line.strip_prefix("//!")) else {
                continue;
            };
            if doc.starts_with('/') {
                continue; // `////` is a plain comment
            }
            if let Some(info) = doc.trim_start().strip_prefix("```") {
                fence = if fence.is_some() { None } else { Some(compiled_fence(info)) };
            } else if fence == Some(true) {
                let is_word = |w: &&str| w.starts_with(|c: char| c == '_' || c.is_alphabetic());
                words.extend(doc.split(|c: char| c != '_' && !c.is_alphanumeric()).filter(is_word));
            }
        }
    }
    words
}

/// The token ranges of every inline `mod name { … }` body in `tokens`.
fn inline_mod_bodies(tokens: &[Token]) -> Vec<Range<usize>> {
    let opens =
        |i: &usize| tokens[*i].text == "mod" && tokens.get(i + 2).is_some_and(|t| t.text == "{");
    (0..tokens.len()).filter(opens).map(|i| i + 2..scan_to(tokens, i + 3, &[])).collect()
}

/// The cross-file index both `pub` rules read.
struct PubIndex<'f> {
    /// Each file's `pub` declarations.
    decls: Vec<Vec<PubDecl<'f>>>,
    /// Each file's tokens: whether each lies in a `use` declaration.
    in_use: Vec<Vec<bool>>,
    /// identifier -> the files that mention it outside `use` declarations.
    used_in: BTreeMap<&'f str, BTreeSet<usize>>,
    /// identifier -> every `(crate, file)` that names it, `use` paths
    /// included. The crate is `Some(c)` in `c`'s library sources and `None`
    /// in every other crate: bins, tests, benches, examples, the root
    /// package, `benchmark/` and doc-tests.
    named_by: BTreeMap<&'f str, BTreeSet<(Option<&'f str>, usize)>>,
}

impl<'f> PubIndex<'f> {
    fn new(files: &'f [FileCtx<'_>]) -> Self {
        let mut index = PubIndex {
            decls: Vec::new(),
            in_use: Vec::new(),
            used_in: BTreeMap::new(),
            named_by: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            let in_use = use_declaration_tokens(file.tokens);
            let krate = library_crate(file.path);
            for (t, &used) in file.tokens.iter().zip(&in_use) {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                if !used {
                    index.used_in.entry(t.text.as_str()).or_default().insert(fi);
                }
                index.named_by.entry(t.text.as_str()).or_default().insert((krate, fi));
            }
            for word in doctest_words(&file.blocks) {
                index.named_by.entry(word).or_default().insert((None, fi));
            }
            index.decls.push(pub_decls(file.tokens));
            index.in_use.push(in_use);
        }
        index
    }

    fn name(&self, files: &'f [FileCtx<'_>], fi: usize, d: usize) -> &'f str {
        files[fi].tokens[self.decls[fi][d].name].text.as_str()
    }

    /// Is item `d` of file `fi` what `unreferenced-pub` reports: named by no
    /// other file outside `use` declarations, and in its own file by no live
    /// code (for a type, by no other `pub` signature or field)?
    fn unreferenced(&self, files: &'f [FileCtx<'_>], fi: usize, d: usize) -> bool {
        let (file, decl, name) = (&files[fi], &self.decls[fi][d], self.name(files, fi, d));
        if self.used_in.get(name).is_some_and(|files| files.iter().any(|&other| other != fi)) {
            return false;
        }
        let live_code = |k: &usize| !self.in_use[fi][*k] && !file.in_test(file.tokens[*k].line);
        let names_it = |k: &usize| *k != decl.name && file.tokens[*k].text == name;
        if matches!(decl.kind, Some("fn" | "const" | "static")) {
            !(0..file.tokens.len()).filter(live_code).any(|k| names_it(&k))
        } else {
            let others = self.decls[fi].iter().filter(|o| o.name != decl.name);
            !others.flat_map(|o| o.sig.clone()).filter(live_code).any(|k| names_it(&k))
        }
    }
}

fn unreferenced_pub(files: &[FileCtx<'_>], index: &PubIndex<'_>, diags: &mut Vec<Diagnostic>) {
    for (fi, file) in files.iter().enumerate().filter(|(_, f)| is_crate_src(f.path)) {
        for (d, decl) in index.decls[fi].iter().enumerate() {
            let Some(kind) = decl.kind.filter(|&k| k != "mod") else { continue };
            if !index.unreferenced(files, fi, d) {
                continue;
            }
            let name = index.name(files, fi, d);
            emit(
                file,
                diags,
                "unreferenced-pub",
                file.tokens[decl.name].line,
                format!(
                    "`pub {kind} {name}` is referenced nowhere outside its own file's tests; \
                     delete it together with the tests whose only subject it is, make it \
                     `pub(crate)`/private, or justify it with \
                     `lint-allow(unreferenced-pub): <reason>`"
                ),
            );
        }
    }
}

/// An item `overexposed-pub` audits, and whether it stays `pub`.
struct Audited<'f> {
    file: usize,
    decl: usize,
    krate: &'f str,
    stays: bool,
}

fn overexposed_pub(files: &[FileCtx<'_>], index: &PubIndex<'_>, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "overexposed-pub";
    let mut items: Vec<Audited<'_>> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let Some(krate) = library_crate(file.path) else { continue };
        for (d, decl) in index.decls[fi].iter().enumerate() {
            let line = file.tokens[decl.name].line;
            if decl.kind.is_none() || file.in_test(line) {
                continue;
            }
            let named_by = &index.named_by[index.name(files, fi, d)];
            let stays = named_by.iter().any(|&(c, _)| c != Some(krate))
                || file.suppressed(RULE, line)
                || (decl.kind != Some("mod") && index.unreferenced(files, fi, d));
            items.push(Audited { file: fi, decl: d, krate, stays });
        }
    }
    // A type named in the signature of an item that stays `pub`, or in a
    // `pub` field of a struct that stays `pub`, stays `pub` too: narrowing it
    // would trip rustc's `private_interfaces`.
    let mut types: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, it) in items.iter().enumerate() {
        let kind = index.decls[it.file][it.decl].kind;
        if matches!(kind, Some("struct" | "union" | "enum" | "trait" | "type")) {
            types.entry((it.krate, index.name(files, it.file, it.decl))).or_default().push(i);
        }
    }
    let mut kept: Vec<usize> = (0..items.len()).filter(|&i| items[i].stays).collect();
    while let Some(i) = kept.pop() {
        let (file, krate) = (&files[items[i].file], items[i].krate);
        let decls = &index.decls[items[i].file];
        let decl = &decls[items[i].decl];
        let fields = decls.iter().filter(|f| f.kind.is_none() && decl.body.contains(&f.name));
        for k in std::iter::once(decl).chain(fields).flat_map(|d| d.sig.clone()) {
            for &j in types.get(&(krate, file.tokens[k].text.as_str())).into_iter().flatten() {
                if !items[j].stays {
                    items[j].stays = true;
                    kept.push(j);
                }
            }
        }
    }
    for it in items.iter().filter(|it| !it.stays) {
        let (file, decl) = (&files[it.file], &index.decls[it.file][it.decl]);
        let (kind, name) = (decl.kind.unwrap_or_default(), index.name(files, it.file, it.decl));
        // Private reaches the module the item is declared in, which is its
        // file unless an inline `mod { … }` in the file encloses it.
        let module = inline_mod_bodies(file.tokens)
            .into_iter()
            .filter(|body| body.contains(&decl.name))
            .min_by_key(|body| body.len())
            .unwrap_or(0..file.tokens.len());
        let beyond_module =
            (0..file.tokens.len()).any(|k| !module.contains(&k) && file.tokens[k].text == name);
        let crate_wide = beyond_module
            || index.named_by[name].iter().any(|&(c, f)| c == Some(it.krate) && f != it.file);
        let (scope, fix) = match (crate_wide, kind) {
            (true, _) => ("its own crate", "`pub(crate)`"),
            (false, "fn" | "const" | "static" | "mod") => ("its own file", "private"),
            // A private type named by a `pub(crate)` signature in a submodule
            // would trip `private_interfaces`.
            (false, _) => {
                ("its own file", "private (`pub(crate)` if a `pub(crate)` signature names it)")
            }
        };
        emit(
            file,
            diags,
            RULE,
            file.tokens[decl.name].line,
            format!(
                "`pub {kind} {name}` is named nowhere outside {scope}; make it {fix}, or \
                 justify it with `lint-allow(overexposed-pub): <reason>`"
            ),
        );
    }
}

/// Recursively lints every `.rs` file under `root`, skipping `vendor/`,
/// `target/`, `.git/` and the linter's own violation fixtures. Returns the
/// diagnostics and the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let sources = paths
        .iter()
        .map(|rel| std::fs::read_to_string(root.join(rel)))
        .collect::<std::io::Result<Vec<_>>>()?;
    let files: Vec<(&str, &str)> =
        paths.iter().map(String::as_str).zip(sources.iter().map(String::as_str)).collect();
    Ok((lint_files(&files), files.len()))
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
