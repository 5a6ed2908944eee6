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
//!
//! Suppression: a comment containing `lint-allow(<rule>): <reason>` on the
//! same line as the finding, anywhere in a contiguous comment block that
//! spans the finding's line, or in a block ending on the line directly
//! above it. `#[cfg(test)]` (and `#[cfg(all(…, test, …))]`) regions are
//! skipped entirely — the invariants protect shipped modeled-timeline code,
//! not test scaffolding.
//!
//! The first five rules look at one file at a time. `unreferenced-pub` is
//! the one cross-file pass ([`lint_files`]). Its candidates are the `pub`
//! functions, constants, statics, structs, enums, traits and type aliases
//! declared in production code under `crates/*/src`. A candidate is
//! referenced when its identifier appears outside a `use` declaration in any
//! other scanned file, test code included (a re-export is not a use). In its
//! own file only non-test code counts, and for a type only a mention in
//! another `pub` item's signature or `pub` field — narrowing a type named
//! there would trip `private_interfaces`. Matching is by identifier, so a
//! dead method that shares its name with a live one is missed: the rule can
//! miss dead items, but never calls a live one dead.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
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
    RuleInfo {
        name: "unreferenced-pub",
        summary: "every pub item under crates/*/src is referenced from another file \
                  (tests, examples and benchmark/ included) or from its own non-test code",
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
/// rule on each file, then the cross-file `unreferenced-pub` pass over all of
/// them. Paths must be workspace-relative with forward slashes — the rules'
/// scoping predicates match on them. Diagnostics come back sorted by path,
/// line and rule.
pub fn lint_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let ctxs: Vec<FileCtx<'_>> =
        files.iter().zip(&lexed).map(|((path, _), lexed)| FileCtx::new(path, lexed)).collect();
    let mut diags: Vec<Diagnostic> = ctxs.iter().flat_map(FileCtx::lint).collect();
    unreferenced_pub(&ctxs, &mut diags);
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
                 `upload_bytes`/`upload_words`/`download_slice` helpers so every byte \
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
/// enum's or trait's whole body, an alias, a field's type.
struct PubDecl<'a> {
    kind: Option<&'a str>,
    name: usize,
    sig: std::ops::Range<usize>,
}

/// Every non-restricted `pub` declaration in `tokens`.
fn pub_decls(tokens: &[Token]) -> Vec<PubDecl<'_>> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    // Index of the first `stop` token at bracket depth 0 from `from` on (a
    // closing bracket that would go below depth 0 also stops). `->` is not
    // a closing angle bracket.
    let scan_to = |from: usize, stop: &[&str]| {
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
    };
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
            "mod" | "use" | "crate" | "impl" | "macro_rules" => continue,
            "fn" => (Some("fn"), i..scan_to(j, &["{", ";"])),
            "const" | "static" => (Some(text(j)), i..scan_to(j, &["=", ";"])),
            "type" => (Some("type"), i..scan_to(j, &[";"])),
            "struct" | "union" => (Some(text(j)), i..name + 1),
            "enum" | "trait" => (Some(text(j)), i..scan_to(scan_to(j, &["{"]) + 1, &[]) + 1),
            _ if text(j + 1) == ":" && text(j + 2) != ":" => (None, j + 2..scan_to(j + 2, &[","])),
            _ => (None, j..scan_to(j, &[","])),
        };
        decls.push(PubDecl { kind, name, sig: sig.start..sig.end.min(tokens.len()) });
    }
    decls
}

/// Production code whose `pub` items the `unreferenced-pub` rule audits.
fn is_crate_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// For each token, whether it lies in a `use` declaration (`use` … `;`).
fn use_declaration_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut inside = false;
    tokens
        .iter()
        .map(|t| {
            if t.kind == TokenKind::Ident && t.text == "use" {
                inside = true;
            }
            let this = inside;
            if t.kind == TokenKind::Punct && t.text == ";" {
                inside = false;
            }
            this
        })
        .collect()
}

fn unreferenced_pub(files: &[FileCtx<'_>], diags: &mut Vec<Diagnostic>) {
    let in_use: Vec<Vec<bool>> = files.iter().map(|f| use_declaration_tokens(f.tokens)).collect();
    // identifier -> the files that mention it outside `use` declarations.
    let mut mentioned_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (t, _) in
            file.tokens.iter().zip(&in_use[fi]).filter(|(t, u)| !**u && t.kind == TokenKind::Ident)
        {
            mentioned_in.entry(t.text.as_str()).or_default().insert(fi);
        }
    }
    for (fi, file) in files.iter().enumerate().filter(|(_, f)| is_crate_src(f.path)) {
        let decls = pub_decls(file.tokens);
        let live_code = |k: &usize| !in_use[fi][*k] && !file.in_test(file.tokens[*k].line);
        for decl in decls.iter().filter(|d| d.kind.is_some()) {
            let Some(name) = file.tokens.get(decl.name).map(|t| t.text.as_str()) else { continue };
            if mentioned_in.get(name).is_some_and(|files| files.iter().any(|&other| other != fi)) {
                continue;
            }
            let names_it = |k: &usize| *k != decl.name && file.tokens[*k].text == name;
            let own_use = if matches!(decl.kind, Some("fn" | "const" | "static")) {
                (0..file.tokens.len()).filter(live_code).any(|k| names_it(&k))
            } else {
                let others = decls.iter().filter(|d| d.name != decl.name);
                others.flat_map(|d| d.sig.clone()).filter(live_code).any(|k| names_it(&k))
            };
            if own_use {
                continue;
            }
            let kind = decl.kind.unwrap_or_default();
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
