//! Property test: banned constructs embedded in comments, strings, raw
//! strings, byte strings and block comments NEVER produce diagnostics —
//! i.e. the lexer cannot be tricked into reading data as code.
//!
//! The vendored proptest stub has no string strategies, so payloads are
//! built by indexing a palette of the nastiest fragments with generated
//! index vectors, and the wrapper form (line comment / block comment /
//! string / raw string / byte string) is itself a generated choice.

use ftmap_lint::lint_files;
use proptest::prelude::*;

/// Fragments that would each fire a rule if lexed as code on a hot path.
/// Every item is newline-free, contains no `*/` (block-comment safe) and no
/// `"#` (raw-string safe).
const PALETTE: &[&str] = &[
    "Instant::now()",
    "SystemTime::now()",
    "state.lock().unwrap()",
    ".expect(\"boom\")",
    "panic!(\"dead\")",
    "unreachable!()",
    "todo!()",
    "LaunchConfig::new(64, 128)",
    "device.launch(&config, &kernel)",
    "record_transfer(Transfer::upload(8))",
    "Transfer::download(1024)",
    "#[allow(dead_code)]",
    "lint-allow(no-wall-clock): not a real suppression target",
    "\\",              // a lone backslash stresses escape handling
    "' \" r# b\" br#", // quote/prefix soup
];

/// The strictest scope: every path-scoped rule applies here.
const HOT_PATH: &str = "crates/gpu-sim/src/sched/fuzz.rs";

fn payload(indices: &[usize]) -> String {
    let mut out = String::new();
    for (k, &i) in indices.iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(PALETTE[i % PALETTE.len()]);
    }
    out
}

/// Escapes a payload for embedding in an ordinary `"…"` literal.
fn escape(payload: &str) -> String {
    payload.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Wraps the payload in the chosen non-code form inside a clean scaffold.
fn embed(form: usize, payload: &str) -> String {
    match form % 5 {
        0 => format!("fn scaffold() {{\n    // {payload}\n    let x = 1;\n}}\n"),
        1 => format!("fn scaffold() {{\n    /* {payload} */\n    let x = 1;\n}}\n"),
        2 => {
            let escaped = escape(payload);
            format!("fn scaffold() {{\n    let s = \"{escaped}\";\n    let x = s.len();\n}}\n")
        }
        3 => format!("fn scaffold() {{\n    let s = r#\"{payload}\"#;\n    let x = s.len();\n}}\n"),
        _ => {
            format!("fn scaffold() {{\n    let s = b\"{}\";\n    let x = 1;\n}}\n", escape(payload))
        }
    }
}

proptest! {
    #[test]
    fn embedded_payloads_never_lint(
        form in 0usize..5,
        indices in prop::collection::vec(0usize..PALETTE.len(), 1..8),
    ) {
        let src = embed(form, &payload(&indices));
        let diags = lint_files(&[(HOT_PATH, &src)]);
        prop_assert!(
            diags.is_empty(),
            "payload leaked out of its wrapper: {:?}\nsource:\n{}",
            diags,
            src
        );
    }

    #[test]
    fn code_after_the_wrapper_still_lints(
        form in 0usize..5,
        indices in prop::collection::vec(0usize..PALETTE.len(), 1..8),
    ) {
        // The dual property: a real violation *after* the wrapped payload
        // must still be seen — the wrapper cannot swallow trailing code.
        let mut src = embed(form, &payload(&indices));
        src.push_str("fn tail(v: Option<u32>) -> u32 { v.unwrap() }\n");
        let diags = lint_files(&[(HOT_PATH, &src)]);
        prop_assert!(
            diags.len() == 1 && diags[0].rule == "no-panic-in-workers",
            "expected exactly the tail unwrap, got: {diags:?}\nsource:\n{src}"
        );
    }
}
