//! Property test: the JSON parser and the Chrome-trace importer never panic,
//! whatever text they are fed — they read user-supplied trace files
//! (`trace_check`, `trace_report`, `trace_sanitize`), so malformed input must
//! come back as an error.
//!
//! The vendored proptest stub has no string strategies, so documents are
//! built by indexing a palette of JSON fragments with generated index vectors.

use ftmap_trace::import_chrome_trace;
use ftmap_trace::json::parse;
use proptest::prelude::*;

/// Fragments of valid and broken JSON, trace-event keys among them, so
/// generated documents reach deep into both the parser and the importer.
const PALETTE: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"traceEvents\"",
    "\"ph\"",
    "\"X\"",
    "\"ts\"",
    "\"dur\"",
    "\"name\"",
    "\"args\"",
    "\"tid\"",
    "0",
    "-1.5e3",
    "1e999",
    "-",
    ".",
    "true",
    "nul",
    "\\",
    "\\u12",
    "\\uD800",
    "é€😀",
    "\u{0007}",
    " ",
];

fn document(indices: &[usize]) -> String {
    indices.iter().map(|&i| PALETTE[i % PALETTE.len()]).collect()
}

proptest! {
    #[test]
    fn parse_and_import_never_panic(
        indices in prop::collection::vec(0usize..PALETTE.len(), 0..64),
    ) {
        let text = document(&indices);
        let _ = parse(&text);
        let _ = import_chrome_trace(&text);
        let wrapped = format!("{{\"traceEvents\":[{text}]}}");
        let _ = parse(&wrapped);
        let _ = import_chrome_trace(&wrapped);
    }
}
