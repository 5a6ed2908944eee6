//! Per-rule fixture tests: every rule catches its seeded violations, stays
//! quiet on sanctioned shapes, honors suppressions and test regions — and
//! the workspace itself lints clean.
//!
//! Fixtures live in `tests/fixtures/` (never compiled; the directory is
//! also excluded from workspace scans). Violation lines are marked with a
//! trailing `… violation …` comment, so expectations are derived from the
//! fixture text itself instead of hard-coded line numbers.

use ftmap_lint::{lint_files, lint_workspace, Diagnostic};

const NO_WALL_CLOCK: &str = include_str!("fixtures/no_wall_clock.rs");
const LAUNCH_LAYER: &str = include_str!("fixtures/launch_layer.rs");
const TRANSFERS: &str = include_str!("fixtures/transfers.rs");
const PANICS: &str = include_str!("fixtures/panics.rs");
const ALLOWS: &str = include_str!("fixtures/allows.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const CFG_REGIONS: &str = include_str!("fixtures/cfg_regions.rs");
const UNREFERENCED_PUB: &str = include_str!("fixtures/unreferenced_pub.rs");

/// A path every path-scoped rule applies to.
const HOT_PATH: &str = "crates/gpu-sim/src/sched/fixture.rs";
/// A modeled-code path outside every allowlist.
const MODELED_PATH: &str = "crates/ftmap-core/src/fixture.rs";

/// Lints one file on its own, as if it were the whole workspace.
fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_files(&[(path, src)])
}

/// Lines whose trailing marker comment declares them violations. `two
/// violations` marks a line expected to fire twice.
fn marked_lines(fixture: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    for (idx, line) in fixture.lines().enumerate() {
        if let Some(comment) = line.split("//").nth(1) {
            // The marker is the colon form (`: violation`, `: two
            // violations`) so prose mentioning "violations" in fixture
            // headers does not count.
            if comment.contains(": violation") || comment.contains(": two violations") {
                lines.push(idx + 1);
                if comment.contains("two violations") {
                    lines.push(idx + 1);
                }
            }
        }
    }
    lines
}

fn diag_lines(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .inspect(|d| assert_eq!(d.rule, rule, "unexpected rule fired: {d}"))
        .map(|d| d.line)
        .collect()
}

#[test]
fn no_wall_clock_catches_seeded_violations() {
    let diags = lint_one(MODELED_PATH, NO_WALL_CLOCK);
    assert_eq!(diag_lines(&diags, "no-wall-clock"), marked_lines(NO_WALL_CLOCK));
    assert!(diags.iter().all(|d| d.message.contains("wall_timed")));
}

#[test]
fn no_wall_clock_allowlists_profiling_layer_and_benches() {
    for path in [
        "crates/gpu-sim/src/timing.rs",
        "crates/gpu-sim/src/device.rs",
        "crates/ftmap-bench/benches/fig_fixture.rs",
    ] {
        assert!(
            lint_one(path, NO_WALL_CLOCK).is_empty(),
            "{path} should be allowlisted for wall-clock reads"
        );
    }
}

#[test]
fn launch_layer_only_catches_seeded_violations() {
    let diags = lint_one("crates/piper-dock/src/fixture.rs", LAUNCH_LAYER);
    assert_eq!(diag_lines(&diags, "launch-layer-only"), marked_lines(LAUNCH_LAYER));
}

#[test]
fn launch_layer_raw_api_is_free_inside_gpu_sim() {
    assert!(lint_one("crates/gpu-sim/src/launch.rs", LAUNCH_LAYER).is_empty());
}

#[test]
fn accounted_transfers_catches_seeded_violations() {
    let diags = lint_one(MODELED_PATH, TRANSFERS);
    assert_eq!(diag_lines(&diags, "accounted-transfers"), marked_lines(TRANSFERS));
}

#[test]
fn accounted_transfers_is_free_inside_gpu_sim() {
    assert!(lint_one("crates/gpu-sim/src/memory.rs", TRANSFERS).is_empty());
}

#[test]
fn no_panic_in_workers_catches_seeded_violations() {
    let diags = lint_one(HOT_PATH, PANICS);
    assert_eq!(diag_lines(&diags, "no-panic-in-workers"), marked_lines(PANICS));
    let serve = lint_one("crates/ftmap-serve/src/fixture.rs", PANICS);
    assert_eq!(serve.len(), diags.len(), "serve hot paths use the same rule scope");
}

#[test]
fn no_panic_rule_only_covers_hot_paths() {
    assert!(
        lint_one(MODELED_PATH, PANICS).is_empty(),
        "panic shapes outside sched/serve are not this rule's business"
    );
}

#[test]
fn justified_allows_catches_seeded_violations() {
    let diags = lint_one(MODELED_PATH, ALLOWS);
    assert_eq!(diag_lines(&diags, "justified-allows"), marked_lines(ALLOWS));
}

#[test]
fn clean_fixture_is_clean_under_the_strictest_path() {
    let diags = lint_one(HOT_PATH, CLEAN);
    assert!(diags.is_empty(), "clean fixture produced: {diags:?}");
}

#[test]
fn every_fixture_rule_pairing_is_exclusive() {
    // A fixture seeded for one rule must not trip others under its test
    // path (guards against rules bleeding into each other's token shapes).
    for (fixture, path) in [
        (NO_WALL_CLOCK, MODELED_PATH),
        (TRANSFERS, MODELED_PATH),
        (ALLOWS, MODELED_PATH),
        (PANICS, HOT_PATH),
        (CFG_REGIONS, MODELED_PATH),
    ] {
        let rules: std::collections::BTreeSet<&str> =
            lint_one(path, fixture).iter().map(|d| d.rule).collect();
        assert!(rules.len() <= 1, "fixture tripped multiple rules: {rules:?}");
    }
}

#[test]
fn only_cfg_test_and_cfg_all_test_are_test_regions() {
    let diags = lint_one(MODELED_PATH, CFG_REGIONS);
    assert_eq!(diag_lines(&diags, "no-wall-clock"), marked_lines(CFG_REGIONS));
}

/// The `unreferenced-pub` fixture as a crate's root module, next to a sibling
/// module, an integration test and a benchmark source that use some of it.
fn unreferenced_pub_workspace() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/demo/src/lib.rs", UNREFERENCED_PUB),
        (
            "crates/demo/src/sibling.rs",
            "pub use crate::ONLY_REEXPORTED;\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
             fn calls_the_root_module() {\n        crate::used_by_sibling_tests();\n    }\n}\n",
        ),
        (
            "tests/demo.rs",
            "use demo::used_by_integration_test;\n\nfn takes(_: demo::Holder) {}\n\n#[test]\n\
             fn integration() {\n    used_by_integration_test();\n    let _ = demo::make_named();\n}\n",
        ),
        ("benchmark/src/main.rs", "fn main() {\n    demo::used_by_benchmark();\n}\n"),
    ]
}

#[test]
fn unreferenced_pub_catches_seeded_violations() {
    let diags = lint_files(&unreferenced_pub_workspace());
    assert!(diags.iter().all(|d| d.path == "crates/demo/src/lib.rs"), "{diags:?}");
    assert_eq!(diag_lines(&diags, "unreferenced-pub"), marked_lines(UNREFERENCED_PUB));
    assert!(diags[0].message.contains("`pub fn only_declared`"), "{}", diags[0]);
    assert!(diags.iter().all(|d| d.message.contains("lint-allow(unreferenced-pub): <reason>")));
}

#[test]
fn unreferenced_pub_is_kept_off_by_each_referencing_file() {
    // Dropping one referencing file flags exactly the items only it used.
    let workspace = unreferenced_pub_workspace();
    let baseline = lint_files(&workspace).len();
    for (dropped, now_flagged) in [
        ("crates/demo/src/sibling.rs", &["used_by_sibling_tests"][..]),
        ("tests/demo.rs", &["used_by_integration_test", "Holder", "make_named"]),
        ("benchmark/src/main.rs", &["used_by_benchmark"]),
    ] {
        let rest: Vec<_> = workspace.iter().copied().filter(|(path, _)| *path != dropped).collect();
        let diags = lint_files(&rest);
        assert_eq!(diags.len(), baseline + now_flagged.len(), "without {dropped}: {diags:?}");
        for name in now_flagged {
            assert!(
                diags.iter().any(|d| d.message.contains(&format!(" {name}`"))),
                "without {dropped}, {name} should be flagged: {diags:?}"
            );
        }
    }
}

#[test]
fn unreferenced_pub_only_audits_crate_sources() {
    // The same items declared in an example, a test or a benchmark are never
    // candidates: only `crates/*/src` is public API.
    for path in ["examples/demo.rs", "crates/demo/tests/demo.rs", "benchmark/src/demo.rs"] {
        assert!(lint_files(&[(path, UNREFERENCED_PUB)]).is_empty(), "{path}");
    }
}

#[test]
fn workspace_lints_clean() {
    // The same invocation CI gates on: the shipped tree has zero violations.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crate lives at crates/ftmap-lint")
        .to_path_buf();
    let (diags, files) = lint_workspace(&root).expect("workspace scan");
    assert!(files > 50, "scan found only {files} files — wrong root?");
    assert!(diags.is_empty(), "workspace violations:\n{}", {
        let mut s = String::new();
        for d in &diags {
            s.push_str(&format!("{d}\n"));
        }
        s
    });
}

#[test]
fn diagnostics_render_machine_readable() {
    let diags = lint_one(MODELED_PATH, "use std::time::Instant;\n");
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/ftmap-core/src/fixture.rs:1: no-wall-clock: "),
        "got: {rendered}"
    );
}
