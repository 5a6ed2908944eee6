//! The `report` binary's command line.

use std::process::Command;

#[test]
fn an_unknown_experiment_fails_and_lists_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_report")).arg("tabel1").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "an unknown name must not exit 0");
    assert!(out.stdout.is_empty(), "nothing runs: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `tabel1`"), "{stderr}");
    for name in ["all", "table1", "table2", "fig3a", "fig3b", "pairslist-schemes", "overall"] {
        assert!(stderr.split_whitespace().any(|word| word == name), "{name} missing: {stderr}");
    }
}
