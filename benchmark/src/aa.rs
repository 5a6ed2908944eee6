//! A/A mode (`--aa <runs>`): re-runs this binary `runs` times per workload,
//! twice over, each run on another seed, and prints — per workload and
//! end-to-end metric — the median, quartiles and spread of each set against
//! the metric's bound in `BENCHMARK.json`, the way the driver judges the
//! benchmark: the interquartile distance of a set as a share of its median
//! must stay within the bound (except for `setup_s`), and the second set's
//! median must not be worse than the first's by more than the bound.
//!
//! The two sets interleave and the workload order alternates from seed to
//! seed, so slow drift of the box lands on both sets alike.

use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;
use ftmap_trace::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

/// One end-to-end metric's contract, from `BENCHMARK.json`.
struct Contract {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn contracts() -> Vec<Contract> {
    let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let entries = doc.get("end_to_end").and_then(JsonValue::as_array).expect("end_to_end array");
    entries
        .iter()
        .map(|entry| {
            let text =
                |key: &str| entry.get(key).and_then(JsonValue::as_str).expect("string field");
            Contract {
                name: text("name").to_string(),
                lower_is_better: text("better") == "lower",
                bound: entry.get("bound").and_then(JsonValue::as_f64).expect("bound"),
            }
        })
        .collect()
}

/// Runs one untraced benchmark process and returns its metrics by name.
fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = parse(line)
        .map_err(|e| format!("{} seed {seed}: bad result line: {e:?}", workload.name()))?;
    let correct = matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
    let failed = doc.get("failed").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    if !output.status.success() || !correct || failed != 0.0 {
        return Err(format!(
            "{} seed {seed}: exit {:?}, correct {correct}, failed {failed}\n{}",
            workload.name(),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics object".to_string());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// How much worse `second` is than `first`, as a share of `first` (negative
/// when it is better).
fn worse_by(first: f64, second: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { second - first } else { first - second };
    if first == 0.0 {
        0.0
    } else {
        delta / first.abs()
    }
}

/// Runs the A/A comparison and prints the table; returns the process exit
/// code (0 when every metric of every workload is within its bound).
pub fn run(runs: usize, seconds: f64, only: Option<Workload>) -> i32 {
    let runs = runs.max(2);
    let workloads: Vec<Workload> =
        Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)).collect();
    // samples[workload][metric] = (first set, second set)
    let mut samples: BTreeMap<&str, BTreeMap<String, [Vec<f64>; 2]>> = BTreeMap::new();
    for seed in 1..=runs as u64 {
        for set in 0..2 {
            let mut order = workloads.clone();
            if (seed as usize + set) % 2 == 1 {
                order.reverse();
            }
            for workload in order {
                eprintln!("a/a: {} seed {seed} set {}", workload.name(), set + 1);
                match one_run(workload, seed, seconds) {
                    Ok(metrics) => {
                        eprintln!("a/a: {metrics:?}");
                        for (name, value) in metrics {
                            samples.entry(workload.name()).or_default().entry(name).or_default()
                                [set]
                                .push(value);
                        }
                    }
                    Err(message) => {
                        eprintln!("a/a: {message}");
                        return 1;
                    }
                }
            }
        }
    }

    let contracts = contracts();
    let mut all_within = true;
    println!("| workload | metric | bound | median 1 | q1..q3 1 | spread 1 | median 2 | spread 2 | 2 worse by | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in &workloads {
        for contract in &contracts {
            let Some([first, second]) =
                samples.get(workload.name()).and_then(|m| m.get(&contract.name))
            else {
                continue;
            };
            let (m1, m2) = (median(first), median(second));
            let (q1, q3) = quartiles(first);
            let (s1, s2) = (spread(first), spread(second));
            let worse = worse_by(m1, m2, contract.lower_is_better);
            let spread_ok = contract.name == "setup_s" || s1.max(s2) <= contract.bound;
            let within = spread_ok && worse <= contract.bound;
            all_within &= within;
            println!(
                "| {} | {} | {} | {:.6} | {:.6}..{:.6} | {:.4} | {:.6} | {:.4} | {:+.4} | {} |",
                workload.name(),
                contract.name,
                contract.bound,
                m1,
                q1,
                q3,
                s1,
                m2,
                s2,
                worse,
                if within { "within" } else { "OUTSIDE" }
            );
        }
    }
    i32::from(!all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 1.0, true), 0.0);
    }

    #[test]
    fn every_contract_has_a_direction_and_a_bound_within_the_cap() {
        let contracts = contracts();
        assert_eq!(contracts.len(), crate::metrics::END_TO_END.len());
        assert!(contracts.iter().all(|c| c.bound > 0.0 && c.bound <= 0.25));
        let setup = contracts.iter().find(|c| c.name == "setup_s").expect("setup_s is listed");
        assert!(setup.lower_is_better);
    }
}
