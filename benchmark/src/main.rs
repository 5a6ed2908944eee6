//! `ftmap-benchmark` — the two-clock benchmark of ftmap-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <map_direct|map_fft|map_minimize|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of `BENCHMARK.json` over a
//! window of identical seeded rounds; `--trace 1` is a separate run that
//! wraps spans around the calls into each layer and runs the per-layer
//! microbenches. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. `--aa <runs>` instead
//! re-runs this binary over every workload twice and prints the spread table
//! recorded in README.md. Diagnostics go to standard error.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod aa;
mod alloc;
mod clock;
mod fixture;
mod host;
mod layers;
mod metrics;
mod paper;
mod rounds;
mod run;
mod spans;
mod stats;
mod traced;
mod workload;

use run::RunOutput;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa_runs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 1, seconds: 30.0, trace: false, aa_runs: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--aa" => parsed.aa_runs = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload.is_none() && parsed.aa_runs.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(metric, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                ftmap_trace::json::number(*value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ftmap-benchmark: {message}");
            std::process::exit(2);
        }
    };
    if let Some(runs) = args.aa_runs {
        std::process::exit(aa::run(runs, args.seconds, args.workload));
    }
    let workload = args.workload.expect("checked by parse_args");
    let out = if args.trace {
        traced::per_layer(workload, args.seed, args.seconds)
    } else {
        run::end_to_end(workload, args.seed, args.seconds)
    };
    for (metric, value) in &out.metrics {
        assert!(value.is_finite(), "{} is not finite: {value}", metric.name);
    }
    println!("{}", result_json(&out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use ftmap_trace::json::{parse, JsonValue};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "42",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            args,
            Args {
                workload: Some(Workload::ServeMix),
                seed: 42,
                seconds: 30.0,
                trace: true,
                aa_runs: None
            }
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "map_fft", "--trace", "2"],
            &["--workload", "map_fft", "--seconds", "0"],
            &["--workload", "map_fft", "--seconds"],
            &["--workload", "map_fft", "--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_json_with_exactly_the_four_keys() {
        let out = RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: END_TO_END.iter().map(|m| (*m, 0.5)).collect(),
        };
        let line = result_json(&out);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("valid JSON");
        let JsonValue::Object(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
