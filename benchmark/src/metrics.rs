//! The metric names and units this harness prints — the same lists, in the
//! same order, as `BENCHMARK.json` (a unit test holds the two together).
//! Later issues refer to these names; treat them as an interface.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s"),
    m("req_per_wall_s", "1/s"),
    m("modeled_s_per_req", "s"),
    m("modeled_latency_p50_s", "s"),
    m("modeled_latency_p95_s", "s"),
    m("alloc_mib_per_req", "MiB"),
    m("paper_err_log2", "log2"),
];

/// Per-layer metrics (`--trace 1`), grouped by the crate they attribute to.
pub const PER_LAYER: [Metric; 114] = [
    // ftmap-math → req_per_wall_s on map_fft; plan_new → setup_s.
    m("ftmap-math.fft3_32.ns_per_point", "ns/point"),
    m("ftmap-math.fft3_64.ns_per_point", "ns/point"),
    m("ftmap-math.fft3_32.flops", "flop"),
    m("ftmap-math.correlate_real_32.ms", "ms"),
    m("ftmap-math.plan_new_32.us", "us"),
    // ftmap-molecule → map_minimize, setup_s.
    m("ftmap-molecule.protein_generate.ms", "ms"),
    m("ftmap-molecule.complex_new.us", "us"),
    m("ftmap-molecule.neighbor_build.ms", "ms"),
    m("ftmap-molecule.neighbor_build.pairs", "count"),
    // gpu-sim → map_minimize and serve_mix (launch, sched), p95 on serve_mix (skew).
    m("gpu-sim.launch_empty.us", "us"),
    m("gpu-sim.launch_empty_64blocks.us", "us"),
    m("gpu-sim.kernel_events_per_req", "count"),
    m("gpu-sim.residency_hit.ns", "ns"),
    m("gpu-sim.residency_derived_hit.ns", "ns"),
    m("gpu-sim.residency_miss_insert.ns", "ns"),
    m("gpu-sim.residency_evict.ns", "ns"),
    m("gpu-sim.sched.item_1dev.us", "us"),
    m("gpu-sim.sched.item_2dev.us", "us"),
    m("gpu-sim.sched.shardqueue_item_2dev.us", "us"),
    m("gpu-sim.sched.device_skew", "frac"),
    m("gpu-sim.sched.overlap_saved_frac", "frac"),
    m("gpu-sim.host_s_per_modeled_s", "s/s"),
    // piper-dock → map_direct (gpu/direct rows), map_fft (fft rows), paper_err_log2.
    m("piper-dock.receptor_build_32.ms", "ms"),
    m("piper-dock.batched_fft.cold_minus_warm.ms", "ms"),
    m("piper-dock.filter_top_k_32.us", "us"),
    m("piper-dock.run_gpu_32.wall_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_direct_serial_32.wall_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_batched_fft_32.wall_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_fft_serial_32.wall_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_gpu_32.modeled_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_batched_fft_32.modeled_ms_per_rotation", "ms/rotation"),
    m("piper-dock.run_fft_serial_32.modeled_ms_per_rotation", "ms/rotation"),
    m("piper-dock.step_frac.rotation_grid", "frac"),
    m("piper-dock.step_frac.correlation", "frac"),
    m("piper-dock.step_frac.accumulation", "frac"),
    m("piper-dock.step_frac.scoring_filtering", "frac"),
    m("piper-dock.download_bytes_per_rotation", "B/rotation"),
    m("piper-dock.table1_speedup.correlation", "x"),
    m("piper-dock.table1_speedup.accumulation", "x"),
    m("piper-dock.table1_speedup.scoring_filtering", "x"),
    m("piper-dock.table1_speedup.total", "x"),
    m("piper-dock.table1_err_log2_max", "log2"),
    m("piper-dock.table1_rows_skipped", "count"),
    // ftmap-energy → map_minimize.
    m("ftmap-energy.host_evaluate.ms", "ms"),
    m("ftmap-energy.gpu_engine_new.ms", "ms"),
    m("ftmap-energy.gpu_evaluate.wall_ms", "ms"),
    m("ftmap-energy.gpu_evaluate.modeled_ms.self", "ms"),
    m("ftmap-energy.gpu_evaluate.modeled_ms.pairwise_vdw", "ms"),
    m("ftmap-energy.gpu_evaluate.modeled_ms.force", "ms"),
    m("ftmap-energy.gpu_evaluate.flops", "flop"),
    m("ftmap-energy.gpu_evaluate.global_bytes", "B"),
    m("ftmap-energy.minimize_gpu.ms_per_iter", "ms/iter"),
    m("ftmap-energy.minimize_host.ms_per_iter", "ms/iter"),
    m("ftmap-energy.minimize_gpu.iterations", "count"),
    m("ftmap-energy.minimize_gpu.eval_frac", "frac"),
    m("ftmap-energy.table2_speedup.self", "x"),
    m("ftmap-energy.table2_speedup.pairwise_vdw", "x"),
    m("ftmap-energy.table2_speedup.force", "x"),
    // ftmap-core → attribution on map_*; pipeline_new → setup_s.
    m("ftmap-core.pipeline_new.ms", "ms"),
    m("ftmap-core.dock_probe_shard.ms", "ms"),
    m("ftmap-core.minimize_pose_block.ms_per_pose", "ms/pose"),
    m("ftmap-core.cluster_poses_1k.ms", "ms"),
    m("ftmap-core.map.dock_wall_frac", "frac"),
    m("ftmap-core.map.minimize_wall_frac", "frac"),
    m("ftmap-core.map.cluster_wall_frac", "frac"),
    m("ftmap-core.map.unattributed_frac", "frac"),
    // ftmap-serve → req_per_wall_s on serve_mix.
    m("ftmap-serve.submit.us", "us"),
    m("ftmap-serve.estimate_request.us", "us"),
    m("ftmap-serve.fingerprint.us", "us"),
    m("ftmap-serve.next_batch_1k.us", "us"),
    m("ftmap-serve.queue_push_drain.ns", "ns"),
    m("ftmap-serve.stats_snapshot.us", "us"),
    m("ftmap-serve.batches", "count"),
    m("ftmap-serve.jobs_per_batch_mean", "count"),
    m("ftmap-serve.cache_hit_ratio", "frac"),
    m("ftmap-serve.derived_hit_ratio", "frac"),
    m("ftmap-serve.cache_evictions", "count"),
    m("ftmap-serve.verdicts_not_admitted", "count"),
    m("ftmap-serve.hot_job_wall_best_s", "s"),
    m("ftmap-serve.cold_job_wall_best_s", "s"),
    m("ftmap-serve.interactive_modeled_p95_s", "s"),
    m("ftmap-serve.bulk_modeled_p95_s", "s"),
    m("ftmap-serve.round_drain_p50_s", "s"),
    m("ftmap-serve.generator_late_p99_ms", "ms"),
    m("ftmap-serve.rounds_with_backlog_frac", "frac"),
    // ftmap-trace → req_per_wall_s and alloc_mib_per_req on serve_mix with a sink attached.
    m("ftmap-trace.record.ns_per_event", "ns/event"),
    m("ftmap-trace.record.bytes_per_event", "B/event"),
    m("ftmap-trace.flight_record.ns_per_event", "ns/event"),
    m("ftmap-trace.events_per_job", "count"),
    m("ftmap-trace.events_resolve.us_per_kevent", "us/kevent"),
    m("ftmap-trace.build_trees.us_per_kevent", "us/kevent"),
    m("ftmap-trace.analyze_all.us_per_request", "us/request"),
    m("ftmap-trace.export_chrome.us_per_kevent", "us/kevent"),
    m("ftmap-trace.recorder_wall_overhead_frac", "frac"),
    m("ftmap-trace.breakdown.admission_wait_frac", "frac"),
    m("ftmap-trace.breakdown.batch_form_wait_frac", "frac"),
    m("ftmap-trace.breakdown.dock_ready_wait_frac", "frac"),
    m("ftmap-trace.breakdown.dock_transfer_frac", "frac"),
    m("ftmap-trace.breakdown.dock_kernel_frac", "frac"),
    m("ftmap-trace.breakdown.minimize_ready_wait_frac", "frac"),
    m("ftmap-trace.breakdown.minimize_transfer_frac", "frac"),
    m("ftmap-trace.breakdown.minimize_kernel_frac", "frac"),
    m("ftmap-trace.breakdown.cache_miss_penalty_frac", "frac"),
    m("ftmap-trace.breakdown.resolve_wait_frac", "frac"),
    // host: informational, every workload.
    m("host.rounds", "count"),
    m("host.round_wall_p50_s", "s"),
    m("host.round_wall_p90_s", "s"),
    m("host.req_per_wall_s_mean", "1/s"),
    m("host.cpu_s_per_req", "s"),
    m("host.sys_cpu_frac", "frac"),
    m("host.peak_rss_mib", "MiB"),
    m("host.peak_live_mib", "MiB"),
    m("host.allocs_per_req", "count"),
    m("host.span_overhead_frac", "frac"),
];

/// The `ftmap-trace.breakdown.*` metrics, in `Breakdown::segments` order.
pub const BREAKDOWN: [&str; 10] = [
    "ftmap-trace.breakdown.admission_wait_frac",
    "ftmap-trace.breakdown.batch_form_wait_frac",
    "ftmap-trace.breakdown.dock_ready_wait_frac",
    "ftmap-trace.breakdown.dock_transfer_frac",
    "ftmap-trace.breakdown.dock_kernel_frac",
    "ftmap-trace.breakdown.minimize_ready_wait_frac",
    "ftmap-trace.breakdown.minimize_transfer_frac",
    "ftmap-trace.breakdown.minimize_kernel_frac",
    "ftmap-trace.breakdown.cache_miss_penalty_frac",
    "ftmap-trace.breakdown.resolve_wait_frac",
];

/// A bag of measured per-layer values, checked against [`PER_LAYER`] when
/// the run ends: every listed metric must have been set exactly once.
#[derive(Debug, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// An empty bag.
    pub fn new() -> Self {
        LayerValues::default()
    }

    /// Records `value` for `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in [`PER_LAYER`] or was already set — both
    /// are harness bugs, caught by the first traced run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown per-layer metric {name}");
        assert!(self.get(name).is_none(), "per-layer metric {name} set twice");
        self.0.push((name, value));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every [`PER_LAYER`] metric with its value, in list order.
    ///
    /// # Panics
    /// Panics when a listed metric was never set.
    pub fn into_ordered(self) -> Vec<(Metric, f64)> {
        PER_LAYER
            .iter()
            .map(|metric| {
                let value = self
                    .get(metric.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} never measured", metric.name));
                (*metric, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_trace::json::{parse, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|entry| {
                let field = |k: &str| {
                    entry.get(k).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("no {k}"))
                };
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_in_this_order() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let ours = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metric.name.len() <= 64 && metric.name.chars().all(ok_name), "{}", metric.name);
            assert!(metric.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16, "{}", metric.unit);
            assert!(metric.unit.chars().all(ok_unit), "{}", metric.unit);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn breakdown_metrics_follow_the_segment_order() {
        let segments = ftmap_trace::Breakdown::default().segments();
        for (metric, (segment, _)) in BREAKDOWN.iter().zip(segments) {
            assert_eq!(*metric, format!("ftmap-trace.breakdown.{segment}_frac"));
        }
    }

    #[test]
    fn layer_values_come_back_in_list_order() {
        let mut values = LayerValues::new();
        for (i, metric) in PER_LAYER.iter().enumerate().rev() {
            values.set(metric.name, i as f64);
        }
        let ordered = values.into_ordered();
        assert!(ordered.iter().enumerate().all(|(i, (m, v))| *m == PER_LAYER[i] && *v == i as f64));
    }
}
