//! Mapping-run profiles: the phase breakdown of Fig. 2(a), the overall speedup of
//! §V.C, and — for sharded runs — the per-device load report of the multi-device
//! scheduler.

use gpu_sim::sched::PhasedDeviceReport;
use gpu_sim::StreamStats;
use std::fmt::Write as _;

/// What one pooled device contributed to a sharded mapping run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceLoad {
    /// Human-readable device name.
    pub device: String,
    /// Number of probes this device serviced (dock items; under probe
    /// granularity each carries its probe's minimization too).
    pub probes: usize,
    /// Number of minimization pose blocks this device serviced (0 under
    /// probe-granularity scheduling, where minimization rides the probe item).
    pub pose_blocks: usize,
    /// Modeled busy seconds with stream copy/compute overlap applied (the
    /// device's overlapped stream makespan; both phases summed for a
    /// pose-block schedule).
    pub busy_modeled_s: f64,
    /// Modeled busy seconds with every transfer serialized (no overlap).
    pub serialized_modeled_s: f64,
    /// Modeled transfer seconds hidden under kernel execution on this device.
    pub overlap_saved_s: f64,
}

impl From<&PhasedDeviceReport> for DeviceLoad {
    /// A device's load under the phased scheduler: dock items count as
    /// probes, minimize items as pose blocks, and both phase streams
    /// contribute busy/serialized/overlap seconds.
    fn from(report: &PhasedDeviceReport) -> Self {
        DeviceLoad {
            device: report.device.clone(),
            probes: report.dock.ops,
            pose_blocks: report.minimize.ops,
            busy_modeled_s: report.busy_s(),
            serialized_modeled_s: report.dock.serialized_s + report.minimize.serialized_s,
            overlap_saved_s: report.dock.savings_s() + report.minimize.savings_s(),
        }
    }
}

/// Pool-wide stream totals for one scheduling phase of a sharded run: how many modeled seconds the phase spent in kernels vs transfers,
/// and how many transfer seconds copy/compute overlap hid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStream {
    /// Phase name (`"dock"` or `"minimize"`; under whole-probe granularity
    /// every item is a dock item and the minimize row stays empty).
    pub phase: String,
    /// Items the phase executed across the pool.
    pub ops: usize,
    /// Modeled kernel seconds, summed over devices.
    pub kernel_modeled_s: f64,
    /// Modeled transfer seconds (uploads + downloads), summed over devices.
    pub transfer_modeled_s: f64,
    /// Modeled transfer seconds hidden under kernels by stream overlap.
    pub overlap_saved_s: f64,
}

impl PhaseStream {
    /// Folds the per-device stream summaries of one phase into its pool-wide
    /// totals.
    pub fn from_streams<'a>(phase: &str, streams: impl Iterator<Item = &'a StreamStats>) -> Self {
        let mut out = PhaseStream { phase: phase.to_string(), ..PhaseStream::default() };
        for s in streams {
            out.ops += s.ops;
            out.kernel_modeled_s += s.kernel_s;
            out.transfer_modeled_s += s.upload_s + s.download_s;
            out.overlap_saved_s += s.savings_s();
        }
        out
    }
}

/// Time spent in the two phases of a mapping run (per probe), both as measured
/// wall-clock on this machine and as modeled device/host time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingProfile {
    /// Rigid-docking wall-clock seconds.
    pub docking_wall_s: f64,
    /// Energy-minimization wall-clock seconds.
    pub minimization_wall_s: f64,
    /// Rigid-docking modeled seconds (Xeon core for the serial pipeline, device model
    /// for the accelerated pipeline).
    pub docking_modeled_s: f64,
    /// Energy-minimization modeled seconds.
    pub minimization_modeled_s: f64,
    /// Per-device loads of a sharded run, in pool order (empty for the
    /// single-device pipeline modes).
    pub device_loads: Vec<DeviceLoad>,
    /// Modeled seconds the phased scheduler saved versus a two-phase-barrier
    /// schedule of the same items — how much dock/minimize phase overlap was
    /// worth. 0 for single-device runs.
    pub pipeline_overlap_saved_s: f64,
    /// Pool-wide per-phase stream totals (kernel/transfer/overlap split), in
    /// execution order. Attached once by sharded runs; empty for
    /// single-device runs, where [`MappingProfile::phase_table`] falls back
    /// to the per-phase modeled kernel seconds.
    pub phase_streams: Vec<PhaseStream>,
}

impl MappingProfile {
    /// Total wall-clock seconds.
    pub fn total_wall_s(&self) -> f64 {
        self.docking_wall_s + self.minimization_wall_s
    }

    /// Total modeled seconds.
    pub fn total_modeled_s(&self) -> f64 {
        self.docking_modeled_s + self.minimization_modeled_s
    }

    /// Percentage of wall time in (docking, minimization) — the Fig. 2(a) split
    /// (paper: ~7 % / ~93 %).
    pub fn wall_percentages(&self) -> (f64, f64) {
        let t = self.total_wall_s();
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        (100.0 * self.docking_wall_s / t, 100.0 * self.minimization_wall_s / t)
    }

    /// Adds another profile (e.g. accumulate over probes). Per-device loads are
    /// concatenated — per-probe profiles carry none; the pipeline attaches the
    /// pool's loads once, after the sharded run completes.
    pub fn merge(&mut self, other: &MappingProfile) {
        self.docking_wall_s += other.docking_wall_s;
        self.minimization_wall_s += other.minimization_wall_s;
        self.docking_modeled_s += other.docking_modeled_s;
        self.minimization_modeled_s += other.minimization_modeled_s;
        self.device_loads.extend(other.device_loads.iter().cloned());
        self.pipeline_overlap_saved_s += other.pipeline_overlap_saved_s;
        self.phase_streams.extend(other.phase_streams.iter().cloned());
    }

    // --- Multi-device views (meaningful when `device_loads` is populated).
    // --- The load-balance math delegates to `gpu_sim::sched` so the
    // --- profile's report always agrees with the scheduler's own.

    /// The per-device busy times, in pool order.
    fn busy(&self) -> Vec<f64> {
        self.device_loads.iter().map(|l| l.busy_modeled_s).collect()
    }

    /// Modeled makespan of the run: the busiest device's overlapped stream
    /// time for a sharded run, the phase-sum for single-device runs (one
    /// device does everything back-to-back). This is the number multi-device
    /// scaling is measured on.
    pub fn makespan_modeled_s(&self) -> f64 {
        if self.device_loads.is_empty() {
            self.total_modeled_s()
        } else {
            gpu_sim::sched::makespan_s(&self.busy())
        }
    }

    /// Total modeled transfer seconds hidden under compute by stream overlap,
    /// across devices (0 for single-device runs).
    pub fn overlap_saved_s(&self) -> f64 {
        self.device_loads.iter().map(|l| l.overlap_saved_s).sum()
    }

    /// Load-balance skew of a sharded run: busiest device's busy time over the
    /// mean busy time. 1.0 means perfectly balanced; also 1.0 for
    /// single-device runs and runs that did no work.
    pub fn load_skew(&self) -> f64 {
        gpu_sim::sched::load_skew(&self.busy())
    }

    /// Per-device utilization `(name, busy / makespan)`, in pool order (empty
    /// for single-device runs).
    pub fn device_utilizations(&self) -> Vec<(String, f64)> {
        let utilizations = gpu_sim::sched::utilizations(&self.busy());
        self.device_loads.iter().zip(utilizations).map(|(l, u)| (l.device.clone(), u)).collect()
    }

    /// Renders the per-phase breakdown as an aligned text table: one row per
    /// scheduling phase with its modeled kernel, transfer and overlap-hidden
    /// seconds, plus a totals row. Sharded runs report the exact
    /// per-phase stream splits ([`MappingProfile::phase_streams`]); for
    /// single-device runs the dock/minimize rows carry the per-phase modeled
    /// kernel seconds with no transfer split.
    pub fn phase_table(&self) -> String {
        let rows: Vec<PhaseStream> = if self.phase_streams.is_empty() {
            vec![
                PhaseStream {
                    phase: "dock".to_string(),
                    kernel_modeled_s: self.docking_modeled_s,
                    ..PhaseStream::default()
                },
                PhaseStream {
                    phase: "minimize".to_string(),
                    kernel_modeled_s: self.minimization_modeled_s,
                    ..PhaseStream::default()
                },
            ]
        } else {
            self.phase_streams.clone()
        };
        let mut total = PhaseStream { phase: "total".to_string(), ..PhaseStream::default() };
        for row in &rows {
            total.ops += row.ops;
            total.kernel_modeled_s += row.kernel_modeled_s;
            total.transfer_modeled_s += row.transfer_modeled_s;
            total.overlap_saved_s += row.overlap_saved_s;
        }
        let name_w =
            rows.iter().map(|r| r.phase.len()).chain(["total".len(), "phase".len()]).max().unwrap();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  {:>12}  {:>12}  {:>12}",
            "phase", "items", "kernel s", "transfer s", "overlap s"
        );
        for row in rows.iter().chain(std::iter::once(&total)) {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>6}  {:>12.6}  {:>12.6}  {:>12.6}",
                row.phase,
                row.ops,
                row.kernel_modeled_s,
                row.transfer_modeled_s,
                row.overlap_saved_s
            );
        }
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  makespan {:.6} s, pipeline overlap saved {:.6} s",
            "",
            "",
            self.makespan_modeled_s(),
            self.pipeline_overlap_saved_s
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_match_paper_shape() {
        let p = MappingProfile {
            docking_wall_s: 30.0 * 60.0,
            minimization_wall_s: 400.0 * 60.0,
            docking_modeled_s: 7.0,
            minimization_modeled_s: 93.0,
            ..Default::default()
        };
        let (dock, min) = p.wall_percentages();
        assert!(dock < 10.0 && min > 90.0);
        assert!((p.total_wall_s() - 430.0 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MappingProfile {
            docking_wall_s: 1.0,
            minimization_wall_s: 2.0,
            docking_modeled_s: 3.0,
            minimization_modeled_s: 4.0,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.docking_wall_s, 2.0);
        assert_eq!(a.minimization_modeled_s, 8.0);
    }

    #[test]
    fn empty_profile_has_zero_percentages() {
        let p = MappingProfile::default();
        assert_eq!(p.wall_percentages(), (0.0, 0.0));
    }

    fn load(name: &str, busy: f64, serialized: f64, probes: usize) -> DeviceLoad {
        DeviceLoad {
            device: name.to_string(),
            probes,
            pose_blocks: 0,
            busy_modeled_s: busy,
            serialized_modeled_s: serialized,
            overlap_saved_s: serialized - busy,
        }
    }

    #[test]
    fn all_idle_pool_reports_unit_skew_not_nan() {
        // Regression (the mean-busy division): a sharded run whose devices
        // all report zero busy time — an empty library, or a pool reset
        // before any work landed — must report skew 1.0 and zero
        // utilizations, never NaN.
        let p = MappingProfile {
            device_loads: vec![load("tesla-0", 0.0, 0.0, 0), load("tesla-1", 0.0, 0.0, 0)],
            ..Default::default()
        };
        let skew = p.load_skew();
        assert!(!skew.is_nan(), "all-idle skew must not be NaN");
        assert_eq!(skew, 1.0);
        assert_eq!(p.makespan_modeled_s(), 0.0);
        let utils = p.device_utilizations();
        assert_eq!(utils.len(), 2);
        assert!(utils.iter().all(|(_, u)| *u == 0.0));
    }

    #[test]
    fn single_device_views_fall_back_to_phase_totals() {
        let p = MappingProfile {
            docking_modeled_s: 2.0,
            minimization_modeled_s: 8.0,
            ..Default::default()
        };
        assert!((p.makespan_modeled_s() - 10.0).abs() < 1e-12);
        assert_eq!(p.overlap_saved_s(), 0.0);
        assert_eq!(p.load_skew(), 1.0);
        assert!(p.device_utilizations().is_empty());
    }

    #[test]
    fn sharded_views_report_makespan_skew_and_overlap() {
        let p = MappingProfile {
            device_loads: vec![
                load("tesla-0", 4.0, 4.5, 5),
                load("tesla-1", 3.0, 3.4, 4),
                load("tesla-2", 2.0, 2.3, 3),
            ],
            ..Default::default()
        };
        assert!((p.makespan_modeled_s() - 4.0).abs() < 1e-12);
        assert!((p.overlap_saved_s() - (0.5 + 0.4 + 0.3)).abs() < 1e-12);
        // Skew: max 4.0 over mean 3.0.
        assert!((p.load_skew() - 4.0 / 3.0).abs() < 1e-12);
        let utils = p.device_utilizations();
        assert_eq!(utils.len(), 3);
        assert!((utils[0].1 - 1.0).abs() < 1e-12);
        assert!((utils[2].1 - 0.5).abs() < 1e-12);
        assert_eq!(utils[1].0, "tesla-1");
    }

    #[test]
    fn merge_concatenates_device_loads() {
        let mut a = MappingProfile::default();
        let b = MappingProfile {
            device_loads: vec![load("tesla-0", 1.0, 1.0, 1)],
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.device_loads.len(), 2);
    }
}
