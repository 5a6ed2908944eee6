//! Mapping-run profiles: the phase breakdown of Fig. 2(a), the overall speedup of
//! §V.C, and — for sharded runs — views over the multi-device scheduler's
//! [`BatchReport`], the one record of the run's schedule.

use gpu_sim::sched::{BatchReport, PhasedDeviceReport};
use gpu_sim::StreamStats;
use std::fmt::Write as _;

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
    /// The scheduler's report of a sharded run: per-device, per-phase stream
    /// accounting and the batch's virtual-timeline window. Attached once,
    /// after the run completes; `None` for the single-device pipeline modes
    /// and for per-probe profiles (boxed, so those stay small). The
    /// multi-device views below read it.
    pub schedule: Option<Box<BatchReport>>,
}

impl MappingProfile {
    /// Total wall-clock seconds.
    pub(crate) fn total_wall_s(&self) -> f64 {
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

    /// Adds another profile's phase seconds (e.g. accumulate over probes).
    /// [`MappingProfile::schedule`] is left alone: per-probe profiles carry
    /// none, and the pipeline attaches the run's report once, after the
    /// sharded run completes.
    pub fn merge(&mut self, other: &MappingProfile) {
        self.docking_wall_s += other.docking_wall_s;
        self.minimization_wall_s += other.minimization_wall_s;
        self.docking_modeled_s += other.docking_modeled_s;
        self.minimization_modeled_s += other.minimization_modeled_s;
    }

    // --- Multi-device views over `schedule`. The load-balance math
    // --- delegates to `gpu_sim::sched` so the profile's report always
    // --- agrees with the scheduler's own.

    /// The scheduled devices' reports, in pool order (empty for
    /// single-device runs).
    fn devices(&self) -> &[PhasedDeviceReport] {
        self.schedule.as_deref().map_or(&[], |report| &report.per_device)
    }

    /// The per-device busy times, in pool order.
    fn busy(&self) -> Vec<f64> {
        self.devices().iter().map(PhasedDeviceReport::busy_s).collect()
    }

    /// Modeled makespan of the run: the busiest device's overlapped stream
    /// time for a sharded run, the phase-sum for single-device runs (one
    /// device does everything back-to-back). This is the number multi-device
    /// scaling is measured on.
    pub fn makespan_modeled_s(&self) -> f64 {
        match self.schedule {
            Some(_) => gpu_sim::sched::makespan_s(&self.busy()),
            None => self.total_modeled_s(),
        }
    }

    /// Total modeled transfer seconds hidden under compute by stream overlap,
    /// across devices (0 for single-device runs).
    pub fn overlap_saved_s(&self) -> f64 {
        self.devices().iter().map(PhasedDeviceReport::overlap_saved_s).sum()
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
        self.devices().iter().zip(utilizations).map(|(d, u)| (d.device.clone(), u)).collect()
    }

    /// Modeled seconds the phased scheduler saved versus a two-phase-barrier
    /// schedule of the same items — how much dock/minimize phase overlap was
    /// worth ([`BatchReport::overlap_saved_s`]). 0 for single-device runs.
    pub fn pipeline_overlap_saved_s(&self) -> f64 {
        self.schedule.as_deref().map_or(0.0, BatchReport::overlap_saved_s)
    }
}

/// Renders a scheduled batch's per-phase breakdown as an aligned text table:
/// one row per scheduling phase (`dock`, then `minimize`; under whole-probe
/// granularity every item is a dock item and the minimize row stays empty)
/// with its items and its modeled kernel, transfer (uploads + downloads) and
/// overlap-hidden seconds summed over the pool, plus a totals row and the
/// batch's makespan (busiest device) and phase-overlap saving.
pub fn phase_table(report: &BatchReport) -> String {
    let phase = |stream: fn(&PhasedDeviceReport) -> &StreamStats| {
        let mut row = (0, [0.0; 3]);
        for s in report.per_device.iter().map(stream) {
            row.0 += s.ops;
            row.1[0] += s.kernel_s;
            row.1[1] += s.upload_s + s.download_s;
            row.1[2] += s.savings_s();
        }
        row
    };
    let rows = [("dock", phase(|d| &d.dock)), ("minimize", phase(|d| &d.minimize))];
    let mut total = (0, [0.0; 3]);
    for (_, (ops, seconds)) in &rows {
        total.0 += ops;
        for (sum, s) in total.1.iter_mut().zip(seconds) {
            *sum += s;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}  {:>6}  {:>12}  {:>12}  {:>12}",
        "phase", "items", "kernel s", "transfer s", "overlap s"
    );
    for (name, (ops, [kernel, transfer, overlap])) in rows.into_iter().chain([("total", total)]) {
        let _ =
            writeln!(out, "{name:<8}  {ops:>6}  {kernel:>12.6}  {transfer:>12.6}  {overlap:>12.6}");
    }
    let busy: Vec<f64> = report.per_device.iter().map(PhasedDeviceReport::busy_s).collect();
    let _ = writeln!(
        out,
        "{:<8}  {:>6}  makespan {:.6} s, pipeline overlap saved {:.6} s",
        "",
        "",
        gpu_sim::sched::makespan_s(&busy),
        report.overlap_saved_s()
    );
    out
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

    fn stream(
        ops: usize,
        upload_s: f64,
        kernel_s: f64,
        download_s: f64,
        overlapped_s: f64,
    ) -> StreamStats {
        let serialized_s = upload_s + kernel_s + download_s;
        StreamStats { ops, upload_s, kernel_s, download_s, serialized_s, overlapped_s }
    }

    /// A device that ran `probes` dock items and `blocks` minimize items,
    /// with its busy seconds split over the two phases.
    fn device(
        name: &str,
        busy: f64,
        serialized: f64,
        probes: usize,
        blocks: usize,
    ) -> PhasedDeviceReport {
        let phase = |ops, share: f64| StreamStats {
            ops,
            serialized_s: share * serialized,
            overlapped_s: share * busy,
            ..StreamStats::default()
        };
        PhasedDeviceReport {
            device: name.to_string(),
            dock: phase(probes, 0.5),
            minimize: phase(blocks, 0.5),
        }
    }

    fn report(per_device: Vec<PhasedDeviceReport>) -> BatchReport {
        BatchReport {
            seq: 0,
            priority: 0,
            submitted_v_s: 0.0,
            started_v_s: 0.0,
            completed_v_s: 0.0,
            docks: per_device.iter().map(|d| d.dock.ops).sum(),
            blocks: per_device.iter().map(|d| d.minimize.ops).sum(),
            per_device,
            cache: Default::default(),
            derived_cache: Default::default(),
        }
    }

    fn scheduled(per_device: Vec<PhasedDeviceReport>) -> MappingProfile {
        MappingProfile { schedule: Some(Box::new(report(per_device))), ..Default::default() }
    }

    #[test]
    fn all_idle_pool_reports_unit_skew_not_nan() {
        // Regression (the mean-busy division): a sharded run whose devices
        // all report zero busy time — an empty library, or a pool reset
        // before any work landed — must report skew 1.0 and zero
        // utilizations, never NaN.
        let p =
            scheduled(vec![device("tesla-0", 0.0, 0.0, 0, 0), device("tesla-1", 0.0, 0.0, 0, 0)]);
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
        assert_eq!(p.pipeline_overlap_saved_s(), 0.0);
        assert_eq!(p.load_skew(), 1.0);
        assert!(p.device_utilizations().is_empty());
    }

    #[test]
    fn sharded_views_report_makespan_skew_and_overlap() {
        let p = scheduled(vec![
            device("tesla-0", 4.0, 4.5, 5, 0),
            device("tesla-1", 3.0, 3.4, 4, 0),
            device("tesla-2", 2.0, 2.3, 3, 0),
        ]);
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
    fn merge_leaves_the_schedule_alone() {
        let mut a = scheduled(vec![device("tesla-0", 1.0, 1.0, 1, 0)]);
        let before = a.schedule.clone();
        a.merge(&scheduled(vec![device("tesla-1", 2.0, 2.0, 1, 0)]));
        assert_eq!(a.schedule, before);
    }

    #[test]
    fn hand_built_report_views_match_the_retired_copies_bit_for_bit() {
        // Three devices, one idle, with uploads, downloads and overlap in
        // both phases, and a span shorter than the two-phase barrier. The
        // expected figures are what the views returned when the profile
        // still copied this report into per-device load and per-phase
        // stream structs.
        let p = MappingProfile {
            schedule: Some(Box::new(BatchReport {
                started_v_s: 0.001,
                completed_v_s: 0.701,
                ..report(vec![
                    PhasedDeviceReport {
                        device: "tesla-0".into(),
                        dock: stream(3, 0.0125, 0.25, 0.0075, 0.2575),
                        minimize: stream(4, 0.02, 0.5, 0.01, 0.515),
                    },
                    PhasedDeviceReport {
                        device: "tesla-1".into(),
                        dock: stream(2, 0.01, 0.125, 0.005, 0.13),
                        minimize: stream(5, 0.015, 0.375, 0.0125, 0.39),
                    },
                    device("xeon-2", 0.0, 0.0, 0, 0),
                ])
            })),
            ..Default::default()
        };
        assert_eq!(p.makespan_modeled_s(), 0.7725);
        assert_eq!(p.load_skew(), 1.793036750483559);
        assert_eq!(
            p.device_utilizations(),
            [
                ("tesla-0".into(), 1.0),
                ("tesla-1".into(), 0.6731391585760519),
                ("xeon-2".into(), 0.0)
            ]
        );
        assert_eq!(p.overlap_saved_s(), 0.050000000000000044);
        assert_eq!(p.pipeline_overlap_saved_s(), 0.07250000000000001);
        assert_eq!(p.busy(), [0.7725, 0.52, 0.0]);
        let saved: Vec<f64> = p.devices().iter().map(PhasedDeviceReport::overlap_saved_s).collect();
        assert_eq!(saved, [0.027500000000000024, 0.02250000000000002, 0.0]);
        assert_eq!(
            phase_table(p.schedule.as_ref().unwrap()),
            "phase      items      kernel s    transfer s     overlap s\n\
             dock           5      0.375000      0.035000      0.022500\n\
             minimize       9      0.875000      0.057500      0.027500\n\
             total         14      1.250000      0.092500      0.050000\n                  \
             makespan 0.772500 s, pipeline overlap saved 0.072500 s\n"
        );
    }
}
