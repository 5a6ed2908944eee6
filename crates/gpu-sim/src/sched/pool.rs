//! A pool of modeled devices shared by the scheduler's workers.

use crate::device::{host_cpus, Device, DeviceSpec};
use std::sync::Arc;

/// Owns N modeled devices and hands out shared handles to them.
///
/// Devices sit behind [`Arc`] so phase engines (docking, minimization) can
/// hold a pooled handle instead of constructing their own device — the pool is
/// the single owner of accelerator state for a run. Pools may be
/// heterogeneous: mixing [`DeviceSpec::tesla_c1060`] and
/// [`DeviceSpec::xeon_quad`] specs models offloading shards to whatever
/// silicon the host has.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
}

impl DevicePool {
    /// A pool with one device per spec, sharing the host's CPUs: each device
    /// gets `min(sm_count, max(1, cpus / devices))` launch workers, so the
    /// pool's launches never run more block-executing threads than the host
    /// has CPUs (or one per device, when it has fewer CPUs than devices).
    /// Each device's scheduler thread is one of its own workers, so a device
    /// whose share is one CPU runs every launch inline on that thread.
    ///
    /// # Panics
    /// Panics if `specs` is empty — a pool must schedule onto something.
    pub fn new(specs: Vec<DeviceSpec>) -> Self {
        Self::sharing(host_cpus(), specs)
    }

    /// A pool whose devices share `cpus` host CPUs evenly.
    fn sharing(cpus: usize, specs: Vec<DeviceSpec>) -> Self {
        assert!(!specs.is_empty(), "a device pool needs at least one device");
        let share = (cpus / specs.len()).max(1);
        DevicePool {
            devices: specs.into_iter().map(|s| Arc::new(Device::with_cpus(s, share))).collect(),
        }
    }

    /// A pool of `n` identical devices.
    pub fn homogeneous(spec: DeviceSpec, n: usize) -> Self {
        assert!(n > 0, "a device pool needs at least one device");
        Self::new(vec![spec; n])
    }

    /// A pool of `n` Tesla-C1060-class devices — the paper's accelerator,
    /// multiplied.
    pub fn tesla(n: usize) -> Self {
        Self::homogeneous(DeviceSpec::tesla_c1060(), n)
    }

    /// A heterogeneous pool: `n_tesla` C1060-class devices plus `n_xeon`
    /// quad-core-Xeon-class devices (the paper's multicore host pressed into
    /// service as an extra, slower shard consumer).
    pub fn mixed(n_tesla: usize, n_xeon: usize) -> Self {
        let mut specs = vec![DeviceSpec::tesla_c1060(); n_tesla];
        specs.extend(vec![DeviceSpec::xeon_quad(); n_xeon]);
        Self::new(specs)
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// A shared handle to device `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn device(&self, idx: usize) -> &Arc<Device> {
        &self.devices[idx]
    }

    /// All device handles, in pool order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Sum of the pooled devices' peak GFLOP/s (a rough capacity figure for
    /// load-balance reporting).
    pub fn peak_gflops(&self) -> f64 {
        self.devices.iter().map(|d| d.spec().peak_gflops()).sum()
    }

    /// Resets every pooled device's transfer accounting.
    ///
    /// Pools outlive pipeline runs; call this at the start of each run so a
    /// previous run's transfers cannot leak into the next run's stream-overlap
    /// accounting (see [`Device::reset_transfer_stats`]).
    pub fn reset_transfer_stats(&self) {
        for device in &self.devices {
            device.reset_transfer_stats();
        }
    }

    /// Total modeled transfer seconds accumulated across the pool since the
    /// last reset.
    pub fn total_transfer_time(&self) -> f64 {
        self.devices.iter().map(|d| d.total_transfer_time()).sum()
    }
}

// --- Load-balance math over per-device busy times, shared by every consumer
// --- that reports on a pool (the scheduler's reports here, `MappingProfile`
// --- downstream) so the two can never diverge.

/// Makespan of a set of per-device busy times: the busiest device's time
/// (0 when the set is empty). Devices work concurrently, so a pool finishes
/// when its slowest member does.
pub fn makespan_s(busy: &[f64]) -> f64 {
    busy.iter().copied().fold(0.0, f64::max)
}

/// Load-balance skew: busiest device's busy time over the mean busy time
/// (1.0 = perfectly balanced; also 1.0 for empty or fully idle sets).
pub fn load_skew(busy: &[f64]) -> f64 {
    if busy.is_empty() {
        return 1.0;
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        makespan_s(busy) / mean
    }
}

/// Per-device utilization: busy seconds over the makespan, in input order
/// (all zeros when nothing ran).
pub fn utilizations(busy: &[f64]) -> Vec<f64> {
    let makespan = makespan_s(busy);
    busy.iter().map(|&b| if makespan <= 0.0 { 0.0 } else { b / makespan }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_pool_is_homogeneous() {
        let pool = DevicePool::tesla(4);
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        for device in pool.devices() {
            assert_eq!(device.spec(), &DeviceSpec::tesla_c1060());
        }
        assert!((pool.peak_gflops() - 4.0 * DeviceSpec::tesla_c1060().peak_gflops()).abs() < 1e-9);
    }

    #[test]
    fn mixed_pool_is_heterogeneous() {
        let pool = DevicePool::mixed(2, 1);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.device(0).spec(), &DeviceSpec::tesla_c1060());
        assert_eq!(pool.device(2).spec(), &DeviceSpec::xeon_quad());
        assert!(pool.device(0).spec().name.contains("Tesla"));
        assert!(pool.device(2).spec().name.contains("Xeon"));
    }

    #[test]
    fn pool_reset_clears_every_device() {
        let pool = DevicePool::tesla(2);
        pool.device(0).upload_bytes(1 << 20);
        pool.device(1).download_bytes(1 << 20);
        assert!(pool.total_transfer_time() > 0.0);
        pool.reset_transfer_stats();
        assert_eq!(pool.total_transfer_time(), 0.0);
        for device in pool.devices() {
            assert_eq!(device.total_transfer_bytes(), 0);
        }
    }

    #[test]
    fn a_pool_never_has_more_launch_workers_than_cpus() {
        for cpus in 1..=9 {
            for (n_tesla, n_xeon) in [(1, 0), (2, 0), (3, 0), (5, 0), (1, 1), (2, 1), (0, 4)] {
                let mut specs = vec![DeviceSpec::tesla_c1060(); n_tesla];
                specs.extend(vec![DeviceSpec::xeon_quad(); n_xeon]);
                let devices = specs.len();
                let pool = DevicePool::sharing(cpus, specs);
                let workers: Vec<usize> =
                    pool.devices().iter().map(|d| d.worker_threads()).collect();
                assert!(
                    workers.iter().sum::<usize>() <= cpus.max(devices),
                    "{cpus} cpus, {devices} devices: {workers:?}"
                );
                for (device, &w) in pool.devices().iter().zip(&workers) {
                    let share = (cpus / devices).max(1);
                    assert_eq!(w, device.spec().sm_count.min(share), "{cpus} cpus: {workers:?}");
                }
            }
        }
    }

    #[test]
    fn a_pool_with_a_device_per_cpu_launches_on_the_calling_thread() {
        // With at least as many devices as CPUs, every device's share is one
        // worker: its launches and sequences run on whichever thread calls
        // them, a device's scheduler thread in a run, and spawn nothing.
        let pool = DevicePool::tesla(host_cpus().max(2));
        let caller = std::thread::current().id();
        for device in pool.devices() {
            assert_eq!(device.worker_threads(), 1);
            let ran_on = std::sync::Mutex::new(Vec::new());
            let kernel = |_: &mut crate::BlockContext| {
                ftmap_trace::sync::locked(&ran_on).push(std::thread::current().id())
            };
            let launch = crate::KernelLaunch::on(device).grid(40);
            let mut stats = [crate::KernelStats::zero(); 3];
            device.launch_sequence(&[launch.queue(&kernel); 3], &mut stats);
            let ran_on = ran_on.into_inner().unwrap();
            assert_eq!(ran_on.len(), 3 * 40);
            assert!(ran_on.iter().all(|&id| id == caller), "a pooled launch spawned a worker");
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_panics() {
        let _ = DevicePool::new(Vec::new());
    }
}
