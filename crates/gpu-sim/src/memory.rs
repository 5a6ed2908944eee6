//! Memory-access accounting and the host↔device transfer model.
//!
//! The paper's GPU optimizations are, at bottom, memory-traffic optimizations: keep the
//! probe grid in constant memory, batch rotations so each (uncached) global-memory read
//! of a protein voxel is reused, accumulate partial energies in shared memory instead of
//! global memory, and avoid per-iteration host↔device transfers. The device model
//! therefore tracks each class of access separately; the cost model weights them with
//! the very different latencies of a Tesla-class part.

/// Counters for one kernel execution (or one block; counters are additive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryCounters {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Reads from device global memory (in elements / words).
    pub global_reads: u64,
    /// Writes to device global memory (in elements / words).
    pub global_writes: u64,
    /// Accesses to per-SM shared memory.
    pub shared_accesses: u64,
    /// Reads from constant memory (cached broadcast reads).
    pub constant_reads: u64,
    /// `__syncthreads()`-style block barriers executed.
    pub barriers: u64,
}

impl MemoryCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global-memory accesses (reads + writes).
    pub fn global_accesses(&self) -> u64 {
        self.global_reads + self.global_writes
    }

    /// Adds another counter set to this one (used to merge per-block counters).
    pub fn merge(&mut self, other: &MemoryCounters) {
        self.flops += other.flops;
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.shared_accesses += other.shared_accesses;
        self.constant_reads += other.constant_reads;
        self.barriers += other.barriers;
    }

    /// Arithmetic intensity: flops per global-memory access (`f64::INFINITY` when the
    /// kernel touches no global memory). High intensity is what the rotation-batching
    /// optimization buys.
    pub fn arithmetic_intensity(&self) -> f64 {
        let accesses = self.global_accesses();
        if accesses == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / accesses as f64
        }
    }
}

/// A host↔device data transfer (PCIe in the paper's hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Bytes moved.
    pub bytes: u64,
    /// Direction of the transfer.
    pub direction: TransferDirection,
}

/// Direction of a host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host memory → device global/constant memory.
    HostToDevice,
    /// Device memory → host memory.
    DeviceToHost,
}

impl Transfer {
    /// An upload (host → device) of `bytes` bytes.
    pub fn upload(bytes: u64) -> Self {
        Transfer { bytes, direction: TransferDirection::HostToDevice }
    }

    /// A download (device → host) of `bytes` bytes.
    pub fn download(bytes: u64) -> Self {
        Transfer { bytes, direction: TransferDirection::DeviceToHost }
    }
}

/// A per-SM shared-memory arena.
///
/// Real shared memory is a small (16 KB on the C1060) banked SRAM private to a thread
/// block. In the model it is a plain `Vec<f64>`: each launch worker allocates one and
/// zeroes it before every block it runs, so a block always starts from a clean arena.
/// The size limit is enforced at launch so kernels cannot "cheat" by staging more data
/// in shared memory than the modeled device has.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<f64>,
}

impl SharedMemory {
    /// Allocates a shared-memory arena of `words` f64 words.
    pub fn new(words: usize) -> Self {
        SharedMemory { data: vec![0.0; words] }
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the arena has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the arena.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the arena.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Zeroes the arena (the device does this between blocks; blocks may also
    /// reuse the arena across groups of work).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_additively() {
        let a = MemoryCounters {
            flops: 10,
            global_reads: 4,
            global_writes: 2,
            shared_accesses: 7,
            constant_reads: 3,
            barriers: 1,
        };
        let b = MemoryCounters {
            flops: 5,
            global_reads: 1,
            global_writes: 1,
            shared_accesses: 2,
            constant_reads: 0,
            barriers: 1,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.flops, 15);
        assert_eq!(m.global_reads, 5);
        assert_eq!(m.global_writes, 3);
        assert_eq!(m.shared_accesses, 9);
        assert_eq!(m.constant_reads, 3);
        assert_eq!(m.barriers, 2);
        assert_eq!(m.global_accesses(), 8);
    }

    #[test]
    fn arithmetic_intensity() {
        let c =
            MemoryCounters { flops: 100, global_reads: 20, global_writes: 5, ..Default::default() };
        assert!((c.arithmetic_intensity() - 4.0).abs() < 1e-12);
        let pure_compute = MemoryCounters { flops: 10, ..Default::default() };
        assert!(pure_compute.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn transfer_constructors() {
        let up = Transfer::upload(1024);
        assert_eq!(up.direction, TransferDirection::HostToDevice);
        assert_eq!(up.bytes, 1024);
        let down = Transfer::download(8);
        assert_eq!(down.direction, TransferDirection::DeviceToHost);
    }

    #[test]
    fn shared_memory_arena() {
        let mut sm = SharedMemory::new(16);
        assert_eq!(sm.len(), 16);
        assert!(!sm.is_empty());
        sm.as_mut_slice()[3] = 2.5;
        assert_eq!(sm.as_slice()[3], 2.5);
        sm.clear();
        assert!(sm.as_slice().iter().all(|&v| v == 0.0));
        assert!(SharedMemory::new(0).is_empty());
    }
}
