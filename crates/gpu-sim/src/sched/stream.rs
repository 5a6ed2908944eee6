//! The stream abstraction: copy/compute overlap accounting for one device.

use crate::cost::overlapped_stream_time;
use crate::device::TransferSnapshot;
use crate::timing::{StreamOp, StreamStats};

/// An in-order sequence of upload → kernel → download work items on one
/// device, modeling a CUDA stream with asynchronous copy engines.
///
/// Consumers record one [`StreamOp`] per work item — either directly
/// ([`Stream::record`]) or from a pair of [`TransferSnapshot`]s taken around
/// the item's execution (`Stream::record_between`), which attributes exactly
/// the transfers the item caused. The stream then reports two totals:
///
/// * [`Stream::serialized_s`] — every stage back-to-back (what PR 1's
///   accounting would have summed: kernel time plus transfer time);
/// * [`Stream::overlapped_s`] — the three-stage pipeline makespan
///   (`overlapped_stream_time`), in which item `i+1`'s upload hides under
///   item `i`'s kernels.
///
/// Reporting `overlapped_s` instead of `kernel + transfer` sums is what keeps
/// overlapped transfer time from being double-counted in per-phase ledgers.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    ops: Vec<StreamOp>,
}

impl Stream {
    /// An empty stream.
    pub fn new() -> Self {
        Stream::default()
    }

    /// Records one work item's stage durations.
    pub fn record(&mut self, op: StreamOp) {
        self.ops.push(op);
    }

    /// Records a work item from the device transfer snapshots taken before and
    /// after it ran, plus its modeled kernel seconds: the snapshot delta is
    /// the item's upload/download time, attributed to this item alone.
    pub(crate) fn record_between(
        &mut self,
        before: &TransferSnapshot,
        after: &TransferSnapshot,
        kernel_s: f64,
    ) {
        let delta = after.delta_since(before);
        self.record(StreamOp::new(delta.upload_s, kernel_s, delta.download_s));
    }

    /// Number of work items recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no work has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded work items, in issue order.
    pub fn ops(&self) -> &[StreamOp] {
        &self.ops
    }

    /// Total modeled seconds with no copy/compute overlap.
    pub fn serialized_s(&self) -> f64 {
        self.ops.iter().map(StreamOp::serialized_s).sum()
    }

    /// Pipeline makespan with copy/compute overlap.
    pub fn overlapped_s(&self) -> f64 {
        overlapped_stream_time(&self.ops)
    }

    /// Modeled transfer seconds hidden under kernel execution.
    pub fn savings_s(&self) -> f64 {
        (self.serialized_s() - self.overlapped_s()).max(0.0)
    }

    /// The stream's summary statistics.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            ops: self.ops.len(),
            upload_s: self.ops.iter().map(|o| o.upload_s).sum(),
            kernel_s: self.ops.iter().map(|o| o.kernel_s).sum(),
            download_s: self.ops.iter().map(|o| o.download_s).sum(),
            serialized_s: self.serialized_s(),
            overlapped_s: self.overlapped_s(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn empty_stream_is_free() {
        let stream = Stream::new();
        assert!(stream.is_empty());
        assert_eq!(stream.len(), 0);
        assert_eq!(stream.serialized_s(), 0.0);
        assert_eq!(stream.overlapped_s(), 0.0);
        assert_eq!(stream.savings_s(), 0.0);
    }

    #[test]
    fn single_item_has_no_overlap() {
        let mut stream = Stream::new();
        stream.record(StreamOp::new(1.0, 4.0, 2.0));
        assert!((stream.overlapped_s() - stream.serialized_s()).abs() < 1e-12);
        assert_eq!(stream.savings_s(), 0.0);
    }

    #[test]
    fn back_to_back_items_overlap_transfers_with_compute() {
        let mut stream = Stream::new();
        for _ in 0..3 {
            stream.record(StreamOp::new(1.0, 5.0, 1.0));
        }
        // Fill (1) + kernels (15) + drain (1): the middle items' transfers
        // hide entirely under compute.
        assert!((stream.overlapped_s() - 17.0).abs() < 1e-12);
        assert!((stream.serialized_s() - 21.0).abs() < 1e-12);
        assert!((stream.savings_s() - 4.0).abs() < 1e-12);
        let stats = stream.stats();
        assert_eq!(stats.ops, 3);
        assert!((stats.upload_s - 3.0).abs() < 1e-12);
        assert!((stats.kernel_s - 15.0).abs() < 1e-12);
        assert!((stats.savings_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn record_between_attributes_snapshot_deltas() {
        let device = Device::tesla_c1060();
        let mut stream = Stream::new();
        let before = device.transfer_snapshot();
        let up = device.upload_bytes(4 << 20);
        let down = device.download_bytes(1 << 20);
        stream.record_between(&before, &device.transfer_snapshot(), 0.5);
        let op = stream.ops()[0];
        assert!((op.upload_s - up).abs() < 1e-12);
        assert!((op.download_s - down).abs() < 1e-12);
        assert!((op.kernel_s - 0.5).abs() < 1e-12);
    }
}
