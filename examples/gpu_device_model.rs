//! A tour of the device model: launch a simple kernel on the Tesla-class device and on
//! the Xeon-core model and compare measured and modeled times.
//!
//! Run with: `cargo run --release --example gpu_device_model`

use ftmap::gpu::sync::locked;
// lint-allow(launch-layer-only): this example deliberately tours the raw
// device layer (see the annotated call sites below).
use ftmap::gpu::{BlockContext, BlockKernel, Device, DeviceSpec, LaunchConfig, Transfer};
use std::sync::Mutex;

/// A toy kernel: each block sums the squares of a chunk of the input.
struct SumSquares<'a> {
    input: &'a [f64],
    partials: &'a Mutex<Vec<f64>>,
}

impl BlockKernel for SumSquares<'_> {
    fn execute_block(&self, ctx: &mut BlockContext) {
        let range = ctx.block_range(self.input.len());
        let mut acc = 0.0;
        for i in range.clone() {
            acc += self.input[i] * self.input[i];
        }
        ctx.record_global_reads(range.len() as u64);
        ctx.record_flops(2 * range.len() as u64);
        ctx.record_global_writes(1);
        locked(self.partials)[ctx.block_idx] = acc;
    }
}

fn main() {
    let n = 4_000_000usize;
    let input: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();

    let gpu = Device::tesla_c1060();
    let cpu = Device::new(DeviceSpec::xeon_core());
    println!(
        "Device: {} ({} worker threads on this machine)",
        gpu.spec().name,
        gpu.worker_threads()
    );
    println!(
        "Peak throughput: {:.0} GFLOP/s vs host core {:.0} GFLOP/s\n",
        gpu.spec().peak_gflops(),
        cpu.spec().peak_gflops()
    );

    let blocks = 240;
    let partials = Mutex::new(vec![0.0; blocks]);
    let kernel = SumSquares { input: &input, partials: &partials };
    // lint-allow(launch-layer-only): this example *is* the tour of the raw
    // device layer — real consumers go through the `KernelLaunch` builder.
    let config = LaunchConfig::new(blocks, 128);

    // lint-allow(accounted-transfers): raw transfer accounting shown on
    // purpose here; pipelines use the `upload_*`/`download_*` helpers.
    let upload = gpu.record_transfer(Transfer::upload((n * 8) as u64));
    // lint-allow(launch-layer-only): raw launch shown on purpose (see above).
    let stats = gpu.launch(&config, &kernel);
    let total: f64 = locked(&partials).iter().sum();

    println!("sum of squares = {total:.1}");
    println!("upload (modeled):        {:.3} ms", 1e3 * upload);
    println!("kernel wall (this CPU):  {:.3} ms", 1e3 * stats.wall_time_s);
    println!("kernel modeled (C1060):  {:.3} ms", 1e3 * stats.modeled_time_s);

    // The serial baseline is the host cost model over the same counters.
    let serial_s = cpu.cost_model().serial_time(&stats.counters);
    println!("serial modeled (Xeon):   {:.3} ms", 1e3 * serial_s);
    println!("modeled speedup:         {:.1}x", serial_s / stats.modeled_time_s);
    println!(
        "\ncounters: {} flops, {} global reads, arithmetic intensity {:.2} flops/access",
        stats.counters.flops,
        stats.counters.global_reads,
        stats.counters.arithmetic_intensity()
    );
}
