// Fixture: seeded `launch-layer-only` violations (raw device API outside
// gpu-sim). Never compiled.
use gpu_sim::{Device, LaunchConfig}; // line 4: violation (LaunchConfig)

fn raw_launch(device: &Device, kernel: &impl gpu_sim::BlockKernel) {
    let config = LaunchConfig::new(64, 128); // line 7: violation (LaunchConfig)
    let stats = device.launch(&config, kernel); // line 8: violation (.launch)
}

fn sanctioned(device: &std::sync::Arc<Device>, kernel: &impl gpu_sim::BlockKernel) {
    // The builder is the sanctioned path — no violation.
    let stats = gpu_sim::KernelLaunch::on(device).grid(64).threads(128).run(kernel);
    // A rocket launch in prose, a launch_count variable and "launch(" in a
    // string are all fine:
    let launch_count = 3;
    let s = "device.launch(config)";
    // lint-allow(launch-layer-only): fixture shows a justified raw launch.
    let raw = device.launch(&make_config(), kernel); // line 19: suppressed
}
