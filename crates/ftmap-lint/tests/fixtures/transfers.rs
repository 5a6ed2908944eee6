// Fixture: seeded `accounted-transfers` violations (raw transfer recording
// outside gpu-sim). Never compiled.
use gpu_sim::{Device, Transfer};

fn raw_transfer(device: &Device, bytes: u64) -> f64 {
    let up = device.record_transfer(Transfer::upload(bytes)); // line 6: two violations
    let down = Transfer::download(bytes); // line 7: violation (Transfer::)
    up
}

fn sanctioned(device: &Device, grid: &[f64]) -> f64 {
    // Accounted helpers are the sanctioned path — no violation.
    let up = device.upload_words(grid.len());
    let down = device.download_bytes(1024);
    // `TransferSnapshot` and `transfer_snapshot()` are observation, not
    // recording — exact-identifier matching must not flag them:
    let snap: gpu_sim::TransferSnapshot = device.transfer_snapshot();
    // `record_transfer_s` is a different identifier entirely.
    let s = ledger.record_transfer_s;
    up + down
}
