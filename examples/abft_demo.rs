//! ABFT demonstration: inject silent data corruptions into a real LU factorization and
//! show the checksum schemes detecting and repairing them (the mechanism behind the
//! paper's Figure 9).
//!
//! Run with: `cargo run --release --example abft_demo`

use bsr_repro::framework::config::AbftMode;
use bsr_repro::prelude::*;

fn run_with(scheme_label: &str, mode: AbftMode, rate: f64) {
    // Measured-time feedback is disabled: this demo needs a reproducible fault
    // schedule, and feedback (the default) would let BSR's plans — and therefore the
    // SDC sample — follow the host's wall-clock noise.
    let mut cfg = RunConfig::small(Decomposition::Lu, 256, 32, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
        .with_abft_mode(mode)
        .with_measured_feedback(false)
        .with_seed(17);
    // The tiny demo problem runs for microseconds of simulated GPU time, so the SDC
    // model is made aggressive enough to see corruption events: SDCs become possible at
    // the base clock and the arrival rates are scaled up (paper-scale iterations last
    // seconds and see them at the calibrated rates).
    cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
    cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
    cfg.platform.gpu.sdc.base_rate_per_s = rate;
    cfg.platform.gpu.sdc.one_d_base_rate_per_s = rate / 10.0;
    let out = run_numeric(cfg).expect("factorization failed");
    println!(
        "{scheme_label:<22} faults={:<3} corrected(0D/1D)={:>2}/{:<2} uncorrectable={:<2} probed residual={:.2e}  correct={}",
        out.faults_injected,
        out.verification.corrected_0d,
        out.verification.corrected_1d,
        out.verification.uncorrectable,
        out.residual,
        out.numerically_correct
    );
}

fn main() {
    println!("LU n = 256, block = 32, BSR r = 0.4 with aggressive overclocking:\n");
    let rate = 2.0e4;
    run_with("No fault tolerance", AbftMode::Forced(ChecksumScheme::None), rate);
    run_with("Single-side checksum", AbftMode::Forced(ChecksumScheme::SingleSide), rate);
    run_with("Full checksum", AbftMode::Forced(ChecksumScheme::Full), rate);
    run_with("Adaptive (ABFT-OC)", AbftMode::Adaptive, rate);
}
