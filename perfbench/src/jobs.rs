//! Job configurations of the four workloads, derived from the benchmark seed.

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::recover::RecoveryPolicy;
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::numeric::generate_input;
use bsr_core::queue::JobClass;
use bsr_linalg::generate::random_diag_dominant_matrix;
use bsr_linalg::matrix::Matrix;
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;
use hetero_sim::freq::MHz;
use hetero_sim::sdc::FaultMix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// BSR reclamation ratio every workload plans with.
pub const RATIO: f64 = 0.25;

/// SplitMix64 finaliser: distinct, well-mixed per-job seeds from (seed, salt, index).
pub fn job_seed(seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nominal flops of one factorization: n³/3 (Cholesky), 2n³/3 (LU), 4n³/3 (QR).
pub fn nominal_flops(dec: Decomposition, n: usize) -> f64 {
    let n3 = (n as f64).powi(3);
    match dec {
        Decomposition::Cholesky => n3 / 3.0,
        Decomposition::Lu => 2.0 * n3 / 3.0,
        Decomposition::Qr => 4.0 * n3 / 3.0,
    }
}

/// Short lowercase name of a decomposition (metric and span suffixes).
pub fn dec_name(dec: Decomposition) -> &'static str {
    match dec {
        Decomposition::Cholesky => "cholesky",
        Decomposition::Lu => "lu",
        Decomposition::Qr => "qr",
    }
}

const ROTATION: [Decomposition; 3] = [
    Decomposition::Cholesky,
    Decomposition::Lu,
    Decomposition::Qr,
];

fn base(dec: Decomposition, n: usize, block: usize, seed: u64) -> RunConfig {
    RunConfig::small(dec, n, block, Strategy::Bsr(BsrConfig::with_ratio(RATIO))).with_seed(seed)
}

/// The input of a closed-loop job: the program's own generator, except for
/// MixedF32 LU, which gets a diagonally dominant matrix from the same seed.
///
/// f32 factors refine to an f64 solution only when κ·ε_f32 is well below 1. The
/// program's random LU inputs have a heavy-tailed κ: on one of the 220 MixedF32
/// LU jobs of ten 25-second runs, MixedF32 LU returned `Ok` after 10 sweeps with
/// a backward error of 1.7·10⁻⁷ instead of falling back to f64. A timed workload must not
/// fail jobs, so this defect is probed per layer (`mixed.unconverged`) instead.
pub fn input(cfg: &RunConfig) -> Matrix {
    if cfg.precision == Precision::MixedF32 && cfg.workload.decomposition == Decomposition::Lu {
        random_diag_dominant_matrix(&mut ChaCha8Rng::seed_from_u64(cfg.seed), cfg.workload.n)
    } else {
        generate_input(cfg)
    }
}

/// The closed-loop workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    /// f64 n = 1024 whole-run DAG, forced Full checksums, fault-free.
    DenseDag,
    /// {Cholesky, LU} × {f64 with measured feedback, mixed f32}, adaptive ABFT.
    OnlineMixed,
    /// Overclocked n = 512 with recovery: Full under mixed strikes, Multi(2) under
    /// data strikes.
    ChaosRecovery,
}

impl Closed {
    /// Number of distinct job templates the workload cycles through.
    pub fn period(self) -> usize {
        match self {
            Closed::DenseDag => 3,
            Closed::OnlineMixed => 4,
            Closed::ChaosRecovery => 6,
        }
    }

    /// The config of job `i` under benchmark seed `seed`.
    pub fn job(self, seed: u64, i: usize) -> RunConfig {
        let s = job_seed(seed, self as u64 + 1, i as u64);
        match self {
            Closed::DenseDag => base(ROTATION[i % 3], 1024, 128, s)
                .with_measured_feedback(false)
                .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
                .with_fault_injection(false),
            Closed::OnlineMixed => {
                let dec = [Decomposition::Cholesky, Decomposition::Lu][i % 2];
                let cfg = base(dec, 1024, 128, s).with_fault_injection(false);
                if (i / 2).is_multiple_of(2) {
                    cfg.with_measured_feedback(true)
                } else {
                    cfg.with_precision(Precision::MixedF32)
                }
            }
            Closed::ChaosRecovery => {
                // Full meets checksum, panel and four-corner burst strikes, which it
                // corrects in place or recomputes; Multi(2) meets data strikes, which
                // its order-2 decoder corrects in place.
                let (scheme, mix) = if (i / 3).is_multiple_of(2) {
                    (ChecksumScheme::Full, STRIKES)
                } else {
                    (ChecksumScheme::Multi(2), FaultMix::default())
                };
                chaos(ROTATION[i % 3], s, mix, scheme, CHAOS_RATE_PER_S)
            }
        }
    }
}

/// 0D SDC rate of `chaos_recovery`, per second above the lowered fault-free
/// ceiling: about 2 strikes per Full job and 9 per Multi(2) job. Every job ended
/// clean in a 1000-job sweep of the Full half and in over 4000 jobs of each half
/// run by this benchmark. The service chaos cell's rate (10⁶/s,
/// about 550 strikes per job) fails two jobs in three, so it is probed per layer
/// (`storm_job`) rather than timed.
const CHAOS_RATE_PER_S: f64 = 3.0e3;

/// Checksum-vector, lookahead-panel and four-corner burst strikes, each clearing
/// after one strike.
const STRIKES: FaultMix = FaultMix {
    checksum: 0.2,
    panel: 0.2,
    burst: 0.3,
    grid: 0.0,
    grid_size: 2,
    persistent: 0.0,
    max_strikes: 1,
};

/// Job `i` of the fault storm: the service chaos cell's calibration, inert and
/// harsh mixes alternating, Full and Multi(2) alternating.
pub fn storm_job(seed: u64, i: usize) -> RunConfig {
    let mix = if (i / 3).is_multiple_of(2) {
        FaultMix::default()
    } else {
        FaultMix::harsh()
    };
    let scheme = if (i / 6).is_multiple_of(2) {
        ChecksumScheme::Full
    } else {
        ChecksumScheme::Multi(2)
    };
    chaos(
        ROTATION[i % 3],
        job_seed(seed, 0x570, i as u64),
        mix,
        scheme,
        1.0e6,
    )
}

/// The overclocked SDC calibration of the service chaos cell at n = 512, b = 64:
/// BSR r = 0.4 pushes the GPU clock past a lowered fault-free ceiling, where 0D
/// SDCs arrive at `rate` and 1D SDCs at a tenth of it. Feedback is off so each
/// job's fault schedule is a pure function of its seed.
fn chaos(
    dec: Decomposition,
    seed: u64,
    mix: FaultMix,
    scheme: ChecksumScheme,
    rate: f64,
) -> RunConfig {
    let mut cfg = RunConfig::small(dec, 512, 64, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
        .with_abft_mode(AbftMode::Forced(scheme))
        .with_measured_feedback(false)
        .with_seed(seed)
        .with_recovery(RecoveryPolicy::enabled())
        .with_fault_mix(mix);
    cfg.platform.gpu.sdc.fault_free_max = MHz(1000.0);
    cfg.platform.gpu.sdc.one_d_onset = MHz(1100.0);
    cfg.platform.gpu.sdc.base_rate_per_s = rate;
    cfg.platform.gpu.sdc.one_d_base_rate_per_s = rate / 10.0;
    cfg
}

/// Service job `i` of an episode: n ∈ {128, 192, 256}, b = 32, all three
/// decompositions, both classes; fault-free DAG runs (feedback off).
pub fn service_job(seed: u64, salt: u64, i: usize) -> (RunConfig, JobClass) {
    let dec = ROTATION[i % 3];
    let n = [128, 192, 256][(i / 3) % 3];
    let class = if (i / 9).is_multiple_of(2) {
        JobClass::Latency
    } else {
        JobClass::Throughput
    };
    let cfg = base(dec, n, 32, job_seed(seed, salt, i as u64))
        .with_measured_feedback(false)
        .with_fault_injection(false);
    (cfg, class)
}
