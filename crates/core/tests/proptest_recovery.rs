//! Chaos campaign for the uncorrectable-SDC recovery pipeline.
//!
//! Every fault this suite plans is **beyond in-place correction by construction**:
//! four-corner bursts, strikes into the checksum vectors themselves, and strikes
//! into the lookahead panel factorization (the mix leaves no plain tile-data
//! faults, whose 0D/1D corrections are float-approximate and would break
//! bit-exactness). Recovery must climb the ladder — recompute the tile from its
//! snapshot, replay the iteration (stepped runtime) or the run (DAG runtime) — and
//! the contract pinned here is the paper-level robustness claim:
//!
//! * a recovery-enabled run either produces factors **bit-identical to a clean
//!   serial blocked factorization** (every corruption was rolled back and
//!   recomputed from identical inputs) or fails with a structured
//!   [`NumericError::UnrecoverableFault`] carrying the recovery history —
//!   it never returns silently corrupted factors;
//! * on the DAG runtime (feedback off — plans come from the analytic predictor,
//!   so the sampled SDC stream is reproducible) the outcome — factors, final
//!   verification, and the canonicalized recovery history — is identical at
//!   every thread count in {1, 2, 4, 8};
//! * on the stepped runtime (measured feedback on — BSR plans, and therefore the
//!   sampled SDC schedule, depend on host wall-clock noise by design) every run
//!   still honors the per-run contract above, at every thread count;
//! * persistent faults (re-striking on every recomputation) are detected as such
//!   and escalate to a structured failure instead of looping or lying;
//! * mixed-precision runs (LU and Cholesky at f32 on the DAG runtime, same plan,
//!   same ladder) either return factors whose f64 refinement converged — or that
//!   came from the f64 fallback — with a clean final verification, or fail
//!   structurally; never `Ok` with `numerically_correct = false`;
//! * every f64 run that returns factors, recovery on or off, is graded the same by
//!   the engine's O(n²) probed certificate (`numerically_correct`) and by the exact
//!   O(n³) residual oracle (`verify::*_residual`): in particular, every silent
//!   corruption the oracle sees, the certificate flags.
//!
//! The campaign *must* overclock: SDC rates are identically zero under the
//! default guardband (`SdcModel::rate` models the paper's stock machine as
//! fault-free), and only `Strategy::Bsr` applies the optimized guardband that
//! enters the unstable frequency region. An `Original`-strategy "chaos" config
//! would sample zero events and pass vacuously — `the_campaign_mix_actually_strikes`
//! below pins non-vacuity at exactly the campaign's dimensions.
//!
//! Shapes are block-aligned: on a single-column trailing group a "burst"
//! degenerates to a correctable 1D pattern, which would re-introduce approximate
//! in-place correction. Ragged shapes get their own weaker-contract test below
//! (never silently corrupted, but recovery may legitimately correct in place).

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::recover::{RecoveryAction, RecoveryEvent, RecoveryPolicy};
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::numeric::{run_numeric_on, NumericError, NumericFactors, NumericRunReport};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::Matrix;
use bsr_linalg::verify::{self, CORRECTNESS_THRESHOLD};
use bsr_linalg::{cholesky, lu, qr};
use bsr_sched::strategy::{BsrConfig, Strategy as EnergyStrategy};
use bsr_sched::workload::Decomposition;
use hetero_sim::sdc::FaultMix;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadCountGuard;
use std::time::Duration;

/// The acceptance thread sweep: inline, small pool, typical pool, oversubscribed.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Only uncorrectable fault classes: 30% checksum-vector strikes, 20% panel
/// strikes, 50% bursts; single-strike (transient), none persistent.
fn uncorrectable_mix() -> FaultMix {
    FaultMix { checksum: 0.3, panel: 0.2, burst: 0.5, ..FaultMix::default() }
}

/// [`chaos_cfg`] generalized over the forced checksum scheme and the fault mix:
/// the multi-strike campaigns force `Multi(t)` codes against mixes calibrated at
/// and just beyond each code's per-line correction capacity.
fn chaos_cfg_for(
    dec: Decomposition,
    n: usize,
    b: usize,
    seed: u64,
    feedback: bool,
    scheme: ChecksumScheme,
    mix: FaultMix,
) -> RunConfig {
    let mut cfg = RunConfig::small(dec, n, b, EnergyStrategy::Bsr(BsrConfig::with_ratio(0.4)))
        .with_abft_mode(AbftMode::Forced(scheme))
        .with_measured_feedback(feedback)
        .with_seed(seed)
        .with_recovery(RecoveryPolicy::enabled())
        .with_fault_mix(mix);
    cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
    cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
    cfg.platform.gpu.sdc.base_rate_per_s = 1.0e6;
    cfg.platform.gpu.sdc.one_d_base_rate_per_s = 1.0e5;
    cfg
}

/// Forced-Full, recovery-enabled configuration that aggressively overclocks
/// (BSR with a high reclamation ratio — the only strategy that applies the
/// optimized guardband, without which SDC rates are identically zero) and pulls
/// the fault-free threshold below the base clock with rates raised so the
/// micro-second iterations of these tiny problems still see events. `feedback`
/// selects the runtime: `true` = barrier-stepped with per-iteration replay
/// checkpoints, `false` = whole-run DAG with run-level replay; only the latter
/// has a host-noise-independent fault schedule.
fn chaos_cfg(dec: Decomposition, n: usize, b: usize, seed: u64, feedback: bool) -> RunConfig {
    chaos_cfg_for(dec, n, b, seed, feedback, ChecksumScheme::Full, uncorrectable_mix())
}

/// [`chaos_cfg_for`] recalibrated for in-place-correction campaigns. The stepped
/// runtime samples SDC events from *measured* wall-clock iterations (~10³× the
/// DAG's analytic times), so the uncorrectable campaign's rates would produce
/// avalanches of hundreds of strikes per run — dozens per tile, far beyond any
/// finite code order, where a probabilistic decoder can alias beyond-capacity
/// garbage into a plausible correction (the classic MDS decoding radius limit;
/// the detect-only fault classes of the headline campaign are immune, in-place
/// correction is not). The DAG runtime keeps the hot rates; the stepped runtime
/// gets them scaled to land a handful of strikes per run, the regime the
/// per-line capacity model is calibrated for.
fn in_place_cfg(
    dec: Decomposition,
    n: usize,
    b: usize,
    seed: u64,
    feedback: bool,
    scheme: ChecksumScheme,
    mix: FaultMix,
) -> RunConfig {
    let mut cfg = chaos_cfg_for(dec, n, b, seed, feedback, scheme, mix);
    if feedback {
        cfg.platform.gpu.sdc.base_rate_per_s = 1.0e4;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 1.0e3;
    }
    cfg
}

/// The clean serial blocked factorization the recovered factors must match
/// bit-for-bit: factored storage plus pivots/taus.
struct CleanReference {
    factored: Matrix,
    pivots: Vec<usize>,
    taus: Vec<f64>,
}

fn clean_reference(dec: Decomposition, input: &Matrix, b: usize) -> CleanReference {
    match dec {
        Decomposition::Cholesky => {
            let mut m = input.clone();
            cholesky::cholesky_blocked(&mut m, b).expect("clean input must factor");
            CleanReference { factored: m, pivots: Vec::new(), taus: Vec::new() }
        }
        Decomposition::Lu => {
            let f = lu::lu_blocked(input, b).expect("clean input must factor");
            CleanReference { factored: f.lu, pivots: f.pivots, taus: Vec::new() }
        }
        Decomposition::Qr => {
            let f = qr::qr_blocked(input, b);
            CleanReference { factored: f.qr, pivots: Vec::new(), taus: f.taus }
        }
    }
}

/// The exact O(n³) residual of an f64 run's factors: the oracle the engine's
/// probed certificate is checked against.
fn oracle_residual(input: &Matrix, factors: &NumericFactors, label: &str) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => verify::cholesky_residual(input, &m.lower_triangular()),
        NumericFactors::Lu(f) => verify::lu_residual(input, f),
        NumericFactors::Qr(f) => verify::qr_residual(input, f),
        other => panic!("{label}: the oracle grades f64 factors, got {other:?}"),
    }
}

/// The agreement property for one f64 run that returned factors: the certificate
/// behind `numerically_correct` and the exact oracle reach the same verdict.
/// Returns whether the oracle saw a corruption (which the certificate then flagged).
fn assert_certificate_agrees(out: &NumericRunReport, input: &Matrix, label: &str) -> bool {
    let exact = oracle_residual(input, &out.factors, label);
    let oracle_correct = exact < CORRECTNESS_THRESHOLD;
    assert_eq!(
        out.numerically_correct,
        oracle_correct,
        "{label}: certificate {:.3e} and oracle {exact:.3e} disagree",
        out.residual
    );
    !oracle_correct
}

/// One watched run (shared DAG watchdog — a recovery bug that strands a retried
/// task would otherwise hang CI silently).
fn run_watched(
    cfg: RunConfig,
    input: &Matrix,
    label: String,
) -> Result<NumericRunReport, NumericError> {
    let input = input.clone();
    bsr_linalg::dag::with_watchdog(label, Duration::from_secs(120), move || {
        run_numeric_on(cfg, &input)
    })
}

/// What one run resolved to, reduced to the cross-thread comparable core: the
/// factors themselves are already pinned bit-for-bit to the clean reference by
/// [`classify`], so the resolution kind plus the canonical recovery history is
/// the only remaining schedule-sensitive state.
enum Outcome {
    Recovered { history: Vec<RecoveryEvent> },
    Failed { history: Vec<RecoveryEvent> },
}

fn classify(
    result: Result<NumericRunReport, NumericError>,
    input: &Matrix,
    reference: &CleanReference,
    label: &str,
) -> Outcome {
    match result {
        Ok(out) => {
            assert_certificate_agrees(&out, input, label);
            // The never-silently-corrupted contract, strict form: a run that
            // *returns* factors must have fully healed — clean final
            // verification, healthy residual, and bits identical to the clean
            // serial factorization (every fault class in the mix is recomputed
            // from pristine operands, never "corrected" approximately).
            assert!(out.numerically_correct, "{label}: residual {:.3e}", out.residual);
            assert_eq!(out.verification.uncorrectable, 0, "{label}: dirty final verification");
            let (factored, pivots, taus) = match out.factors {
                NumericFactors::Cholesky(m) => (m, Vec::new(), Vec::new()),
                NumericFactors::Lu(f) => (f.lu, f.pivots, Vec::new()),
                NumericFactors::Qr(f) => (f.qr, Vec::new(), f.taus),
                other => panic!("{label}: f64 recovery run produced {other:?}"),
            };
            assert!(factored == reference.factored, "{label}: factors not bit-identical");
            assert_eq!(pivots, reference.pivots, "{label}: pivots differ");
            assert_eq!(taus, reference.taus, "{label}: taus differ");
            Outcome::Recovered { history: out.recovery }
        }
        Err(NumericError::UnrecoverableFault { history }) => {
            // The structured failure path: loud, with the ladder's history.
            assert!(!history.is_empty(), "{label}: empty failure history");
            Outcome::Failed { history }
        }
        Err(e) => panic!("{label}: expected recovery or UnrecoverableFault, got: {e}"),
    }
}

/// [`classify`] for a mixed-precision run: f32 factors are only f32-accurate, so
/// instead of bit-identity a returning run must carry a converged refinement (or
/// have fallen back to f64) and be numerically correct with a clean final
/// verification.
fn classify_mixed(result: Result<NumericRunReport, NumericError>, label: &str) -> Outcome {
    match result {
        Ok(out) => {
            let mixed = out.mixed.expect("mixed runs carry a refinement record");
            assert!(mixed.converged || mixed.fell_back, "{label}: unconverged, no fallback");
            assert!(out.numerically_correct, "{label}: Ok but not numerically correct");
            assert_eq!(out.verification.uncorrectable, 0, "{label}: dirty final verification");
            Outcome::Recovered { history: out.recovery }
        }
        Err(NumericError::UnrecoverableFault { history }) => {
            assert!(!history.is_empty(), "{label}: empty failure history");
            Outcome::Failed { history }
        }
        Err(e) => panic!("{label}: expected recovery or UnrecoverableFault, got: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline campaign: block-aligned shapes, uncorrectable bursts plus
    /// checksum-vector and panel strikes, both runtimes, all thread counts.
    #[test]
    fn recovery_is_bit_exact_or_fails_structurally_at_every_thread_count(
        (bi, tiles, seed) in (0usize..2, 3usize..6, any::<u64>()),
        dec_idx in 0usize..3,
    ) {
        let dec = Decomposition::ALL[dec_idx];
        let b = [8usize, 16][bi];
        let n = b * tiles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = match dec {
            Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
            _ => random_matrix(&mut rng, n, n),
        };
        let reference = clean_reference(dec, &input, b);

        for feedback in [false, true] {
            let runtime = if feedback { "stepped" } else { "dag" };
            let mut first: Option<Outcome> = None;
            for t in THREADS {
                let _guard = ThreadCountGuard::set(t);
                let label = format!("recovery {dec:?} n={n} b={b} {runtime} t={t}");
                let cfg = chaos_cfg(dec, n, b, seed, feedback);
                let outcome =
                    classify(run_watched(cfg, &input, label.clone()), &input, &reference, &label);
                // Cross-thread determinism holds only on the DAG runtime: with
                // measured feedback the BSR planner — and therefore the sampled
                // fault schedule — sees host wall-clock noise, so stepped runs
                // are covered by the per-run contract `classify` enforces above.
                if feedback {
                    continue;
                }
                match (&first, &outcome) {
                    (None, _) => first = Some(outcome),
                    (Some(Outcome::Recovered { history: h0, .. }),
                     Outcome::Recovered { history: h, .. }) => {
                        prop_assert_eq!(h, h0, "recovery histories diverge ({})", &label);
                    }
                    (Some(Outcome::Failed { history: h0 }),
                     Outcome::Failed { history: h }) => {
                        prop_assert_eq!(h, h0, "failure histories diverge ({})", &label);
                    }
                    _ => prop_assert!(false, "outcome kind differs across threads ({})", &label),
                }
            }
        }

        // One more input: the same chaos plan at mixed precision (LU and Cholesky).
        // Its plans are made up front like the DAG runtime's, so the outcome kind and
        // recovery history must also agree across thread counts.
        if dec != Decomposition::Qr {
            let mut first: Option<Outcome> = None;
            for t in THREADS {
                let _guard = ThreadCountGuard::set(t);
                let label = format!("recovery {dec:?} n={n} b={b} mixed t={t}");
                let cfg = chaos_cfg(dec, n, b, seed, false).with_precision(Precision::MixedF32);
                let outcome = classify_mixed(run_watched(cfg, &input, label.clone()), &label);
                let (kind, history) = match &outcome {
                    Outcome::Recovered { history } => ("recovered", history),
                    Outcome::Failed { history } => ("failed", history),
                };
                match &first {
                    None => first = Some(outcome),
                    Some(Outcome::Recovered { history: h0 }) => {
                        prop_assert_eq!(kind, "recovered", "mixed outcome differs ({})", &label);
                        prop_assert_eq!(history, h0, "mixed histories diverge ({})", &label);
                    }
                    Some(Outcome::Failed { history: h0 }) => {
                        prop_assert_eq!(kind, "failed", "mixed outcome differs ({})", &label);
                        prop_assert_eq!(history, h0, "mixed histories diverge ({})", &label);
                    }
                }
            }
        }
    }
}

/// The campaign's vacuity guard: at the campaign's own dimensions and rates, with
/// recovery *off*, a fixed seed sweep must observe injected faults and — because
/// the mix plans only uncorrectable classes — uncorrectable verification tallies.
/// Deterministic (DAG runtime, analytic-fed plans), so this pins forever that the
/// chaos configuration actually produces the strikes the campaign claims to
/// survive; if a refactor silently zeroes the SDC stream (for example by letting
/// the strategy fall back to the fault-free default guardband), this fails.
#[test]
fn the_campaign_mix_actually_strikes() {
    let mut struck = 0usize;
    for (bi, tiles, seed) in
        [(0usize, 5usize, 21u64), (1, 5, 22), (1, 4, 23), (0, 4, 24), (1, 5, 25)]
    {
        let b = [8usize, 16][bi];
        let n = b * tiles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = random_matrix(&mut rng, n, n);
        let mut cfg = chaos_cfg(Decomposition::Lu, n, b, seed, false);
        cfg.recovery = RecoveryPolicy::default();
        let label = format!("vacuity probe n={n} b={b} seed={seed}");
        let out = run_watched(cfg, &input, label).expect("recovery-off runs return");
        if out.faults_injected > 0 && out.verification.uncorrectable > 0 {
            struck += 1;
        }
    }
    assert!(
        struck >= 3,
        "campaign configuration only produced uncorrectable strikes in {struck}/5 \
         probes — the chaos campaign is (close to) vacuous"
    );
}

/// What a fault class is expected to do to a given scheme when it lands.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// Beyond the scheme's capacity: uncorrectable verification tallies.
    Uncorrectable,
    /// Within an order-`t` code's per-line budget: located and fixed in place.
    CorrectedK,
    /// Strikes in the stored check vectors, recognized as such (data untrusted
    /// metadata): only the `Multi` codes can classify these without a guard.
    CorrectedCheck,
}

/// The vacuity guard generalized over every scheme × fault-class pair the
/// multi-strike campaigns rely on (satellite of the k-check code work): with
/// recovery *off* and fixed seeds on the deterministic DAG runtime, each pair
/// must observably produce its calibrated outcome — `grid(g)` defeats every
/// order `t < g` and is absorbed in place by `t ≥ g`, four-corner bursts sit
/// exactly at order 2, check-vector strikes are classified by the code itself,
/// and panel strikes always escalate (panel verification is detection-only).
/// `persistent` is a re-strike modifier, not a target class; its escalation
/// contract is pinned by `persistent_faults_escalate_to_structured_failure`.
#[test]
fn every_scheme_and_fault_class_strikes_observably() {
    let classes: [(&str, FaultMix); 5] = [
        ("checksum", FaultMix { checksum: 1.0, ..FaultMix::default() }),
        ("panel", FaultMix { panel: 1.0, ..FaultMix::default() }),
        ("burst", FaultMix { burst: 1.0, ..FaultMix::default() }),
        ("grid2", FaultMix::grid_storm(2)),
        ("grid3", FaultMix::grid_storm(3)),
    ];
    let schemes = [
        ChecksumScheme::Full,
        ChecksumScheme::Multi(1),
        ChecksumScheme::Multi(2),
        ChecksumScheme::Multi(3),
    ];
    for scheme in schemes {
        let order = match scheme {
            ChecksumScheme::Multi(t) => i32::from(t),
            _ => 1,
        };
        for (class, mix) in classes {
            let expect = match (class, scheme) {
                ("panel", _) => Expect::Uncorrectable,
                ("checksum", ChecksumScheme::Multi(_)) => Expect::CorrectedCheck,
                ("checksum", _) => Expect::Uncorrectable, // checksum-of-checksums guard
                ("burst", _) if order >= 2 => Expect::CorrectedK, // 2 strikes per line
                ("burst", _) => Expect::Uncorrectable,
                ("grid2", _) if order >= 2 => Expect::CorrectedK,
                ("grid3", _) if order >= 3 => Expect::CorrectedK,
                _ => Expect::Uncorrectable,
            };
            let mut struck = 0usize;
            for (bi, tiles, seed) in [(0usize, 5usize, 31u64), (1, 4, 32), (0, 4, 33)] {
                let b = [8usize, 16][bi];
                let n = b * tiles;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let input = random_matrix(&mut rng, n, n);
                let mut cfg = chaos_cfg_for(Decomposition::Lu, n, b, seed, false, scheme, mix);
                cfg.recovery = RecoveryPolicy::default();
                let label = format!("vacuity {scheme:?}/{class} n={n} b={b} seed={seed}");
                let out = run_watched(cfg, &input, label).expect("recovery-off runs return");
                if out.faults_injected == 0 {
                    continue;
                }
                let v = &out.verification;
                let observed = match expect {
                    Expect::Uncorrectable => v.uncorrectable > 0,
                    Expect::CorrectedK => v.corrected_k > 0,
                    Expect::CorrectedCheck => v.corrected_check > 0,
                };
                if observed {
                    struck += 1;
                }
            }
            assert!(
                struck >= 2,
                "{scheme:?} under a pure {class} mix showed its expected {expect:?} \
                 outcome in only {struck}/3 probes — this scheme × class cell of the \
                 multi-strike campaign is (close to) vacuous"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance campaign: strikes landing in the check vectors themselves are
    /// corrected in place by the `Multi(t)` codes — no guard, no tile recompute —
    /// and the factors stay **bit-identical** to the clean serial reference at
    /// every thread count on both runtimes (check strikes never touch data, so
    /// even the in-place path preserves bit-exactness; the rare over-capacity
    /// pile-up escalates to a recompute that restores bit-exact state too).
    #[test]
    fn multi_codes_absorb_check_vector_strikes_bit_identically(
        (bi, tiles, seed) in (0usize..2, 3usize..6, any::<u64>()),
        t in 2u8..4,
        dec_idx in 0usize..3,
    ) {
        let dec = Decomposition::ALL[dec_idx];
        let b = [8usize, 16][bi];
        let n = b * tiles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = match dec {
            Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
            _ => random_matrix(&mut rng, n, n),
        };
        let reference = clean_reference(dec, &input, b);
        let scheme = ChecksumScheme::Multi(t);
        let mix = FaultMix { checksum: 1.0, ..FaultMix::default() };

        for feedback in [false, true] {
            let runtime = if feedback { "stepped" } else { "dag" };
            let mut first: Option<(Vec<RecoveryEvent>, usize, usize)> = None;
            for threads in THREADS {
                let _guard = ThreadCountGuard::set(threads);
                let label = format!("check-strike Multi({t}) {dec:?} n={n} b={b} {runtime} t={threads}");
                let cfg = in_place_cfg(dec, n, b, seed, feedback, scheme, mix);
                let out = match run_watched(cfg, &input, label.clone()) {
                    Ok(out) => out,
                    Err(e) => panic!("{label}: check strikes are always recoverable, got {e}"),
                };
                match classify(Ok(out.clone()), &input, &reference, &label) {
                    Outcome::Recovered { .. } => {}
                    Outcome::Failed { .. } => unreachable!(),
                }
                if out.faults_injected > 0 {
                    prop_assert!(
                        out.verification.corrected_check > 0 || !out.recovery.is_empty(),
                        "{}: {} check-vector strikes left no trace",
                        &label, out.faults_injected
                    );
                }
                if feedback {
                    continue; // stepped plans see host noise; per-run contract only
                }
                let state = (out.recovery, out.verification.corrected_check, out.faults_injected);
                match &first {
                    None => first = Some(state),
                    Some(f) => prop_assert_eq!(f, &state, "DAG outcome diverges ({})", &label),
                }
            }
        }
    }

    /// Acceptance campaign: `grid(g)` multi-strike patterns — which defeat the
    /// legacy `Full` scheme outright — are absorbed **in place** by the matching
    /// order-`g` code: runs return numerically correct factors with zero
    /// uncorrectable tallies, and on the DAG runtime the factors, verification
    /// tallies, and recovery history are identical at every thread count.
    #[test]
    fn multi_codes_absorb_matching_grid_strikes_in_place(
        (bi, tiles, seed) in (0usize..2, 3usize..6, any::<u64>()),
        g in 2u8..4,
        dec_idx in 0usize..3,
    ) {
        let dec = Decomposition::ALL[dec_idx];
        let b = [8usize, 16][bi];
        let n = b * tiles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = match dec {
            Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
            _ => random_matrix(&mut rng, n, n),
        };
        let scheme = ChecksumScheme::Multi(g);
        let mix = FaultMix::grid_storm(u32::from(g));

        for feedback in [false, true] {
            let runtime = if feedback { "stepped" } else { "dag" };
            let mut first: Option<(Matrix, Vec<RecoveryEvent>, usize, usize)> = None;
            for threads in THREADS {
                let _guard = ThreadCountGuard::set(threads);
                let label = format!("grid{g} Multi({g}) {dec:?} n={n} b={b} {runtime} t={threads}");
                let cfg = in_place_cfg(dec, n, b, seed, feedback, scheme, mix);
                let out = match run_watched(cfg, &input, label.clone()) {
                    Ok(out) => out,
                    Err(e) => panic!("{label}: in-capacity grids must be absorbed, got {e}"),
                };
                prop_assert!(out.numerically_correct, "{}: residual {:.3e}", &label, out.residual);
                assert_certificate_agrees(&out, &input, &label);
                prop_assert_eq!(out.verification.uncorrectable, 0, "{}", &label);
                if out.faults_injected > 0 {
                    prop_assert!(
                        out.verification.corrected_k > 0 || !out.recovery.is_empty(),
                        "{}: {} grid strikes left no trace",
                        &label, out.faults_injected
                    );
                }
                if feedback {
                    continue;
                }
                let factored = match out.factors {
                    NumericFactors::Cholesky(m) => m,
                    NumericFactors::Lu(f) => f.lu,
                    NumericFactors::Qr(f) => f.qr,
                    other => panic!("{}: f64 run produced {:?}", &label, other),
                };
                let state = (
                    factored,
                    out.recovery,
                    out.verification.corrected_k,
                    out.faults_injected,
                );
                match &first {
                    None => first = Some(state),
                    Some(f) => {
                        prop_assert!(f.0 == state.0, "factors diverge across threads ({})", &label);
                        prop_assert_eq!(&f.1, &state.1, "recovery diverges ({})", &label);
                        prop_assert_eq!(f.2, state.2, "tallies diverge ({})", &label);
                        prop_assert_eq!(f.3, state.3, "fault counts diverge ({})", &label);
                    }
                }
            }
        }
    }
}

/// Every chaos mix the campaigns above draw from, each under the scheme it is
/// aimed at, plus plain tile-data strikes with no checksums at all — the case where
/// only the final verdict can see the corruption.
fn agreement_mixes() -> [(&'static str, ChecksumScheme, FaultMix); 5] {
    [
        ("uncorrectable", ChecksumScheme::Full, uncorrectable_mix()),
        ("data", ChecksumScheme::Full, FaultMix::default()),
        ("data-unprotected", ChecksumScheme::None, FaultMix::default()),
        ("checksum", ChecksumScheme::Multi(2), FaultMix { checksum: 1.0, ..FaultMix::default() }),
        ("grid3", ChecksumScheme::Multi(2), FaultMix::grid_storm(3)),
    ]
}

/// One run of the agreement sweep. Returns whether it returned factors the oracle
/// found corrupted (after asserting the certificate flagged them too).
fn agreement_run(cfg: RunConfig, input: &Matrix, label: String) -> bool {
    match run_watched(cfg, input, label.clone()) {
        Ok(out) => assert_certificate_agrees(&out, input, &label),
        // Structured failures, and — with recovery off — corrupted panels that
        // stop the factorization, return no factors to grade.
        Err(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The certificate-vs-oracle agreement property over every chaos mix, recovery
    /// on and off, both runtimes and every thread count: each f64 run that returns
    /// factors is judged `numerically_correct` exactly when the O(n³) oracle
    /// residual is below the threshold.
    #[test]
    fn certificate_agrees_with_the_residual_oracle(
        (bi, tiles, seed) in (0usize..2, 3usize..6, any::<u64>()),
        dec_idx in 0usize..3,
    ) {
        let dec = Decomposition::ALL[dec_idx];
        let b = [8usize, 16][bi];
        let n = b * tiles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = match dec {
            Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
            _ => random_matrix(&mut rng, n, n),
        };
        for (class, scheme, mix) in agreement_mixes() {
            for recovery in [true, false] {
                for feedback in [false, true] {
                    for threads in THREADS {
                        let _guard = ThreadCountGuard::set(threads);
                        let label = format!(
                            "agreement {class} {dec:?} n={n} b={b} recovery={recovery} \
                             feedback={feedback} t={threads}"
                        );
                        let mut cfg = in_place_cfg(dec, n, b, seed, feedback, scheme, mix);
                        if !recovery {
                            cfg.recovery = RecoveryPolicy::default();
                        }
                        agreement_run(cfg, &input, label);
                    }
                }
            }
        }
    }
}

/// The agreement sweep's vacuity guard: with recovery off, fixed seeds on the
/// deterministic DAG runtime must return factors the oracle finds corrupted — and
/// the certificate must flag every one of them — for each decomposition, under
/// both the unprotected and the uncorrectable mix.
#[test]
fn certificate_flags_every_silent_corruption_the_oracle_sees() {
    for dec in Decomposition::ALL {
        // The other mixes are corrected in place or strike only check vectors,
        // which leaves the oracle nothing to see with recovery off.
        let silent = agreement_mixes()
            .into_iter()
            .filter(|(class, ..)| matches!(*class, "uncorrectable" | "data-unprotected"));
        for (class, scheme, mix) in silent {
            let mut caught = 0usize;
            for seed in 41u64..49 {
                let (b, tiles) = ([8usize, 16][seed as usize % 2], 4 + seed as usize % 3);
                let n = b * tiles;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let input = match dec {
                    Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
                    _ => random_matrix(&mut rng, n, n),
                };
                let mut cfg = chaos_cfg_for(dec, n, b, seed, false, scheme, mix);
                cfg.recovery = RecoveryPolicy::default();
                let label = format!("silent {class} {dec:?} n={n} b={b} seed={seed}");
                if agreement_run(cfg, &input, label) {
                    caught += 1;
                }
            }
            assert!(
                caught >= 3,
                "{dec:?} under the {class} mix returned oracle-visible corruption in only \
                 {caught}/8 recovery-off runs — the agreement sweep is (close to) vacuous"
            );
        }
    }
}

/// Ragged (non-block-aligned) shapes: single-column trailing groups degenerate a
/// burst into a correctable 1D pattern, so bit-exactness cannot be demanded — but
/// the weaker contract still must hold: a returning run is numerically correct
/// with a clean final verification (never silently corrupted), and a failing run
/// fails structurally.
#[test]
fn ragged_shapes_are_never_silently_corrupted() {
    for (dec, n, b, seed) in [
        (Decomposition::Lu, 33, 8, 11u64),
        (Decomposition::Cholesky, 41, 16, 12),
        (Decomposition::Qr, 29, 8, 13),
        (Decomposition::Lu, 50, 16, 14),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = match dec {
            Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
            _ => random_matrix(&mut rng, n, n),
        };
        for feedback in [false, true] {
            let label = format!("ragged {dec:?} n={n} b={b} feedback={feedback}");
            let cfg = chaos_cfg(dec, n, b, seed, feedback);
            match run_watched(cfg, &input, label.clone()) {
                Ok(out) => {
                    assert!(out.numerically_correct, "{label}: residual {:.3e}", out.residual);
                    assert_certificate_agrees(&out, &input, &label);
                    assert_eq!(out.verification.uncorrectable, 0, "{label}");
                }
                Err(NumericError::UnrecoverableFault { history }) => {
                    assert!(!history.is_empty(), "{label}");
                }
                Err(e) => panic!("{label}: unexpected error {e}"),
            }
        }
    }
}

/// Persistent faults re-strike on every recomputation; the tracker must mark the
/// site suspect and escalate to a structured failure instead of looping (or
/// silently accepting the corruption).
#[test]
fn persistent_faults_escalate_to_structured_failure() {
    let n = 192;
    let b = 32;
    let persistent = FaultMix { burst: 1.0, persistent: 1.0, ..FaultMix::default() };
    let hot = |dec, seed, feedback| chaos_cfg(dec, n, b, seed, feedback).with_fault_mix(persistent);

    // Probe with recovery off until a seed shows strikes: the DAG recovery run
    // shares the planner stream, so it sees the same ones.
    let (seed, input) = [303u64, 11, 17, 101, 202]
        .into_iter()
        .find_map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let input = random_matrix(&mut rng, n, n);
            let mut probe = hot(Decomposition::Lu, seed, false);
            probe.recovery = RecoveryPolicy::default();
            let probed = run_watched(probe, &input, format!("persistent probe {seed}")).unwrap();
            (probed.faults_injected > 0 && probed.verification.uncorrectable > 0)
                .then_some((seed, input))
        })
        .expect("no probe seed observed an uncorrectable strike");

    for feedback in [false, true] {
        let cfg = hot(Decomposition::Lu, seed, feedback);
        let label = format!("persistent feedback={feedback}");
        match run_watched(cfg, &input, label.clone()) {
            Err(NumericError::UnrecoverableFault { history }) => {
                assert!(
                    history.iter().any(|e| e.action == RecoveryAction::Escalated),
                    "{label}: persistent fault must be escalated, history: {history:?}"
                );
            }
            // The stepped runtime samples its own fault schedule from measured
            // (host-noise-dependent) plans, so a run where no fault happened to
            // strike is legitimate there — but it must be *visibly* clean: any
            // strike of this all-persistent mix is required to escalate.
            Ok(out) if feedback => assert!(
                out.faults_injected == 0 && out.recovery.is_empty(),
                "{label}: a persistent strike must not resolve (residual {:.3e}, \
                 {} faults, {} recovery events)",
                out.residual,
                out.faults_injected,
                out.recovery.len()
            ),
            Ok(out) => panic!(
                "{label}: persistent faults must not resolve (residual {:.3e})",
                out.residual
            ),
            Err(e) => panic!("{label}: expected UnrecoverableFault, got {e}"),
        }
    }
}
