//! Numeric-mode driver: real tiled factorizations with measured-time feedback, fused
//! ABFT and fault injection.
//!
//! At paper scale the timing/energy questions are answered analytically, but the
//! *reliability* claims of ABFT-OC (errors are detected and corrected, the factorization
//! result stays numerically correct) deserve an end-to-end demonstration on real data.
//! The numeric driver is a **plan-driven tiled execution engine** connecting all five
//! layers of the workspace, one blocked iteration at a time:
//!
//! 1. the iteration's [`IterationPlan`](bsr_sched::strategy::IterationPlan) comes from
//!    `bsr-sched` via [`AnalyticDriver::begin_step`] (frequencies, guardbands, ABFT
//!    scheme, sampled SDC events);
//! 2. the trailing update runs on `bsr-linalg`'s task runtime, on one of two paths.
//!    The **stepped** path (f64 with measured feedback **on**) runs the
//!    per-tile-column tiled steppers ([`lu::LuTiledStepper`],
//!    [`cholesky::CholeskyTiledStepper`], [`qr::QrTiledStepper`]) with one-step panel
//!    lookahead — feedback needs each iteration's measured durations before planning
//!    the next, which inherently caps lookahead at one panel. The **DAG** path plans
//!    every iteration up front and runs the whole factorization as one
//!    dependency-driven task DAG ([`lu::lu_dag_with`], [`cholesky::cholesky_dag_with`],
//!    [`qr::qr_dag_with`]) with depth-unbounded lookahead: a trailing tile of
//!    iteration `k + 2` starts the moment its inputs are final, while slow tiles of
//!    iteration `k` are still in flight. It serves f64 runs with feedback off and
//!    every [`Precision::MixedF32`] run, which factors on the same drivers
//!    instantiated at `f32` and then refines to f64 accuracy;
//! 3. checksum maintenance rides those tasks through `bsr-abft`'s
//!    [`FusedTileChecksums`] (f32 tiles through its promote → f64 verify → demote
//!    adapter) — every iteration the active scheme protects pays the full encode +
//!    verify cost, and each sampled SDC event is injected into its target tile
//!    *between* encode and verify, the window a real silent corruption of the update
//!    occupies;
//! 4. the **measured** wall-clock durations of the panel and update streams are
//!    charged to a [`Timeline`] (`hetero-sim`) alongside the analytic estimates;
//! 5. the measured durations are fed back into the slack predictor
//!    ([`AnalyticDriver::finish_step`]), so SR/R2H/BSR plans react to real execution —
//!    the paper's feedback loop (disable with
//!    [`RunConfig::with_measured_feedback`]`(false)` for bit-reproducible plans).
//!
//! Each run ends with an O(n²) verdict: the probed residual certificate of
//! [`bsr_linalg::verify`] (`A·R` against `F·R` for two seeded ±1 probe columns,
//! through the compact factors) is compared with [`CORRECTNESS_THRESHOLD`]. Nothing on
//! the job path rebuilds `L·U`, `L·Lᵀ` or `Q·R`; the exact O(n³) residual stays the
//! test and benchmark oracle. Mixed-precision runs are judged by their f64
//! refinement instead and only report the certificate.
//!
//! Intended for moderate sizes (n up to a few thousand); the test-suite and examples use
//! n in the hundreds.

use crate::analytic::{AnalyticDriver, ObservedDurations};
use crate::config::{Precision, RunConfig};
use crate::report::RunReport;
use crate::trace::{IterationTiming, SdcEvent};
use bsr_abft::checksum::{ChecksumScheme, VerifyOutcome};
use bsr_abft::fused::{FaultTarget, FusedTileChecksums, PerIterationChecksums, PlannedFault};
use bsr_abft::recover::{RecoveryAction, RecoveryEvent, RecoveryTracker};
use bsr_linalg::dag::{DagExecution, DagTiming};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::solve::cholesky_solve;
use bsr_linalg::task::{StepTiming, TrailingHook};
use bsr_linalg::verify::{
    cholesky_certificate, lu_certificate, qr_certificate, CORRECTNESS_THRESHOLD,
};
use bsr_linalg::{blas3, cholesky, lu, qr, Trans};
use bsr_sched::strategy::TaskPredictions;
use bsr_sched::workload::Decomposition;
use hetero_sim::device::DeviceKind;
use hetero_sim::freq::MHz;
use hetero_sim::sdc::FaultMix;
use hetero_sim::timeline::Timeline;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Error produced by a numeric-mode run.
#[derive(Debug)]
pub enum NumericError {
    /// The Cholesky panel hit a non-positive pivot (matrix corrupted beyond repair or not
    /// SPD).
    Cholesky(cholesky::CholeskyError),
    /// The LU panel hit an exactly singular column.
    Lu(lu::LuError),
    /// The input matrix does not match the configured workload (wrong order, or not
    /// square).
    ShapeMismatch {
        /// Rows of the offending input.
        rows: usize,
        /// Columns of the offending input.
        cols: usize,
        /// The square order the workload expects.
        expected: usize,
    },
    /// The recovery ladder was exhausted: an uncorrectable fault survived every
    /// tile recomputation and iteration/run replay the [`RecoveryPolicy`] allows
    /// (or a persistent fault was detected and escalation was immediate). The run
    /// fails *structurally* — with the full recovery history — instead of
    /// returning silently corrupted factors.
    ///
    /// [`RecoveryPolicy`]: bsr_abft::recover::RecoveryPolicy
    UnrecoverableFault {
        /// Everything the recovery pipeline did before giving up, in canonical
        /// (schedule-independent) order.
        history: Vec<RecoveryEvent>,
    },
    /// The input holds a NaN or infinite entry (the first one, in column-major
    /// order, is reported). Rejected before any work: a non-finite entry poisons
    /// every factor it reaches, and would otherwise surface as a bogus singular
    /// pivot or a silently wrong result.
    NonFiniteInput {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// The mixed-precision path was requested for a decomposition that has no f32
    /// driver (QR: Householder reflectors lose too much orthogonality in f32 for
    /// normwise refinement to recover, so the path is not offered).
    MixedUnsupported {
        /// The offending decomposition.
        dec: Decomposition,
    },
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::Cholesky(e) => write!(f, "cholesky failed: {e}"),
            NumericError::Lu(e) => write!(f, "lu failed: {e}"),
            NumericError::ShapeMismatch { rows, cols, expected } => write!(
                f,
                "input is {rows}x{cols} but the workload expects a square {expected}x{expected} matrix"
            ),
            NumericError::UnrecoverableFault { history } => {
                let escalations =
                    history.iter().filter(|e| e.action == RecoveryAction::Escalated).count();
                write!(
                    f,
                    "unrecoverable fault: recovery exhausted after {n} events \
                     ({escalations} persistent-fault escalations)",
                    n = history.len()
                )
            }
            NumericError::NonFiniteInput { row, col } => {
                write!(f, "input entry ({row}, {col}) is not finite")
            }
            NumericError::MixedUnsupported { dec } => {
                write!(f, "mixed precision is not supported for {dec:?} (LU and Cholesky only)")
            }
        }
    }
}

impl std::error::Error for NumericError {}

/// The factors a numeric-mode run produced.
#[derive(Debug, Clone)]
pub enum NumericFactors {
    /// Cholesky factor storage: the lower triangle holds `L`, the strictly upper
    /// triangle is the untouched input.
    Cholesky(Matrix),
    /// LU factors with pivots.
    Lu(lu::LuFactors),
    /// Compact QR factors with Householder scalars.
    Qr(qr::QrFactors),
    /// Mixed-precision LU: the factors are f32 (the refined f64 solution lives in
    /// the run's [`MixedRefinement`] record, not in the factors).
    MixedLu(lu::LuFactors<f32>),
    /// Mixed-precision Cholesky factor storage, f32.
    MixedCholesky(Matrix<f32>),
}

impl NumericFactors {
    /// Solve `A X = B` against the factors this run produced, so service clients
    /// get solutions rather than raw factor storage.
    ///
    /// LU and Cholesky solve directly through the `bsr-linalg::solve` drivers; the
    /// mixed-precision variants demote the right-hand side, solve in f32 and
    /// promote (a single preconditioner sweep — callers wanting f64-accurate
    /// solutions should request them through the run's refinement record).
    /// Returns `None` for QR factors: the least-squares solve is not offered yet
    /// (ROADMAP item 5).
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        match self {
            NumericFactors::Cholesky(l) => Some(cholesky_solve(l, b)),
            NumericFactors::Lu(f) => Some(f.solve(b)),
            NumericFactors::MixedLu(_) | NumericFactors::MixedCholesky(_) => {
                Some(mixed_solve(self, b))
            }
            NumericFactors::Qr(_) => None,
        }
    }
}

/// Measured-vs-modelled record of one numeric iteration.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredIteration {
    /// Iteration index (0-based).
    pub k: usize,
    /// Measured duration of the lookahead panel factorization (panel `k + 1`).
    pub pd_s: f64,
    /// Measured duration of the iteration's trailing update. Under the stepped
    /// runtime this is the wall-clock duration of the barrier-delimited task region
    /// (includes the lookahead panel and the fused checksum work); under the DAG
    /// runtime it is the CPU-summed duration of the iteration's trailing-update
    /// tasks, which overlap other iterations and belong to no wall-clock phase.
    pub update_s: f64,
    /// Fused checksum seconds of this iteration (CPU-summed across tasks).
    pub checksum_s: f64,
    /// The predictor's pre-iteration prediction of the panel duration (`None` for the
    /// profiling iteration).
    pub predicted_pd_s: Option<f64>,
    /// The predictor's pre-iteration prediction of the GPU-stream (update) duration.
    pub predicted_update_s: Option<f64>,
    /// The analytic model's estimate of the panel duration on the simulated CPU.
    pub analytic_pd_s: f64,
    /// The analytic model's estimate of the GPU-stream duration (PU + TMU + ABFT).
    pub analytic_update_s: f64,
}

/// The f64 iterative-refinement record of a mixed-precision
/// ([`Precision::MixedF32`]) run. When the f32 attempt failed (its factorization
/// errored, or refinement did not converge) the run fell back to f64: the record
/// then describes the failed f32 attempt and [`MixedRefinement::fell_back`] is set.
#[derive(Debug, Clone, Copy)]
pub struct MixedRefinement {
    /// Correction sweeps applied beyond the initial f32 solve.
    pub refine_iters: usize,
    /// Final normwise relative backward error
    /// `η = ‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of the refined solution.
    pub backward_error: f64,
    /// Convergence threshold the sweep targeted (`4·n·ε_f64`, the backward error a
    /// *direct* f64 solve of a well-conditioned system delivers).
    pub tol: f64,
    /// Whether refinement reached `tol` within the sweep budget. Uncorrected SDC
    /// strikes and f32 accumulation blowups surface here as `false` — the mixed
    /// path's structured-failure signal.
    pub converged: bool,
    /// Wall-clock seconds of the whole f64 recovery phase (initial solve, residual
    /// evaluations and correction sweeps).
    pub solve_seconds: f64,
    /// Whether the f32 attempt failed and the returned factors, verdict and
    /// verification come from a re-run of the same plan at f64 (the classic
    /// mixed-precision fallback of LAPACK `DSGESV`). The f32 attempt's wall time
    /// is charged to the run's timeline as a `MIXED` CPU task; when its
    /// factorization itself failed there was no refinement, and η is infinite.
    pub fell_back: bool,
}

/// Result of a numeric-mode run: the analytic-style report plus numerical evidence and
/// the measured execution record.
#[derive(Debug, Clone)]
pub struct NumericRunReport {
    /// Timing/energy/SDC report (same shape as an analytic run; timing/energy are the
    /// *analytic* estimates under the plans that actually drove the run).
    pub report: RunReport,
    /// The factors the run produced.
    pub factors: NumericFactors,
    /// Relative factorization residual against the original input, as probed by the
    /// O(n²) certificate of [`bsr_linalg::verify`] (two seeded ±1 probes, seed from
    /// `cfg.seed`). Its square is an unbiased estimate of `‖A − F‖_F² / ‖A‖_F²`, and
    /// it is exact for a single-entry corruption. The exact O(n³) residual is left to
    /// the `verify::*_residual` oracle, off the job path.
    pub residual: f64,
    /// Aggregated checksum verification outcome over all iterations.
    pub verification: VerifyOutcome,
    /// Number of faults physically injected into matrix data.
    pub faults_injected: usize,
    /// Whether the final result is numerically correct: probed residual
    /// ([`NumericRunReport::residual`]) below [`CORRECTNESS_THRESHOLD`] for f64
    /// runs, refinement convergence to f64 backward error for mixed-precision runs
    /// (whose f32 *factors* are only f32-accurate by construction — see
    /// [`NumericRunReport::mixed`]) unless the run fell back to f64, which is judged
    /// like an f64 run.
    pub numerically_correct: bool,
    /// Measured per-device timeline: panel factorizations on the CPU stream concurrent
    /// with trailing-update regions on the GPU stream, one barrier per iteration.
    pub timeline: Timeline,
    /// Per-iteration measured durations with the matching predictions and analytic
    /// estimates.
    pub measured: Vec<MeasuredIteration>,
    /// Total fused checksum seconds (CPU-summed across tasks; equals the wall-clock
    /// checksum share on one thread, an upper bound on it when tasks overlap).
    pub checksum_cpu_s: f64,
    /// Everything the recovery pipeline did during the run (in-place corrections,
    /// tile recomputations, iteration/run replays), in canonical order. Empty when
    /// recovery is disabled.
    pub recovery: Vec<RecoveryEvent>,
    /// Iterative-refinement record of a mixed-precision run; `None` for f64 runs.
    pub mixed: Option<MixedRefinement>,
}

impl NumericRunReport {
    /// Measured makespan of the run (the two-stream timeline's completion time).
    pub fn measured_makespan_s(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Fused checksum share of the measured update stream.
    pub fn measured_checksum_fraction(&self) -> f64 {
        let update: f64 = self.measured.iter().map(|m| m.update_s).sum();
        if update > 0.0 { self.checksum_cpu_s / update } else { 0.0 }
    }

    /// Mean relative error of the slack predictor's update-stream predictions against
    /// the *measured* durations, over iterations with both a prediction and real
    /// trailing work. With measured feedback enabled this is the paper's
    /// predicted-vs-observed error; `None` when no iteration qualifies.
    pub fn mean_predictor_error(&self) -> Option<f64> {
        mean_relative_error(self.qualifying().map(|m| (m.predicted_update_s.unwrap(), m.update_s)))
    }

    /// Mean relative error of the *analytic model's* update-stream estimates against
    /// the measured durations, over the same iterations as
    /// [`Self::mean_predictor_error`] — the baseline a predictor that never observes
    /// real execution cannot beat.
    pub fn mean_analytic_error(&self) -> Option<f64> {
        mean_relative_error(self.qualifying().map(|m| (m.analytic_update_s, m.update_s)))
    }

    /// Iterations that had a prediction and real trailing work.
    fn qualifying(&self) -> impl Iterator<Item = &MeasuredIteration> {
        self.measured.iter().filter(|m| {
            m.predicted_update_s.is_some() && m.update_s > 0.0 && m.analytic_update_s > 0.0
        })
    }
}

fn mean_relative_error(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let errors: Vec<f64> = pairs
        .map(|(predicted, actual)| (predicted - actual).abs() / actual)
        .collect();
    if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

/// The tiled stepper of whichever decomposition the workload runs.
enum Engine {
    Cholesky(cholesky::CholeskyTiledStepper),
    Lu(lu::LuTiledStepper),
    Qr(qr::QrTiledStepper),
}

/// A pre-iteration deep copy of the stepper state (ladder step 3's replay source).
enum EngineCheckpoint {
    Cholesky(Matrix),
    Lu((Matrix, Vec<usize>)),
    Qr((Matrix, Vec<f64>, Matrix)),
}

impl Engine {
    fn new(dec: Decomposition, input: &Matrix, block: usize) -> Result<Self, NumericError> {
        match dec {
            Decomposition::Cholesky => cholesky::CholeskyTiledStepper::new(input.clone(), block)
                .map(Engine::Cholesky)
                .map_err(NumericError::Cholesky),
            Decomposition::Lu => lu::LuTiledStepper::new(input, block)
                .map(Engine::Lu)
                .map_err(NumericError::Lu),
            Decomposition::Qr => Ok(Engine::Qr(qr::QrTiledStepper::new(input, block))),
        }
    }

    fn prologue_panel_s(&self) -> f64 {
        match self {
            Engine::Cholesky(s) => s.prologue_panel_s(),
            Engine::Lu(s) => s.prologue_panel_s(),
            Engine::Qr(s) => s.prologue_panel_s(),
        }
    }

    fn step(&mut self, k: usize, hook: &dyn TrailingHook) -> Result<StepTiming, NumericError> {
        match self {
            Engine::Cholesky(s) => s.step(k, hook).map_err(NumericError::Cholesky),
            Engine::Lu(s) => s.step(k, hook).map_err(NumericError::Lu),
            Engine::Qr(s) => Ok(s.step(k, hook)),
        }
    }

    /// Deep-copy the stepper state before an iteration, so a failed recovery
    /// attempt can replay the iteration from identical bits.
    fn checkpoint(&self) -> EngineCheckpoint {
        match self {
            Engine::Cholesky(s) => EngineCheckpoint::Cholesky(s.checkpoint()),
            Engine::Lu(s) => EngineCheckpoint::Lu(s.checkpoint()),
            Engine::Qr(s) => EngineCheckpoint::Qr(s.checkpoint()),
        }
    }

    fn restore(&mut self, snap: &EngineCheckpoint) {
        match (self, snap) {
            (Engine::Cholesky(s), EngineCheckpoint::Cholesky(c)) => s.restore(c),
            (Engine::Lu(s), EngineCheckpoint::Lu(c)) => s.restore(c),
            (Engine::Qr(s), EngineCheckpoint::Qr(c)) => s.restore(c),
            _ => unreachable!("checkpoint/engine decomposition mismatch"),
        }
    }

    /// Package the factors.
    fn finish(self) -> NumericFactors {
        match self {
            Engine::Cholesky(s) => NumericFactors::Cholesky(s.into_matrix()),
            Engine::Lu(s) => NumericFactors::Lu(s.into_factors()),
            Engine::Qr(s) => NumericFactors::Qr(s.into_factors()),
        }
    }
}

/// Probed relative factorization residual of `factors` against the original input:
/// the O(n²) certificate of [`bsr_linalg::verify`], with probes seeded from
/// `cfg.seed` so the verdict is deterministic and independent of the schedule. f32
/// factors are read in place, with no promoted copy; their residual sits at f32
/// rounding level by construction.
fn factor_certificate(cfg: &RunConfig, input: &Matrix, factors: &NumericFactors) -> f64 {
    let seed = cfg.seed ^ 0xf4e1_5a15_0000_0001;
    match factors {
        NumericFactors::Cholesky(m) => cholesky_certificate(input, m, seed),
        NumericFactors::Lu(f) => lu_certificate(input, f, seed),
        NumericFactors::Qr(f) => qr_certificate(input, f, seed),
        NumericFactors::MixedLu(f) => lu_certificate(input, f, seed),
        NumericFactors::MixedCholesky(m) => cholesky_certificate(input, m, seed),
    }
}

/// Run a numeric-mode factorization for `cfg`, generating a reproducible random input.
///
/// # Examples
///
/// Factorize a real 128×128 SPD matrix via blocked Cholesky with ABFT managed
/// adaptively, and check the residual:
///
/// ```
/// use bsr_core::numeric::run_numeric;
/// use bsr_core::config::RunConfig;
/// use bsr_sched::strategy::{BsrConfig, Strategy};
/// use bsr_sched::workload::Decomposition;
///
/// let cfg = RunConfig::small(Decomposition::Cholesky, 128, 32, Strategy::Bsr(BsrConfig::default()));
/// let report = run_numeric(cfg).unwrap();
/// assert!(report.numerically_correct);
/// assert!(report.residual < 1e-12);
/// assert!(report.measured_makespan_s() > 0.0);
/// ```
pub fn run_numeric(cfg: RunConfig) -> Result<NumericRunReport, NumericError> {
    let input = generate_input(&cfg);
    run_numeric_on(cfg, &input)
}

/// The deterministic input matrix a [`run_numeric`] call would factor for `cfg`:
/// SPD for Cholesky workloads, dense random otherwise, from a ChaCha8 stream keyed
/// by `cfg.seed`. The service layer generates each job's input through this same
/// function, so a service job and a solo [`run_numeric`] run with the same config
/// factor bit-identical data.
pub fn generate_input(cfg: &RunConfig) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let n = cfg.workload.n;
    match cfg.workload.decomposition {
        Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
        Decomposition::Lu | Decomposition::Qr => random_matrix(&mut rng, n, n),
    }
}

/// Run a numeric-mode factorization of a caller-provided matrix.
///
/// This is a thin wrapper over the service layer's
/// [`JobHandle`](crate::service::JobHandle): the run executes as a single
/// anonymous job (fresh job id, job-scoped DAG stats and fair-lane submission),
/// which is exactly how the multi-tenant service executes each admitted job.
///
/// Returns [`NumericError::ShapeMismatch`] when `input` is not the square
/// `n × n` matrix the workload describes, and [`NumericError::NonFiniteInput`] when
/// it holds a NaN or infinite entry.
pub fn run_numeric_on(cfg: RunConfig, input: &Matrix) -> Result<NumericRunReport, NumericError> {
    let handle = crate::service::JobHandle::solo(cfg, input.clone())?;
    let result = handle.run();
    // A solo run's job-keyed DAG stats have no consumer once the thread-local
    // `last_run_stats` copy exists; drop the table entry so one-shot runs do not
    // accumulate process-global state.
    bsr_linalg::dag::clear_job_stats(handle.id().as_u64());
    result
}

/// Engine dispatch shared by every execution surface. There are two paths: the
/// stepped path for f64 runs with measured feedback (each iteration's measured
/// durations reach the predictor before the next plan), and the whole-run DAG path
/// for everything planned up front — f64 runs with feedback off and every
/// [`Precision::MixedF32`] run, at f32 with an f64 fallback. The caller has already
/// validated the input shape.
pub(crate) fn dispatch(cfg: RunConfig, input: &Matrix) -> Result<NumericRunReport, NumericError> {
    if cfg.measured_feedback && cfg.precision == Precision::F64 {
        run_numeric_stepped(cfg, input)
    } else {
        run_numeric_dag(cfg, input)
    }
}

/// Measured-feedback path: one barrier-stepped iteration at a time, so each
/// iteration's measured durations can reach the predictor before the next plan.
fn run_numeric_stepped(
    cfg: RunConfig,
    input: &Matrix,
) -> Result<NumericRunReport, NumericError> {
    let n = cfg.workload.n;
    let b = cfg.workload.block;
    let dec = cfg.workload.decomposition;
    let feedback = cfg.measured_feedback;
    let mut inject_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0bad_5eed);

    let mut driver = AnalyticDriver::new(cfg.clone());
    let mut engine = Engine::new(dec, input, b)?;
    let mut timeline = Timeline::new();
    // Panel 0 is the sequential prologue every hybrid run pays before its first
    // overlapped iteration: charge it to the CPU stream at the base clock.
    let cpu_base = driver.platform().cpu.base_freq;
    timeline.push_task(DeviceKind::Cpu, "PD0", 0, engine.prologue_panel_s(), cpu_base);
    timeline.sync();

    let tracker =
        cfg.recovery.enabled.then(|| Arc::new(RecoveryTracker::new(cfg.recovery)));
    let mut verification = VerifyOutcome::default();
    let mut faults_injected = 0usize;
    let mut measured = Vec::with_capacity(cfg.workload.iterations());
    let mut checksum_cpu_s = 0.0;

    for k in 0..cfg.workload.iterations() {
        // --- plan the iteration and sample its SDC events -----------------------------
        let pending = driver.begin_step(k);
        let scheme = pending.trace().abft;
        let tiles = protected_tiles(dec, n, b, k);
        let panel_col = ((k + 1) * b < n).then(|| (k + 1) * b);
        let faults = if tiles.is_empty() {
            Vec::new()
        } else {
            plan_faults_with_mix(
                &pending.trace().sdc_events,
                &tiles,
                &mut inject_rng,
                &cfg.fault_mix,
                panel_col,
            )
        };

        // --- execute the real tiled iteration with fused checksums --------------------
        // The early-out is reserved for unprotected, fault-free iterations: whenever
        // the active scheme protects the iteration, encode + verify run on every
        // trailing tile (the per-iteration ABFT cost is paid whether or not a fault
        // happens to be sampled — faults are rare, the cost is not).
        let (timing, outcome, iter_checksum_s, injected) =
            if scheme == ChecksumScheme::None && faults.is_empty() {
                (engine.step(k, &())?, VerifyOutcome::default(), 0.0, 0)
            } else if let Some(tracker) = &tracker {
                // Recovery ladder, stepped flavor: steps 1–2 (in-place correction,
                // tile/panel recomputation) happen *inside* the step via the hook's
                // verdicts; step 3 replays the whole iteration from its checkpoint
                // when some site gave up locally. A fresh hook per attempt keeps
                // the final tallies identical to a clean run's whenever recovery
                // succeeds — rolled-back attempts leave no trace.
                let checkpoint = engine.checkpoint();
                let mut attempt_checksum_s = 0.0;
                loop {
                    let hook = FusedTileChecksums::with_faults(scheme, b, faults.clone())
                        .with_recovery(Arc::clone(tracker));
                    let timing = engine.step(k, &hook)?;
                    attempt_checksum_s += hook.checksum_seconds();
                    if tracker.is_suspect() {
                        // Persistent fault: recomputing or replaying would loop.
                        return Err(NumericError::UnrecoverableFault {
                            history: tracker.history(),
                        });
                    }
                    if !tracker.has_unresolved() {
                        let injected = hook.faults_injected();
                        break (timing, hook.outcome(), attempt_checksum_s, injected);
                    }
                    if !tracker.begin_replay(RecoveryAction::IterationReplayed) {
                        return Err(NumericError::UnrecoverableFault {
                            history: tracker.history(),
                        });
                    }
                    engine.restore(&checkpoint);
                }
            } else {
                let hook = FusedTileChecksums::with_faults(scheme, b, faults);
                let timing = engine.step(k, &hook)?;
                let injected = hook.faults_injected();
                (timing, hook.outcome(), hook.checksum_seconds(), injected)
            };
        verification.merge(&outcome);
        faults_injected += injected;
        checksum_cpu_s += iter_checksum_s;

        // --- charge the measured durations to the two-stream timeline -----------------
        let (cpu_freq, gpu_freq) = (pending.trace().cpu_freq, pending.trace().gpu_freq);
        timeline.push_task(DeviceKind::Cpu, "PD", k, timing.panel_s, cpu_freq);
        timeline.push_task(DeviceKind::Gpu, "UPDATE", k, timing.update_s, gpu_freq);
        timeline.sync();

        // --- commit: feed measured durations back into the predictor ------------------
        let preds = pending.predictions();
        let analytic = pending.trace().timing;
        let observed = ObservedDurations { pd_s: timing.panel_s, update_s: timing.update_s };
        driver.finish_step(pending, feedback.then_some(&observed));
        measured.push(MeasuredIteration {
            k,
            pd_s: timing.panel_s,
            update_s: timing.update_s,
            checksum_s: iter_checksum_s,
            predicted_pd_s: preds.map(|p| p.cpu_s),
            predicted_update_s: preds.map(|p| p.gpu_s),
            analytic_pd_s: analytic.pd_s,
            analytic_update_s: analytic.pu_s + analytic.tmu_s + analytic.abft_s,
        });
    }

    // --- final numerical verification against the original input ----------------------
    let factors = engine.finish();
    let residual = factor_certificate(&cfg, input, &factors);
    let report = driver.into_report();
    Ok(NumericRunReport {
        numerically_correct: residual < CORRECTNESS_THRESHOLD,
        report,
        factors,
        residual,
        verification,
        faults_injected,
        timeline,
        measured,
        checksum_cpu_s,
        recovery: tracker.map(|t| t.history()).unwrap_or_default(),
        mixed: None,
    })
}

/// What the DAG path plans up front: per iteration, the checksum scheme and fault
/// plan, and the predictions, analytic estimates and clocks its timeline entries
/// carry; plus the finished analytic report and the CPU base clock.
struct DagPlan {
    faults: Vec<(ChecksumScheme, Vec<PlannedFault>)>,
    iterations: Vec<(Option<TaskPredictions>, IterationTiming, MHz, MHz)>,
    report: RunReport,
    cpu_base: MHz,
}

/// DAG path: plan every iteration up front (deterministic — the plans see only the
/// analytic predictor and the seeded SDC sampler), then run the whole factorization
/// as one dependency-driven task DAG with depth-unbounded lookahead
/// ([`run_planned`]).
///
/// [`Precision::MixedF32`] runs factor on the same drivers at f32, under the same
/// fault plan and recovery ladder, then refine in f64. When the f32 attempt fails —
/// its factorization errors (singular or not SPD at f32 precision) or refinement
/// does not converge within [`MAX_REFINE_SWEEPS`] — the plan is re-run at f64 and
/// that result is returned, with the f32 attempt's record kept in
/// [`NumericRunReport::mixed`] (`fell_back` set). A structured
/// [`NumericError::UnrecoverableFault`] is returned as is. QR has no f32 path and
/// returns [`NumericError::MixedUnsupported`].
fn run_numeric_dag(cfg: RunConfig, input: &Matrix) -> Result<NumericRunReport, NumericError> {
    let n = cfg.workload.n;
    let b = cfg.workload.block;
    let dec = cfg.workload.decomposition;
    let mixed = cfg.precision == Precision::MixedF32;
    if mixed && dec == Decomposition::Qr {
        return Err(NumericError::MixedUnsupported { dec });
    }
    let mut inject_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0bad_5eed);

    let mut driver = AnalyticDriver::new(cfg.clone());
    let iterations = cfg.workload.iterations();

    // --- plan every iteration and sample its SDC events up front -----------------------
    // Identical driver interaction to the stepped path with feedback off: begin_step,
    // record the plan, finish_step with no observation. The injection RNG is drawn in
    // iteration order, so the planned faults are bit-identical to a stepped run.
    let mut fault_plans = Vec::with_capacity(iterations);
    let mut plans = Vec::with_capacity(iterations);
    for k in 0..iterations {
        let pending = driver.begin_step(k);
        let scheme = pending.trace().abft;
        let tiles = protected_tiles(dec, n, b, k);
        let panel_col = ((k + 1) * b < n).then(|| (k + 1) * b);
        let faults = if tiles.is_empty() {
            Vec::new()
        } else {
            plan_faults_with_mix(
                &pending.trace().sdc_events,
                &tiles,
                &mut inject_rng,
                &cfg.fault_mix,
                panel_col,
            )
        };
        fault_plans.push((scheme, faults));
        plans.push((
            pending.predictions(),
            pending.trace().timing,
            pending.trace().cpu_freq,
            pending.trace().gpu_freq,
        ));
        driver.finish_step(pending, None);
    }
    let cpu_base = driver.platform().cpu.base_freq;
    let plan = DagPlan {
        faults: fault_plans,
        iterations: plans,
        report: driver.into_report(),
        cpu_base,
    };
    if !mixed {
        return run_planned(&cfg, input, &plan, false);
    }

    let t0 = Instant::now();
    let attempt = run_planned(&cfg, input, &plan, true);
    let record = match &attempt {
        Ok(out) if out.numerically_correct => return attempt,
        Ok(out) => out.mixed.expect("mixed runs carry a refinement record"),
        Err(NumericError::Cholesky(_) | NumericError::Lu(_)) => MixedRefinement {
            refine_iters: 0,
            backward_error: f64::INFINITY,
            tol: refinement_tol(n),
            converged: false,
            solve_seconds: 0.0,
            fell_back: false,
        },
        Err(_) => return attempt,
    };
    let attempt_s = t0.elapsed().as_secs_f64();
    let mut out = run_planned(&cfg, input, &plan, false)?;
    out.timeline.push_task(DeviceKind::Cpu, "MIXED", iterations, attempt_s, cpu_base);
    out.timeline.sync();
    out.mixed = Some(MixedRefinement { fell_back: true, ..record });
    Ok(out)
}

/// Execute a [`DagPlan`] on the DAG runtime, at f32 when `mixed` (followed by the
/// f64 refinement epilogue) and at f64 otherwise.
///
/// The per-iteration accounting attributes measured durations to *DAG tasks* instead
/// of barrier phases: `pd_s` is the wall-clock duration of the iteration's lookahead
/// panel task, `update_s` is the CPU-summed duration of the iteration's trailing
/// update tasks (they overlap other iterations' tasks, so no single wall-clock phase
/// contains them), and `checksum_s` is the iteration's fused-hook encode + verify
/// share of that total.
fn run_planned(
    cfg: &RunConfig,
    input: &Matrix,
    plan: &DagPlan,
    mixed: bool,
) -> Result<NumericRunReport, NumericError> {
    let b = cfg.workload.block;
    let dec = cfg.workload.decomposition;
    let tracker =
        cfg.recovery.enabled.then(|| Arc::new(RecoveryTracker::new(cfg.recovery)));

    // --- DAG runs over the whole factorization, checksums fused per task ---------------
    // Recovery ladder, DAG flavor: steps 1–2 run inside the graph (an uncorrectable
    // tile's task is resubmitted through the DAG's retry path — same task id,
    // exactly-once accounting preserved); step 3 replays the *whole run* from the
    // saved per-iteration plans with fresh hooks and the shared tracker, because a
    // depth-unbounded schedule has no iteration boundary to checkpoint at. Without
    // recovery the loop runs exactly once.
    let (factors, timing, hook) = loop {
        let hook = PerIterationChecksums::new(
            plan.faults
                .iter()
                .map(|(scheme, faults)| {
                    let h = FusedTileChecksums::with_faults(*scheme, b, faults.clone());
                    match &tracker {
                        Some(t) => h.with_recovery(Arc::clone(t)),
                        None => h,
                    }
                })
                .collect(),
        );
        let (factors, timing) = factor_on_dag(dec, input, b, &hook, mixed)?;
        if let Some(t) = &tracker {
            if t.is_suspect() {
                return Err(NumericError::UnrecoverableFault { history: t.history() });
            }
            if t.has_unresolved() {
                if !t.begin_replay(RecoveryAction::RunReplayed) {
                    return Err(NumericError::UnrecoverableFault { history: t.history() });
                }
                continue;
            }
        }
        break (factors, timing, hook);
    };
    let residual = factor_certificate(cfg, input, &factors);

    // --- attribute the measured DAG-task durations to the two-stream timeline ----------
    // The timeline keeps the stepped shape (PD0 prologue, then one PD/UPDATE pair per
    // iteration) so makespans stay comparable across runtimes; each entry now carries
    // the duration of the matching DAG tasks.
    let mut timeline = Timeline::new();
    let pd0 = timing.panel_s.first().copied().unwrap_or(0.0);
    timeline.push_task(DeviceKind::Cpu, "PD0", 0, pd0, plan.cpu_base);
    timeline.sync();

    let mut measured = Vec::with_capacity(plan.iterations.len());
    let mut checksum_cpu_s = 0.0;
    for (k, &(preds, analytic, cpu_freq, gpu_freq)) in plan.iterations.iter().enumerate() {
        let pd_s = timing.panel_s.get(k + 1).copied().unwrap_or(0.0);
        let update_s = timing.update_s.get(k).copied().unwrap_or(0.0);
        let iter_checksum_s = hook.hook(k).checksum_seconds();
        timeline.push_task(DeviceKind::Cpu, "PD", k, pd_s, cpu_freq);
        timeline.push_task(DeviceKind::Gpu, "UPDATE", k, update_s, gpu_freq);
        timeline.sync();
        checksum_cpu_s += iter_checksum_s;
        measured.push(MeasuredIteration {
            k,
            pd_s,
            update_s,
            checksum_s: iter_checksum_s,
            predicted_pd_s: preds.map(|p| p.cpu_s),
            predicted_update_s: preds.map(|p| p.gpu_s),
            analytic_pd_s: analytic.pd_s,
            analytic_update_s: analytic.pu_s + analytic.tmu_s + analytic.abft_s,
        });
    }

    // --- mixed precision: f64 iterative refinement, a final CPU-stream task ------------
    let refinement = mixed.then(|| refine(cfg, input, &factors));
    if let Some(m) = &refinement {
        let k = measured.len();
        timeline.push_task(DeviceKind::Cpu, "REFINE", k, m.solve_seconds, plan.cpu_base);
        timeline.sync();
    }

    Ok(NumericRunReport {
        // Mixed runs are judged by refinement: their f32 factors are only f32-accurate.
        numerically_correct: refinement.map_or(residual < CORRECTNESS_THRESHOLD, |m| m.converged),
        report: plan.report.clone(),
        factors,
        residual,
        verification: hook.outcome(),
        faults_injected: hook.faults_injected(),
        timeline,
        measured,
        checksum_cpu_s,
        recovery: tracker.map(|t| t.history()).unwrap_or_default(),
        mixed: refinement,
    })
}

/// One whole-run DAG factorization of `input` with `hook` fused in: at f64, or on
/// the demoted input at f32 when `mixed`.
fn factor_on_dag(
    dec: Decomposition,
    input: &Matrix,
    b: usize,
    hook: &PerIterationChecksums,
    mixed: bool,
) -> Result<(NumericFactors, DagTiming), NumericError> {
    let exec = DagExecution::Pool;
    Ok(match (dec, mixed) {
        (Decomposition::Cholesky, false) => {
            let mut m = input.clone();
            let timing = cholesky::cholesky_dag_with(&mut m, b, hook, exec)
                .map_err(NumericError::Cholesky)?;
            (NumericFactors::Cholesky(m), timing)
        }
        (Decomposition::Cholesky, true) => {
            let mut m = input.demote();
            let timing = cholesky::cholesky_dag_with(&mut m, b, hook, exec)
                .map_err(NumericError::Cholesky)?;
            (NumericFactors::MixedCholesky(m), timing)
        }
        (Decomposition::Lu, false) => {
            let (f, timing) = lu::lu_dag_with(input, b, hook, exec).map_err(NumericError::Lu)?;
            (NumericFactors::Lu(f), timing)
        }
        (Decomposition::Lu, true) => {
            let (f, timing) =
                lu::lu_dag_with(&input.demote(), b, hook, exec).map_err(NumericError::Lu)?;
            (NumericFactors::MixedLu(f), timing)
        }
        (Decomposition::Qr, _) => {
            let (f, timing) = qr::qr_dag_with(input, b, hook, exec);
            (NumericFactors::Qr(f), timing)
        }
    })
}

/// Maximum correction sweeps of the mixed path's f64 iterative refinement. Clean
/// well-conditioned systems converge in 1–3 sweeps; a budget this size only runs out
/// when the f32 factors are corrupted or the system is too ill-conditioned for f32
/// factors to precondition (`κ(A)·ε_f32 ≳ 1`) — the cases the f64 fallback catches.
const MAX_REFINE_SWEEPS: usize = 10;

/// Convergence threshold of the refinement: `4·n·ε_f64`, the backward error a
/// *direct* f64 solve of a well-conditioned system delivers.
fn refinement_tol(n: usize) -> f64 {
    4.0 * n as f64 * f64::EPSILON
}

/// f64 iterative refinement against the original input through the f32 factors.
///
/// Deterministic right-hand side from the run seed; each sweep solves the f64
/// residual system through the f32 factors and adds the correction in f64. The
/// backward error is evaluated *before* each correction, so `converged` certifies
/// the returned solution, not a predecessor.
fn refine(cfg: &RunConfig, input: &Matrix, factors: &NumericFactors) -> MixedRefinement {
    let n = cfg.workload.n;
    let t_refine = Instant::now();
    let mut rhs_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x00f3_2d0c);
    let rhs = random_matrix(&mut rhs_rng, n, 1);
    let a_norm = inf_norm(input);
    let b_norm = inf_norm(&rhs);
    let tol = refinement_tol(n);
    let mut x = mixed_solve(factors, &rhs);
    let mut refine_iters = 0usize;
    let mut backward_error;
    let mut converged = false;
    loop {
        let ax = blas3::gemv(input, Trans::No, &x);
        let mut r = rhs.clone();
        for (ri, &axi) in r.data_mut().iter_mut().zip(ax.data()) {
            *ri -= axi;
        }
        // An exact zero residual (the empty system included) is η = 0, not 0/0.
        let r_norm = inf_norm(&r);
        backward_error =
            if r_norm == 0.0 { 0.0 } else { r_norm / (a_norm * inf_norm(&x) + b_norm) };
        if backward_error <= tol {
            converged = true;
            break;
        }
        // Non-finite η means the factors carry a blowup or uncorrected burst:
        // further sweeps would only propagate NaNs.
        if !backward_error.is_finite() || refine_iters >= MAX_REFINE_SWEEPS {
            break;
        }
        let d = mixed_solve(factors, &r);
        for (xi, &di) in x.data_mut().iter_mut().zip(d.data()) {
            *xi += di;
        }
        refine_iters += 1;
    }
    MixedRefinement {
        refine_iters,
        backward_error,
        tol,
        converged,
        solve_seconds: t_refine.elapsed().as_secs_f64(),
        fell_back: false,
    }
}

/// ∞-norm: maximum absolute row sum (for an `n × 1` column this is the vector
/// ∞-norm, so one helper serves both uses in the refinement loop).
fn inf_norm(m: &Matrix) -> f64 {
    if m.rows() == 0 {
        return 0.0;
    }
    // Row sums in one contiguous pass over the column-major backing (a row-indexed
    // double loop strides by `rows` on every access — a cache miss per element on
    // the refinement loop's n × n operand).
    let mut sums = vec![0.0f64; m.rows()];
    for col in m.data().chunks_exact(m.rows()) {
        for (s, &v) in sums.iter_mut().zip(col) {
            *s += v.abs();
        }
    }
    // NaN must propagate (`f64::max` would drop it): a NaN solution has to read as
    // a non-finite backward error, never as η = 0.
    sums.into_iter().fold(0.0, |m, s| if s.is_nan() || s > m { s } else { m })
}

/// One solve through the mixed-precision f32 factors: demote the f64 right-hand
/// side, solve in f32, promote the result (the refinement loop's preconditioner).
fn mixed_solve(factors: &NumericFactors, rhs: &Matrix) -> Matrix {
    let r32 = rhs.demote();
    match factors {
        NumericFactors::MixedLu(f) => f.solve(&r32).promote(),
        NumericFactors::MixedCholesky(l) => cholesky_solve(l, &r32).promote(),
        _ => unreachable!("mixed_solve called with non-mixed factors"),
    }
}

/// The `block × block` tile grid the fused checksum hook protects in iteration `k`:
/// everything the iteration's *update tasks* write (the GPU-side work the paper's
/// ABFT-OC must cover). For LU and QR that is rows `[k·block, n)` of the trailing
/// columns — including the `U12` / `R` band `[k·block, (k+1)·block)`, which becomes
/// final factor entries this iteration and is never revisited (skipping it would
/// leave those values permanently unchecked); for Cholesky only the
/// lower-triangular staircase below the panel (the strictly upper tiles are never
/// touched by the factorization, and the panel's TRSM is CPU-side panel work).
pub fn protected_tiles(dec: Decomposition, n: usize, block: usize, k: usize) -> Vec<Block> {
    let start = (k + 1) * block;
    if start >= n {
        return Vec::new();
    }
    let mut tiles = Vec::new();
    let mut c = start;
    while c < n {
        let cols = block.min(n - c);
        let rfrom = match dec {
            Decomposition::Cholesky => c,
            Decomposition::Lu | Decomposition::Qr => k * block,
        };
        let mut r = rfrom;
        while r < n {
            let rows = block.min(n - r);
            tiles.push(Block::new(r, c, rows, cols));
            r += rows;
        }
        c += cols;
    }
    tiles
}

/// Draw the fault-injection plan of one iteration: one [`PlannedFault`] per sampled
/// SDC event, each targeting a random protected tile, with a pre-drawn private RNG
/// seed so the injected bits are identical no matter which pool thread executes the
/// tile's task (or at which thread count the run executes).
///
/// Equivalent to [`plan_faults_with_mix`] under the inert [`FaultMix`]: every event
/// is a single-strike tile-data fault.
pub fn plan_faults<R: Rng + ?Sized>(
    events: &[SdcEvent],
    tiles: &[Block],
    rng: &mut R,
) -> Vec<PlannedFault> {
    plan_faults_with_mix(events, tiles, rng, &FaultMix::default(), None)
}

/// [`plan_faults`] under the hardened fault model: each sampled event is classified
/// by `mix` into a tile-data strike, a checksum-vector strike, a lookahead-panel
/// strike (when the iteration has a panel, `panel_col`), a four-corner burst, or a
/// deterministic `grid_size × grid_size` multi-strike grid (defeating codes of
/// order `t < grid_size`, absorbed in place by `t ≥ grid_size`), and may be
/// persistent (re-striking on every recomputation attempt).
///
/// Determinism contract: the tile choice and the private seed are drawn for every
/// event exactly as [`plan_faults`] draws them, and the classification draws happen
/// **only when `mix` is not inert** — so an inert mix consumes the RNG stream
/// bit-identically to the pre-recovery planner, keeping seed-pinned baseline runs
/// reproducible.
pub fn plan_faults_with_mix<R: Rng + ?Sized>(
    events: &[SdcEvent],
    tiles: &[Block],
    rng: &mut R,
    mix: &FaultMix,
    panel_col: Option<usize>,
) -> Vec<PlannedFault> {
    events
        .iter()
        .map(|event| {
            let tile = tiles[rng.gen_range(0..tiles.len())];
            let mut fault = PlannedFault::tile(tile.row, tile.col, event.pattern, rng.gen());
            if !mix.is_inert() {
                let class: f64 = rng.gen();
                if class < mix.checksum {
                    fault.target = FaultTarget::Checksum;
                } else if class < mix.checksum + mix.panel {
                    if let Some(col0) = panel_col {
                        // Panel faults are keyed by the panel's column group; the
                        // hook matches them in `after_panel_factor` only.
                        fault.target = FaultTarget::Panel;
                        fault.row = col0;
                        fault.col = col0;
                    }
                } else if class < mix.checksum + mix.panel + mix.burst {
                    fault.target = FaultTarget::Burst;
                } else if class < mix.checksum + mix.panel + mix.burst + mix.grid {
                    // Appended after the existing classes so mixes that predate the
                    // grid pattern consume the RNG stream bit-identically.
                    fault.target = FaultTarget::Grid(mix.grid_size.clamp(1, u32::from(u8::MAX)) as u8);
                }
                fault.strikes = if rng.gen_bool(mix.persistent.clamp(0.0, 1.0)) {
                    u32::MAX
                } else {
                    mix.max_strikes
                };
            }
            fault
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AbftMode;
    use bsr_abft::recover::RecoveryPolicy;
    use bsr_sched::strategy::{BsrConfig, Strategy};

    fn small_cfg(dec: Decomposition, strategy: Strategy) -> RunConfig {
        RunConfig::small(dec, 192, 32, strategy)
    }

    #[test]
    fn fault_free_numeric_runs_are_correct_for_all_decompositions() {
        for dec in Decomposition::ALL {
            let cfg = small_cfg(dec, Strategy::Original).with_fault_injection(false);
            let out = run_numeric(cfg).unwrap();
            assert!(out.numerically_correct, "{dec:?} residual {res}", res = out.residual);
            assert_eq!(out.faults_injected, 0);
            assert_eq!(out.report.iterations.len(), 6);
            assert_eq!(out.measured.len(), 6);
            assert!(out.measured_makespan_s() > 0.0);
        }
    }

    #[test]
    fn injected_faults_with_full_abft_are_corrected() {
        // Force the full checksum scheme and a high SDC rate by overclocking aggressively.
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_measured_feedback(false)
            .with_seed(11);
        // Make SDCs possible at the base clock and raise the rate so that the
        // micro-second iterations of this tiny problem still see a handful of events
        // (paper-scale iterations last seconds).
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e4;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 4.0e3;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0, "test needs at least one injected fault");
        assert!(out.verification.corrected_0d + out.verification.corrected_1d > 0);
        assert!(
            out.numerically_correct,
            "full ABFT must repair the factorization (residual {res}, {n} faults)",
            res = out.residual,
            n = out.faults_injected
        );
    }

    #[test]
    fn injected_faults_without_abft_corrupt_the_result() {
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
            .with_measured_feedback(false)
            .with_seed(17);
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e5;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0);
        assert!(
            !out.numerically_correct,
            "uncorrected corruption should break the factorization (residual {res})",
            res = out.residual
        );
        // Injection is simulated corruption, not ABFT work: an unprotected run must
        // report exactly zero checksum cost even though faults were injected.
        assert_eq!(out.checksum_cpu_s, 0.0);
    }

    #[test]
    fn protected_iterations_pay_checksum_cost_without_any_fault() {
        // Forced Full scheme, fault injection off: the ABFT cost must still be charged
        // on every iteration that has a trailing matrix — cost is per protected
        // iteration, not per sampled fault.
        let cfg = small_cfg(Decomposition::Lu, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        assert_eq!(out.faults_injected, 0);
        assert!(out.checksum_cpu_s > 0.0);
        for m in &out.measured {
            let has_trailing =
                !protected_tiles(Decomposition::Lu, 192, 32, m.k).is_empty();
            assert_eq!(
                m.checksum_s > 0.0,
                has_trailing,
                "iteration {} checksum accounting does not match its trailing region",
                m.k
            );
        }
        // The None scheme keeps its zero-cost early out.
        let cfg = small_cfg(Decomposition::Lu, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        assert_eq!(out.checksum_cpu_s, 0.0);
    }

    #[test]
    fn non_square_and_mismatched_inputs_yield_errors_not_panics() {
        let cfg = RunConfig::small(Decomposition::Lu, 3, 2, Strategy::Original);
        let rect = Matrix::zeros(3, 4);
        assert!(matches!(
            run_numeric_on(cfg.clone(), &rect),
            Err(NumericError::ShapeMismatch { rows: 3, cols: 4, expected: 3 })
        ));
        let wrong_order = Matrix::identity(5);
        let err = run_numeric_on(cfg, &wrong_order).unwrap_err();
        assert!(matches!(err, NumericError::ShapeMismatch { expected: 3, .. }));
        assert!(err.to_string().contains("5x5"));
    }

    #[test]
    fn measured_feedback_shrinks_prediction_error() {
        // With measured feedback the sliding-window predictor observes the host's real
        // durations, so its predictions must track them far better than the analytic
        // model of the simulated GPU does (the analytic-vs-analytic fiction the old
        // driver reported).
        let cfg = RunConfig::small(Decomposition::Lu, 256, 32, Strategy::Original)
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        let predictor_err = out.mean_predictor_error().expect("predictions must exist");
        let analytic_err = out.mean_analytic_error().unwrap();
        assert!(
            predictor_err < analytic_err,
            "observed feedback must shrink the prediction error: predictor {predictor_err:.3} \
             vs analytic {analytic_err:.3}"
        );
        // Every iteration after the profiling one carries a prediction.
        for m in &out.measured[1..] {
            assert!(m.predicted_update_s.is_some(), "iteration {} lacks a prediction", m.k);
        }
    }

    #[test]
    fn disabling_feedback_restores_analytic_predictor_records() {
        // With feedback off the numeric run's analytic report must be identical to a
        // pure analytic run of the same configuration (plans see the same predictor).
        let cfg = RunConfig::small(Decomposition::Lu, 192, 32, Strategy::SlackReclamation)
            .with_fault_injection(false)
            .with_measured_feedback(false);
        let analytic = crate::analytic::run(cfg.clone());
        let numeric = run_numeric(cfg).unwrap();
        assert!((analytic.total_time_s - numeric.report.total_time_s).abs() < 1e-12);
        assert!((analytic.total_energy_j() - numeric.report.total_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn tiles_cover_the_trailing_region_exactly_once() {
        // LU iteration 0 protects rows [0, 100) of the trailing columns: the U12 band
        // (rows [0, 32), TRSM output) plus the GEMM rows below it.
        let tiles = protected_tiles(Decomposition::Lu, 100, 32, 0);
        let region = Block::new(0, 32, 100, 68);
        let area: usize = tiles.iter().map(|t| t.len()).sum();
        assert_eq!(area, region.len());
        assert!(tiles.iter().any(|t| t.row == 0 && t.col == 32), "U12 band must be covered");
        assert!(tiles.iter().all(|t| t.col >= 32));
        assert!(tiles.iter().all(|t| t.row + t.rows <= 100 && t.col + t.cols <= 100));
        // Cholesky protects only the staircase the factorization writes.
        let chol = protected_tiles(Decomposition::Cholesky, 96, 32, 0);
        assert!(chol.iter().all(|t| t.row >= t.col));
        assert_eq!(chol.len(), 3, "two diagonal tiles + one below");
        // QR protects from the panel-top row: rows [k·b, (k+1)·b) of the trailing
        // columns become final R entries in iteration k and must stay covered.
        let qr_tiles = protected_tiles(Decomposition::Qr, 96, 32, 1);
        assert!(qr_tiles.iter().any(|t| t.row == 32 && t.col == 64));
        assert!(qr_tiles.iter().all(|t| t.row >= 32 && t.col >= 64));
        // Past the last panel there is nothing to protect.
        assert!(protected_tiles(Decomposition::Lu, 100, 32, 3).is_empty());
    }

    #[test]
    fn dag_runtime_factors_are_bit_identical_to_serial_blocked() {
        // Feedback-off runs execute on the dependency-driven DAG runtime; the factors
        // must still be bit-exact against the serial blocked reference, and the
        // per-iteration record must attribute durations to DAG tasks (the final
        // iteration has no lookahead panel task, so its pd_s is exactly zero).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let input = bsr_linalg::generate::random_matrix(&mut rng, 96, 96);
        let cfg = RunConfig::small(Decomposition::Lu, 96, 32, Strategy::Original)
            .with_fault_injection(false)
            .with_measured_feedback(false);
        let out = run_numeric_on(cfg, &input).unwrap();
        let reference = lu::lu_blocked(&input, 32).unwrap();
        let NumericFactors::Lu(f) = &out.factors else { panic!("expected LU factors") };
        assert!(f.lu.approx_eq(&reference.lu, 0.0), "DAG factors must match serial bit-exactly");
        assert_eq!(f.pivots, reference.pivots);
        assert_eq!(out.measured.len(), 3);
        assert_eq!(out.measured[2].pd_s, 0.0, "last iteration has no lookahead panel task");
        assert!(out.measured[0].pd_s > 0.0);
        assert!(out.measured[0].update_s > 0.0);
        assert!(out.measured_makespan_s() > 0.0);
    }

    #[test]
    fn mixed_precision_lu_refines_to_f64_accuracy() {
        let cfg = small_cfg(Decomposition::Lu, Strategy::Original)
            .with_fault_injection(false)
            .with_precision(Precision::MixedF32);
        let out = run_numeric(cfg).unwrap();
        let mixed = out.mixed.expect("mixed runs must carry a refinement record");
        assert!(
            mixed.converged,
            "refinement must reach f64 backward error (η {e:.3e} vs tol {t:.3e})",
            e = mixed.backward_error,
            t = mixed.tol
        );
        assert!(mixed.backward_error <= mixed.tol);
        assert!(
            mixed.refine_iters >= 1,
            "f32 factors cannot hit f64 backward error without at least one sweep"
        );
        assert!(out.numerically_correct);
        assert!(matches!(out.factors, NumericFactors::MixedLu(_)));
        // The f32 factors themselves are only f32-accurate: the factorization
        // residual must sit far above the f64 threshold, proving the refinement —
        // not the factorization — is what earns correctness.
        assert!(
            out.residual > CORRECTNESS_THRESHOLD,
            "f32 factor residual {res:.3e} is implausibly small",
            res = out.residual
        );
        assert_eq!(out.measured.len(), 6);
        assert!(out.measured.iter().all(|m| m.update_s > 0.0));
        assert!(out.measured_makespan_s() > mixed.solve_seconds);
    }

    #[test]
    fn mixed_precision_cholesky_pays_and_records_checksum_cost() {
        let cfg = small_cfg(Decomposition::Cholesky, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_fault_injection(false)
            .with_precision(Precision::MixedF32);
        let out = run_numeric(cfg).unwrap();
        assert!(out.mixed.unwrap().converged);
        assert!(matches!(out.factors, NumericFactors::MixedCholesky(_)));
        // Full protection over every trailing tile must show up as measured
        // checksum cost, exactly as on the f64 paths.
        assert!(out.checksum_cpu_s > 0.0);
        assert!(out.measured_checksum_fraction() > 0.0);
        assert_eq!(out.faults_injected, 0);
        assert!(out.verification.is_clean_or_corrected());
    }

    #[test]
    fn mixed_precision_falls_back_to_f64_when_the_f32_attempt_fails() {
        let mixed_cfg = |dec| {
            RunConfig::small(dec, 256, 32, Strategy::Original)
                .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
                .with_fault_injection(false)
                .with_precision(Precision::MixedF32)
        };
        // The benchmark's unconverged probe: the program's random LU input with its
        // last row replaced by row 0 + 1e-6·row 1 puts κ(A)·ε_f32 near 1, so f32
        // factors cannot precondition refinement.
        let lu_cfg = mixed_cfg(Decomposition::Lu);
        let mut near_singular = generate_input(&lu_cfg);
        let n = near_singular.rows();
        for j in 0..n {
            let v = near_singular.get(0, j) + 1e-6 * near_singular.get(1, j);
            near_singular.set(n - 1, j, v);
        }
        // An SPD input beyond the f32 range, with recovery on: the f32 tiles and the
        // refined solution go non-finite, which must neither loop the recovery
        // ladder nor read as a converged η = 0.
        let chol_cfg = mixed_cfg(Decomposition::Cholesky).with_recovery(RecoveryPolicy::enabled());
        let mut beyond_f32 = generate_input(&chol_cfg);
        for v in beyond_f32.data_mut() {
            *v *= 1e39;
        }
        let cases = [("near-singular", lu_cfg, near_singular), ("beyond f32", chol_cfg, beyond_f32)];
        for (label, cfg, a) in cases {
            // Either way the run must re-run at f64 and return correct f64 factors
            // instead of an unconverged `Ok` or a structured failure.
            let out = run_numeric_on(cfg, &a).unwrap();
            let mixed = out.mixed.expect("mixed runs carry a refinement record");
            assert!(mixed.fell_back && !mixed.converged, "{label}: the f32 attempt must fall back");
            assert!(out.numerically_correct, "{label}: f64 fallback residual {:.3e}", out.residual);
            assert!(
                matches!(out.factors, NumericFactors::Lu(_) | NumericFactors::Cholesky(_)),
                "{label}: f64 factors expected"
            );
        }
    }

    #[test]
    fn mixed_precision_qr_is_rejected_structurally() {
        let cfg = small_cfg(Decomposition::Qr, Strategy::Original)
            .with_precision(Precision::MixedF32);
        let err = run_numeric(cfg).unwrap_err();
        assert!(matches!(err, NumericError::MixedUnsupported { dec: Decomposition::Qr }));
        assert!(err.to_string().contains("mixed precision"));
    }

    #[test]
    fn mixed_precision_corrects_injected_faults_and_still_converges() {
        // Same overclocked operating point as the f64 injection test: faults strike
        // the promoted tiles between encode and verify, the f64 checksums correct
        // them (rounded through f32), and refinement must still converge to f64
        // accuracy — the ISSUE's end-to-end mixed-path reliability claim.
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_precision(Precision::MixedF32)
            .with_seed(11);
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e4;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 4.0e3;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0, "test needs at least one injected fault");
        assert!(out.verification.corrected_0d + out.verification.corrected_1d > 0);
        let mixed = out.mixed.unwrap();
        assert!(
            mixed.converged,
            "corrected mixed run must refine to f64 accuracy (η {e:.3e}, {n} faults)",
            e = mixed.backward_error,
            n = out.faults_injected
        );
    }

    #[test]
    fn caller_provided_matrix_is_not_modified() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let input = random_spd_matrix(&mut rng, 96);
        let cfg = RunConfig::small(Decomposition::Cholesky, 96, 32, Strategy::Original)
            .with_fault_injection(false);
        let before = input.clone();
        let out = run_numeric_on(cfg, &input).unwrap();
        assert!(out.numerically_correct);
        assert!(input.approx_eq(&before, 0.0));
        assert!(matches!(out.factors, NumericFactors::Cholesky(_)));
    }

    /// Every hostile-input configuration: each decomposition with measured
    /// feedback on and off (the stepped and DAG paths), plus MixedF32 LU and
    /// Cholesky. Fault injection is off so a verdict can only reflect the input.
    fn hostile_cfgs(n: usize, b: usize) -> Vec<(String, RunConfig)> {
        let base = |dec| {
            RunConfig::small(dec, n, b, Strategy::Bsr(BsrConfig::default()))
                .with_fault_injection(false)
        };
        let mut cfgs = Vec::new();
        for dec in Decomposition::ALL {
            for feedback in [true, false] {
                let label = format!("{dec:?} n={n} b={b} feedback={feedback}");
                cfgs.push((label, base(dec).with_measured_feedback(feedback)));
            }
        }
        for dec in [Decomposition::Lu, Decomposition::Cholesky] {
            let label = format!("{dec:?} n={n} b={b} mixed");
            cfgs.push((label, base(dec).with_precision(Precision::MixedF32)));
        }
        cfgs
    }

    #[test]
    fn degenerate_orders_and_oversized_blocks_run_clean() {
        for (n, b) in [(0, 4), (1, 4), (4, 8)] {
            for (label, cfg) in hostile_cfgs(n, b) {
                let out = run_numeric(cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(out.numerically_correct, "{label}: residual {:.3e}", out.residual);
                assert!(out.residual.is_finite(), "{label}: residual {}", out.residual);
                // Clean degenerate systems refine at f32; none needs the f64 fallback.
                assert!(out.mixed.is_none_or(|m| m.converged && !m.fell_back), "{label}");
                if n == 0 {
                    assert_eq!(out.residual, 0.0, "{label}");
                }
            }
        }
    }

    #[test]
    fn zero_columns_fail_structurally_except_for_qr() {
        for (n, b) in [(4, 8), (64, 16)] {
            for (label, cfg) in hostile_cfgs(n, b) {
                let mut input = generate_input(&cfg);
                for i in 0..n {
                    input.set(i, 2, 0.0);
                }
                match (cfg.workload.decomposition, run_numeric_on(cfg, &input)) {
                    (Decomposition::Qr, Ok(out)) => {
                        assert!(out.numerically_correct, "{label}: residual {:.3e}", out.residual);
                    }
                    (Decomposition::Lu, Err(NumericError::Lu(_)))
                    | (Decomposition::Cholesky, Err(NumericError::Cholesky(_))) => {}
                    (_, other) => panic!("{label}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn non_finite_inputs_are_rejected_before_any_work() {
        let n = 64;
        for (label, cfg) in hostile_cfgs(n, 16) {
            let strikes = [(f64::NAN, (63, 63)), (f64::INFINITY, (0, 5)), (f64::NEG_INFINITY, (17, 0))];
            for (bad, (row, col)) in strikes {
                let mut input = generate_input(&cfg);
                input.set(row, col, bad);
                match run_numeric_on(cfg.clone(), &input) {
                    Err(NumericError::NonFiniteInput { row: r, col: c }) => {
                        assert_eq!((r, c), (row, col), "{label}: {bad}");
                    }
                    other => panic!("{label}: {bad} gave {other:?}"),
                }
            }
        }
    }
}
