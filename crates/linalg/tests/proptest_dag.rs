//! Schedule-fuzzing determinism suite for the dependency-driven DAG runtime.
//!
//! The DAG drivers (`lu_dag` / `cholesky_dag` / `qr_dag`) replace the per-iteration
//! barrier of the tiled steppers with per-tile dependency counters and
//! depth-unbounded lookahead, so the *completion order* of tasks is entirely up to
//! the scheduler. This suite pins two invariants over random shapes, block sizes and
//! tail panels:
//!
//! 1. **Bit-exactness under adversarial schedules.** Every run — pool execution at
//!    `RAYON_NUM_THREADS ∈ {1, 2, 3, 4, 8}` *and* the deterministic replay executor
//!    driving ≥ 64 seeded adversarial completion orders per factorization — must
//!    produce factors, pivots and taus bit-identical to the serial blocked drivers.
//! 2. **Exactly-once execution.** After every run the runtime's own accounting must
//!    show `executed == tasks`: no dependency-counter underflow (the runtime panics
//!    on a negative counter) and no leaked task that never became ready.
//!
//! A 60-second deadlock watchdog wraps every DAG run: a scheduling bug that strands
//! a task with a positive counter would otherwise hang the suite silently. On
//! timeout the watchdog dumps the runtime's ready-queue/counter snapshot
//! ([`bsr_linalg::dag::snapshot_active`]) and fails.
//!
//! The fused-checksum property additionally rides `bsr-abft`'s fault injection
//! through the DAG: planned faults strike mid-schedule, Full checksums correct them,
//! and the corrected factors plus the injection/verification tallies must be
//! identical across every schedule and thread count — at f64, and at f32 (the
//! mixed-precision path's LU and Cholesky, protected through the hook's f64
//! promotion), where the promoted factors must also reconstruct the input to f32
//! accuracy.

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::fused::{FusedTileChecksums, PerIterationChecksums, PlannedFault};
use bsr_linalg::dag::{last_run_stats, DagExecution, DagRunStats};
use bsr_linalg::elem::Element;
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::Matrix;
use bsr_linalg::task::TrailingHook;
use bsr_linalg::{blas3, cholesky, lu, qr, Trans};
use hetero_sim::sdc::ErrorPattern;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadCountGuard;
use std::time::Duration;

/// Thread counts the pool sweeps: 1 = inline, 3 = odd worker count, 8 =
/// oversubscribed on small CI hosts.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Adversarial completion orders per proptest case; with 16 cases per property this
/// replays 64 seeded schedules per factorization kind.
const REPLAY_SEEDS_PER_CASE: u64 = 4;

/// The shared runtime watchdog ([`bsr_linalg::dag::with_watchdog`]) at this suite's
/// 60-second deadline: a stranded dependency counter deadlocks a DAG run instead of
/// crashing it, and on timeout the in-flight runtime state is dumped for the
/// post-mortem.
fn with_watchdog<T: Send + 'static>(
    label: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    bsr_linalg::dag::with_watchdog(label, Duration::from_secs(60), f)
}

/// Assert the exactly-once invariant the runtime records after every drain.
fn assert_exactly_once(stats: DagRunStats, label: &str) {
    assert!(stats.tasks > 0, "{label}: empty task graph");
    assert_eq!(
        stats.executed, stats.tasks,
        "{label}: task leak — {} of {} tasks ran",
        stats.executed, stats.tasks
    );
}

/// The executions every case sweeps: seeded replay schedules plus the pool at every
/// thread count (`None` = replay, no thread guard needed).
fn schedules(case_seed: u64) -> Vec<(DagExecution, Option<usize>, String)> {
    let mut execs = Vec::new();
    for i in 0..REPLAY_SEEDS_PER_CASE {
        let seed = case_seed.wrapping_mul(0x9e37_79b9).wrapping_add(i);
        execs.push((DagExecution::Replay { seed }, None, format!("replay seed={seed}")));
    }
    for t in THREADS {
        execs.push((DagExecution::Pool, Some(t), format!("pool t={t}")));
    }
    execs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dag_lu_is_bit_identical_under_adversarial_schedules(
        (n, block, extra, seed) in (1usize..44, 1usize..20, 0usize..3, any::<u64>())
    ) {
        // `extra` occasionally pushes the block past n to hit the single-panel path.
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let sync = lu::lu_blocked(&a, block).unwrap();
        for (exec, threads, desc) in schedules(seed) {
            let label = format!("lu n={n} b={block} {desc}");
            let input = a.clone();
            let (dag, stats) = with_watchdog(label.clone(), move || {
                let _guard = threads.map(ThreadCountGuard::set);
                let f = lu::lu_dag_with(&input, block, &(), exec).map(|(f, _)| f);
                (f, last_run_stats().expect("run must record stats"))
            });
            let dag = dag.unwrap();
            assert_exactly_once(stats, &label);
            prop_assert_eq!(&sync.pivots, &dag.pivots, "pivots differ ({})", &label);
            prop_assert!(sync.lu == dag.lu, "LU factors not bit-identical ({})", &label);
        }
    }

    #[test]
    fn dag_cholesky_is_bit_identical_under_adversarial_schedules(
        (n, block, extra, seed) in (1usize..44, 1usize..20, 0usize..3, any::<u64>())
    ) {
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a0 = random_spd_matrix(&mut rng, n);
        let mut sync = a0.clone();
        cholesky::cholesky_blocked(&mut sync, block).unwrap();
        for (exec, threads, desc) in schedules(seed) {
            let label = format!("cholesky n={n} b={block} {desc}");
            let mut input = a0.clone();
            let (dag, stats) = with_watchdog(label.clone(), move || {
                let _guard = threads.map(ThreadCountGuard::set);
                let r = cholesky::cholesky_dag_with(&mut input, block, &(), exec).map(|_| input);
                (r, last_run_stats().expect("run must record stats"))
            });
            let dag = dag.unwrap();
            assert_exactly_once(stats, &label);
            prop_assert!(sync == dag, "Cholesky factors not bit-identical ({})", &label);
        }
    }

    #[test]
    fn dag_qr_is_bit_identical_under_adversarial_schedules(
        (m, n, block, seed) in (1usize..40, 1usize..40, 1usize..20, any::<u64>())
    ) {
        // Independent m and n cover square, tall and wide shapes (wide leaves
        // trailing column groups that outlive every panel).
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let sync = qr::qr_blocked(&a, block);
        for (exec, threads, desc) in schedules(seed) {
            let label = format!("qr m={m} n={n} b={block} {desc}");
            let input = a.clone();
            let (dag, stats) = with_watchdog(label.clone(), move || {
                let _guard = threads.map(ThreadCountGuard::set);
                let (f, _) = qr::qr_dag_with(&input, block, &(), exec);
                (f, last_run_stats().expect("run must record stats"))
            });
            assert_exactly_once(stats, &label);
            prop_assert_eq!(&sync.taus, &dag.taus, "taus differ ({})", &label);
            prop_assert!(sync.qr == dag.qr, "QR factors not bit-identical ({})", &label);
        }
    }
}

/// Everything that must be schedule-independent about one ABFT-fused DAG run: the
/// factorization result, the injected-fault count, the (0-d, 1-d, uncorrectable)
/// verification tallies, and the runtime's exactly-once stats.
type FusedRun<F> = (Result<F, String>, usize, (usize, usize, usize), DagRunStats);

/// One ABFT-fused DAG run at element type `E`: fresh per-iteration Full-checksum
/// hooks (hooks are stateful) carrying `faults`, then `factor` under the watchdog.
fn fused_run<E: Element, F: Send + 'static>(
    a: &Matrix<E>,
    block: usize,
    faults: &[(usize, PlannedFault)],
    threads: Option<usize>,
    label: String,
    factor: impl FnOnce(Matrix<E>, &PerIterationChecksums) -> Result<F, String> + Send + 'static,
) -> FusedRun<F> {
    let iterations = a.rows().div_ceil(block);
    let mut per_iter: Vec<Vec<PlannedFault>> = vec![Vec::new(); iterations];
    for (k, f) in faults {
        per_iter[*k].push(*f);
    }
    let hooks = per_iter
        .into_iter()
        .map(|f| FusedTileChecksums::with_faults(ChecksumScheme::Full, block, f))
        .collect();
    let hook = PerIterationChecksums::new(hooks);
    let input = a.clone();
    with_watchdog(label, move || {
        let _guard = threads.map(ThreadCountGuard::set);
        let result = factor(input, &hook);
        let outcome = hook.outcome();
        let tally = (outcome.corrected_0d, outcome.corrected_1d, outcome.uncorrectable);
        (
            result,
            hook.faults_injected(),
            tally,
            last_run_stats().expect("run must record stats"),
        )
    })
}

/// [`fused_run`] of the DAG LU.
fn fused_lu_run<E: Element>(
    a: &Matrix<E>,
    block: usize,
    faults: &[(usize, PlannedFault)],
    exec: DagExecution,
    threads: Option<usize>,
    label: String,
) -> FusedRun<lu::LuFactors<E>>
where
    PerIterationChecksums: TrailingHook<E>,
{
    fused_run(a, block, faults, threads, label, move |input, hook| {
        lu::lu_dag_with(&input, block, hook, exec).map(|(f, _)| f).map_err(|e| e.to_string())
    })
}

/// [`fused_run`] of the DAG Cholesky; the result is the factored storage.
fn fused_cholesky_run<E: Element>(
    a: &Matrix<E>,
    block: usize,
    faults: &[(usize, PlannedFault)],
    exec: DagExecution,
    threads: Option<usize>,
    label: String,
) -> FusedRun<Matrix<E>>
where
    PerIterationChecksums: TrailingHook<E>,
{
    fused_run(a, block, faults, threads, label, move |mut m, hook| {
        cholesky::cholesky_dag_with(&mut m, block, hook, exec)
            .map(|_| m)
            .map_err(|e| e.to_string())
    })
}

/// Run `run` under every schedule and require its result (compared by `same`),
/// fault count and tallies to equal the first replay's, with exactly-once
/// execution; returns that baseline.
fn assert_schedule_independent<F>(
    seed: u64,
    what: &str,
    run: impl Fn(DagExecution, Option<usize>, String) -> FusedRun<F>,
    same: impl Fn(&F, &F) -> bool,
) -> FusedRun<F> {
    let baseline_label = format!("{what} baseline");
    let replay = DagExecution::Replay { seed: seed.wrapping_mul(31) };
    let baseline = run(replay, None, baseline_label.clone());
    assert_exactly_once(baseline.3, &baseline_label);
    for (exec, threads, desc) in schedules(seed.wrapping_add(97)) {
        let label = format!("{what} {desc}");
        let r = run(exec, threads, label.clone());
        assert_exactly_once(r.3, &label);
        assert_eq!(r.1, baseline.1, "injected-fault tallies differ ({label})");
        assert_eq!(r.2, baseline.2, "verification tallies differ ({label})");
        match (&r.0, &baseline.0) {
            (Ok(f), Ok(bf)) => assert!(same(f, bf), "corrected factors differ ({label})"),
            (Err(e), Err(be)) => assert_eq!(e, be, "errors differ ({label})"),
            _ => panic!("outcome differs from baseline ({label})"),
        }
    }
    baseline
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault injection riding the DAG: planned faults strike their target tiles on
    /// whatever thread happens to run them, mid-schedule, and Full checksums correct
    /// them inside the task. Corrected factors and injection/verification tallies
    /// must not depend on the schedule.
    #[test]
    fn fused_injection_tallies_and_factors_are_schedule_independent(
        (b, tiles, tail, seed) in (4usize..9, 3usize..6, 0usize..2, any::<u64>())
    ) {
        let n = b * tiles + tail * (b / 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);

        // One fault is always live (iteration 0's first trailing tile); extras land
        // on random aligned tiles of random iterations.
        let mut faults = vec![(
            0usize,
            PlannedFault::tile(0, b, ErrorPattern::ZeroD, seed),
        )];
        let extras = (seed % 3) as usize;
        for i in 0..extras {
            let c = 1 + (seed as usize >> (4 * i)) % (tiles - 1); // 1..tiles
            let r = (seed as usize >> (4 * i + 2)) % tiles;
            let k = r.min(c - 1);
            // Two faults striking the same tile of the same iteration combine into a
            // 2-D corruption no scheme corrects — legal, but it would void the
            // "something was corrected" assertion below, so keep targets distinct.
            if faults.iter().any(|(fk, f)| *fk == k && f.row == r * b && f.col == c * b) {
                continue;
            }
            let pattern = if i % 2 == 0 { ErrorPattern::OneD } else { ErrorPattern::ZeroD };
            faults.push((
                k,
                PlannedFault::tile(r * b, c * b, pattern, seed.wrapping_add(i as u64 + 1)),
            ));
        }

        let baseline_label = format!("fused-lu n={n} b={b} baseline");
        let baseline = fused_lu_run(
            &a, b, &faults,
            DagExecution::Replay { seed: seed.wrapping_mul(31) },
            None,
            baseline_label.clone(),
        );
        assert_exactly_once(baseline.3, &baseline_label);
        prop_assert!(baseline.1 >= 1, "at least one planned fault must fire");
        // Full checksums must have corrected something (the always-live 0-d fault).
        prop_assert!(baseline.2.0 + baseline.2.1 >= 1, "no correction recorded");

        for (exec, threads, desc) in schedules(seed.wrapping_add(97)) {
            let label = format!("fused-lu n={n} b={b} {desc}");
            let run = fused_lu_run(&a, b, &faults, exec, threads, label.clone());
            assert_exactly_once(run.3, &label);
            prop_assert_eq!(run.1, baseline.1, "injected-fault tallies differ ({})", &label);
            prop_assert_eq!(run.2, baseline.2, "verification tallies differ ({})", &label);
            match (&run.0, &baseline.0) {
                (Ok(f), Ok(bf)) => {
                    prop_assert_eq!(&f.pivots, &bf.pivots, "pivots differ ({})", &label);
                    prop_assert!(f.lu == bf.lu, "corrected factors differ ({})", &label);
                }
                (Err(e), Err(be)) => prop_assert_eq!(e, be, "errors differ ({})", &label),
                other => prop_assert!(false, "outcome differs from baseline: {:?}", other),
            }
        }

        // The same plan at f32, the mixed-precision factorization: LU on the demoted
        // input, Cholesky on a demoted SPD input with the plan moved onto its lower
        // staircase (Cholesky tiles start at their own column). Corrected factors,
        // fault counts and tallies must be schedule-independent, and clean-verified
        // factors must reconstruct the input to f32 accuracy once promoted.
        let f32_tol = |m: &Matrix| 1e-4 * n as f64 * m.max_abs().max(1.0);
        let a32 = a.demote();
        let lu32 = assert_schedule_independent(
            seed,
            &format!("fused-lu-f32 n={n} b={b}"),
            |exec, threads, label| fused_lu_run(&a32, b, &faults, exec, threads, label),
            |f, bf| f.lu == bf.lu && f.pivots == bf.pivots,
        );
        prop_assert!(lu32.1 >= 1, "at least one planned f32 fault must fire");
        if let (Ok(f), 0) = (&lu32.0, lu32.2.2) {
            let rec = blas3::gemm(&f.l().promote(), Trans::No, &f.u().promote(), Trans::No);
            let pa = f.apply_permutation(&a32).promote();
            prop_assert!(rec.approx_eq(&pa, f32_tol(&pa)), "f32 L*U does not reconstruct P*A");
        }

        let spd32 = random_spd_matrix(&mut rng, n).demote();
        let mut chol_faults = vec![(0usize, PlannedFault::tile(b, b, ErrorPattern::ZeroD, seed))];
        for &(k, f) in &faults[1..] {
            let row = f.row.max(f.col);
            if !chol_faults.iter().any(|(fk, g)| *fk == k && g.row == row && g.col == f.col) {
                chol_faults.push((k, PlannedFault { row, ..f }));
            }
        }
        let chol32 = assert_schedule_independent(
            seed,
            &format!("fused-cholesky-f32 n={n} b={b}"),
            |exec, threads, label| {
                fused_cholesky_run(&spd32, b, &chol_faults, exec, threads, label)
            },
            |m, bm| m == bm,
        );
        prop_assert!(chol32.1 >= 1, "at least one planned f32 Cholesky fault must fire");
        prop_assert!(chol32.2.0 + chol32.2.1 >= 1, "no f32 Cholesky correction recorded");
        if let (Ok(m), 0) = (&chol32.0, chol32.2.2) {
            let l = m.lower_triangular().promote();
            let rec = blas3::gemm(&l, Trans::No, &l, Trans::Yes);
            let a64 = spd32.promote();
            prop_assert!(rec.approx_eq(&a64, f32_tol(&a64)), "f32 L*L^T does not reconstruct A");
        }
    }
}
