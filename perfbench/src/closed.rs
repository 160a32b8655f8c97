//! Closed-loop workloads: one client calling `run_numeric_on` back to back, each
//! call on an input made from the job's seed before the call.

use crate::check::check_factors;
use crate::jobs::{self, Closed};
use crate::stats::{self, mean, median, ratio, template_percentile, Json, Metrics};
use crate::trace::Tracer;
use crate::Outcome;
use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::recover::{RecoveryAction, RecoveryEvent};
use bsr_core::analytic;
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::numeric::{generate_input, run_numeric_on, NumericError, NumericFactors};
use bsr_linalg::dag::{self, DagRunStats};
use bsr_linalg::lu::LuFactors;
use bsr_linalg::matrix::Matrix;
use bsr_linalg::{cholesky, lowprec, lu, qr, verify};
use bsr_sched::workload::Decomposition;
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Share of a traced run spent on the untraced reference pass that the tracing
/// overhead is measured against.
const REFERENCE_SHARE: f64 = 0.3;

/// Recovery actions in the order of the `recover.*` metrics.
const ACTIONS: [RecoveryAction; 6] = [
    RecoveryAction::CorrectedInPlace,
    RecoveryAction::TileRecomputed,
    RecoveryAction::PanelRecomputed,
    RecoveryAction::IterationReplayed,
    RecoveryAction::RunReplayed,
    RecoveryAction::Escalated,
];

/// Standalone re-runs of single layers on one traced job's input and config.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    input_gen_s: f64,
    facto_s: f64,
    residual_s: f64,
    plan_s: f64,
    full_s: f64,
    none_s: f64,
}

/// Everything recorded about one closed-loop job.
#[derive(Debug, Clone)]
struct Job {
    template: usize,
    dec: Decomposition,
    n: usize,
    mixed: bool,
    wall_s: f64,
    /// Process CPU time of the call; with one pool thread, the call's wall time
    /// less the time the host ran something else.
    cpu_s: f64,
    clean: bool,
    silent: bool,
    error: Option<String>,
    energy_j: Option<f64>,
    faults: usize,
    checksum_share: Option<f64>,
    checksum_cpu_s: f64,
    predictor_err: Option<f64>,
    refine: Option<(usize, f64)>,
    dag: Option<DagRunStats>,
    recovery: [usize; 6],
    eta: f64,
    solve_s: f64,
    layers: Option<Layers>,
}

fn count_actions(events: &[RecoveryEvent]) -> [usize; 6] {
    let mut out = [0; 6];
    for e in events {
        let k = ACTIONS
            .iter()
            .position(|&a| a == e.action)
            .expect("every action is listed");
        out[k] += 1;
    }
    out
}

/// The bare factorization driver the job's engine wraps, without checksums,
/// planning or the residual: `*_dag` for f64, the blocked f32 drivers for mixed.
pub fn bare(cfg: &RunConfig, input: &Matrix, input32: Option<&Matrix<f32>>) {
    let b = cfg.workload.block;
    match (cfg.workload.decomposition, input32) {
        (Decomposition::Cholesky, None) => {
            let mut m = input.clone();
            black_box(cholesky::cholesky_dag(&mut m, b).is_ok());
        }
        (Decomposition::Lu, None) => {
            black_box(lu::lu_dag(input, b).is_ok());
        }
        (Decomposition::Qr, _) => {
            black_box(qr::qr_dag(input, b));
        }
        (Decomposition::Cholesky, Some(a)) => {
            let mut m = a.clone();
            black_box(lowprec::cholesky_blocked_f32(&mut m, b, &()).is_ok());
        }
        (Decomposition::Lu, Some(a)) => {
            black_box(lowprec::lu_blocked_f32(a, b, &()).is_ok());
        }
    }
}

/// The program's residual oracle, re-run standalone on the returned factors.
pub fn residual(input: &Matrix, factors: &NumericFactors) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => verify::cholesky_residual(input, &m.lower_triangular()),
        NumericFactors::Lu(f) => verify::lu_residual(input, f),
        NumericFactors::Qr(f) => verify::qr_residual(input, f),
        NumericFactors::MixedLu(f) => verify::lu_residual(
            input,
            &LuFactors {
                lu: f.lu.promote(),
                pivots: f.pivots.clone(),
            },
        ),
        NumericFactors::MixedCholesky(m) => {
            verify::cholesky_residual(input, &m.promote().lower_triangular())
        }
    }
}

/// Run and check job `id` (of template `template`) with config `cfg`.
fn run_job(cfg: RunConfig, template: usize, seed: u64, id: u64, tr: &mut Tracer) -> Job {
    let mixed = cfg.precision == Precision::MixedF32;
    let dag_path = !mixed && !cfg.measured_feedback;
    let (input, input_gen_s) = tr.time(id, "numeric.generate_input", || jobs::input(&cfg));
    let cpu0 = stats::cpu_s();
    // A panic inside the program ends only this job: it is counted as a failed job.
    let (result, wall_s) = tr.time(id, "run_numeric_on", || {
        panic::catch_unwind(AssertUnwindSafe(|| run_numeric_on(cfg.clone(), &input)))
    });
    let cpu_s = stats::cpu_s() - cpu0;
    let dag = if dag_path {
        dag::last_run_stats()
    } else {
        None
    };

    // Everything below is outside the timed call.
    let mut job = Job {
        template,
        dec: cfg.workload.decomposition,
        n: cfg.workload.n,
        mixed,
        wall_s,
        cpu_s,
        clean: false,
        silent: false,
        error: None,
        energy_j: None,
        faults: 0,
        checksum_share: None,
        checksum_cpu_s: 0.0,
        predictor_err: None,
        refine: None,
        dag,
        recovery: [0; 6],
        eta: f64::NAN,
        solve_s: 0.0,
        layers: None,
    };
    let mut residual_s = 0.0;
    match &result {
        Ok(Ok(rep)) => {
            let start = tr.now_s();
            let (check, _) = tr.time(id, "check", || {
                check_factors(&input, &rep.factors, jobs::job_seed(seed, 0xc4ec, id))
            });
            tr.push(id, "solve", start, check.solve_s);
            job.silent = !check.pass;
            job.clean = check.pass && rep.verification.uncorrectable == 0;
            job.eta = check.eta;
            job.solve_s = check.solve_s;
            job.energy_j = Some(rep.report.cpu_energy_j + rep.report.gpu_energy_j);
            job.faults = rep.faults_injected;
            job.checksum_share = Some(rep.measured_checksum_fraction());
            job.checksum_cpu_s = rep.checksum_cpu_s;
            job.predictor_err = rep.mean_predictor_error();
            job.refine = rep.mixed.map(|m| (m.refine_iters, m.solve_seconds));
            job.recovery = count_actions(&rep.recovery);
            if tr.enabled() {
                residual_s = tr
                    .time(id, "verify.residual", || {
                        black_box(residual(&input, &rep.factors))
                    })
                    .1;
            }
        }
        Ok(Err(e)) => {
            job.error = Some(e.to_string());
            if let NumericError::UnrecoverableFault { history } = e {
                job.recovery = count_actions(history);
            }
        }
        Err(payload) => job.error = Some(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
    if tr.enabled() {
        let input32 = mixed.then(|| input.demote());
        let name = if mixed { "lowprec.facto" } else { "dag.facto" };
        let facto_s = tr.time(id, name, || bare(&cfg, &input, input32.as_ref())).1;
        let plan_s = tr
            .time(id, "sched.plan", || black_box(analytic::run(cfg.clone())))
            .1;
        let ab = |scheme| {
            cfg.clone()
                .with_abft_mode(AbftMode::Forced(scheme))
                .with_fault_injection(false)
        };
        let full_s = tr
            .time(id, "abft.full", || {
                black_box(survives(|| {
                    run_numeric_on(ab(ChecksumScheme::Full), &input).is_ok()
                }))
            })
            .1;
        let none_s = tr
            .time(id, "abft.none", || {
                black_box(survives(|| {
                    run_numeric_on(ab(ChecksumScheme::None), &input).is_ok()
                }))
            })
            .1;
        job.layers = Some(Layers {
            input_gen_s,
            facto_s,
            residual_s,
            plan_s,
            full_s,
            none_s,
        });
    }
    job
}

/// The message a panic carried.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run `f`, reporting a panic inside the program as `false`.
pub fn survives(f: impl FnOnce() -> bool) -> bool {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or(false)
}

/// Run jobs from index 0 until `deadline`, and at least `min_jobs` of them.
fn run_loop(w: Closed, seed: u64, deadline: Instant, min_jobs: usize, tr: &mut Tracer) -> Vec<Job> {
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs || Instant::now() < deadline {
        let i = jobs.len();
        jobs.push(run_job(w.job(seed, i), i % w.period(), seed, i as u64, tr));
    }
    jobs
}

/// Jobs whose counts must repeat exactly for a given seed: the first three periods.
fn prefix_len(w: Closed) -> usize {
    3 * w.period()
}

/// One warm-up pass over every template (not timed as jobs; counted as set-up).
/// Fault injection is off: the recovery work a fault schedule causes varies with
/// the seed, and moved `chaos_recovery` set-up by a quarter between seeds.
pub fn warm_up(w: Closed, seed: u64) {
    let mut off = Tracer::new(Instant::now(), false);
    for i in 0..w.period() {
        let cfg = w.job(seed ^ 0x5e7, i).with_fault_injection(false);
        black_box(run_job(cfg, i, seed, i as u64, &mut off).clean);
    }
}

fn prefix_counts(jobs: &[Job]) -> Vec<(String, Json)> {
    let mut rec = [0usize; 6];
    for j in jobs {
        for (r, c) in rec.iter_mut().zip(j.recovery) {
            *r += c;
        }
    }
    vec![
        ("jobs".into(), Json::Int(jobs.len() as i64)),
        (
            "faults_injected".into(),
            Json::Int(jobs.iter().map(|j| j.faults).sum::<usize>() as i64),
        ),
        (
            "failed".into(),
            Json::Int(jobs.iter().filter(|j| !j.clean).count() as i64),
        ),
        (
            "silent".into(),
            Json::Int(jobs.iter().filter(|j| j.silent).count() as i64),
        ),
        (
            "errors".into(),
            Json::Int(jobs.iter().filter(|j| j.error.is_some()).count() as i64),
        ),
        (
            "dag_retries".into(),
            Json::Int(
                jobs.iter()
                    .filter_map(|j| j.dag)
                    .map(|d| d.retries)
                    .sum::<usize>() as i64,
            ),
        ),
        (
            "recovery_actions".into(),
            Json::Arr(rec.iter().map(|&c| Json::Int(c as i64)).collect()),
        ),
    ]
}

fn error_summary(jobs: &[Job]) -> Json {
    let mut by: BTreeMap<String, i64> = BTreeMap::new();
    for e in jobs.iter().filter_map(|j| j.error.as_ref()) {
        *by.entry(e.clone()).or_default() += 1;
    }
    Json::obj(by.into_iter().map(|(k, v)| (k, Json::Int(v))))
}

fn end_to_end(m: &mut Metrics, w: Closed, jobs: &[Job]) {
    let cpu = || jobs.iter().map(|j| (j.template, j.cpu_s));
    let p50 = template_percentile(cpu(), 50.0);
    let cycle_flops: f64 = jobs[..w.period()]
        .iter()
        .map(|j| jobs::nominal_flops(j.dec, j.n))
        .sum();
    m.set("job_p50_s", p50);
    m.set("gflops", cycle_flops / (w.period() as f64 * p50) / 1e9);
    m.set(
        "energy_per_job_j",
        mean(jobs.iter().filter_map(|j| j.energy_j)),
    );
    // One client, no think time: the loop runs at its own capacity and no backlog
    // can build, so both rate metrics are its completion rate.
    m.set("max_rate_under_slo", 1.0 / p50);
    m.set("capacity_jobs_per_s", 1.0 / p50);
}

/// MixedF32 LU on a near-singular input: the program's random matrix for the
/// workload's first MixedF32 LU job, with its last row replaced by row 0 plus
/// 10⁻⁶ of row 1 (κ far above 1/ε_f32). Returns 1 when the program returns `Ok`
/// with factors that fail the check or panics, 0 when it returns passing factors
/// or reports the failure.
fn unconverged_probe(seed: u64) -> usize {
    let cfg = Closed::OnlineMixed.job(seed, 3);
    assert!(
        cfg.precision == Precision::MixedF32 && cfg.workload.decomposition == Decomposition::Lu
    );
    let mut a = generate_input(&cfg);
    let n = a.rows();
    for j in 0..n {
        a.set(n - 1, j, a.get(0, j) + 1e-6 * a.get(1, j));
    }
    match panic::catch_unwind(AssertUnwindSafe(|| run_numeric_on(cfg, &a))) {
        Ok(Ok(rep)) => {
            usize::from(!check_factors(&a, &rep.factors, jobs::job_seed(seed, 0xc4ec, 3)).pass)
        }
        Ok(Err(_)) => 0,
        Err(_) => 1,
    }
}

/// Jobs of the fault storm run untimed in a traced `chaos_recovery` run.
pub const STORM_JOBS: usize = 12;

/// Run the service chaos cell's fault storm ([`jobs::storm_job`]) once per
/// template and return how many jobs ended not clean and how many of those
/// returned factors that fail the check. The recovery ladder does not survive this
/// rate, so the storm is a per-layer probe: its jobs are not workload operations.
fn storm(seed: u64) -> (usize, usize) {
    let mut off = Tracer::new(Instant::now(), false);
    let jobs: Vec<Job> = (0..STORM_JOBS)
        .map(|i| run_job(jobs::storm_job(seed, i), i, seed, i as u64, &mut off))
        .collect();
    (
        jobs.iter().filter(|j| !j.clean).count(),
        jobs.iter().filter(|j| j.silent).count(),
    )
}

fn per_layer(m: &mut Metrics, w: Closed, seed: u64, jobs: &[Job], reference: &[Job], spans: usize) {
    let prefix = &jobs[..prefix_len(w)];
    let layers: Vec<(&Job, Layers)> = jobs
        .iter()
        .filter_map(|j| j.layers.map(|l| (j, l)))
        .collect();
    let ok: Vec<&Job> = jobs.iter().filter(|j| j.energy_j.is_some()).collect();
    let facto = |mixed: bool, dec: Decomposition| {
        mean(
            layers
                .iter()
                .filter(|(j, _)| j.mixed == mixed && j.dec == dec)
                .map(|(_, l)| l.facto_s),
        )
    };
    for dec in [
        Decomposition::Cholesky,
        Decomposition::Lu,
        Decomposition::Qr,
    ] {
        m.set(
            &format!("dag.facto_s.{}", jobs::dec_name(dec)),
            facto(false, dec),
        );
    }
    let dags: Vec<DagRunStats> = prefix.iter().filter_map(|j| j.dag).collect();
    m.set("dag.tasks", mean(dags.iter().map(|d| d.tasks as f64)));
    m.set(
        "dag.retries",
        dags.iter().map(|d| d.retries).sum::<usize>() as f64,
    );
    let with_residual: Vec<&(&Job, Layers)> = layers
        .iter()
        .filter(|(j, _)| j.energy_j.is_some())
        .collect();
    m.set(
        "verify.residual_s",
        mean(with_residual.iter().map(|(_, l)| l.residual_s)),
    );
    m.set(
        "verify.residual_share",
        mean(with_residual.iter().map(|(j, l)| l.residual_s / j.wall_s)),
    );
    for dec in [Decomposition::Cholesky, Decomposition::Lu] {
        m.set(
            &format!("lowprec.facto_s.{}", jobs::dec_name(dec)),
            facto(true, dec),
        );
    }
    let refine: Vec<(usize, f64)> = ok.iter().filter_map(|j| j.refine).collect();
    m.set(
        "mixed.refine_iters",
        mean(refine.iter().map(|r| r.0 as f64)),
    );
    m.set("mixed.refine_s", mean(refine.iter().map(|r| r.1)));
    let unconverged = if w == Closed::OnlineMixed {
        unconverged_probe(seed)
    } else {
        0
    };
    m.set("mixed.unconverged", unconverged as f64);
    m.set("solve.s", mean(ok.iter().map(|j| j.solve_s)));
    m.set(
        "abft.checksum_share",
        mean(ok.iter().filter_map(|j| j.checksum_share)),
    );
    let full: f64 = layers.iter().map(|(_, l)| l.full_s).sum();
    let none: f64 = layers.iter().map(|(_, l)| l.none_s).sum();
    m.set("abft.overhead_ratio", ratio(full, none));
    m.set(
        "abft.faults_injected",
        prefix.iter().map(|j| j.faults).sum::<usize>() as f64,
    );
    let mut rec = [0usize; 6];
    for j in prefix {
        for (r, c) in rec.iter_mut().zip(j.recovery) {
            *r += c;
        }
    }
    m.set("recover.in_place", rec[0] as f64);
    m.set("recover.tile_recomputes", rec[1] as f64);
    m.set("recover.panel_recomputes", rec[2] as f64);
    m.set("recover.replays", (rec[3] + rec[4]) as f64);
    m.set("recover.escalations", rec[5] as f64);
    m.set(
        "recover.in_place_share",
        ratio(rec[0] as f64, rec.iter().sum::<usize>() as f64),
    );
    let (storm_failed, storm_silent) = if w == Closed::ChaosRecovery {
        storm(seed)
    } else {
        (0, 0)
    };
    m.set("recover.storm_failed", storm_failed as f64);
    m.set("recover.storm_silent", storm_silent as f64);
    m.set("sched.plan_s", mean(layers.iter().map(|(_, l)| l.plan_s)));
    m.set(
        "sched.predictor_rel_err",
        mean(ok.iter().filter_map(|j| j.predictor_err)),
    );
    m.set(
        "sched.energy_spread",
        energy_spread(
            jobs.iter()
                .filter_map(|j| j.energy_j.map(|e| (j.template, e))),
        ),
    );
    m.set(
        "numeric.input_gen_s",
        mean(layers.iter().map(|(_, l)| l.input_gen_s)),
    );
    m.set(
        "numeric.unattributed_s",
        mean(
            layers
                .iter()
                .filter(|(j, _)| j.energy_j.is_some())
                .map(|(j, l)| {
                    j.wall_s
                        - l.facto_s
                        - l.residual_s
                        - j.checksum_cpu_s
                        - j.refine.map_or(0.0, |r| r.1)
                }),
        ),
    );
    for name in [
        "queue.wait_p50_s",
        "queue.wait_p99_s",
        "queue.batch_size_mean",
        "queue.rejected",
        "fleet.ratio_rewrites",
        "service.run_p50_s",
        "service.generator_lag_p99_s",
        "service.latency_p50_s.low",
        "service.latency_p90_s.low",
        "service.latency_p99_s.low",
        "service.latency_p50_s.high",
        "service.latency_p90_s.high",
        "service.latency_p99_s.high",
    ] {
        m.set(name, 0.0);
    }
    m.set(
        "trace.job_p50_s",
        template_percentile(jobs.iter().map(|j| (j.template, j.cpu_s)), 50.0),
    );
    // Paired: the same job indices, untraced (reference pass) vs traced.
    let pairs = reference.len().min(jobs.len());
    let untraced: f64 = reference[..pairs].iter().map(|j| j.cpu_s).sum();
    let traced: f64 = jobs[..pairs].iter().map(|j| j.cpu_s).sum();
    m.set("trace.overhead_frac", traced / untraced - 1.0);
    m.set("trace.spans", spans as f64);
}

/// Mean over job templates of (max − min) / median modelled energy across the
/// template's jobs: zero when plans are reproducible, large when feedback moves them.
pub fn energy_spread(samples: impl Iterator<Item = (usize, f64)>) -> f64 {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (t, e) in samples {
        by.entry(t).or_default().push(e);
    }
    let spreads: Vec<f64> = by
        .values()
        .filter(|v| v.len() >= 2)
        .map(|v| {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            ratio(hi - lo, median(v))
        })
        .collect();
    mean(spreads)
}

/// Run a closed-loop workload for `seconds` and fill `out`.
pub fn run(w: Closed, seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let window = Duration::from_secs_f64(seconds);
    let jobs = if tr.enabled() {
        let mut off = Tracer::new(Instant::now(), false);
        let reference = run_loop(
            w,
            seed,
            Instant::now() + window.mul_f64(REFERENCE_SHARE),
            0,
            &mut off,
        );
        let jobs = run_loop(
            w,
            seed,
            Instant::now() + window.mul_f64(1.0 - REFERENCE_SHARE),
            prefix_len(w),
            tr,
        );
        per_layer(&mut out.metrics, w, seed, &jobs, &reference, tr.spans.len());
        jobs
    } else {
        let jobs = run_loop(w, seed, Instant::now() + window, prefix_len(w), tr);
        end_to_end(&mut out.metrics, w, &jobs);
        jobs
    };
    out.attempted = jobs.len();
    out.failed = jobs.iter().filter(|j| !j.clean).count();
    if out.failed > 0 {
        out.problems.push(format!("{} non-clean jobs", out.failed));
    }
    let etas: Vec<f64> = jobs
        .iter()
        .filter(|j| !j.silent && j.eta.is_finite())
        .map(|j| j.eta)
        .collect();
    let wall = || jobs.iter().map(|j| (j.template, j.wall_s));
    out.info.extend([
        ("jobs".into(), Json::Int(jobs.len() as i64)),
        (
            "job_p90_s".into(),
            Json::Num(template_percentile(
                jobs.iter().map(|j| (j.template, j.cpu_s)),
                90.0,
            )),
        ),
        (
            "job_wall_p50_s".into(),
            Json::Num(template_percentile(wall(), 50.0)),
        ),
        (
            "job_wall_p90_s".into(),
            Json::Num(template_percentile(wall(), 90.0)),
        ),
        (
            "cpu_over_wall".into(),
            Json::Num(
                jobs.iter().map(|j| j.cpu_s).sum::<f64>()
                    / jobs.iter().map(|j| j.wall_s).sum::<f64>(),
            ),
        ),
        (
            "failed_share".into(),
            Json::Num(out.failed as f64 / jobs.len() as f64),
        ),
        (
            "silent_share".into(),
            Json::Num(jobs.iter().filter(|j| j.silent).count() as f64 / jobs.len() as f64),
        ),
        (
            "max_passing_backward_error".into(),
            Json::Num(etas.iter().fold(0.0, |a: f64, &b| a.max(b))),
        ),
        (
            "prefix_counts".into(),
            Json::obj(prefix_counts(&jobs[..prefix_len(w)])),
        ),
        ("errors".into(), error_summary(&jobs)),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_in_a_pool_task_fails_only_that_call() {
        assert!(!survives(|| {
            rayon::scope(|s| s.spawn(|| panic!("injected")));
            true
        }));
        let mut v = [0u8; 8];
        rayon::scope(|s| {
            for x in v.iter_mut() {
                s.spawn(move || *x = 1);
            }
        });
        assert_eq!(v, [1; 8]);
    }
}
