//! The open-loop `service_open` workload: Poisson arrivals through `run_service`.

use crate::check::check_factors;
use crate::closed::{bare, energy_spread, residual, survives};
use crate::jobs::{self, RATIO};
use crate::stats::{self, mean, median, percentile, ratio, template_percentile, Json, Metrics};
use crate::trace::Tracer;
use crate::Outcome;
use bsr_abft::checksum::ChecksumScheme;
use bsr_core::analytic;
use bsr_core::config::AbftMode;
use bsr_core::fleet::FleetPlanner;
use bsr_core::numeric::{generate_input, run_numeric, run_numeric_on};
use bsr_core::queue::AdmissionConfig;
use bsr_core::service::{run_service, JobOutcome, JobSpec, JobVerdict, ServiceConfig};
use bsr_sched::strategy::Strategy;
use bsr_sched::workload::Decomposition;
use hetero_sim::arrival::PoissonArrivals;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// Dispatch workers of every episode.
pub const WORKERS: usize = 2;
/// The two fixed offered rates, jobs/s.
const RATES: [(&str, f64); 2] = [("low", 100.0), ("high", 200.0)];
/// Share of the run the episodes of each rate last (by expected arrival span).
const EPISODE_SHARE: [f64; 2] = [0.45, 0.25];
/// Saturated-episode jobs per second of run time.
const SATURATED_JOBS_PER_S: f64 = 60.0;
/// The run is split into rounds of one episode per rate plus one all-at-once
/// episode; time metrics are medians over rounds.
const ROUNDS: usize = 5;
const EPISODES_PER_ROUND: usize = RATES.len() + 1;
/// Latency limit on the due-time p90 for `max_rate_under_slo`, seconds.
pub const SLO_P90_S: f64 = 0.050;
/// Jobs replayed solo (outside every episode) for the output check; the traced run
/// replays more, since each replay also carries the per-layer re-runs.
const REPLAYS: usize = 16;
const TRACED_REPLAYS: usize = 48;
/// Distinct job templates (3 decompositions × 3 sizes × 2 classes).
const TEMPLATES: usize = 18;

struct Episode {
    name: &'static str,
    rate: Option<f64>,
    submitted: usize,
    rejected: usize,
    wall_s: f64,
    /// Process CPU time of the episode.
    cpu_s: f64,
    /// Seconds since process start at which the episode began.
    origin_s: f64,
    outcomes: Vec<JobOutcome>,
    /// Per outcome: due offset and the job's index in the episode.
    due: Vec<f64>,
    index: Vec<usize>,
}

impl Episode {
    fn due_latency(&self) -> Vec<f64> {
        let mut lat: Vec<f64> = self
            .outcomes
            .iter()
            .zip(&self.due)
            .map(|(o, &due)| o.arrival_s + o.latency_s - due)
            .collect();
        // A refused job misses any latency limit.
        lat.extend(std::iter::repeat_n(f64::INFINITY, self.rejected));
        lat
    }

    fn lag(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .zip(&self.due)
            .map(|(o, &due)| o.arrival_s - due)
            .collect()
    }

    fn clean(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == JobVerdict::Clean)
            .count()
    }
}

fn episode(
    name: &'static str,
    seed: u64,
    salt: u64,
    rate: Option<f64>,
    jobs: usize,
    tr: &Tracer,
) -> Episode {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let (cfg, class) = jobs::service_job(seed, salt, i);
            JobSpec { cfg, class }
        })
        .collect();
    let index: HashMap<u64, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.cfg.seed, i))
        .collect();
    assert_eq!(index.len(), jobs, "per-job seeds must be distinct");
    let arrival_seed = jobs::job_seed(seed, salt, u64::MAX);
    let service = ServiceConfig {
        admission: AdmissionConfig {
            capacity: jobs.max(1),
            small_n_max: 128,
            max_batch: 4,
        },
        workers: WORKERS,
        planner: FleetPlanner::default(),
        arrival_rate_per_s: rate.unwrap_or(1.0),
        arrival_seed,
        realtime: rate.is_some(),
        keep_reports: false,
    };
    let origin_s = tr.now_s();
    let cpu0 = stats::cpu_s();
    let report = run_service(&service, specs);
    let cpu_s = stats::cpu_s() - cpu0;
    // The service stamps arrival at actual submission; the due time comes from the
    // same arrival trace it paced itself with.
    let offsets = match rate {
        Some(r) => {
            PoissonArrivals::new(ChaCha8Rng::seed_from_u64(arrival_seed), r).take_offsets(jobs)
        }
        None => vec![0.0; jobs],
    };
    let idx: Vec<usize> = report
        .outcomes
        .iter()
        .map(|o| index[&o.effective_cfg.seed])
        .collect();
    Episode {
        name,
        rate,
        submitted: jobs,
        rejected: report.rejected,
        wall_s: report.wall_s,
        cpu_s,
        origin_s,
        due: idx.iter().map(|&i| offsets[i]).collect(),
        index: idx,
        outcomes: report.outcomes,
    }
}

/// Warm-up: every template solo, then one small released-at-once episode.
pub fn warm_up(seed: u64) {
    for i in 0..TEMPLATES {
        black_box(run_numeric(jobs::service_job(seed, 0x5e7, i).0).is_ok());
    }
    let off = Tracer::new(std::time::Instant::now(), false);
    black_box(episode("warm", seed, 0x5e8, None, TEMPLATES, &off).clean());
}

/// Per-layer re-runs of one replayed job.
#[derive(Default, Clone, Copy)]
struct Replay {
    dec_index: usize,
    wall_s: f64,
    input_gen_s: f64,
    facto_s: f64,
    residual_s: f64,
    plan_s: f64,
    solve_s: f64,
    checksum_share: f64,
    checksum_cpu_s: f64,
    full_s: f64,
    none_s: f64,
    predictor_err: Option<f64>,
}

/// Replay `o` solo from its effective config and check the factors; with tracing on,
/// also re-run each layer standalone. Returns whether the check passed.
fn replay(o: &JobOutcome, seed: u64, tr: &mut Tracer) -> (bool, Replay) {
    let id = o.id.as_u64();
    let cfg = o.effective_cfg.clone();
    let (input, input_gen_s) = tr.time(id, "numeric.generate_input", || generate_input(&cfg));
    let (result, wall_s) = tr.time(id, "run_numeric_on", || run_numeric_on(cfg.clone(), &input));
    let dec = cfg.workload.decomposition;
    let mut r = Replay {
        dec_index: [
            Decomposition::Cholesky,
            Decomposition::Lu,
            Decomposition::Qr,
        ]
        .iter()
        .position(|&d| d == dec)
        .expect("three decompositions"),
        wall_s,
        input_gen_s,
        ..Replay::default()
    };
    let Ok(rep) = result else { return (false, r) };
    let start = tr.now_s();
    let check = check_factors(&input, &rep.factors, jobs::job_seed(seed, 0xc4ec, id));
    tr.push(id, "solve", start, check.solve_s);
    r.solve_s = check.solve_s;
    r.checksum_share = rep.measured_checksum_fraction();
    r.checksum_cpu_s = rep.checksum_cpu_s;
    r.predictor_err = rep.mean_predictor_error();
    if tr.enabled() {
        r.facto_s = tr.time(id, "dag.facto", || bare(&cfg, &input, None)).1;
        r.residual_s = tr
            .time(id, "verify.residual", || {
                black_box(residual(&input, &rep.factors))
            })
            .1;
        r.plan_s = tr
            .time(id, "sched.plan", || black_box(analytic::run(cfg.clone())))
            .1;
        let ab = |s| {
            cfg.clone()
                .with_abft_mode(AbftMode::Forced(s))
                .with_fault_injection(false)
        };
        r.full_s = tr
            .time(id, "abft.full", || {
                survives(|| run_numeric_on(ab(ChecksumScheme::Full), &input).is_ok())
            })
            .1;
        r.none_s = tr
            .time(id, "abft.none", || {
                survives(|| run_numeric_on(ab(ChecksumScheme::None), &input).is_ok())
            })
            .1;
    }
    (check.pass, r)
}

/// The time metrics of one round (one episode per rate plus one all-at-once).
fn round_metrics(round: &[Episode]) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    let mut best_rate = 0.0;
    for e in round.iter().filter(|e| e.rate.is_some()) {
        let lat = e.due_latency();
        let p90 = percentile(&lat, 90.0);
        for p in [50.0, 90.0, 99.0] {
            m.push((
                format!("service.latency_p{p}_s.{}", e.name),
                percentile(&lat, p),
            ));
        }
        // The backlog did not grow if the last quarter of jobs (by due time) still
        // had a median latency inside the limit.
        let mut by_due: Vec<(f64, f64)> = e.due.iter().copied().zip(lat.iter().copied()).collect();
        by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
        let tail: Vec<f64> = by_due[by_due.len() * 3 / 4..].iter().map(|p| p.1).collect();
        if p90 <= SLO_P90_S && percentile(&tail, 50.0) <= SLO_P90_S {
            best_rate = e.outcomes.len() as f64 / e.wall_s;
        }
    }
    m.push(("max_rate_under_slo".into(), best_rate));
    let sat = round
        .iter()
        .find(|e| e.rate.is_none())
        .expect("one all-at-once episode per round");
    let flops: f64 = sat
        .outcomes
        .iter()
        .filter(|o| o.verdict == JobVerdict::Clean)
        .map(|o| {
            jobs::nominal_flops(
                o.effective_cfg.workload.decomposition,
                o.effective_cfg.workload.n,
            )
        })
        .sum();
    // Per second of worker time: the episode's CPU time shared by the workers. On
    // a shared host its wall time also counts whatever else the host ran, which
    // spread the wall-time capacity twice as wide between runs.
    let worker_s = sat.cpu_s / WORKERS as f64;
    m.push(("gflops".into(), flops / worker_s / 1e9));
    m.push((
        "capacity_jobs_per_s".into(),
        sat.outcomes.len() as f64 / worker_s,
    ));
    m
}

/// `(template, run time)` of every job the service ran, over all episodes.
fn run_times(eps: &[Episode]) -> impl Iterator<Item = (usize, f64)> + '_ {
    eps.iter().flat_map(|e| {
        e.index
            .iter()
            .zip(&e.outcomes)
            .map(|(&i, o)| (i % TEMPLATES, o.run_s))
    })
}

fn end_to_end(m: &mut Metrics, eps: &[Episode]) {
    m.set("job_p50_s", template_percentile(run_times(eps), 50.0));
    m.set(
        "energy_per_job_j",
        mean(eps.iter().flat_map(|e| &e.outcomes).map(|o| o.energy_j)),
    );
    for (name, v) in round_medians(eps) {
        if !name.starts_with("service.") {
            m.set(&name, v);
        }
    }
}

/// Median over rounds of every [`round_metrics`] value. Noise on a shared host
/// comes in bursts; the median drops the rounds a burst hit, where one long
/// episode would average it in.
fn round_medians(eps: &[Episode]) -> Vec<(String, f64)> {
    let rounds: Vec<Vec<(String, f64)>> =
        eps.chunks(EPISODES_PER_ROUND).map(round_metrics).collect();
    rounds[0]
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            (
                name.clone(),
                median(&rounds.iter().map(|r| r[k].1).collect::<Vec<_>>()),
            )
        })
        .collect()
}

fn per_layer(m: &mut Metrics, eps: &[Episode], replays: &[Replay], spans: usize) {
    let all: Vec<&JobOutcome> = eps.iter().flat_map(|e| &e.outcomes).collect();
    let rated: Vec<&JobOutcome> = eps
        .iter()
        .filter(|e| e.rate.is_some())
        .flat_map(|e| &e.outcomes)
        .collect();
    let col = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).collect::<Vec<_>>();
    for (k, dec) in ["cholesky", "lu", "qr"].into_iter().enumerate() {
        let xs: Vec<f64> = replays
            .iter()
            .filter(|r| r.dec_index == k)
            .map(|r| r.facto_s)
            .collect();
        m.set(&format!("dag.facto_s.{dec}"), mean(xs));
    }
    let dags: Vec<_> = all.iter().filter_map(|o| o.dag_stats).collect();
    m.set("dag.tasks", mean(dags.iter().map(|d| d.tasks as f64)));
    m.set(
        "dag.retries",
        dags.iter().map(|d| d.retries).sum::<usize>() as f64,
    );
    m.set("verify.residual_s", mean(col(&|r| r.residual_s)));
    m.set(
        "verify.residual_share",
        mean(col(&|r| r.residual_s / r.wall_s)),
    );
    for name in [
        "lowprec.facto_s.cholesky",
        "lowprec.facto_s.lu",
        "mixed.refine_iters",
        "mixed.refine_s",
        "mixed.unconverged",
    ] {
        m.set(name, 0.0);
    }
    m.set("solve.s", mean(col(&|r| r.solve_s)));
    m.set("abft.checksum_share", mean(col(&|r| r.checksum_share)));
    m.set(
        "abft.overhead_ratio",
        ratio(
            col(&|r| r.full_s).iter().sum(),
            col(&|r| r.none_s).iter().sum(),
        ),
    );
    m.set(
        "abft.faults_injected",
        all.iter().map(|o| o.faults_injected).sum::<usize>() as f64,
    );
    for name in [
        "recover.in_place",
        "recover.tile_recomputes",
        "recover.panel_recomputes",
        "recover.replays",
        "recover.escalations",
        "recover.in_place_share",
        "recover.storm_failed",
        "recover.storm_silent",
    ] {
        m.set(name, 0.0);
    }
    m.set("sched.plan_s", mean(col(&|r| r.plan_s)));
    m.set(
        "sched.predictor_rel_err",
        mean(replays.iter().filter_map(|r| r.predictor_err)),
    );
    m.set(
        "sched.energy_spread",
        energy_spread(eps.iter().flat_map(|e| {
            e.index
                .iter()
                .map(|&i| i % TEMPLATES)
                .zip(e.outcomes.iter().map(|o| o.energy_j))
        })),
    );
    m.set("numeric.input_gen_s", mean(col(&|r| r.input_gen_s)));
    m.set(
        "numeric.unattributed_s",
        mean(col(&|r| {
            r.wall_s - r.facto_s - r.residual_s - r.checksum_cpu_s
        })),
    );
    let waits: Vec<f64> = rated.iter().map(|o| o.queue_wait_s).collect();
    m.set("queue.wait_p50_s", percentile(&waits, 50.0));
    m.set("queue.wait_p99_s", percentile(&waits, 99.0));
    let mut batches: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for (k, e) in eps.iter().enumerate() {
        for o in &e.outcomes {
            *batches.entry((k, o.batch)).or_default() += 1;
        }
    }
    m.set(
        "queue.batch_size_mean",
        mean(batches.values().map(|&c| c as f64)),
    );
    m.set(
        "queue.rejected",
        eps.iter().map(|e| e.rejected).sum::<usize>() as f64,
    );
    let rewrites = all
        .iter()
        .filter(|o| matches!(o.effective_cfg.strategy, Strategy::Bsr(b) if b.reclamation_ratio != RATIO))
        .count();
    m.set("fleet.ratio_rewrites", rewrites as f64);
    m.set(
        "service.run_p50_s",
        percentile(&rated.iter().map(|o| o.run_s).collect::<Vec<_>>(), 50.0),
    );
    let lag: Vec<f64> = eps
        .iter()
        .filter(|e| e.rate.is_some())
        .flat_map(|e| e.lag())
        .collect();
    m.set("service.generator_lag_p99_s", percentile(&lag, 99.0));
    for (name, v) in round_medians(eps) {
        if name.starts_with("service.latency") {
            m.set(&name, v);
        }
    }
    m.set("trace.job_p50_s", template_percentile(run_times(eps), 50.0));
    // Spans of episode jobs are taken from the returned outcomes and every re-run
    // happens after the episodes, so the traced episodes are the untraced ones.
    m.set("trace.overhead_frac", 0.0);
    m.set("trace.spans", spans as f64);
}

/// Run `service_open` for about `seconds` and fill `out`.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let mut eps = Vec::new();
    for round in 0..ROUNDS as u64 {
        for (k, (&(name, rate), share)) in RATES.iter().zip(EPISODE_SHARE).enumerate() {
            let jobs = ((rate * share * seconds / ROUNDS as f64).round() as usize).max(1);
            eps.push(episode(
                name,
                seed,
                0x5e0 + 16 * round + k as u64,
                Some(rate),
                jobs,
                tr,
            ));
        }
        let jobs = ((SATURATED_JOBS_PER_S * seconds / ROUNDS as f64).round() as usize).max(1);
        eps.push(episode(
            "saturated",
            seed,
            0x5ef + 16 * round,
            None,
            jobs,
            tr,
        ));
    }

    for e in &eps {
        if e.outcomes.len() + e.rejected != e.submitted {
            out.problems.push(format!(
                "episode {}: {} completed + {} rejected != {} submitted",
                e.name,
                e.outcomes.len(),
                e.rejected,
                e.submitted
            ));
        }
        for (o, &due) in e.outcomes.iter().zip(&e.due) {
            let id = o.id.as_u64();
            tr.push(
                id,
                "service.generator_lag",
                e.origin_s + due,
                o.arrival_s - due,
            );
            tr.push(id, "queue.wait", e.origin_s + o.arrival_s, o.queue_wait_s);
            tr.push(
                id,
                "service.run",
                e.origin_s + o.arrival_s + o.queue_wait_s,
                o.run_s,
            );
        }
    }

    // Seeded sample of finished jobs, replayed solo outside the episodes.
    let all: Vec<&JobOutcome> = eps.iter().flat_map(|e| &e.outcomes).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(jobs::job_seed(seed, 0x5a, 0));
    let n_replays = if tr.enabled() {
        TRACED_REPLAYS
    } else {
        REPLAYS
    }
    .min(all.len());
    let mut replays = Vec::new();
    let mut replay_failures = 0;
    for _ in 0..n_replays {
        let o = all[rng.gen_range(0..all.len())];
        let (pass, r) = replay(o, seed, tr);
        if !pass {
            replay_failures += 1;
        }
        replays.push(r);
    }
    if tr.enabled() {
        per_layer(&mut out.metrics, &eps, &replays, tr.spans.len());
    } else {
        end_to_end(&mut out.metrics, &eps);
    }

    let submitted: usize = eps.iter().map(|e| e.submitted).sum();
    let clean: usize = eps.iter().map(|e| e.clean()).sum();
    out.attempted = submitted;
    out.failed = submitted - clean;
    if out.failed > 0 || replay_failures > 0 {
        out.problems.push(format!(
            "{} non-clean service jobs and {replay_failures} failed solo replays on a fault-free workload",
            out.failed
        ));
    }
    let silent = all
        .iter()
        .filter(|o| o.verdict == JobVerdict::SilentCorruption)
        .count()
        + replay_failures;
    out.info.extend([
        (
            "episodes".into(),
            Json::Arr(
                eps.iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            (
                                "rate_per_s",
                                e.rate.map_or(Json::str("all at once"), Json::Num),
                            ),
                            ("submitted", Json::Int(e.submitted as i64)),
                            ("completed", Json::Int(e.outcomes.len() as i64)),
                            ("rejected", Json::Int(e.rejected as i64)),
                            ("wall_s", Json::Num(e.wall_s)),
                            ("cpu_s", Json::Num(e.cpu_s)),
                            (
                                "due_latency_p50_s",
                                Json::Num(percentile(&e.due_latency(), 50.0)),
                            ),
                            (
                                "due_latency_p99_s",
                                Json::Num(percentile(&e.due_latency(), 99.0)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("slo_p90_s".into(), Json::Num(SLO_P90_S)),
        (
            "job_p90_s".into(),
            Json::Num(template_percentile(run_times(&eps), 90.0)),
        ),
        ("solo_replays".into(), Json::Int(n_replays as i64)),
        (
            "failed_share".into(),
            Json::Num(out.failed as f64 / submitted as f64),
        ),
        (
            "silent_share".into(),
            Json::Num(silent as f64 / submitted as f64),
        ),
    ]);
}
