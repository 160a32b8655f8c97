//! Multi-tenant factorization service: many concurrent jobs on the one persistent
//! pool.
//!
//! This is the layer that turns the single-run numeric engine into a server under
//! traffic (ROADMAP item 1). A [`run_service`] call simulates a service episode:
//!
//! 1. **Arrivals** — job submissions arrive from a Poisson process
//!    ([`hetero_sim::arrival::PoissonArrivals`]), pre-sampled from a seed so the
//!    same traffic replays at any thread count. `realtime: true` paces submissions
//!    at real wall-clock offsets (the bench mode); `false` releases them
//!    immediately (the test mode).
//! 2. **Admission + batching** — each submission is offered to the
//!    [`AdmissionQueue`]: capacity-bounded admission,
//!    FIFO-within-class dispatch, and small-job batching that never mixes
//!    incompatible (element type, checksum scheme) jobs.
//! 3. **Fleet planning** — at dispatch, the worker consults the
//!    [`FleetPlanner`] with the in-flight registry and
//!    rewrites the job's BSR reclamation ratio so the *fleet's* flop-weighted
//!    energy/slack budget stays on target while latency-class jobs keep deadline
//!    margin. The effective config actually used is recorded in the
//!    [`JobOutcome`], so any job can be replayed solo, bit for bit.
//! 4. **Execution** — each job runs through its [`JobHandle`]: a
//!    `bsr_linalg::dag::JobScope` keys the run's DAG stats and watchdog labels to
//!    the job id and routes its pool submissions into the job's fair lane
//!    (`rayon::task_scope_tagged`), so one large job cannot starve queued small
//!    jobs and concurrent post-mortems never clobber each other.
//!
//! Determinism: a job's factors depend only on its effective [`RunConfig`] and
//! input — never on what else was in flight — because the DAG engine is
//! schedule-independent and per-job state is job-keyed. The end-to-end suite
//! asserts bit-identity between service jobs and solo runs at several thread
//! counts, with fault injection active.

use crate::config::RunConfig;
use crate::fleet::{FleetPlanner, InFlightJob};
use crate::numeric::{self, NumericError, NumericRunReport};
use crate::queue::{Admission, AdmissionConfig, AdmissionQueue, JobClass, JobId, QueuedJob};
use bsr_linalg::dag::{self, DagRunStats};
use bsr_linalg::matrix::Matrix;
use bsr_sched::strategy::{BsrConfig, Strategy};
use hetero_sim::arrival::PoissonArrivals;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One factorization job bound to its input: the unit the service dispatches and
/// the primitive [`crate::numeric::run_numeric_on`] wraps.
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    cfg: RunConfig,
    input: Matrix,
}

impl JobHandle {
    /// Bind `cfg` and `input` under an existing job id (the service path: the id
    /// was allocated at admission). Fails with [`NumericError::ShapeMismatch`]
    /// when the input is not the square `n × n` matrix the workload describes, and
    /// with [`NumericError::NonFiniteInput`] when it holds a NaN or infinite entry.
    pub fn new(id: JobId, cfg: RunConfig, input: Matrix) -> Result<Self, NumericError> {
        let n = cfg.workload.n;
        if !input.is_square() || input.rows() != n {
            return Err(NumericError::ShapeMismatch {
                rows: input.rows(),
                cols: input.cols(),
                expected: n,
            });
        }
        if let Some(k) = input.data().iter().position(|v| !v.is_finite()) {
            return Err(NumericError::NonFiniteInput { row: k % n, col: k / n });
        }
        Ok(JobHandle { id, cfg, input })
    }

    /// Bind `cfg` and `input` as a one-shot job with a fresh id (the solo path).
    pub fn solo(cfg: RunConfig, input: Matrix) -> Result<Self, NumericError> {
        Self::new(JobId::fresh(), cfg, input)
    }

    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The config this job will run.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// The input matrix this job will factor.
    pub fn input(&self) -> &Matrix {
        &self.input
    }

    /// Execute the job on the current thread (its parallel regions use the shared
    /// pool). The run is wrapped in a job scope: DAG stats land under this job's
    /// id ([`dag::last_run_stats_for`]), watchdog snapshot labels carry it, and
    /// pool submissions ride the job's fair lane.
    pub fn run(&self) -> Result<NumericRunReport, NumericError> {
        let _scope = dag::JobScope::enter(self.id.as_u64());
        numeric::dispatch(self.cfg.clone(), &self.input)
    }
}

/// Template for one arriving job: the config it should run and its deadline class.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Run configuration (seed determines the generated input).
    pub cfg: RunConfig,
    /// Deadline class for queueing and fleet planning.
    pub class: JobClass,
}

/// Service-episode knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-control and batching parameters.
    pub admission: AdmissionConfig,
    /// Dispatcher worker threads (jobs in a batch run back-to-back on one worker;
    /// distinct workers run concurrently on the shared pool).
    pub workers: usize,
    /// Fleet-level BSR budget planner.
    pub planner: FleetPlanner,
    /// Poisson arrival rate, jobs/second.
    pub arrival_rate_per_s: f64,
    /// Seed of the arrival-offset trace.
    pub arrival_seed: u64,
    /// Pace submissions at real wall-clock arrival offsets (bench mode). When
    /// `false`, all submissions are released immediately in trace order (test
    /// mode — queue/batch/planner behaviour without the waiting).
    pub realtime: bool,
    /// Retain each job's full [`NumericRunReport`] in its outcome (the bit-identity
    /// suite needs the factors; benches leave this off).
    pub keep_reports: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            workers: 2,
            planner: FleetPlanner::default(),
            arrival_rate_per_s: 50.0,
            arrival_seed: 0xa11ce,
            realtime: false,
            keep_reports: false,
        }
    }
}

/// How one job ended, using the reliability taxonomy of the chaos campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobVerdict {
    /// Factors returned, numerically correct, no uncorrectable strikes: clean
    /// (possibly after in-place ABFT corrections).
    Clean,
    /// Factors returned but numerically wrong or carrying uncorrectable strikes —
    /// the failure mode the service must never produce.
    SilentCorruption,
    /// The run failed *structurally* ([`NumericError::UnrecoverableFault`]): the
    /// recovery ladder was exhausted and said so, with history.
    StructuredFailure,
    /// Any other error (non-finite or singular input, unsupported path).
    Aborted,
}

/// Everything recorded about one admitted job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's id.
    pub id: JobId,
    /// Deadline class.
    pub class: JobClass,
    /// Batch the job dispatched in.
    pub batch: u64,
    /// Submission offset, seconds from service start.
    pub arrival_s: f64,
    /// Seconds between submission and dispatch.
    pub queue_wait_s: f64,
    /// Seconds the factorization itself ran.
    pub run_s: f64,
    /// Seconds between submission and completion (`queue_wait_s + run_s` plus any
    /// batch-internal serialization).
    pub latency_s: f64,
    /// Analytic energy estimate (CPU + GPU joules) under the plans that drove the
    /// run; `0.0` for non-clean outcomes with no report.
    pub energy_j: f64,
    /// Faults physically injected into this job's matrix data.
    pub faults_injected: usize,
    /// How the job ended.
    pub verdict: JobVerdict,
    /// The config the job *actually ran* (after fleet-planner budget rewriting) —
    /// replaying this config solo reproduces the job's factors bit for bit.
    pub effective_cfg: RunConfig,
    /// Job-keyed DAG runtime stats, when the run used the DAG engine.
    pub dag_stats: Option<DagRunStats>,
    /// The full run report, when [`ServiceConfig::keep_reports`] was set and the
    /// run returned one.
    pub report: Option<Box<NumericRunReport>>,
    /// Display form of the error for non-clean verdicts.
    pub error: Option<String>,
}

/// Result of one service episode.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-job records, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Offers rejected by admission control.
    pub rejected: usize,
    /// Wall-clock duration of the episode (first submission to last completion).
    pub wall_s: f64,
}

impl ServiceReport {
    /// Completed jobs per wall-clock second.
    pub fn jobs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 { self.outcomes.len() as f64 / self.wall_s } else { 0.0 }
    }

    /// The `p`-th percentile (0–100) of job latency, seconds; `None` when no job
    /// completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        let mut lat: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s).collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        Some(lat[rank.clamp(1, lat.len()) - 1])
    }

    /// Mean analytic energy per completed job, joules.
    pub fn mean_energy_per_job_j(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.energy_j).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Jobs that ended in silent corruption — the zero-tolerance invariant.
    pub fn silent_corruptions(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == JobVerdict::SilentCorruption).count()
    }

    /// Jobs that failed structurally (recovery exhausted, with history).
    pub fn structured_failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == JobVerdict::StructuredFailure).count()
    }

    /// Jobs that completed clean.
    pub fn clean(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == JobVerdict::Clean).count()
    }
}

/// Classify a run result under the reliability taxonomy.
fn classify(result: &Result<NumericRunReport, NumericError>) -> JobVerdict {
    match result {
        Ok(out) => {
            if out.numerically_correct && out.verification.uncorrectable == 0 {
                JobVerdict::Clean
            } else {
                JobVerdict::SilentCorruption
            }
        }
        Err(NumericError::UnrecoverableFault { .. }) => JobVerdict::StructuredFailure,
        Err(_) => JobVerdict::Aborted,
    }
}

/// Rewrite a job's BSR reclamation ratio to the fleet planner's allocation.
/// Non-BSR strategies have no reclamation budget to reallocate and pass through.
fn apply_allocation(cfg: &RunConfig, ratio: f64) -> RunConfig {
    let mut eff = cfg.clone();
    if let Strategy::Bsr(b) = eff.strategy {
        eff.strategy = Strategy::Bsr(BsrConfig { reclamation_ratio: ratio, ..b });
    }
    eff
}

/// Shared state between the submitter and the dispatch workers.
struct Shared {
    queue: Mutex<AdmissionQueue>,
    cv: Condvar,
    done_submitting: AtomicBool,
    inflight: Mutex<Vec<InFlightJob>>,
    outcomes: Mutex<Vec<JobOutcome>>,
}

/// Run one service episode: submit `specs` as Poisson arrivals, dispatch them
/// through admission control, batching and the fleet planner, and run every
/// admitted job to completion on the shared pool. Returns when the episode drains.
pub fn run_service(service: &ServiceConfig, specs: Vec<JobSpec>) -> ServiceReport {
    let t0 = Instant::now();
    let offsets = PoissonArrivals::new(
        ChaCha8Rng::seed_from_u64(service.arrival_seed),
        service.arrival_rate_per_s,
    )
    .take_offsets(specs.len());
    let shared = Shared {
        queue: Mutex::new(AdmissionQueue::new(service.admission)),
        cv: Condvar::new(),
        done_submitting: AtomicBool::new(false),
        inflight: Mutex::new(Vec::new()),
        outcomes: Mutex::new(Vec::new()),
    };
    let workers = service.workers.max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared, service, t0));
        }
        // Submit on this thread, pacing to the arrival trace in realtime mode.
        for (spec, offset) in specs.into_iter().zip(offsets) {
            if service.realtime {
                let due = Duration::from_secs_f64(offset);
                let elapsed = t0.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            let job = QueuedJob {
                id: JobId::fresh(),
                class: spec.class,
                cfg: spec.cfg,
                arrival_s: t0.elapsed().as_secs_f64(),
            };
            let admitted = {
                let mut q = shared.queue.lock().unwrap();
                q.offer(job) == Admission::Admitted
            };
            if admitted {
                shared.cv.notify_all();
            }
        }
        shared.done_submitting.store(true, Ordering::Release);
        shared.cv.notify_all();
    });
    let rejected = shared.queue.lock().unwrap().rejected();
    ServiceReport {
        outcomes: shared.outcomes.into_inner().unwrap(),
        rejected,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// One dispatch worker: pull batches until the queue is drained and closed, run
/// each batch's jobs back-to-back under their job scopes.
fn worker_loop(shared: &Shared, service: &ServiceConfig, t0: Instant) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(b) = q.next_batch() {
                    break Some(b);
                }
                if shared.done_submitting.load(Ordering::Acquire) {
                    break None;
                }
                // Re-check the closed flag at least every few milliseconds: the
                // submitter's final notify could race the wait re-entry.
                q = shared.cv.wait_timeout(q, Duration::from_millis(2)).unwrap().0;
            }
        };
        let Some(batch) = batch else { return };
        for job in batch.jobs {
            run_one(shared, service, t0, batch.id, job);
        }
    }
}

/// Dispatch and record one job.
fn run_one(shared: &Shared, service: &ServiceConfig, t0: Instant, batch: u64, job: QueuedJob) {
    // Register in flight and consult the planner with the whole registry; this
    // job's allocation is the entry just pushed.
    let meta = InFlightJob { id: job.id, class: job.class, n: job.cfg.workload.n };
    let ratio = {
        let mut reg = shared.inflight.lock().unwrap();
        reg.push(meta);
        let ratios = service.planner.allocate(&reg);
        ratios[reg.len() - 1]
    };
    let effective_cfg = apply_allocation(&job.cfg, ratio);
    let input = numeric::generate_input(&effective_cfg);
    let dispatch_s = t0.elapsed().as_secs_f64();
    let run_t0 = Instant::now();
    let result = JobHandle::new(job.id, effective_cfg.clone(), input).and_then(|h| h.run());
    let run_s = run_t0.elapsed().as_secs_f64();
    let done_s = t0.elapsed().as_secs_f64();
    shared.inflight.lock().unwrap().retain(|j| j.id != job.id);
    let dag_stats = dag::last_run_stats_for(job.id.as_u64());
    dag::clear_job_stats(job.id.as_u64());
    let verdict = classify(&result);
    let (energy_j, faults_injected, report, error) = match result {
        Ok(rep) => (
            rep.report.cpu_energy_j + rep.report.gpu_energy_j,
            rep.faults_injected,
            service.keep_reports.then(|| Box::new(rep)),
            None,
        ),
        Err(e) => (0.0, 0, None, Some(e.to_string())),
    };
    shared.outcomes.lock().unwrap().push(JobOutcome {
        id: job.id,
        class: job.class,
        batch,
        arrival_s: job.arrival_s,
        queue_wait_s: (dispatch_s - job.arrival_s).max(0.0),
        run_s,
        latency_s: (done_s - job.arrival_s).max(run_s),
        energy_j,
        faults_injected,
        verdict,
        effective_cfg,
        dag_stats,
        report,
        error,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_sched::workload::Decomposition;

    fn small_spec(seed: u64, class: JobClass) -> JobSpec {
        let cfg = RunConfig::small(Decomposition::Cholesky, 64, 32, Strategy::Bsr(BsrConfig::default()))
            .with_measured_feedback(false)
            .with_seed(seed);
        JobSpec { cfg, class }
    }

    #[test]
    fn episode_completes_every_admitted_job_clean() {
        let service = ServiceConfig {
            workers: 2,
            keep_reports: true,
            ..ServiceConfig::default()
        };
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| {
                small_spec(100 + i, if i % 2 == 0 { JobClass::Latency } else { JobClass::Throughput })
            })
            .collect();
        let report = run_service(&service, specs);
        assert_eq!(report.outcomes.len(), 6, "all jobs must complete");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.clean(), 6, "fault-free jobs must all be clean");
        assert_eq!(report.silent_corruptions(), 0);
        assert!(report.jobs_per_s() > 0.0);
        assert!(report.latency_percentile(50.0).unwrap() <= report.latency_percentile(99.0).unwrap());
        for o in &report.outcomes {
            assert!(o.report.as_ref().is_some_and(|r| r.numerically_correct));
            assert!(o.latency_s >= o.run_s);
            // DAG engine ran (feedback off, f64): job-keyed stats were recorded
            // and cleared at retirement.
            assert!(o.dag_stats.is_some());
            assert_eq!(dag::last_run_stats_for(o.id.as_u64()), None);
        }
    }

    #[test]
    fn fleet_planner_splits_the_budget_by_class() {
        // With both classes in flight, the effective configs must show latency
        // jobs at a ratio >= the template and throughput jobs <= it.
        let service = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        let specs = vec![
            small_spec(1, JobClass::Latency),
            small_spec(2, JobClass::Throughput),
            small_spec(3, JobClass::Latency),
            small_spec(4, JobClass::Throughput),
        ];
        let template_ratio = BsrConfig::default().reclamation_ratio;
        let report = run_service(&service, specs);
        for o in &report.outcomes {
            let Strategy::Bsr(b) = o.effective_cfg.strategy else {
                panic!("strategy must stay BSR")
            };
            match o.class {
                // A job dispatched while the other class is in flight moves off
                // the template; one dispatched alone stays at the planner target.
                JobClass::Latency => assert!(b.reclamation_ratio >= service.planner.target_ratio - 1e-12),
                JobClass::Throughput => {
                    assert!(b.reclamation_ratio <= service.planner.target_ratio + 1e-12)
                }
            }
            assert!((0.0..=1.0).contains(&b.reclamation_ratio));
            let _ = template_ratio;
        }
    }

    #[test]
    fn rejected_jobs_are_counted_not_run() {
        let service = ServiceConfig {
            admission: AdmissionConfig { capacity: 2, small_n_max: 64, max_batch: 2 },
            workers: 1,
            realtime: false,
            ..ServiceConfig::default()
        };
        // Submissions are immediate and the single worker needs a moment per job,
        // but capacity 2 cannot reject unless the queue actually backs up — use
        // enough jobs that it must.
        let specs: Vec<JobSpec> =
            (0..12).map(|i| small_spec(200 + i, JobClass::Throughput)).collect();
        let report = run_service(&service, specs);
        assert_eq!(report.outcomes.len() + report.rejected, 12);
        assert_eq!(report.silent_corruptions(), 0);
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_the_handle_and_aborted() {
        let cfg = small_spec(7, JobClass::Throughput).cfg;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut input = numeric::generate_input(&cfg);
            input.set(5, 9, bad);
            let result = JobHandle::solo(cfg.clone(), input).and_then(|h| h.run());
            assert!(
                matches!(result, Err(NumericError::NonFiniteInput { row: 5, col: 9 })),
                "{bad}: {result:?}"
            );
            assert_eq!(classify(&result), JobVerdict::Aborted);
        }
    }
}
