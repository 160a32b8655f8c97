//! `perfbench` — the repository benchmark: four workloads over the whole
//! factorization stack, end-to-end metrics with tracing off, per-layer metrics and
//! job-keyed spans with tracing on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense_dag|online_mixed|service_open|chaos_recovery> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it describes the
//! host, the pinned tuning state and the workload's own counts. A traced run also
//! writes its spans to `perfbench/out/trace-<workload>-<seed>.json`. The command
//! exits non-zero when any output check fails.

mod check;
mod closed;
mod jobs;
mod layers;
mod service;
mod stats;
mod trace;

use jobs::Closed;
use stats::{median, Json, Metrics};
use std::time::Instant;
use trace::Tracer;

/// Where traces and probe scratch files go, relative to the repository root.
pub const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics (tracing off), with units; every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("gflops", "GFLOP/s"),
    ("energy_per_job_j", "J"),
    ("max_rate_under_slo", "1/s"),
    ("capacity_jobs_per_s", "1/s"),
];

/// Per-layer metrics (tracing on), with units; zero where a workload leaves the
/// layer idle.
const PER_LAYER: [(&str, &str); 54] = [
    ("blas3.gemm_f64_gflops", "GFLOP/s"),
    ("blas3.gemm_f32_gflops", "GFLOP/s"),
    ("blas3.gemm_f64_peak_frac", "share"),
    ("blas3.gemm_f32_peak_frac", "share"),
    ("roofline.fma_f64_gflops", "GFLOP/s"),
    ("roofline.fma_f32_gflops", "GFLOP/s"),
    ("roofline.stream_gbps", "GB/s"),
    ("dag.facto_s.cholesky", "s"),
    ("dag.facto_s.lu", "s"),
    ("dag.facto_s.qr", "s"),
    ("dag.tasks", "count"),
    ("dag.retries", "count"),
    ("verify.residual_s", "s"),
    ("verify.residual_share", "share"),
    ("lowprec.facto_s.cholesky", "s"),
    ("lowprec.facto_s.lu", "s"),
    ("mixed.refine_iters", "count"),
    ("mixed.refine_s", "s"),
    ("mixed.unconverged", "count"),
    ("solve.s", "s"),
    ("abft.checksum_share", "share"),
    ("abft.overhead_ratio", "ratio"),
    ("abft.faults_injected", "count"),
    ("recover.in_place", "count"),
    ("recover.tile_recomputes", "count"),
    ("recover.panel_recomputes", "count"),
    ("recover.replays", "count"),
    ("recover.escalations", "count"),
    ("recover.in_place_share", "share"),
    ("recover.storm_failed", "count"),
    ("recover.storm_silent", "count"),
    ("sched.plan_s", "s"),
    ("sched.predictor_rel_err", "share"),
    ("sched.energy_spread", "share"),
    ("numeric.input_gen_s", "s"),
    ("numeric.unattributed_s", "s"),
    ("queue.wait_p50_s", "s"),
    ("queue.wait_p99_s", "s"),
    ("queue.batch_size_mean", "count"),
    ("queue.rejected", "count"),
    ("fleet.ratio_rewrites", "count"),
    ("service.run_p50_s", "s"),
    ("service.generator_lag_p99_s", "s"),
    ("service.latency_p50_s.low", "s"),
    ("service.latency_p90_s.low", "s"),
    ("service.latency_p99_s.low", "s"),
    ("service.latency_p50_s.high", "s"),
    ("service.latency_p90_s.high", "s"),
    ("service.latency_p99_s.high", "s"),
    ("pool.dispatch_us", "us"),
    ("tune.probe_s", "s"),
    ("trace.job_p50_s", "s"),
    ("trace.overhead_frac", "share"),
    ("trace.spans", "count"),
];

/// What a workload run found, filled in by the workload modules.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that did not end clean.
    pub failed: usize,
    /// Broken output checks; any entry fails the command.
    pub problems: Vec<String>,
    /// Descriptive fields for the info line.
    pub info: Vec<(String, Json)>,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Closed(Closed),
    ServiceOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "dense_dag" => Workload::Closed(Closed::DenseDag),
            "online_mixed" => Workload::Closed(Closed::OnlineMixed),
            "chaos_recovery" => Workload::Closed(Closed::ChaosRecovery),
            "service_open" => Workload::ServiceOpen,
            _ => return None,
        })
    }

    /// Warm caches, the pool and every job template once.
    fn set_up(self, seed: u64) {
        std::hint::black_box(bsr_linalg::tune::report());
        match self {
            Workload::Closed(w) => closed::warm_up(w, seed),
            Workload::ServiceOpen => service::warm_up(seed),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn host_info(threads: usize, workload: Workload) -> Vec<(String, Json)> {
    let (llc, llc_src) = layers::llc_bytes();
    let tuning: Vec<Json> = bsr_linalg::tune::report_names()
        .iter()
        .zip(bsr_linalg::tune::report())
        .map(|(name, p)| {
            Json::obj([
                ("elem", Json::str(*name)),
                ("nc", Json::Int(p.nc as i64)),
                ("kc", Json::Int(p.kc as i64)),
                ("mc", Json::Int(p.mc as i64)),
                ("par_madds", Json::Int(p.par_madds as i64)),
                ("source", Json::str(p.source)),
            ])
        })
        .collect();
    let workers = if matches!(workload, Workload::ServiceOpen) {
        service::WORKERS
    } else {
        0
    };
    vec![
        (
            "available_parallelism".into(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        (
            "simd_backend".into(),
            Json::str(bsr_linalg::elem::simd_backend()),
        ),
        ("llc_bytes".into(), Json::Int(llc as i64)),
        ("llc_source".into(), Json::str(llc_src)),
        ("rayon_threads".into(), Json::Int(threads as i64)),
        ("service_workers".into(), Json::Int(workers as i64)),
        ("submitter_threads".into(), Json::Int(1)),
        ("tuning".into(), Json::Arr(tuning)),
    ]
}

fn main() {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-tune") {
        layers::probe_tune_child();
        return;
    }
    let (args, workload) = match parse_args(&argv).and_then(|a| {
        let w = Workload::parse(&a.workload)
            .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
        Ok((a, w))
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <dense_dag|online_mixed|service_open|chaos_recovery> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };

    // One pinned state for every timed run: compiled kernel defaults (no probe
    // timing noise, same on both sides of a comparison) and one pool thread, so a
    // closed-loop job runs on the calling thread and its CPU time is its cost. On a
    // shared 2-vCPU host a stall of either vCPU stalls every two-thread job: two
    // threads spread dense_dag job times by a quarter to a third of the median
    // between identical runs. The service's two dispatch workers fill both cores.
    let threads = 1;
    std::env::set_var("BSR_AUTOTUNE", "0");
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    // Set-up runs three times; the first is counted from process start. Its CPU
    // time is reported: on a shared host its wall time also counts the time the
    // host ran something else, which moved it by half between runs.
    let (setups, setups_wall): (Vec<f64>, Vec<f64>) = (0..3)
        .map(|k| {
            let (t, c) = if k == 0 {
                (origin, 0.0)
            } else {
                (Instant::now(), stats::cpu_s())
            };
            workload.set_up(args.seed);
            (stats::cpu_s() - c, t.elapsed().as_secs_f64())
        })
        .unzip();

    let mut tr = Tracer::new(origin, args.trace);
    let mut out = Outcome::default();
    out.info.extend(host_info(threads, workload));
    out.info.extend([
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "setup_runs_cpu_s".into(),
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "setup_runs_wall_s".into(),
            Json::Arr(setups_wall.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ]);
    if args.trace {
        // The machine and kernel probes always use both cores, whatever the
        // workload's own thread count.
        let cores = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
        let probe_info = layers::probe(&mut out.metrics, cores, args.seed);
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        out.info.extend(probe_info);
    } else {
        out.metrics.set("setup_s", median(&setups));
    }
    match workload {
        Workload::Closed(w) => closed::run(w, args.seed, args.seconds, &mut tr, &mut out),
        Workload::ServiceOpen => service::run(args.seed, args.seconds, &mut tr, &mut out),
    }

    let pins: Vec<Json> = check::analytic_pins()
        .into_iter()
        .map(|(dec, saving, ok)| {
            if !ok {
                out.problems.push(format!(
                    "paper-scale {} saving moved to {saving}",
                    jobs::dec_name(dec)
                ));
            }
            Json::obj([
                ("decomposition", Json::str(jobs::dec_name(dec))),
                ("saving", Json::Num(saving)),
            ])
        })
        .collect();
    out.info
        .push(("paper_scale_bsr_saving".into(), Json::Arr(pins)));

    if args.trace {
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => out
                .info
                .push(("trace_file".into(), Json::str(path.to_string_lossy()))),
            Err(e) => out
                .problems
                .push(format!("could not write {}: {e}", path.display())),
        }
    }

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(String, Json)> = expected
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not recorded"));
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    assert_eq!(
        metrics.len(),
        out.metrics.0.len(),
        "a metric was recorded that is not listed"
    );

    let correct = out.problems.is_empty();
    out.info.push((
        "problems".into(),
        Json::Arr(out.problems.iter().map(Json::str).collect()),
    ));
    println!("{}", Json::Obj(out.info).render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(out.attempted as i64)),
            ("failed", Json::Int(out.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    if !correct {
        std::process::exit(1);
    }
}
