//! `reliability_perf` — chaos campaign for the uncorrectable-SDC recovery pipeline.
//!
//! Where `bsr_perf` measures the cost of the protection protocol on healthy runs, this
//! harness measures what happens when protection is *stressed*. Two campaigns share the
//! same trial machinery:
//!
//! **Legacy campaign** — every planned fault is drawn from a mix of classes beyond
//! one-strike in-place ABFT correction (four-corner bursts, checksum-vector strikes,
//! panel strikes, optionally persistent re-strikers), and the recovery ladder —
//! in-place correction, tile recomputation, iteration/run replay, structured
//! escalation — has to clean up. Sweep axes: checksum scheme (`none` / `single_side`
//! / `full`), SDC rate, fault mix (`burst` / `harsh` / `persistent`), runtime
//! (`stepped` / `dag`), recovery policy on/off.
//!
//! **Multi-strike campaign** — the order-`t` Vandermonde codes (`multi1..multi3`,
//! where `multi1` is bit-identical to `full`) against mixes that defeat the legacy
//! full scheme: `check` (strikes land in the stored check vectors), `burst`
//! (four-corner 2×2 strikes), `grid2` / `grid3` (g×g spread grids — `grid2` defeats
//! order < 2, `grid3` defeats order < 3). The point of the campaign is the
//! *in-place-correction fraction*: an order-`t` code absorbs up to `t` strikes per
//! row/column during verification, so recovery never has to recompute, while `full`
//! must detect-and-recompute every multi-strike tile. The campaign runs on LU only:
//! the code-order axis is factorization-independent and the legacy campaign already
//! sweeps the factorization axis.
//!
//! Rate calibration: the stepped runtime samples SDC events from *measured*
//! wall-clock iterations, roughly three decades longer than the DAG runtime's
//! analytic times, so the same events/s rate yields ~1000× more strikes. Detection
//! paths tolerate any density (everything escalates to recompute/replay), but
//! in-place *correction* is an MDS decode with a finite radius: pile enough strikes
//! into one tile and the decoder correctly refuses (or, at extreme density, could
//! alias). The multi-strike campaign therefore scales the stepped-runtime rate down
//! to land in the regime the codes are built for — a handful of multi-strike events
//! per run — while the DAG half keeps the legacy campaign's high rate.
//!
//! Reported per cell: recovery success rate (clean, bit-verified completions),
//! silent-corruption and structured-failure counts, post-recovery residual,
//! recomputed-tile fraction, in-place corrections and the in-place-correction
//! fraction, and the recovery wall-clock overhead against a fault-free run of the
//! same configuration. The JSON also records every fault-free baseline and the
//! per-scheme checksum overhead vs `none` — the measured price of each added
//! check-vector pair.
//!
//! Results go to stdout and `BENCH_reliability.json` at the workspace root.
//! Environment:
//! * `RELIABILITY_SMOKE=1` — tiny size + fewer trials for CI smoke runs; caps the
//!   multi-strike campaign to one representative (scheme, mix) cell per rung; writes
//!   to `target/BENCH_reliability.smoke.json` so the recorded trajectory is not
//!   clobbered;
//! * `RELIABILITY_OUT=<path>` — override the output path.

use std::collections::HashMap;

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::recover::{RecoveryAction, RecoveryPolicy};
use bsr_core::config::{AbftMode, RunConfig};
use bsr_core::numeric::{
    generate_input, protected_tiles, run_numeric, run_numeric_on, NumericError, NumericFactors,
};
use bsr_linalg::matrix::Matrix;
use bsr_linalg::verify;
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;
use hetero_sim::sdc::FaultMix;

fn facto_label(dec: Decomposition) -> &'static str {
    match dec {
        Decomposition::Cholesky => "cholesky",
        Decomposition::Lu => "lu",
        Decomposition::Qr => "qr",
    }
}

/// The legacy-campaign fault mixes. Every class in each mix defeats one-strike
/// in-place correction; `persistent` re-strikes on every recomputation until the
/// tracker marks the site suspect and escalates.
fn mixes() -> [(&'static str, FaultMix); 3] {
    [
        ("burst", FaultMix { burst: 1.0, ..FaultMix::default() }),
        ("harsh", FaultMix::harsh()),
        ("persistent", FaultMix { burst: 1.0, persistent: 1.0, ..FaultMix::default() }),
    ]
}

/// The multi-strike-campaign mixes: every one of them defeats the legacy `full`
/// scheme (forcing detect-and-recompute), while an order-`t` code of matching
/// strength absorbs it in place.
fn multi_mixes() -> [(&'static str, FaultMix); 4] {
    [
        ("check", FaultMix { checksum: 1.0, ..FaultMix::default() }),
        ("burst", FaultMix { burst: 1.0, ..FaultMix::default() }),
        ("grid2", FaultMix::grid_storm(2)),
        ("grid3", FaultMix::grid_storm(3)),
    ]
}

/// The schemes of the multi-strike campaign. `multi1` is the order-1 Vandermonde
/// code — bit-identical vectors to `full` — so its column doubles as a consistency
/// check on the generalized encoder.
fn multi_schemes() -> [(&'static str, ChecksumScheme); 4] {
    [
        ("full", ChecksumScheme::Full),
        ("multi1", ChecksumScheme::Multi(1)),
        ("multi2", ChecksumScheme::Multi(2)),
        ("multi3", ChecksumScheme::Multi(3)),
    ]
}

/// Smoke mode caps the multi-strike campaign's scheme × mix product to one
/// representative cell per capability rung (plus the `full` baseline it is
/// compared against) so CI stays fast while still exercising every code order.
fn smoke_multi_pair(scheme: &str, mix: &str) -> bool {
    matches!(
        (scheme, mix),
        ("full", "check") | ("full", "grid2") | ("multi1", "check") | ("multi2", "grid2")
            | ("multi3", "grid3")
    )
}

/// Multi-strike campaign rate for a runtime: see the module docs — the stepped
/// runtime's measured iterations are ~10³× longer than the DAG's analytic times,
/// so its rate is scaled down to keep strike density inside the decode radius
/// regime the in-place codes are designed for.
fn multi_rate(feedback: bool) -> f64 {
    if feedback {
        2.0e3
    } else {
        1.0e5
    }
}

/// One (facto, scheme, mix, rate, runtime, policy) campaign cell, aggregated over
/// `trials` seeds.
struct Cell {
    campaign: &'static str,
    facto: &'static str,
    scheme: &'static str,
    mix: &'static str,
    rate_per_s: f64,
    runtime: &'static str,
    recovery: &'static str,
    trials: usize,
    /// Completed with a numerically correct, cleanly verified factorization.
    clean: usize,
    /// Completed but wrong or with uncorrectable tallies left: silent corruption.
    silent: usize,
    /// Structured `UnrecoverableFault` escalation.
    structured: usize,
    /// Aborted with a numeric error (e.g. corruption made a panel singular).
    aborted: usize,
    faults_injected: usize,
    /// Verification-time corrections (0D, 1D, order-k, check-vector) — faults
    /// absorbed without any recovery-ladder work.
    in_place_corrections: usize,
    tile_recomputes: usize,
    replays: usize,
    /// Mean exact residual (the `verify::*_residual` oracle) of the clean trials.
    mean_clean_residual: f64,
    median_makespan_s: f64,
    /// Median makespan relative to the fault-free baseline of the same
    /// (facto, scheme, runtime) configuration, minus one.
    overhead_vs_fault_free: f64,
}

impl Cell {
    /// Fraction of handled faults absorbed in place rather than escalated to
    /// recomputation or replay. NaN when the cell saw no fault handling at all.
    fn in_place_fraction(&self) -> f64 {
        let handled = self.in_place_corrections + self.tile_recomputes + self.replays;
        if handled == 0 {
            f64::NAN
        } else {
            self.in_place_corrections as f64 / handled as f64
        }
    }
}

/// The overclocked chaos configuration: BSR applies the optimized guardband (SDC
/// rates are identically zero under the default guardband), and the fault-free
/// threshold sits below the base clock so the micro-second iterations of bench-sized
/// problems still observe events at `rate_per_s`.
fn chaos_cfg(
    dec: Decomposition,
    n: usize,
    b: usize,
    scheme: ChecksumScheme,
    rate_per_s: f64,
    feedback: bool,
    seed: u64,
) -> RunConfig {
    let mut cfg = RunConfig::small(dec, n, b, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
        .with_abft_mode(AbftMode::Forced(scheme))
        .with_measured_feedback(feedback)
        .with_seed(seed);
    cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
    cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
    cfg.platform.gpu.sdc.base_rate_per_s = rate_per_s;
    cfg.platform.gpu.sdc.one_d_base_rate_per_s = rate_per_s / 10.0;
    cfg
}

/// Run the `trials` seeds of one campaign cell and aggregate the tallies.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    campaign: &'static str,
    dec: Decomposition,
    n: usize,
    b: usize,
    scheme_label: &'static str,
    scheme: ChecksumScheme,
    mix_label: &'static str,
    mix: FaultMix,
    rate: f64,
    runtime: &'static str,
    feedback: bool,
    policy_label: &'static str,
    policy: RecoveryPolicy,
    trials: usize,
    baseline: f64,
) -> Cell {
    let mut cell = Cell {
        campaign,
        facto: facto_label(dec),
        scheme: scheme_label,
        mix: mix_label,
        rate_per_s: rate,
        runtime,
        recovery: policy_label,
        trials,
        clean: 0,
        silent: 0,
        structured: 0,
        aborted: 0,
        faults_injected: 0,
        in_place_corrections: 0,
        tile_recomputes: 0,
        replays: 0,
        mean_clean_residual: 0.0,
        median_makespan_s: 0.0,
        overhead_vs_fault_free: 0.0,
    };
    let mut residuals = Vec::new();
    let mut makespans = Vec::new();
    for t in 0..trials {
        let cfg = chaos_cfg(dec, n, b, scheme, rate, feedback, 1000 + t as u64)
            .with_fault_mix(mix)
            .with_recovery(policy);
        let input = generate_input(&cfg);
        match run_numeric_on(cfg, &input) {
            Ok(out) => {
                makespans.push(out.measured_makespan_s());
                cell.faults_injected += out.faults_injected;
                cell.in_place_corrections += out.verification.total_corrected();
                cell.tile_recomputes += out
                    .recovery
                    .iter()
                    .filter(|e| {
                        e.action == RecoveryAction::TileRecomputed
                            || e.action == RecoveryAction::PanelRecomputed
                    })
                    .count();
                cell.replays += out
                    .recovery
                    .iter()
                    .filter(|e| {
                        e.action == RecoveryAction::IterationReplayed
                            || e.action == RecoveryAction::RunReplayed
                    })
                    .count();
                if out.numerically_correct && out.verification.uncorrectable == 0 {
                    cell.clean += 1;
                    residuals.push(exact_residual(&input, &out.factors));
                } else {
                    cell.silent += 1;
                }
            }
            Err(NumericError::UnrecoverableFault { history }) => {
                cell.structured += 1;
                cell.replays += history
                    .iter()
                    .filter(|e| {
                        e.action == RecoveryAction::IterationReplayed
                            || e.action == RecoveryAction::RunReplayed
                    })
                    .count();
            }
            Err(_) => cell.aborted += 1,
        }
    }
    cell.mean_clean_residual = if residuals.is_empty() {
        f64::NAN
    } else {
        residuals.iter().sum::<f64>() / residuals.len() as f64
    };
    cell.median_makespan_s = median(makespans);
    cell.overhead_vs_fault_free = cell.median_makespan_s / baseline - 1.0;
    cell
}

/// The exact O(n³) residual oracle, run off the job path: `mean_clean_residual`
/// reports the reconstructed `‖A − F‖_F / ‖A‖_F`, not the run's probed estimate.
fn exact_residual(input: &Matrix, factors: &NumericFactors) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => verify::cholesky_residual(input, &m.lower_triangular()),
        NumericFactors::Lu(f) => verify::lu_residual(input, f),
        NumericFactors::Qr(f) => verify::qr_residual(input, f),
        other => unreachable!("the chaos campaigns run at f64, got {other:?}"),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let smoke = std::env::var("RELIABILITY_SMOKE").is_ok();
    let (n, b, trials): (usize, usize, usize) =
        if smoke { (96, 16, 2) } else { (192, 32, 6) };
    let total_tiles: usize = (0..n.div_ceil(b))
        .map(|k| protected_tiles(Decomposition::Lu, n, b, k).len())
        .sum();

    let schemes = [
        ("none", ChecksumScheme::None),
        ("single_side", ChecksumScheme::SingleSide),
        ("full", ChecksumScheme::Full),
    ];
    let rates: &[f64] = if smoke { &[1.0e5] } else { &[2.0e4, 1.0e5] };
    let runtimes = [("stepped", true), ("dag", false)];
    let decs: &[Decomposition] = if smoke { &[Decomposition::Lu] } else { &Decomposition::ALL };

    // Fault-free baseline per (facto, scheme, runtime): what the configuration costs
    // with no strikes and no recovery work. Overhead columns are relative to this,
    // and the baselines themselves measure the price of each added check vector.
    let mut baselines: HashMap<(&'static str, &'static str, &'static str), f64> = HashMap::new();
    let mut baseline_for = |dec: Decomposition,
                           scheme_label: &'static str,
                           scheme: ChecksumScheme,
                           runtime: &'static str,
                           feedback: bool|
     -> f64 {
        *baselines.entry((facto_label(dec), scheme_label, runtime)).or_insert_with(|| {
            median(
                (0..trials)
                    .map(|t| {
                        let cfg = chaos_cfg(dec, n, b, scheme, 0.0, feedback, 1000 + t as u64)
                            .with_fault_injection(false);
                        run_numeric(cfg)
                            .expect("fault-free runs must complete")
                            .measured_makespan_s()
                    })
                    .collect(),
            )
        })
    };

    let policies =
        [("off", RecoveryPolicy::default()), ("on", RecoveryPolicy::enabled())];

    let mut cells: Vec<Cell> = Vec::new();

    // ---- legacy campaign: recovery ladder vs detect-only mixes ------------------------
    for &dec in decs {
        for (scheme_label, scheme) in schemes {
            for (runtime, feedback) in runtimes {
                let baseline = baseline_for(dec, scheme_label, scheme, runtime, feedback);
                for &rate in rates {
                    for (mix_label, mix) in mixes() {
                        for (policy_label, policy) in policies {
                            cells.push(run_cell(
                                "legacy", dec, n, b, scheme_label, scheme, mix_label, mix,
                                rate, runtime, feedback, policy_label, policy, trials,
                                baseline,
                            ));
                        }
                    }
                }
            }
        }
    }

    // ---- multi-strike campaign: code order vs mixes that defeat `full` ----------------
    for (scheme_label, scheme) in multi_schemes() {
        for (runtime, feedback) in runtimes {
            let baseline =
                baseline_for(Decomposition::Lu, scheme_label, scheme, runtime, feedback);
            let rate = multi_rate(feedback);
            for (mix_label, mix) in multi_mixes() {
                if smoke && !smoke_multi_pair(scheme_label, mix_label) {
                    continue;
                }
                for (policy_label, policy) in policies {
                    cells.push(run_cell(
                        "multi_strike", Decomposition::Lu, n, b, scheme_label, scheme,
                        mix_label, mix, rate, runtime, feedback, policy_label, policy,
                        trials, baseline,
                    ));
                }
            }
        }
    }

    // ---- summary ----------------------------------------------------------------------
    println!("\nreliability_perf summary (n = {n}, b = {b}, {trials} trials/cell):");
    println!(
        "  {:<12} {:<8} {:<11} {:<10} {:>8} {:<7} {:>3} | {:>7} {:>6} {:>6} {:>6} | {:>7} {:>6} {:>7}",
        "campaign", "facto", "scheme", "mix", "rate", "runtime", "rec",
        "success", "silent", "struct", "abort", "inplace", "recomp", "ovhd"
    );
    for c in &cells {
        println!(
            "  {:<12} {:<8} {:<11} {:<10} {:>8.0e} {:<7} {:>3} | {:>6.0}% {:>6} {:>6} {:>6} | {:>7} {:>6} {:>6.0}%",
            c.campaign,
            c.facto,
            c.scheme,
            c.mix,
            c.rate_per_s,
            c.runtime,
            c.recovery,
            100.0 * c.clean as f64 / c.trials as f64,
            c.silent,
            c.structured,
            c.aborted,
            c.in_place_corrections,
            c.tile_recomputes,
            100.0 * c.overhead_vs_fault_free,
        );
    }

    // The headline guarantees, asserted so a regression fails the bench run itself.
    //
    // (1) With any detect-capable scheme (`full` or a Vandermonde code) and recovery
    // on, no trial may end silently corrupted.
    let protected_on_silent: usize = cells
        .iter()
        .filter(|c| {
            matches!(c.scheme, "full" | "multi1" | "multi2" | "multi3") && c.recovery == "on"
        })
        .map(|c| c.silent)
        .sum();
    assert_eq!(
        protected_on_silent, 0,
        "protected recovery-on cells must never complete silently corrupted"
    );

    // (2) Under the multi-strike mixes the order-k codes (k >= 2) must absorb a
    // strictly larger fraction of faults in place than the legacy full scheme, which
    // can only detect-and-recompute them.
    // Vacuity guard: `faults_injected` only counts strikes on *accepted* tiles, so a
    // detect-and-recompute cell legitimately reports zero even while recomputing
    // struck tiles; the evidence that the campaign struck is the total fault
    // handling (in-place corrections + recomputations + replays).
    let agg_in_place = |scheme: &str| -> (usize, usize) {
        cells
            .iter()
            .filter(|c| c.campaign == "multi_strike" && c.scheme == scheme && c.recovery == "on")
            .fold((0, 0), |(ip, handled), c| {
                (
                    ip + c.in_place_corrections,
                    handled + c.in_place_corrections + c.tile_recomputes + c.replays,
                )
            })
    };
    let (full_ip, full_handled) = agg_in_place("full");
    assert!(full_handled > 0, "multi-strike campaign must actually strike the full scheme");
    let full_frac = full_ip as f64 / full_handled as f64;
    let mut in_place_fracs: Vec<(&'static str, f64)> = vec![("full", full_frac)];
    for (scheme_label, _) in multi_schemes().into_iter().skip(1) {
        let (ip, handled) = agg_in_place(scheme_label);
        assert!(handled > 0, "multi-strike campaign must actually strike {scheme_label}");
        let frac = ip as f64 / handled as f64;
        if scheme_label != "multi1" {
            assert!(
                frac > full_frac,
                "{scheme_label} must correct a strictly larger in-place fraction than \
                 full under multi-strike mixes ({frac:.4} vs {full_frac:.4})"
            );
        }
        in_place_fracs.push((scheme_label, frac));
    }

    // ---- JSON emission ----------------------------------------------------------------
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let default_out = if smoke {
        root.join("target/BENCH_reliability.smoke.json")
    } else {
        root.join("BENCH_reliability.json")
    };
    let out_path = std::env::var("RELIABILITY_OUT")
        .unwrap_or_else(|_| default_out.to_string_lossy().into_owned());

    // All interpolated strings are code-controlled identifiers, so no escaping is needed.
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"campaign\":\"{}\",\"facto\":\"{}\",\"scheme\":\"{}\",\"mix\":\"{}\",\"rate_per_s\":{:.1e},\"runtime\":\"{}\",\"recovery\":\"{}\",\"trials\":{},\"clean\":{},\"silent_corruption\":{},\"structured_failure\":{},\"aborted\":{},\"success_rate\":{:.4},\"faults_injected\":{},\"in_place_corrections\":{},\"in_place_fraction\":{},\"tile_recomputes\":{},\"recomputed_tile_fraction\":{:.4},\"replays\":{},\"mean_clean_residual\":{},\"median_makespan_s\":{},\"overhead_vs_fault_free\":{}}}",
                c.campaign,
                c.facto,
                c.scheme,
                c.mix,
                c.rate_per_s,
                c.runtime,
                c.recovery,
                c.trials,
                c.clean,
                c.silent,
                c.structured,
                c.aborted,
                c.clean as f64 / c.trials as f64,
                c.faults_injected,
                c.in_place_corrections,
                json_num(c.in_place_fraction()),
                c.tile_recomputes,
                c.tile_recomputes as f64 / (c.trials * total_tiles) as f64,
                c.replays,
                json_num(c.mean_clean_residual),
                json_num(c.median_makespan_s),
                json_num(c.overhead_vs_fault_free),
            )
        })
        .collect();

    // Fault-free baselines and the measured checksum overhead of each scheme vs an
    // unprotected run of the same (facto, runtime) — the per-added-check-vector cost.
    let mut baseline_rows: Vec<(&'static str, &'static str, &'static str, f64)> =
        baselines.iter().map(|(&(f, s, r), &m)| (f, s, r, m)).collect();
    baseline_rows.sort_by_key(|&(f, s, r, _)| (f, s, r));
    let baseline_json: Vec<String> = baseline_rows
        .iter()
        .map(|&(facto, scheme, runtime, makespan)| {
            format!(
                "    {{\"facto\":\"{facto}\",\"scheme\":\"{scheme}\",\"runtime\":\"{runtime}\",\"median_makespan_s\":{}}}",
                json_num(makespan)
            )
        })
        .collect();
    let scheme_overhead: Vec<String> = ["single_side", "full", "multi1", "multi2", "multi3"]
        .into_iter()
        .filter_map(|scheme| {
            let ratios: Vec<f64> = baseline_rows
                .iter()
                .filter(|&&(_, s, _, _)| s == scheme)
                .filter_map(|&(facto, _, runtime, makespan)| {
                    baselines
                        .get(&(facto, "none", runtime))
                        .map(|none| makespan / none - 1.0)
                })
                .collect();
            if ratios.is_empty() {
                None
            } else {
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                Some(format!("\"{scheme}\": {}", json_num(mean)))
            }
        })
        .collect();

    // Derived headline numbers: aggregate success under full protection with recovery
    // on/off, how often unprotected runs went silently wrong, and the in-place
    // fraction ladder of the multi-strike campaign.
    let agg = |scheme: &str, recovery: &str| -> (usize, usize, usize, usize) {
        cells
            .iter()
            .filter(|c| c.scheme == scheme && c.recovery == recovery)
            .fold((0, 0, 0, 0), |(cl, si, st, tr), c| {
                (cl + c.clean, si + c.silent, st + c.structured, tr + c.trials)
            })
    };
    let (full_on_clean, full_on_silent, full_on_struct, full_on_trials) = agg("full", "on");
    let (full_off_clean, full_off_silent, _, full_off_trials) = agg("full", "off");
    let (none_off_clean, none_off_silent, _, none_off_trials) = agg("none", "off");
    let in_place_json: Vec<String> = in_place_fracs
        .iter()
        .map(|(scheme, frac)| format!("\"{scheme}\": {}", json_num(*frac)))
        .collect();
    let derived = format!(
        "    \"full_recovery_on_success_rate\": {:.4},\n    \"full_recovery_on_structured_failures\": {full_on_struct},\n    \"full_recovery_on_silent_corruptions\": {full_on_silent},\n    \"full_recovery_off_success_rate\": {:.4},\n    \"full_recovery_off_silent_corruptions\": {full_off_silent},\n    \"none_recovery_off_success_rate\": {:.4},\n    \"none_recovery_off_silent_corruptions\": {none_off_silent},\n    \"protected_recovery_on_silent_corruptions\": {protected_on_silent},\n    \"multi_strike_in_place_fraction\": {{{}}},\n    \"checksum_overhead_vs_none\": {{{}}}",
        full_on_clean as f64 / full_on_trials as f64,
        full_off_clean as f64 / full_off_trials as f64,
        none_off_clean as f64 / none_off_trials as f64,
        in_place_json.join(", "),
        scheme_overhead.join(", "),
    );

    let json = format!(
        "{{\n  \"bench\": \"reliability_perf\",\n  \"mode\": \"{}\",\n  \"n\": {n},\n  \"block\": {b},\n  \"trials_per_cell\": {trials},\n  \"protected_tiles_per_run\": {total_tiles},\n{},\n  \"cells\": [\n{}\n  ],\n  \"fault_free_baselines\": [\n{}\n  ],\n  \"derived\": {{\n{}\n  }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        bsr_bench::autotune_json(),
        cell_json.join(",\n"),
        baseline_json.join(",\n"),
        derived
    );
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("reliability_perf: failed to write {out_path}: {e}"),
    }
}
