//! Checksum maintenance fused into the tiled factorization task graphs.
//!
//! The numeric-mode protection pattern of `facto_perf`'s ABFT runs (re-encode + verify
//! every trailing tile after each iteration's updates) ran as a **serial epilogue**
//! between parallel regions. [`FusedTileChecksums`] moves that same workload *into*
//! the trailing-update tasks themselves: it implements
//! [`bsr_linalg::task::TrailingHook`], so every per-tile-column task of
//! `lu_tiled_with` / `cholesky_tiled_with` / `qr_tiled_with` encodes and verifies its
//! own `tile_rows`-tall tiles right after producing them, on whichever pool thread ran
//! the task — checksum work rides the parallel schedule instead of serializing it.
//!
//! Scope: like the serial epilogue it replaces, this hook encodes fresh checksums from
//! the just-updated tile and immediately verifies against them — it exercises and
//! *costs* the full encode/verify/correct pipeline on the real schedule, and corrects
//! any corruption that strikes a tile **between** its encoding and a later
//! verification, but a fault occurring inside the numeric update itself is signed
//! into the fresh checksums rather than detected. Protection *through* an update uses
//! the carried-checksum identities in [`crate::checksum`]
//! ([`crate::checksum::update_block_checksums_gemm`]), which the reliability drivers
//! in `bsr-core` apply across iterations; fusing those carried checksums into the
//! task graph is future work.
//!
//! Determinism: each (iteration, tile column) pair is visited by exactly one task, and
//! the hook touches only that task's own slices, so fused runs are bit-identical to
//! unfused runs (absent corrections) at every thread count. The shared tally is a
//! `Mutex`-guarded merge of per-task [`VerifyOutcome`]s — commutative counters, so the
//! merge order does not matter.
//!
//! Mixed precision: the hook also implements `TrailingHook<f32>`, so the f32 DAG
//! drivers of the mixed-precision path carry the same protection, fault plan and
//! recovery ladder. The *protection* stays in f64 — verifying against f32 checksums
//! would fold the detection threshold into f32 round-off — so each f32 tile is
//! promoted to f64 (exact), run through the f64 body above, and demoted back (a
//! correction is exact up to half an f32 ulp). Promotion screens for non-finite
//! values: an f32 accumulation blowup is not locatable by the code, so the tile is
//! tallied as one uncorrectable event and left untouched.

use crate::checksum::{
    checksum_guard, encode_block_slices, encode_column_checksums_slices,
    verify_and_correct_slices, BlockChecksums, ChecksumScheme, VerifyEvent, VerifyEventKind,
    VerifyOutcome,
};
use crate::inject::{
    corrupt_checksums, inject_burst_slices, inject_fault_slices, inject_grid_slices, InjectedFault,
};
use crate::recover::{FaultSite, RecoveryTracker};
use bsr_linalg::elem::Element;
use bsr_linalg::matrix::Block;
use bsr_linalg::task::{TileVerdict, TrailingHook};
use hetero_sim::sdc::ErrorPattern;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a planned fault lands — the hardened fault model of the recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The tile's data elements, per the fault's [`ErrorPattern`] — the base model.
    TileData,
    /// The tile's checksum vectors themselves: element verification cannot see this
    /// (it trusts the stored checksums); only the checksum-of-checksums guard can.
    Checksum,
    /// The iteration's lookahead panel factorization (detected by the panel
    /// verification in `after_panel_factor`, never corrected in place).
    Panel,
    /// A deterministic four-corner multi-fault burst that exceeds the correction
    /// capability of every *legacy* scheme (always ≥ 2 bad rows and ≥ 2 bad columns
    /// on real tiles); an order-2+ [`ChecksumScheme::Multi`] code absorbs it in place.
    Burst,
    /// A deterministic `g × g` spread-out corruption grid
    /// ([`crate::inject::inject_grid_slices`]): defeats any checksum code of order
    /// `t < g`, absorbed in place by order `t ≥ g` — the calibration ladder of the
    /// multi-strike chaos mixes.
    Grid(u8),
}

/// One fault scheduled for injection into a specific trailing tile, struck *between*
/// that tile's checksum encoding and its verification — the window where a silent
/// data corruption of the update lands in the paper's model, and exactly what the
/// active scheme must detect and repair.
///
/// `row` / `col` name the tile by its global top-left coordinates (the `b × b` grid
/// the hook tiles each column group into). `seed` is the private RNG stream driving
/// the in-tile randomness (position, magnitude), pre-drawn by the planner so the
/// injected bits are identical no matter which pool thread runs the tile's task.
/// `target` selects where the strike lands and `strikes` how many attempts it fires
/// on (recovery recomputes a struck tile; a transient fault stops firing once its
/// budget is spent, a persistent one — `u32::MAX` — never does).
#[derive(Debug, Clone, Copy)]
pub struct PlannedFault {
    /// Global top row of the target tile.
    pub row: usize,
    /// Global left column of the target tile.
    pub col: usize,
    /// Error propagation pattern to inject.
    pub pattern: ErrorPattern,
    /// Seed of the fault's private injection RNG.
    pub seed: u64,
    /// Where the strike lands.
    pub target: FaultTarget,
    /// How many (recomputation) attempts the fault fires on before clearing.
    pub strikes: u32,
}

impl PlannedFault {
    /// The base-model fault: a single-strike corruption of tile data.
    pub fn tile(row: usize, col: usize, pattern: ErrorPattern, seed: u64) -> Self {
        Self { row, col, pattern, seed, target: FaultTarget::TileData, strikes: 1 }
    }
}

/// A [`TrailingHook`] that re-encodes and verifies (correcting where the scheme
/// allows) every `tile_rows`-tall tile of each updated tile column group, inside the
/// task that produced it. Optionally injects [`PlannedFault`]s into their target
/// tiles between encode and verify, exercising the full detect/correct pipeline on
/// the parallel schedule.
pub struct FusedTileChecksums {
    scheme: ChecksumScheme,
    tile_rows: usize,
    faults: Vec<PlannedFault>,
    tally: Mutex<VerifyOutcome>,
    injected: Mutex<Vec<InjectedFault>>,
    /// Checksum nanoseconds summed across tasks (CPU time, not wall time: concurrent
    /// tasks overlap).
    checksum_nanos: AtomicU64,
    /// Recovery bookkeeping shared with the engine; `None` (or a disabled policy)
    /// keeps the pre-recovery detect-and-tally behavior.
    recovery: Option<Arc<RecoveryTracker>>,
}

impl FusedTileChecksums {
    /// Protect with `scheme`, tiling each column group into `tile_rows`-tall tiles
    /// (normally the factorization's block size).
    pub fn new(scheme: ChecksumScheme, tile_rows: usize) -> Self {
        Self::with_faults(scheme, tile_rows, Vec::new())
    }

    /// [`FusedTileChecksums::new`] plus a fault-injection plan: each fault strikes
    /// its target tile after the tile's checksums are encoded and before they are
    /// verified. With `scheme == ChecksumScheme::None` the faults are still
    /// injected — they just go uncorrected (the unprotected baseline).
    pub fn with_faults(scheme: ChecksumScheme, tile_rows: usize, faults: Vec<PlannedFault>) -> Self {
        assert!(tile_rows > 0, "tile height must be positive");
        Self {
            scheme,
            tile_rows,
            faults,
            tally: Mutex::new(VerifyOutcome::default()),
            injected: Mutex::new(Vec::new()),
            checksum_nanos: AtomicU64::new(0),
            recovery: None,
        }
    }

    /// Attach shared recovery bookkeeping: detection failures consult `tracker` for
    /// a verdict ([`TileVerdict::Recompute`] while budgets last) instead of only
    /// tallying, and fault strike budgets are accounted through it. The engine
    /// holds the same `Arc` to decide on iteration replays and structured failure.
    pub fn with_recovery(mut self, tracker: Arc<RecoveryTracker>) -> Self {
        self.recovery = Some(tracker);
        self
    }

    /// Whether a planned fault fires on this attempt: with recovery attached the
    /// tracker's per-seed strike counter enforces the budget (persisting across
    /// recomputations and replays); without recovery every tile is visited exactly
    /// once, so the fault simply fires.
    fn strike_fires(&self, f: &PlannedFault) -> bool {
        match &self.recovery {
            Some(tr) => tr.strike_allowed(f.seed, f.strikes),
            None => true,
        }
    }

    /// Turn one attempt's verification outcome into the driver verdict, updating
    /// recovery bookkeeping. On [`TileVerdict::Accept`] the attempt's tallies are
    /// merged into the shared state; a rolled-back attempt leaves no trace there
    /// (its tile never becomes part of the factorization), keeping merged outcomes
    /// identical to a clean run's whenever recovery succeeds.
    fn settle_attempt(
        &self,
        iter: usize,
        col0: usize,
        site: FaultSite,
        out: VerifyOutcome,
        struck: Vec<InjectedFault>,
        nanos: u64,
    ) -> TileVerdict {
        let verdict = match &self.recovery {
            Some(tr) if tr.policy().enabled => {
                if out.uncorrectable > 0 {
                    tr.on_failure(iter, col0, site)
                } else {
                    tr.on_success(iter, col0, site, out.total_corrected() > 0);
                    TileVerdict::Accept
                }
            }
            _ => TileVerdict::Accept,
        };
        self.checksum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if verdict == TileVerdict::Accept {
            self.tally.lock().unwrap().merge(&out);
            if !struck.is_empty() {
                self.injected.lock().unwrap().extend(struck);
            }
        }
        verdict
    }

    /// Merged verification outcome across all tasks so far.
    pub fn outcome(&self) -> VerifyOutcome {
        self.tally.lock().unwrap().clone()
    }

    /// Number of planned faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.injected.lock().unwrap().len()
    }

    /// Descriptions of the faults injected so far (order follows task completion, so
    /// it varies with the schedule; the contents do not).
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.injected.lock().unwrap().clone()
    }

    /// Checksum seconds summed across all tasks (CPU-summed: on one thread this equals
    /// wall time; with concurrent tasks it exceeds the wall-clock share).
    pub fn checksum_seconds(&self) -> f64 {
        self.checksum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The panel-targeted faults planned for the panel whose first column is `col0`.
    fn panel_faults(&self, col0: usize) -> Vec<&PlannedFault> {
        self.faults
            .iter()
            .filter(|f| f.target == FaultTarget::Panel && f.col == col0)
            .collect()
    }

    /// The f32 adapter: promote `cols` to f64 (exact), screening for non-finite
    /// values, run the shared f64 `body` on the copy, then demote the result back.
    /// The promote/demote copies exist only for protection, so they are charged to
    /// checksum time (unless the scheme is `None`: injection alone is not ABFT work).
    fn promoted(
        &self,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [f32]],
        body: impl FnOnce(&mut [&mut [f64]]) -> TileVerdict,
    ) -> TileVerdict {
        let charged = |t0: Instant| {
            if self.scheme == ChecksumScheme::None { 0 } else { t0.elapsed().as_nanos() as u64 }
        };
        let t0 = Instant::now();
        let mut finite = true;
        let mut wide: Vec<Vec<f64>> = cols
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&v| {
                        finite &= v.is_finite();
                        f64::from(v)
                    })
                    .collect()
            })
            .collect();
        if !finite {
            // A blowup is an f32 range failure, not a strike: recomputing the tile
            // would reproduce it, so it is tallied without a recovery verdict, and
            // the failed refinement then sends the run to its f64 fallback.
            self.tally.lock().unwrap().merge(&VerifyOutcome {
                uncorrectable: 1,
                events: vec![VerifyEvent {
                    row: row0,
                    col: col0,
                    kind: VerifyEventKind::Uncorrectable,
                }],
                ..VerifyOutcome::default()
            });
            self.checksum_nanos.fetch_add(charged(t0), Ordering::Relaxed);
            return TileVerdict::Accept;
        }
        let mut nanos = charged(t0);
        let verdict = {
            let mut views: Vec<&mut [f64]> = wide.iter_mut().map(Vec::as_mut_slice).collect();
            body(&mut views)
        };
        let t0 = Instant::now();
        for (col, src) in cols.iter_mut().zip(&wide) {
            for (dst, &v) in col.iter_mut().zip(src) {
                *dst = v as f32;
            }
        }
        nanos += charged(t0);
        self.checksum_nanos.fetch_add(nanos, Ordering::Relaxed);
        verdict
    }
}

impl TrailingHook for FusedTileChecksums {
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [f64]],
    ) -> TileVerdict {
        if cols.is_empty() || cols[0].is_empty() {
            return TileVerdict::Accept;
        }
        if self.scheme == ChecksumScheme::None && self.faults.is_empty() {
            return TileVerdict::Accept;
        }
        let height = cols[0].len();
        let width = cols.len();
        let mut out = VerifyOutcome::default();
        let mut struck = Vec::new();
        // Only the encode and verify segments are charged as checksum time: fault
        // injection is simulated corruption, not ABFT work, so an unprotected
        // (`None`) run with planned faults reports exactly zero checksum cost.
        let mut nanos = 0u64;
        let mut r = 0;
        while r < height {
            let rows = self.tile_rows.min(height - r);
            let tile_row = row0 + r;
            let mut cs: Option<BlockChecksums> = if self.scheme == ChecksumScheme::None {
                None
            } else {
                let t0 = Instant::now();
                let views: Vec<&[f64]> = cols.iter().map(|c| &c[r..r + rows]).collect();
                let cs =
                    encode_block_slices(&views, Block::new(tile_row, col0, rows, width), self.scheme);
                nanos += t0.elapsed().as_nanos() as u64;
                Some(cs)
            };
            // Checksum-of-checksums, taken while the encoding is trusted. The Multi
            // codes recognize metadata strikes through the code itself (their
            // verifier decodes them as `CorrectedCheck`), so the guard — which can
            // only declare the whole tile uncorrectable — is legacy-scheme-only.
            let guard = match self.scheme {
                ChecksumScheme::Multi(_) => None,
                _ => cs.as_ref().map(checksum_guard),
            };
            let mut tile: Vec<&mut [f64]> = cols.iter_mut().map(|c| &mut c[r..r + rows]).collect();
            // Planned faults strike this tile now — after encode, before verify.
            // Panel-targeted faults belong to `after_panel_factor`, not here.
            for fault in self
                .faults
                .iter()
                .filter(|f| f.row == tile_row && f.col == col0 && f.target != FaultTarget::Panel)
            {
                if !self.strike_fires(fault) {
                    continue;
                }
                let mut rng = ChaCha8Rng::seed_from_u64(fault.seed);
                match fault.target {
                    FaultTarget::TileData => struck.push(inject_fault_slices(
                        &mut tile,
                        tile_row,
                        col0,
                        fault.pattern,
                        &mut rng,
                    )),
                    FaultTarget::Burst => {
                        struck.push(inject_burst_slices(&mut tile, tile_row, col0, &mut rng));
                    }
                    FaultTarget::Grid(g) => {
                        struck.push(inject_grid_slices(&mut tile, tile_row, col0, g, &mut rng));
                    }
                    FaultTarget::Checksum => {
                        if let Some(cs) = cs.as_mut() {
                            let n = corrupt_checksums(cs, &mut rng);
                            struck.push(InjectedFault {
                                pattern: fault.pattern,
                                row: tile_row,
                                col: col0,
                                elements: n,
                            });
                        }
                    }
                    FaultTarget::Panel => unreachable!("filtered above"),
                }
            }
            if let Some(cs) = cs {
                let t0 = Instant::now();
                if guard.is_some_and(|g| g != checksum_guard(&cs)) {
                    // The checksum vectors themselves are corrupt: element
                    // verification would "correct" healthy data against garbage,
                    // so it is skipped and the tile is uncorrectable-by-detection.
                    // (Multi schemes carry no guard — their verifier decodes
                    // check strikes through the code itself.)
                    out.uncorrectable += 1;
                    out.events.push(VerifyEvent {
                        row: tile_row,
                        col: col0,
                        kind: VerifyEventKind::ChecksumGuard,
                    });
                    out.events.sort_unstable();
                } else {
                    out.merge(&verify_and_correct_slices(&mut tile, &cs));
                }
                nanos += t0.elapsed().as_nanos() as u64;
            }
            r += rows;
        }
        self.settle_attempt(iter, col0, FaultSite::Update, out, struck, nanos)
    }

    fn after_panel_factor(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [f64]],
    ) -> TileVerdict {
        // Panel verification is detection-only, and only runs when a panel strike
        // is actually planned for this panel: a clean run pays zero panel-check
        // overhead, and recovery restores + refactors rather than correcting in
        // place (the refactored panel is bit-identical to a clean one; an ABFT
        // "correction" of reflectors/pivot columns would not be).
        let pfaults = self.panel_faults(col0);
        if pfaults.is_empty() || cols.is_empty() || cols[0].is_empty() {
            return TileVerdict::Accept;
        }
        let mut nanos = 0u64;
        let t0 = Instant::now();
        let before = {
            let views: Vec<&[f64]> = cols.iter().map(|c| &**c).collect();
            encode_column_checksums_slices(&views, 2)
        };
        nanos += t0.elapsed().as_nanos() as u64;
        let mut struck = Vec::new();
        for fault in pfaults {
            if !self.strike_fires(fault) {
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(fault.seed);
            struck.push(inject_fault_slices(cols, row0, col0, fault.pattern, &mut rng));
        }
        let t0 = Instant::now();
        let after = {
            let views: Vec<&[f64]> = cols.iter().map(|c| &**c).collect();
            encode_column_checksums_slices(&views, 2)
        };
        let scale = before.sum().iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
        let mut out = VerifyOutcome::default();
        for j in 0..cols.len() {
            let bad = (before.sum()[j] - after.sum()[j]).abs() > 1e-6 * scale.max(1.0)
                || (before.weighted()[j] - after.weighted()[j]).abs() > 1e-6 * scale.max(1.0);
            if bad {
                out.uncorrectable += 1;
                out.events.push(VerifyEvent {
                    row: row0,
                    col: col0 + j,
                    kind: VerifyEventKind::Uncorrectable,
                });
            }
        }
        out.events.sort_unstable();
        nanos += t0.elapsed().as_nanos() as u64;
        self.settle_attempt(iter, col0, FaultSite::Panel, out, struck, nanos)
    }

    fn wants_snapshots(&self) -> bool {
        self.recovery.as_ref().is_some_and(|tr| tr.policy().enabled)
    }
}

/// The mixed-precision rung: f32 tiles are promoted to f64, run through the f64
/// body above and demoted back (see the module docs), skipping the copies whenever
/// the f64 body would return early.
impl TrailingHook<f32> for FusedTileChecksums {
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [f32]],
    ) -> TileVerdict {
        if self.scheme == ChecksumScheme::None && self.faults.is_empty() {
            return TileVerdict::Accept;
        }
        self.promoted(col0, row0, cols, |wide| {
            self.after_tile_update(iter, col0, row0, wide)
        })
    }

    fn after_panel_factor(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [f32]],
    ) -> TileVerdict {
        if self.panel_faults(col0).is_empty() {
            return TileVerdict::Accept;
        }
        self.promoted(col0, row0, cols, |wide| {
            self.after_panel_factor(iter, col0, row0, wide)
        })
    }

    fn wants_snapshots(&self) -> bool {
        TrailingHook::<f64>::wants_snapshots(self)
    }
}

/// Per-iteration hook multiplexer for the whole-factorization DAG drivers
/// (`lu_dag_with` / `cholesky_dag_with` / `qr_dag_with`).
///
/// The barrier steppers run one [`FusedTileChecksums`] per iteration, created between
/// iterations. A DAG run executes *all* iterations inside one task graph, so every
/// per-iteration hook must exist up front; this type holds them all and dispatches
/// each `after_tile_update` call to the hook of the task's iteration. Hooks fire
/// per-task exactly as in the barrier drivers — same (iteration, tile) visit set,
/// same commutative tallies — so fault/verification counts are schedule-independent.
pub struct PerIterationChecksums {
    hooks: Vec<FusedTileChecksums>,
}

impl PerIterationChecksums {
    /// Multiplex over `hooks[k]` for iteration `k`. The vector must have one entry
    /// per blocked iteration of the factorization it is fused into.
    pub fn new(hooks: Vec<FusedTileChecksums>) -> Self {
        Self { hooks }
    }

    /// Number of per-iteration hooks.
    pub fn iterations(&self) -> usize {
        self.hooks.len()
    }

    /// The hook serving iteration `k`.
    pub fn hook(&self, k: usize) -> &FusedTileChecksums {
        &self.hooks[k]
    }

    /// Verification outcome merged across all iterations.
    pub fn outcome(&self) -> VerifyOutcome {
        let mut out = VerifyOutcome::default();
        for h in &self.hooks {
            out.merge(&h.outcome());
        }
        out
    }

    /// Total planned faults injected across all iterations.
    pub fn faults_injected(&self) -> usize {
        self.hooks.iter().map(|h| h.faults_injected()).sum()
    }
}

impl<E: Element> TrailingHook<E> for PerIterationChecksums
where
    FusedTileChecksums: TrailingHook<E>,
{
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        self.hooks[iter].after_tile_update(iter, col0, row0, cols)
    }

    fn after_panel_factor(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        self.hooks[iter].after_panel_factor(iter, col0, row0, cols)
    }

    fn wants_snapshots(&self) -> bool {
        self.hooks.iter().any(TrailingHook::<E>::wants_snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::dag::DagExecution;
    use bsr_linalg::generate::{random_diag_dominant_matrix, random_matrix, random_spd_matrix};
    use bsr_linalg::{blas3, cholesky, lu, qr, Matrix, Trans};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fused_runs_match_unfused_and_verify_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 48;
        let b = 8;

        let a = random_matrix(&mut rng, n, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let fused = lu::lu_tiled_with(&a, b, &hook).unwrap();
        let plain = lu::lu_tiled(&a, b).unwrap();
        assert_eq!(fused.lu, plain.lu, "fused LU changed the factors");
        assert_eq!(fused.pivots, plain.pivots);
        let out = hook.outcome();
        assert!(out.is_clean_or_corrected());
        assert_eq!(out.corrected_0d + out.corrected_1d, 0, "nothing to correct");
        assert!(hook.checksum_seconds() > 0.0);

        let spd = random_spd_matrix(&mut rng, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let mut fused = spd.clone();
        cholesky::cholesky_tiled_with(&mut fused, b, &hook).unwrap();
        let mut plain = spd.clone();
        cholesky::cholesky_tiled(&mut plain, b).unwrap();
        assert_eq!(fused, plain, "fused Cholesky changed the factors");
        assert!(hook.outcome().is_clean_or_corrected());

        let a = random_matrix(&mut rng, n, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let fused = qr::qr_tiled_with(&a, b, &hook);
        let plain = qr::qr_tiled(&a, b);
        assert_eq!(fused.qr, plain.qr, "fused QR changed the factors");
        assert_eq!(fused.taus, plain.taus);
        assert!(hook.outcome().is_clean_or_corrected());
    }

    #[test]
    fn dag_run_with_per_iteration_hooks_matches_stepped_hooks() {
        // The DAG driver runs all iterations inside one task graph, so its hooks are
        // multiplexed per iteration; the barrier driver keeps one hook across all
        // iterations. Same (iteration, tile) visit set ⇒ same factors and, after
        // merging, the same commutative tallies.
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let n = 40;
        let b = 8;
        let iters = lu::num_iterations(n, b);
        let a = random_matrix(&mut rng, n, n);

        let barrier_hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let barrier = lu::lu_tiled_with(&a, b, &barrier_hook).unwrap();

        let dag_hook = PerIterationChecksums::new(
            (0..iters).map(|_| FusedTileChecksums::new(ChecksumScheme::Full, b)).collect(),
        );
        let (dag, _timing) =
            lu::lu_dag_with(&a, b, &dag_hook, DagExecution::Replay { seed: 11 }).unwrap();

        assert_eq!(barrier.lu, dag.lu, "hooked DAG run changed the factors");
        assert_eq!(barrier.pivots, dag.pivots);
        let merged = dag_hook.outcome();
        let stepped = barrier_hook.outcome();
        assert_eq!(
            (merged.corrected_0d, merged.corrected_1d, merged.uncorrectable),
            (stepped.corrected_0d, stepped.corrected_1d, stepped.uncorrectable),
            "per-iteration tallies diverge"
        );
        assert!(merged.is_clean_or_corrected());
        assert!(dag_hook.faults_injected() == 0);
    }

    #[test]
    fn hook_corrects_an_injected_fault_in_place() {
        // Drive the hook directly: encode a clean tile, corrupt one element of the
        // mutable slices, and check verify-and-correct restores it through the same
        // slice path the fused tasks use.
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let m = random_matrix(&mut rng, 12, 6);
        let mut corrupted = m.clone();
        let block = Block::new(0, 0, 12, 6);
        let cs = {
            let views: Vec<&[f64]> = (0..6).map(|j| m.col_range(j, 0, 12)).collect();
            encode_block_slices(&views, block, ChecksumScheme::Full)
        };
        corrupted.set(7, 3, corrupted.get(7, 3) + 5.0);
        let mut cols: Vec<&mut [f64]> = corrupted.columns_mut();
        let out = verify_and_correct_slices(&mut cols, &cs);
        assert_eq!(out.corrected_0d, 1);
        assert!(corrupted.approx_eq(&m, 1e-9));
    }

    #[test]
    fn clean_f32_run_keeps_factors_and_costs_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a = random_diag_dominant_matrix(&mut rng, 48).demote();
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, 8);
        let (plain, _) = lu::lu_dag_with(&a, 8, &(), DagExecution::Pool).unwrap();
        let (fused, _) = lu::lu_dag_with(&a, 8, &hook, DagExecution::Pool).unwrap();
        // Promote/demote round-trips exactly on clean data, so factors are identical.
        assert_eq!(fused.lu, plain.lu, "clean f32 protection changed the factors");
        let out = hook.outcome();
        assert!(out.is_clean_or_corrected());
        assert_eq!(out.total_corrected(), 0);
        assert!(hook.checksum_seconds() > 0.0);
    }

    #[test]
    fn injected_f32_strike_is_corrected_to_solve_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let (n, b) = (48, 8);
        let a = random_diag_dominant_matrix(&mut rng, n).demote();
        // Strike the first trailing tile of iteration 0 (rows/cols [b, 2b)).
        let faults = vec![PlannedFault::tile(b, b, ErrorPattern::ZeroD, 5)];
        let hook = FusedTileChecksums::with_faults(ChecksumScheme::Full, b, faults);
        let (struck, _) = lu::lu_dag_with(&a, b, &hook, DagExecution::Pool).unwrap();
        assert_eq!(hook.faults_injected(), 1);
        let out = hook.outcome();
        assert!(out.total_corrected() >= 1, "the strike must be corrected");
        assert_eq!(out.uncorrectable, 0);
        // The correction is rounded through f32, so judge at the solve level: the
        // struck factors must still solve A x = b to f32-factorization accuracy.
        let rhs = Matrix::<f32>::from_fn(n, 1, |i, _| (i as f32 / n as f32) - 0.4);
        let ax = blas3::gemm(&a, Trans::No, &struck.solve(&rhs), Trans::No);
        assert!(ax.approx_eq(&rhs, 1e-2), "corrected factors must still solve");
    }

    #[test]
    fn promotion_screen_catches_f32_blowups() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut a = random_spd_matrix(&mut rng, 24).demote();
        // Poison one trailing entry so the first trailing update propagates a
        // non-finite value into a tile the hook inspects.
        a.set(20, 20, f32::INFINITY);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, 8);
        // The factorization may or may not fail outright; the screen must trip
        // either way, and it tallies the tile instead of "correcting" it.
        let _ = cholesky::cholesky_dag_with(&mut a, 8, &hook, DagExecution::Pool);
        let out = hook.outcome();
        assert!(out.uncorrectable > 0, "a blown-up f32 tile must be tallied");
        assert_eq!(out.total_corrected(), 0);
    }
}
