//! Output checks that never read the program's own oracle.
//!
//! Every returned factorization is judged by solving one seeded right-hand side
//! through the public solve surface and measuring the normwise backward error
//! `η = ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`, which costs O(n²) against the original
//! input. The report's `residual` and `numerically_correct` fields are not read.

use bsr_core::analytic;
use bsr_core::config::RunConfig;
use bsr_core::numeric::NumericFactors;
use bsr_core::report::compare;
use bsr_linalg::blas3::{self, trsm_into_block};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::qr::QrFactors;
use bsr_linalg::{Diag, Side, Trans, UpLo};
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Refinement sweeps allowed to bring an f32-factor solve to f64 backward error.
const MAX_SWEEPS: usize = 10;

/// What the check found for one returned factorization.
#[derive(Debug, Clone, Copy)]
pub struct SolveCheck {
    /// Whether the backward error reached `4·n·ε_f64`.
    pub pass: bool,
    /// Final backward error.
    pub eta: f64,
    /// Seconds of the first solve call (one right-hand side).
    pub solve_s: f64,
}

/// Backward-error tolerance of a direct f64 solve of order `n`.
pub fn tolerance(n: usize) -> f64 {
    4.0 * n as f64 * f64::EPSILON
}

fn inf_norm(a: &Matrix) -> f64 {
    let mut rows = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (r, v) in rows.iter_mut().zip(a.col(j)) {
            *r += v.abs();
        }
    }
    rows.into_iter().fold(0.0, f64::max)
}

fn vec_inf(x: &Matrix) -> f64 {
    x.data().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// `b − A·x` for a single column.
fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> Matrix {
    let ax = blas3::gemv(a, Trans::No, x);
    Matrix::from_fn(b.rows(), 1, |i, _| b.get(i, 0) - ax.get(i, 0))
}

fn backward_error(a_norm: f64, r: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    let denom = a_norm * vec_inf(x) + vec_inf(b);
    let eta = vec_inf(r) / denom;
    if eta.is_finite() {
        eta
    } else {
        f64::INFINITY
    }
}

/// `x = R⁻¹·Qᵀ·b` from compact QR factors (the program offers no QR solve).
fn qr_solve(f: &QrFactors, b: &Matrix) -> Matrix {
    let mut y = b.clone();
    f.apply_q_transpose(&mut y);
    let n = y.rows();
    trsm_into_block(
        Side::Left,
        UpLo::Upper,
        Trans::No,
        Diag::NonUnit,
        1.0,
        &f.qr,
        &mut y,
        Block::full(n, 1),
    );
    y
}

fn solve(factors: &NumericFactors, b: &Matrix) -> Matrix {
    match factors {
        NumericFactors::Qr(f) => qr_solve(f, b),
        other => other
            .solve(b)
            .expect("LU, Cholesky and mixed factors always solve"),
    }
}

/// Check `factors` against `input` with a right-hand side drawn from `seed`.
///
/// f64 factors must reach the tolerance directly. f32 factors (mixed precision) are
/// only f32-accurate by design, so they may use up to [`MAX_SWEEPS`] refinement
/// sweeps, each an O(n²) solve through the same public surface.
pub fn check_factors(input: &Matrix, factors: &NumericFactors, seed: u64) -> SolveCheck {
    let n = input.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let b = Matrix::from_fn(n, 1, |_, _| rng.gen_range(-1.0..1.0));
    let a_norm = inf_norm(input);
    let tol = tolerance(n);
    let t = Instant::now();
    let mut x = solve(factors, &b);
    let solve_s = t.elapsed().as_secs_f64();
    let mixed = matches!(
        factors,
        NumericFactors::MixedLu(_) | NumericFactors::MixedCholesky(_)
    );
    let max_sweeps = if mixed { MAX_SWEEPS } else { 0 };
    let mut sweeps = 0;
    loop {
        let r = residual(input, &x, &b);
        let eta = backward_error(a_norm, &r, &x, &b);
        if eta <= tol || sweeps >= max_sweeps || !eta.is_finite() {
            return SolveCheck {
                pass: eta <= tol,
                eta,
                solve_s,
            };
        }
        let d = solve(factors, &r);
        for (xi, di) in x.data_mut().iter_mut().zip(d.data()) {
            *xi += di;
        }
        sweeps += 1;
    }
}

/// Paper-scale (n = 30720) analytic energy saving of BSR (r = 0) over Original, per
/// decomposition. Fault sampling is off, so these are exact functions of the model.
const PINNED_SAVING: [(Decomposition, f64); 3] = [
    (Decomposition::Cholesky, 0.20801835771918897),
    (Decomposition::Lu, 0.21853398725104445),
    (Decomposition::Qr, 0.21905123771200363),
];

/// Recompute the pinned paper-scale savings. Returns `(decomposition, saving, ok)`.
pub fn analytic_pins() -> Vec<(Decomposition, f64, bool)> {
    PINNED_SAVING
        .iter()
        .map(|&(dec, pinned)| {
            let bsr = RunConfig::paper_default(dec, Strategy::Bsr(BsrConfig::default()))
                .with_fault_injection(false);
            let original = bsr.clone().with_strategy(Strategy::Original);
            let saving = compare(&analytic::run(bsr), &analytic::run(original)).energy_saving;
            (
                dec,
                saving,
                (saving - pinned).abs() <= 1e-9 * pinned.abs().max(1.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::lu::lu_blocked;

    #[test]
    fn check_passes_true_factors_and_fails_perturbed_ones() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = bsr_linalg::generate::random_matrix(&mut rng, 96, 96);
        let mut f = lu_blocked(&a, 32).unwrap();
        assert!(check_factors(&a, &NumericFactors::Lu(f.clone()), 1).pass);
        f.lu.set(40, 50, f.lu.get(40, 50) + 1e-3);
        assert!(!check_factors(&a, &NumericFactors::Lu(f), 1).pass);
    }

    #[test]
    fn qr_check_uses_the_compact_factors() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = bsr_linalg::generate::random_matrix(&mut rng, 80, 80);
        let f = bsr_linalg::qr::qr_blocked(&a, 16);
        assert!(check_factors(&a, &NumericFactors::Qr(f), 2).pass);
    }
}
