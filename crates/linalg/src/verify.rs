//! Verification of factorizations: O(n²) probed certificates and the O(n³) exact
//! residual oracle.
//!
//! Both estimate the relative Frobenius residual `‖A − F‖_F / ‖A‖_F` of a factored
//! product `F` (`L·U` with row pivoting, `L·Lᵀ` or `Q·R`) against the input `A`, and
//! both are judged against [`CORRECTNESS_THRESHOLD`]:
//!
//! * the **certificates** ([`lu_certificate`], [`cholesky_certificate`],
//!   [`qr_certificate`]) are a randomized product check in the style of Freivalds
//!   (1977, "Probabilistic machines can use less running time"). Two seeded
//!   Rademacher (±1) probes form an `n × 2` block `R`; `A` is streamed once for
//!   `A·R` (and `‖A‖_F` in the same pass), and `F·R` comes from triangular mat-vecs
//!   on the compact factor storage — `L(U·R)`, `L(Lᵀ·R)` or `Q(R·R)` with `Q` applied
//!   through [`QrFactors::apply_q`]. For ±1 probes `E‖E r‖₂² = ‖E‖_F²`, so
//!   `sqrt(mean_r ‖(A − F) r‖₂²) / ‖A‖_F` estimates the same residual in about
//!   `8n²` flops. The LU and Cholesky certificates read `f32` factor storage in place
//!   (accumulating in `f64`), so mixed-precision factors need no promoted copy. The
//!   numeric engine in `bsr-core` grades every run with these;
//! * the **residual oracle** ([`lu_residual`], [`cholesky_residual`],
//!   [`qr_residual`]) rebuilds the whole product with a GEMM (`2n³` flops for LU and
//!   Cholesky, more for `Q·R`). It is exact, and serves the test suites and the
//!   benchmarks as the reference the certificates are checked against.

use crate::blas3::{gemm, Trans};
use crate::elem::Element;
use crate::lu::LuFactors;
use crate::matrix::Matrix;
use crate::qr::QrFactors;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of Rademacher probes each certificate draws.
const PROBES: usize = 2;

/// One row of the `n × PROBES` probe block (or of a product with it).
type Row = [f64; PROBES];

/// Probed LU certificate: estimates `‖P A − L U‖_F / ‖A‖_F` from `P(A·R) − L(U·R)`
/// for the seeded probe block `R` (see the module docs). `f` holds square combined
/// L/U storage at either precision; it is read in place.
pub fn lu_certificate<E: Element>(a: &Matrix, f: &LuFactors<E>, seed: u64) -> f64 {
    let probes = rademacher_probes(a.cols(), seed);
    let (mut ar, a_norm) = times_probes(a, &probes);
    for (k, &piv) in f.pivots.iter().enumerate() {
        ar.swap(k, piv);
    }
    let mut fr = upper_times(&f.lu, &probes);
    lower_times_in_place(&f.lu, &mut fr, true);
    certificate(&ar, &fr, a_norm)
}

/// Probed Cholesky certificate: estimates `‖A − L Lᵀ‖_F / ‖A‖_F` from
/// `A·R − L(Lᵀ·R)`. Only the lower triangle of `l` is read, so the factor storage a
/// Cholesky driver leaves behind (input above the diagonal) can be passed as is, at
/// either precision.
pub fn cholesky_certificate<E: Element>(a: &Matrix, l: &Matrix<E>, seed: u64) -> f64 {
    let probes = rademacher_probes(a.cols(), seed);
    let (ar, a_norm) = times_probes(a, &probes);
    let mut fr = lower_transpose_times(l, &probes);
    lower_times_in_place(l, &mut fr, false);
    certificate(&ar, &fr, a_norm)
}

/// Probed QR certificate: estimates `‖A − Q R‖_F / ‖A‖_F` from `A·R − Q(R·R)`, with
/// `Q` applied to the `m × 2` block through [`QrFactors::apply_q`].
pub fn qr_certificate(a: &Matrix, f: &QrFactors, seed: u64) -> f64 {
    let probes = rademacher_probes(a.cols(), seed);
    let (ar, a_norm) = times_probes(a, &probes);
    let rr = upper_times(&f.qr, &probes);
    let mut block = Matrix::from_fn(rr.len(), PROBES, |i, p| rr[i][p]);
    f.apply_q(&mut block);
    let fr: Vec<Row> = (0..block.rows())
        .map(|i| std::array::from_fn(|p| block.get(i, p)))
        .collect();
    certificate(&ar, &fr, a_norm)
}

/// `n` rows of independent seeded ±1 entries, one bit of the ChaCha8 stream each.
fn rademacher_probes(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut probes = vec![[0.0; PROBES]; n];
    for chunk in probes.chunks_mut(64 / PROBES) {
        let mut bits = rng.next_u64();
        for row in chunk {
            for v in row.iter_mut() {
                *v = if bits & 1 == 0 { 1.0 } else { -1.0 };
                bits >>= 1;
            }
        }
    }
    probes
}

/// `acc += a · r`, one row of a product with the probe block.
fn madd(acc: &mut Row, a: f64, r: &Row) {
    for (x, &y) in acc.iter_mut().zip(r) {
        *x += a * y;
    }
}

/// `A·R` in one column-major pass over `A`, plus `‖A‖_F` from the same pass.
fn times_probes(a: &Matrix, probes: &[Row]) -> (Vec<Row>, f64) {
    let mut out = vec![[0.0; PROBES]; a.rows()];
    let mut sum_sq = 0.0;
    for (j, r) in probes.iter().enumerate() {
        for (o, &v) in out.iter_mut().zip(a.col(j)) {
            sum_sq += v * v;
            madd(o, v, r);
        }
    }
    (out, sum_sq.sqrt())
}

/// `U·R` for the upper triangle (diagonal included) of `storage`, by columns:
/// `out[..=j] += U[..=j, j] · R[j]`. The result has `storage.rows()` rows.
fn upper_times<E: Element>(storage: &Matrix<E>, probes: &[Row]) -> Vec<Row> {
    let mut out = vec![[0.0; PROBES]; storage.rows()];
    for (j, r) in probes.iter().enumerate() {
        let top = (j + 1).min(storage.rows());
        for (o, &u) in out.iter_mut().zip(&storage.col(j)[..top]) {
            madd(o, u.to_f64(), r);
        }
    }
    out
}

/// `Lᵀ·R` for the lower triangle (diagonal included) of `l`: entry `j` is the dot
/// of column `j` below the diagonal with `R[j..]`.
fn lower_transpose_times<E: Element>(l: &Matrix<E>, probes: &[Row]) -> Vec<Row> {
    (0..probes.len())
        .map(|j| {
            let mut acc = [0.0; PROBES];
            for (&v, r) in l.col(j)[j..].iter().zip(&probes[j..]) {
                madd(&mut acc, v.to_f64(), r);
            }
            acc
        })
        .collect()
}

/// `z ← L z` in place for the lower triangle of `storage`: with `unit_diag` the
/// diagonal is taken as 1 (LU's `L`), otherwise it is read (Cholesky's `L`).
/// Columns run last to first, so `z[j]` is still the input value when column `j`
/// consumes it.
fn lower_times_in_place<E: Element>(storage: &Matrix<E>, z: &mut [Row], unit_diag: bool) {
    for j in (0..z.len()).rev() {
        let zj = z[j];
        let col = storage.col(j);
        if !unit_diag {
            let d = col[j].to_f64();
            z[j] = zj.map(|v| d * v);
        }
        for (o, &l) in z[j + 1..].iter_mut().zip(&col[j + 1..]) {
            madd(o, l.to_f64(), &zj);
        }
    }
}

/// `sqrt(mean_p ‖expected[:, p] − actual[:, p]‖₂²) / a_norm`, or the absolute
/// estimate when `a_norm` is 0 (the convention of [`relative_residual`]).
fn certificate(expected: &[Row], actual: &[Row], a_norm: f64) -> f64 {
    let sum_sq = expected
        .iter()
        .zip(actual)
        .flat_map(|(e, a)| e.iter().zip(a).map(|(x, y)| (x - y) * (x - y)))
        .fold(0.0, |acc, d| acc + d);
    let estimate = (sum_sq / PROBES as f64).sqrt();
    if a_norm == 0.0 {
        estimate
    } else {
        estimate / a_norm
    }
}

/// Relative Cholesky residual `‖A − L Lᵀ‖_F / ‖A‖_F`.
pub fn cholesky_residual(a: &Matrix, l: &Matrix) -> f64 {
    let rec = gemm(l, Trans::No, l, Trans::Yes);
    relative_residual(a, &rec)
}

/// Relative LU residual `‖P A − L U‖_F / ‖A‖_F`.
pub fn lu_residual(a: &Matrix, f: &LuFactors) -> f64 {
    let pa = f.apply_permutation(a);
    let rec = gemm(&f.l(), Trans::No, &f.u(), Trans::No);
    relative_residual(&pa, &rec)
}

/// Relative QR residual `‖A − Q R‖_F / ‖A‖_F`.
pub fn qr_residual(a: &Matrix, f: &QrFactors) -> f64 {
    let mut qr = f.r();
    f.apply_q(&mut qr);
    relative_residual(a, &qr)
}

/// `‖expected − actual‖_F / ‖expected‖_F` (returns the absolute norm if `expected` is 0).
pub fn relative_residual(expected: &Matrix, actual: &Matrix) -> f64 {
    let denom = expected.frobenius_norm();
    let diff = expected.sub(actual).frobenius_norm();
    if denom == 0.0 {
        diff
    } else {
        diff / denom
    }
}

/// A factorization is accepted as correct when its relative residual — exact or probed
/// by a certificate — is below this bound. The bound is generous relative to machine
/// epsilon because injected-and-corrected runs accumulate one extra rounding from the
/// checksum correction.
pub const CORRECTNESS_THRESHOLD: f64 = 1e-8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky_blocked;
    use crate::generate::{random_matrix, random_spd_matrix};
    use crate::lu::lu_blocked;
    use crate::qr::qr_blocked;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn residuals_are_small_for_correct_factorizations() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 32;
        let spd = random_spd_matrix(&mut rng, n);
        let mut chol = spd.clone();
        cholesky_blocked(&mut chol, 8).unwrap();
        assert!(cholesky_residual(&spd, &chol.lower_triangular()) < CORRECTNESS_THRESHOLD);

        let a = random_matrix(&mut rng, n, n);
        let lu = lu_blocked(&a, 8).unwrap();
        assert!(lu_residual(&a, &lu) < CORRECTNESS_THRESHOLD);

        let qr = qr_blocked(&a, 8);
        assert!(qr_residual(&a, &qr) < CORRECTNESS_THRESHOLD);
    }

    #[test]
    fn residual_detects_corruption() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 16;
        let a = random_matrix(&mut rng, n, n);
        let mut lu = lu_blocked(&a, 4).unwrap();
        // Corrupt one element of U significantly.
        let v = lu.lu.get(2, 10);
        lu.lu.set(2, 10, v + 10.0);
        assert!(lu_residual(&a, &lu) > CORRECTNESS_THRESHOLD);
    }

    /// Clean factors of all three decompositions at order `n`, block 8.
    fn clean_factors(n: usize, seed: u64) -> (Matrix, Matrix, LuFactors, Matrix, QrFactors) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spd = random_spd_matrix(&mut rng, n);
        let mut chol = spd.clone();
        cholesky_blocked(&mut chol, 8).unwrap();
        let a = random_matrix(&mut rng, n, n);
        let lu = lu_blocked(&a, 8).unwrap();
        let qr = qr_blocked(&a, 8);
        (spd, chol, lu, a, qr)
    }

    #[test]
    fn certificates_pass_clean_factors_and_track_the_oracle() {
        for n in [1, 33, 128] {
            let (spd, chol, lu, a, qr) = clean_factors(n, 7 + n as u64);
            let oracle = [
                cholesky_residual(&spd, &chol.lower_triangular()),
                lu_residual(&a, &lu),
                qr_residual(&a, &qr),
            ];
            // Cholesky storage goes in as the driver left it: input above the diagonal.
            let probed = [
                cholesky_certificate(&spd, &chol, 5),
                lu_certificate(&a, &lu, 5),
                qr_certificate(&a, &qr, 5),
            ];
            for (exact, cert) in oracle.into_iter().zip(probed) {
                assert!(
                    cert.is_finite() && cert < CORRECTNESS_THRESHOLD,
                    "n={n}: {cert:.3e}"
                );
                // Both sit at rounding level: same order of magnitude as the oracle.
                assert!(
                    cert < 100.0 * exact.max(f64::EPSILON),
                    "n={n}: {cert:.3e} vs {exact:.3e}"
                );
            }
        }
    }

    #[test]
    fn certificates_read_f32_factors_in_place() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let n = 48;
        let spd = random_spd_matrix(&mut rng, n);
        let a = random_matrix(&mut rng, n, n);
        let mut chol32 = spd.demote();
        let exec = crate::dag::DagExecution::Pool;
        crate::cholesky::cholesky_dag_with(&mut chol32, 16, &(), exec).unwrap();
        let (lu32, _) = crate::lu::lu_dag_with(&a.demote(), 16, &(), exec).unwrap();
        let promoted = LuFactors {
            lu: lu32.lu.promote(),
            pivots: lu32.pivots.clone(),
        };
        // f32 factors are f32-accurate: far above the f64 threshold, far below O(1),
        // and the in-place reading agrees with the promoted copy bit for bit.
        let cert = lu_certificate(&a, &lu32, 3);
        assert_eq!(cert, lu_certificate(&a, &promoted, 3));
        assert!(cert > CORRECTNESS_THRESHOLD && cert < 1e-4, "{cert:.3e}");
        let cert = cholesky_certificate(&spd, &chol32, 3);
        assert_eq!(cert, cholesky_certificate(&spd, &chol32.promote(), 3));
        assert!(cert > CORRECTNESS_THRESHOLD && cert < 1e-4, "{cert:.3e}");
    }

    #[test]
    fn certificates_flag_single_entry_strikes() {
        let n = 33;
        let (spd, chol, lu, a, qr) = clean_factors(n, 44);
        let strike = |m: &mut Matrix, i: usize, j: usize| {
            let v = m.get(i, j);
            m.set(i, j, v + 1.0e-3 * (1.0 + v.abs()));
        };
        // L strictly below the diagonal, U on and above it.
        for (i, j, what) in [
            (20, 3, "L"),
            (5, 5, "U diagonal"),
            (2, 30, "U off-diagonal"),
        ] {
            let mut bad = lu.clone();
            strike(&mut bad.lu, i, j);
            for seed in 0..8 {
                let cert = lu_certificate(&a, &bad, seed);
                assert!(
                    cert > CORRECTNESS_THRESHOLD,
                    "{what} strike missed (seed {seed})"
                );
            }
        }
        for (i, j) in [(20, 3), (7, 7)] {
            let mut bad = chol.clone();
            strike(&mut bad, i, j);
            for seed in 0..8 {
                assert!(cholesky_certificate(&spd, &bad, seed) > CORRECTNESS_THRESHOLD);
            }
        }
        // A strike above the diagonal of Cholesky storage touches no factor entry.
        let mut upper = chol.clone();
        strike(&mut upper, 3, 20);
        assert!(cholesky_certificate(&spd, &upper, 0) < CORRECTNESS_THRESHOLD);
        for (i, j) in [(0, 32), (9, 9), (4, 17)] {
            let mut bad = qr.clone();
            strike(&mut bad.qr, i, j);
            for seed in 0..8 {
                assert!(
                    qr_certificate(&a, &bad, seed) > CORRECTNESS_THRESHOLD,
                    "R({i},{j})"
                );
            }
        }
    }

    #[test]
    fn certificates_of_empty_factors_are_zero() {
        let empty = Matrix::zeros(0, 0);
        let lu: LuFactors = LuFactors {
            lu: Matrix::zeros(0, 0),
            pivots: Vec::new(),
        };
        let qr = QrFactors {
            qr: Matrix::zeros(0, 0),
            taus: Vec::new(),
        };
        assert_eq!(lu_certificate(&empty, &lu, 1), 0.0);
        assert_eq!(cholesky_certificate(&empty, &empty, 1), 0.0);
        assert_eq!(qr_certificate(&empty, &qr, 1), 0.0);
    }

    #[test]
    fn probes_are_seeded_signs() {
        let p = rademacher_probes(100, 9);
        assert_eq!(p, rademacher_probes(100, 9));
        assert_ne!(p, rademacher_probes(100, 10));
        assert!(p.iter().flatten().all(|&v| v == 1.0 || v == -1.0));
        // Both signs show up in each probe.
        for q in 0..PROBES {
            assert!(p.iter().any(|r| r[q] > 0.0) && p.iter().any(|r| r[q] < 0.0));
        }
    }

    #[test]
    fn relative_residual_handles_zero_expected() {
        let z = Matrix::zeros(2, 2);
        let a = Matrix::identity(2);
        assert!((relative_residual(&z, &a) - 2.0_f64.sqrt()).abs() < 1e-12);
    }
}
