//! # bsr-linalg
//!
//! Pure-Rust dense linear algebra substrate for the PPoPP'23 BSR/ABFT-OC reproduction.
//!
//! The paper's factorizations are the MAGMA hybrid blocked one-sided decompositions
//! (Cholesky, LU with partial pivoting, Householder QR). This crate reimplements that
//! algorithmic structure from scratch:
//!
//! * [`matrix`] — column-major dense matrices and block addressing,
//! * [`blas1`] / [`blas3`] — the kernels the factorizations are built from (GEMM, TRSM,
//!   SYRK), backed by a packed, cache-blocked micro-kernel core (AVX2+FMA when the CPU
//!   has it) and rayon-parallel over column strips of the output,
//! * [`cholesky`], [`lu`], [`qr`] — blocked right-looking factorizations whose
//!   per-iteration steps (panel decomposition, panel update, trailing matrix update) are
//!   individually exposed so the heterogeneous driver in `bsr-core` can schedule them on
//!   the simulated CPU/GPU, inject faults and maintain ABFT checksums between steps —
//!   plus tiled task-parallel drivers (`lu_tiled` / `cholesky_tiled` / `qr_tiled`) that
//!   run the same math as per-tile-column tasks with one-step panel lookahead on the
//!   persistent rayon pool, bit-identically to the synchronous paths, and
//!   dependency-driven DAG drivers (`lu_dag` / `cholesky_dag` / `qr_dag`) that replace
//!   the per-iteration barrier with per-tile dependency counters for depth-unbounded
//!   lookahead — still bit-identical at any thread count; the LU and Cholesky DAG
//!   drivers are generic over the element type (`f32` is the mixed-precision path),
//! * [`task`] — the tile-column task machinery beneath the tiled drivers and the
//!   [`task::TrailingHook`] fusion point ABFT checksum maintenance rides on,
//! * [`dag`] — the dependency-counter runtime beneath the DAG drivers, including the
//!   seeded adversarial replay executor the schedule-fuzzing suite pins determinism
//!   with,
//! * [`elem`] — the [`Element`] abstraction the packed kernel core is generic over
//!   (`f64` and `f32`, each with its own AVX2/AVX-512 micro-kernels; the f32 tile packs
//!   twice the rows per vector register),
//! * [`tune`] — the startup autotuner that picks cache-blocking parameters (`NC`, `KC`,
//!   `MC`) and the pool-dispatch crossover per (host, element type), cached under
//!   `target/` and disabled with `BSR_AUTOTUNE=0` for bit-reproducible runs,
//! * [`lowprec`] — the f32 names of the mixed-precision path's factorizations (the
//!   generic DAG drivers instantiated at `f32`),
//! * [`solve`] — triangular-solve front-ends (`lu_solve` / `cholesky_solve`) shared by
//!   the f64 and mixed-precision drivers,
//! * [`generate`] — reproducible random inputs,
//! * [`verify`] — O(n²) probed residual certificates (the numeric engine's verdict)
//!   and the exact O(n³) residual oracle the tests and benchmarks check them against.
//!
//! Paper-scale runs (n = 30720) still use the analytic performance model in `bsr-core`,
//! but the numeric-mode experiments run on these real kernels — their throughput is
//! tracked by the `kernel_perf` bench target in `bsr-bench`.

#![deny(missing_docs)]

pub mod blas1;
pub mod blas3;
pub mod cholesky;
pub mod dag;
pub mod elem;
pub mod generate;
mod kernel;
pub mod lowprec;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod solve;
pub mod task;
pub mod tune;
pub mod verify;

pub use blas3::{Diag, Side, Trans, UpLo};
pub use elem::Element;
pub use matrix::{Block, Matrix};
pub use task::TrailingHook;
pub use tune::KernelParams;
