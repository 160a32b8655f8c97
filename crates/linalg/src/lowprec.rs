//! f32 entry points of the mixed-precision engine path.
//!
//! The mixed-precision pipeline factors in f32 — the packed kernel core packs twice
//! the rows per vector register ([`crate::elem`]) — and recovers f64 accuracy with
//! iterative refinement against the f32 factors ([`crate::solve`]). There is no
//! separate f32 driver: both functions here are the Element-generic DAG drivers
//! instantiated at `f32` on the work-stealing pool, with the same panel code, task
//! graph and [`TrailingHook`] fusion point as the f64 runs.

use crate::cholesky::{cholesky_dag_with, CholeskyError};
use crate::dag::{DagExecution, DagTiming};
use crate::lu::{lu_dag_with, LuError, LuFactors};
use crate::matrix::Matrix;
use crate::task::TrailingHook;

/// f32 LU with partial pivoting: [`lu_dag_with`]`::<f32>` on the pool.
pub fn lu_blocked_f32(
    a: &Matrix<f32>,
    block: usize,
    hook: &dyn TrailingHook<f32>,
) -> Result<LuFactors<f32>, LuError> {
    lu_dag_with(a, block, hook, DagExecution::Pool).map(|(f, _)| f)
}

/// f32 Cholesky (lower), in place on `a`: [`cholesky_dag_with`]`::<f32>` on the pool.
pub fn cholesky_blocked_f32(
    a: &mut Matrix<f32>,
    block: usize,
    hook: &dyn TrailingHook<f32>,
) -> Result<DagTiming, CholeskyError> {
    cholesky_dag_with(a, block, hook, DagExecution::Pool)
}
