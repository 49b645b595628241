//! Execution engine.
//!
//! The executor interprets the step program produced by `spinner-plan`
//! (after `spinner-optimizer` has rewritten it): each logical plan
//! fragment is lowered to a [`PhysicalPlan`] with
//! explicit [`Exchange`](physical::PhysicalPlan::Exchange) operators
//! between partition-incompatible stages, then evaluated partition by
//! partition. Two operators are unique to DBSpinner (paper §VI):
//!
//! * **rename** — [`TempRegistry::rename`](spinner_storage::TempRegistry):
//!   an O(1) pointer move in the intermediate-result lookup table, and
//! * **loop** — implemented by [`executor::Executor`]: a conditional jump that
//!   re-runs the loop body until the termination condition (metadata /
//!   data / delta) is satisfied.
//!
//! [`ExecStats`] counts rows crossing exchanges, rows materialized, rename
//! and merge operations, and loop iterations — the quantities behind the
//! paper's Figure 8 (data movement) measurements.

#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod executor;
pub mod fault;
pub mod hash;
pub mod operators;
pub mod physical;
pub mod pool;
pub mod stats;

pub use cache::JoinStateCache;
pub use executor::Executor;
pub use fault::FaultInjector;
pub use physical::{create_physical_plan, ExchangeMode, PhysicalPlan};
pub use pool::WorkerPool;
pub use stats::ExecStats;
