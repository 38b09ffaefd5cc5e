//! The scheduling pieces of the PFD workspace.
//!
//! - [`pool`] — the scoped, borrow-friendly [`parallel_map`]: up to
//!   [`default_parallelism`] threads per call share one item iterator, so
//!   closures may borrow from the caller's stack. Discovery fans its
//!   candidate checks and index builds out on it when
//!   `DiscoveryConfig::parallel` is set.
//! - [`executor`] — the persistent [`Executor`] for long-lived servers:
//!   `'static` jobs on one FIFO queue, condvar parking, panic capture,
//!   and `wait_idle` barriers. Tenant drain jobs in `pfd_core::server`
//!   ride this.
//!
//! The crate is dependency-free and sits below `relation`/`core`/
//! `discovery` in the workspace graph.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A panic in the executor's own bookkeeping would kill a worker and leave
// `wait_idle` waiting forever, so unwrapping is denied outright (tests opt
// back in).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod executor;
pub mod pool;

pub use executor::Executor;
pub use pool::parallel_map;

/// Default worker count for schedulers in this crate: the machine's
/// available parallelism, with a fallback for platforms where the probe
/// errors.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
