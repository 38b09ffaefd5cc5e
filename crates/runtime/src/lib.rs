//! Shared work-stealing runtime for the PFD workspace.
//!
//! Two schedulers over the same substrate (mutex-guarded deques, a global
//! injector, steal-back-half rebalancing), plus the bookkeeping the
//! multi-tenant server needs:
//!
//! - [`pool`] — the scoped, borrow-friendly `parallel_map` that the
//!   discovery lattice and check reconciliation have used since PR 2. It
//!   spins workers up per call over `std::thread::scope`, so closures may
//!   borrow from the caller's stack. Re-exported from `pfd_discovery` for
//!   backward compatibility.
//! - [`executor`] — a persistent work-stealing [`executor::Executor`] for
//!   long-lived servers: `'static` jobs, condvar parking, panic capture,
//!   and `wait_idle` barriers. Tenant drain jobs in `pfd_core::server`
//!   ride this.
//! - [`lru`] — a small hand-rolled [`lru::LruTracker`] (no registry route
//!   for an lru crate) used to pick cold tenants for eviction.
//!
//! The crate is dependency-free and sits below `relation`/`core`/
//! `discovery` in the workspace graph.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod lru;
pub mod pool;

pub use executor::Executor;
pub use lru::LruTracker;
pub use pool::{map_with_stats, parallel_map};

/// Default worker count for schedulers in this crate: the machine's
/// available parallelism, with a fallback for platforms where the probe
/// errors.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
