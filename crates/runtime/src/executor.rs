//! Persistent FIFO executor for long-lived servers.
//!
//! The scoped [`crate::pool`] spins threads up per call, which is right
//! for one-shot fan-outs (a discovery lattice level) but wrong for a
//! server that schedules small jobs continuously: the multi-tenant session
//! server submits one drain job per touched tenant, thousands of times per
//! run. This executor keeps a fixed set of workers alive over one FIFO
//! queue: a worker pops the front job, or parks until a push or shutdown
//! wakes it.
//!
//! Jobs are `'static` boxed closures, and a job may spawn further jobs
//! onto the same queue. Panics in jobs are caught and recorded rather than
//! tearing down the worker; [`Executor::take_panics`] surfaces them so
//! callers (and the soak tests) can fail loudly instead of deadlocking on
//! a dead worker.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The executor's whole mutable state, behind one lock. Jobs run outside
/// it, so a panicking job cannot poison it.
struct State {
    /// Jobs not yet picked up, oldest first.
    queue: VecDeque<Job>,
    /// Jobs queued plus jobs running; `wait_idle` waits for 0.
    active: usize,
    /// Set by `Drop`: workers exit once the queue is empty.
    shutdown: bool,
    /// Panic messages captured from jobs, oldest first.
    panics: Vec<String>,
}

/// Everything workers share; `Executor` holds it in an `Arc` so worker
/// threads can outlive individual borrows.
struct Shared {
    state: Mutex<State>,
    /// Signalled on every push and on shutdown; idle workers park here.
    work: Condvar,
    /// Signalled when `active` reaches 0; `wait_idle` parks here.
    idle: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of long-lived workers over one FIFO job queue.
///
/// Dropping the executor signals shutdown, lets queued jobs drain, and
/// joins every worker.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spin up `workers` threads (clamped to at least 1).
    #[allow(
        clippy::expect_used,
        reason = "a server cannot serve without workers, and this fails at \
                  construction, before any tenant state exists"
    )]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
                panics: Vec::new(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pfd-runtime-{w}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, handles }
    }

    /// Queue a job behind every job already queued. Callable from any
    /// thread, including this executor's own jobs.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.lock();
        state.queue.push_back(Box::new(job));
        state.active += 1;
        drop(state);
        self.shared.work.notify_one();
    }

    /// Block until every queued and running job has finished. Calling this
    /// from a worker thread would deadlock; it is meant for the thread
    /// that owns the executor.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        while state.active > 0 {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drain captured job panics (oldest first). Empty in a healthy run.
    pub fn take_panics(&self) -> Vec<String> {
        std::mem::take(&mut self.shared.lock().panics)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Run queued jobs front first until shutdown finds the queue empty. A job
/// spawned by a running job after shutdown is still picked up: its
/// spawner's worker checks the queue again before it exits.
fn worker_main(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            let panic = catch_unwind(AssertUnwindSafe(job)).err();
            state = shared.lock();
            state.panics.extend(panic.as_deref().map(panic_message));
            state.active -= 1;
            if state.active == 0 {
                shared.idle.notify_all();
            }
        } else if state.shutdown {
            return;
        } else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked with a non-string payload".to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_every_job_exactly_once() {
        let executor = Executor::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..500u64 {
            let counter = Arc::clone(&counter);
            executor.spawn(move || {
                counter.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        executor.wait_idle();
        // Sum of 1..=500.
        assert_eq!(counter.load(Ordering::Relaxed), 500 * 501 / 2);
        assert!(executor.take_panics().is_empty());
    }

    #[test]
    fn worker_spawned_continuations_complete() {
        // Jobs that respawn themselves queue their continuations from a
        // worker thread; the chain must still drain and wait_idle must
        // observe the tail.
        let executor = Arc::new(Executor::new(3));
        let counter = Arc::new(AtomicU64::new(0));
        fn chain(executor: &Arc<Executor>, counter: &Arc<AtomicU64>, depth: u32) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                let e = Arc::clone(executor);
                let c = Arc::clone(counter);
                executor.spawn(move || chain(&e, &c, depth - 1));
            }
        }
        for _ in 0..8 {
            let e = Arc::clone(&executor);
            let c = Arc::clone(&counter);
            executor.spawn(move || chain(&e, &c, 63));
        }
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 64);
    }

    #[test]
    fn captures_panics_and_keeps_serving() {
        let executor = Executor::new(2);
        executor.spawn(|| panic!("boom in job"));
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        executor.spawn(move || {
            d.store(7, Ordering::Relaxed);
        });
        executor.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 7);
        let panics = executor.take_panics();
        assert_eq!(panics.len(), 1);
        assert!(panics[0].contains("boom in job"));
    }

    #[test]
    fn wait_idle_on_empty_executor_returns() {
        let executor = Executor::new(2);
        executor.wait_idle();
    }

    #[test]
    fn single_worker_executor_drains() {
        let executor = Executor::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            executor.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let executor = Executor::new(2);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                executor.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No wait_idle: Drop must still let queued jobs finish.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
