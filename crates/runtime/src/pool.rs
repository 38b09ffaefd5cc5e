//! Scoped `parallel_map`: one iterator's items fanned out over a few
//! threads.
//!
//! The workers share the input iterator behind one lock: each takes the
//! next `(index, item)`, runs `f` outside the lock, and keeps the result
//! with its index. Handing out one item at a time balances skewed
//! workloads (one discovery candidate dominating a lattice level) with no
//! per-worker queues, and sorting by index puts the output back in input
//! order, so callers observe exactly the sequential result regardless of
//! the interleaving.
//!
//! The tasks this runs (candidate dependency checks, per-attribute index
//! builds, per-tableau index rebuilds) are coarse enough that one lock
//! round-trip per item is noise. Because workers are scoped, `f` and the
//! items may borrow from the caller's stack; for `'static` jobs on
//! long-lived threads use [`crate::executor::Executor`] instead.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Map `f` over `items` on up to [`crate::default_parallelism`] scoped
/// workers (never more than the iterator's upper size bound), returning
/// the results in input order. With one worker this is a plain sequential
/// map. A panic in `f` reaches the caller with its own payload.
pub fn parallel_map<T: Send, R: Send>(
    items: impl IntoIterator<Item = T, IntoIter: Send>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let items = items.into_iter();
    let workers = crate::default_parallelism().min(items.size_hint().1.unwrap_or(usize::MAX));
    if workers <= 1 {
        return items.map(f).collect();
    }
    let next = Mutex::new(items.enumerate());
    let worker = || {
        let mut done = Vec::new();
        loop {
            // The guard drops inside `and_then`, before `f` runs. A
            // poisoned lock means `next()` panicked on another worker, whose
            // panic reaches the caller: stop taking items.
            let item = next.lock().ok().and_then(|mut items| items.next());
            let Some((index, item)) = item else {
                return done;
            };
            done.push((index, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn skewed_workloads_complete() {
        // One pathologically heavy item at the front: static chunking would
        // serialize behind it; the pool must still return the right answer.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            let spins = if x == 0 { 200_000 } else { 50 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_on_strings() {
        let items: Vec<String> = (0..100).map(|i| format!("value-{i}")).collect();
        let seq: Vec<usize> = items.iter().map(|s| s.len()).collect();
        let par = parallel_map(&items, |s| s.len());
        assert_eq!(seq, par);
    }

    #[test]
    fn panic_in_f_reaches_the_caller_with_its_own_payload() {
        let items: Vec<usize> = (0..64).collect();
        let payload = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                if x == 17 {
                    panic!("item {x} failed");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 17 failed")
        );
        // A panic inside the shared iterator's `next()` too.
        let payload = std::panic::catch_unwind(|| {
            let items = (0..64usize).map(|x| if x == 17 { panic!("next failed") } else { x });
            parallel_map(items, |x| x)
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"next failed"));
    }

    #[test]
    fn owned_non_clone_items_map_by_value_in_order() {
        // The snapshot-load shape: per-PFD lists of per-tableau parts,
        // flattened and moved into the workers.
        struct Part(Vec<u32>);
        let nested: Vec<Vec<Part>> = (0..12u32)
            .map(|p| (0..5).map(|t| Part(vec![p * 5 + t; 3])).collect())
            .collect();
        let out = parallel_map(nested.into_iter().flatten(), |Part(v)| {
            v.into_iter().sum::<u32>()
        });
        assert_eq!(out, (0..60).map(|i| i * 3).collect::<Vec<u32>>());
    }
}
