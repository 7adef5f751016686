//! The one fan-out: an order-deterministic parallel map over
//! independent work items.
//!
//! The analysis engine itself is sequential; parallelism lives only
//! across items that share nothing — exploration chunks
//! ([`explore`](crate::explore())), scenario sweeps in the bench
//! binaries. [`parallel_map`] fans such a list over
//! `std::thread::scope` workers while keeping the output **in input
//! order**: position `i` of the result always holds item `i`'s value,
//! no matter which worker computed it or when, so anything assembled
//! from the results is byte-identical for every thread count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// The fan-out width from the `HEM_THREADS` environment variable,
/// defaulting to `1`. The only place `HEM_THREADS` is parsed.
#[must_use]
pub fn env_threads() -> usize {
    std::env::var("HEM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Applies `f` to every item on `threads` scoped threads, returning the
/// results in input order.
///
/// `threads <= 1` degenerates to a plain in-order `map` on the calling
/// thread. Workers claim items one at a time from a shared queue (no
/// chunking), so uneven per-item cost still balances; each result is
/// reassembled by its item index, which is what makes the output order
/// deterministic.
///
/// # Panics
///
/// If `f` panics on some item, the call unwinds with that item's panic
/// payload once every worker has finished; when several items panic,
/// the lowest-indexed one's payload wins at every thread count.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard is a temporary: the queue is locked
                        // only while an item is claimed, never while `f`
                        // runs.
                        let claimed = queue.lock().expect("work queue poisoned").next();
                        let Some((i, item)) = claimed else {
                            return done;
                        };
                        done.push((i, panic::catch_unwind(AssertUnwindSafe(|| f(item)))));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker.join().expect("workers catch item panics");
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.expect("every item computed") {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_map_preserves_order() {
        let out = parallel_map((0..10).collect(), 1, |i: i32| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let expected: Vec<i64> = (0..200).map(|i| i * i).collect();
        for threads in [2, 4, 8] {
            let out = parallel_map((0..200).collect(), threads, |i: i64| i * i);
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(parallel_map(vec![7], 16, |i: i32| i + 1), vec![8]);
        let empty: Vec<i32> = parallel_map(Vec::new(), 8, |i: i32| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        let out = parallel_map((0..64u64).collect(), 4, |i| {
            // Vary per-item cost so late items finish before early ones.
            let spin = (64 - i) * 1_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (index, (i, acc)) in out.iter().enumerate() {
            assert_eq!(*i, index as u64);
            let spin = 64 - index as u64;
            assert_eq!(*acc, (0..spin * 1_000).sum::<u64>());
        }
    }

    fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied())
            .unwrap_or("<non-string panic payload>")
    }

    #[test]
    fn a_panicking_item_unwinds_with_its_own_payload() {
        for threads in [1usize, 4] {
            // Items 5 and 11 panic: the lowest-indexed payload must
            // surface, not the scope's generic "a thread panicked".
            let err = panic::catch_unwind(|| {
                parallel_map((0..16).collect(), threads, |i: usize| {
                    if i == 5 || i == 11 {
                        panic!("item {i} exploded");
                    }
                    i * i
                })
            })
            .expect_err("a panicking item must unwind out of parallel_map");
            assert_eq!(
                payload_message(&*err),
                "item 5 exploded",
                "threads={threads}"
            );
        }
    }
}
