//! Self-scheduling task pool for campaign fan-out.
//!
//! * **One shared cursor.** Every worker claims the next pending task
//!   with one `fetch_add` on a shared atomic counter and exits once the
//!   claimed position is past the end. Each task is a whole simulation,
//!   so the claim costs nothing next to the work it hands out, and no
//!   worker idles while a task is unclaimed.
//! * **Deterministic merge.** Every result is keyed by its task index;
//!   the caller receives a dense `Vec` in task order no matter which
//!   worker finished what, when. Output is bit-identical across worker
//!   counts (pinned by tests in [`crate::campaign`]).
//! * **Loud panics.** A worker panic aborts the pool: the first panic
//!   payload is kept, the cursor jumps to the end so every other worker
//!   stops at its next claim, and the panic is re-raised on the calling
//!   thread once all workers have exited, with the failing task index
//!   printed to stderr. A campaign never silently returns a short
//!   result vector.
//!
//! Worker count resolution ([`configured_threads`]): an explicit request
//! wins, then the `CAMPAIGN_THREADS` environment variable, then
//! `std::thread::available_parallelism` — so CI and the scaling bench can
//! pin reproducible worker counts without code changes.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A `CAMPAIGN_THREADS` value that is not a positive integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsError {
    /// The value as set.
    pub value: String,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CAMPAIGN_THREADS must be a positive integer, got `{}`",
            self.value
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Resolve the worker count: `explicit` if given, else the
/// `CAMPAIGN_THREADS` environment variable, else
/// `available_parallelism`. Never returns zero.
///
/// # Errors
/// [`ThreadsError`] when `CAMPAIGN_THREADS` is set but is not a positive
/// integer: a mistyped override must fail loudly, not fall back
/// silently.
pub fn configured_threads(explicit: Option<usize>) -> Result<usize, ThreadsError> {
    threads_from(explicit, std::env::var("CAMPAIGN_THREADS").ok().as_deref())
}

/// [`configured_threads`] with the environment value passed in (pure,
/// unit-testable; tests must not mutate process-global env).
fn threads_from(explicit: Option<usize>, env: Option<&str>) -> Result<usize, ThreadsError> {
    if let Some(t) = explicit {
        return Ok(t.max(1));
    }
    if let Some(s) = env {
        return match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(ThreadsError {
                value: s.to_string(),
            }),
        };
    }
    Ok(std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Run `run` over every index in `pending` (each an index into `tasks`),
/// fanned out over `threads` workers that claim tasks from one shared
/// cursor, and merge the results by task index: slot `i` of the returned
/// vector holds `Some` result for each pending index, `None` for indices
/// that were skipped (already complete in a resumed campaign).
///
/// * `make_scratch` builds one per-worker scratch value, reused across
///   all tasks that worker executes.
/// * `on_done` runs on the **calling** thread once per completed task, in
///   completion order — the streaming hook (`campaignd` uses it to emit
///   records as they finish). The merged vector is index-ordered
///   regardless.
///
/// # Panics
/// Re-raises the first worker panic on the calling thread, after all
/// workers have drained.
pub fn run_pending<T, R, S>(
    tasks: &[T],
    pending: &[usize],
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &T) -> R + Sync,
    mut on_done: impl FnMut(usize, &R),
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
{
    let mut merged: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    for &i in pending {
        assert!(i < tasks.len(), "pending index {i} out of range");
    }
    // No more workers than tasks; an empty `pending` spawns none.
    let threads = threads.max(1).min(pending.len());
    let (cursor, make_scratch, run) = (&AtomicUsize::new(0), &make_scratch, &run);
    let (result_tx, result_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
    let mut failed = None;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                let mut scratch = make_scratch();
                while let Some(&idx) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let r = catch_unwind(AssertUnwindSafe(|| run(&mut scratch, idx, &tasks[idx])));
                    if r.is_err() {
                        // Past the end, so every later claim fails; never
                        // `usize::MAX`, which `fetch_add` would wrap to 0.
                        cursor.store(pending.len(), Ordering::Relaxed);
                    }
                    // The receiver outlives the workers inside this
                    // scope; send cannot fail.
                    result_tx.send((idx, r)).expect("result channel");
                }
            });
        }
        drop(result_tx); // collection ends when the last worker exits
        for (idx, r) in result_rx.iter() {
            match r {
                Ok(r) => on_done(idx, merged[idx].insert(r)),
                Err(payload) => _ = failed.get_or_insert((idx, payload)),
            }
        }
    });

    if let Some((idx, payload)) = failed {
        eprintln!("campaign pool: worker panicked while running task {idx}; re-raising");
        resume_unwind(payload);
    }
    merged
}

/// [`run_pending`] over every task index.
pub fn run_all<T, R, S>(
    tasks: &[T],
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &T) -> R + Sync,
    on_done: impl FnMut(usize, &R),
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let pending: Vec<usize> = (0..tasks.len()).collect();
    run_pending(tasks, &pending, threads, make_scratch, run, on_done)
        .into_iter()
        .map(|r| r.expect("all tasks ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn more_workers_than_tasks_run_every_task_once() {
        // 25 tasks over 8 workers, and 3 tasks over 8 (the pool spawns
        // no more workers than tasks): every task runs exactly once.
        let tasks: Vec<u64> = (0..25).collect();
        let out = run_all(&tasks, 8, || (), |_, _, &t| t + 1, |_, _| {});
        assert_eq!(out, (1..=25).collect::<Vec<u64>>());
        let ran = AtomicUsize::new(0);
        let out = run_all(
            &[7u64, 8, 9],
            8,
            || (),
            |_, _, &t| {
                ran.fetch_add(1, Ordering::Relaxed);
                t
            },
            |_, _| {},
        );
        assert_eq!(out, [7, 8, 9]);
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn runs_every_task_and_merges_by_index() {
        for (n, threads) in [(57, 1), (57, 2), (57, 4), (57, 7), (57, 8), (10_000, 8)] {
            let tasks: Vec<u64> = (0..n).collect();
            let out = run_all(
                &tasks,
                threads,
                || 0u64,
                |_, i, &t| {
                    assert_eq!(i as u64, t, "task index must match its slot");
                    t * 10
                },
                |_, _| {},
            );
            assert_eq!(out.len(), n as usize);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u64 * 10, "threads={threads}");
            }
        }
    }

    #[test]
    fn pending_subset_skips_completed_indices() {
        let tasks: Vec<u64> = (0..10).collect();
        let pending = [1usize, 3, 8];
        let ran = AtomicUsize::new(0);
        let out = run_pending(
            &tasks,
            &pending,
            4,
            || (),
            |_, _, &t| {
                ran.fetch_add(1, Ordering::Relaxed);
                t + 100
            },
            |_, _| {},
        );
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        for (i, slot) in out.iter().enumerate() {
            if pending.contains(&i) {
                assert_eq!(*slot, Some(i as u64 + 100));
            } else {
                assert_eq!(*slot, None);
            }
        }
    }

    #[test]
    fn on_done_streams_each_completion_once() {
        let tasks: Vec<usize> = (0..20).collect();
        let mut seen = vec![0u32; 20];
        run_all(
            &tasks,
            3,
            || (),
            |_, _, &t| t,
            |idx, &r| {
                assert_eq!(idx, r);
                seen[idx] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // With one worker, a single scratch must see every task.
        let tasks: Vec<u64> = (0..16).collect();
        let out = run_all(
            &tasks,
            1,
            || 0u64,
            |count, _, &t| {
                *count += 1;
                (*count, t)
            },
            |_, _| {},
        );
        let counts: Vec<u64> = out.iter().map(|&(c, _)| c).collect();
        assert_eq!(counts, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_propagates_loudly() {
        let tasks: Vec<u64> = (0..32).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_all(
                &tasks,
                4,
                || (),
                |_, i, &t| {
                    if i == 13 {
                        panic!("task 13 exploded");
                    }
                    t
                },
                |_, _| {},
            )
        }));
        let payload = res.expect_err("pool must re-raise the worker panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 13 exploded"), "payload: {msg}");
    }

    #[test]
    fn a_worker_panic_stops_further_claims() {
        // Task 0 panics at once; the other worker stops at its next claim,
        // so only a few of the 200 one-millisecond tasks ever start.
        let tasks: Vec<u64> = (0..200).collect();
        let ran = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_all(
                &tasks,
                2,
                || (),
                |_, i, &t| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 0 {
                        panic!("task 0 exploded");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    t
                },
                |_, _| {},
            )
        }));
        let payload = res.expect_err("pool must re-raise the worker panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 0 exploded"));
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < tasks.len() / 2, "{ran} of {} tasks ran", tasks.len());
    }

    #[test]
    fn empty_pending_returns_all_none() {
        let tasks: Vec<u64> = (0..5).collect();
        let out = run_pending(&tasks, &[], 4, || (), |_, _, &t| t, |_, _| {});
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn thread_resolution_order_is_explicit_env_parallelism() {
        assert_eq!(threads_from(Some(3), Some("8")), Ok(3));
        assert_eq!(threads_from(Some(0), None), Ok(1));
        assert_eq!(threads_from(None, Some("8")), Ok(8));
        assert_eq!(threads_from(None, Some(" 2 ")), Ok(2));
        let auto = threads_from(None, None).unwrap();
        assert!(auto >= 1);
        // An explicit count never reads the override, malformed or not.
        assert_eq!(threads_from(Some(2), Some("many")), Ok(2));
    }

    #[test]
    fn malformed_env_override_is_a_typed_error() {
        for bad in ["many", "0", "-1", "", "2.5"] {
            let err = threads_from(None, Some(bad)).unwrap_err();
            assert_eq!(err.value, bad);
            assert_eq!(
                err.to_string(),
                format!("CAMPAIGN_THREADS must be a positive integer, got `{bad}`")
            );
        }
    }
}
