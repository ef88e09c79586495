//! Work-stealing task pool for campaign fan-out.
//!
//! The previous campaign runner fed every worker from one `mpsc` channel
//! behind a `Mutex`'d receiver: each dequeue serialized all workers on a
//! single lock, and a panicking worker simply vanished, leaving its
//! claimed task's result unwritten. This pool replaces it with the
//! classic work-stealing shape:
//!
//! * **Per-worker deques.** Task indices are dealt into one deque per
//!   worker up front (contiguous chunks, so neighbouring tasks — which
//!   tend to share a configuration — stay on one worker's scratch). A
//!   worker pops from the *front* of its own deque and only touches
//!   another worker's when its own runs dry.
//! * **Steal half.** An idle worker scans the other deques round-robin
//!   from its right-hand neighbour and takes the *back half* of the
//!   first non-empty one, amortising the lock traffic over many tasks
//!   instead of paying one lock round per task.
//! * **Deterministic merge.** Every result is keyed by its task index;
//!   the caller receives a dense `Vec` in task order no matter which
//!   worker finished what, when. Output is bit-identical across worker
//!   counts (pinned by tests in [`crate::campaign`]).
//! * **Loud panics.** A worker panic aborts the pool: the panic payload
//!   is captured, every other worker drains out at its next dequeue, and
//!   the panic is re-raised on the calling thread with the failing task
//!   index attached. A campaign can no longer silently return a short
//!   result vector.
//!
//! Worker count resolution ([`configured_threads`]): an explicit request
//! wins, then the `CAMPAIGN_THREADS` environment variable, then
//! `std::thread::available_parallelism` — so CI and the scaling bench can
//! pin reproducible worker counts without code changes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

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
    Ok(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4))
}

/// Run `run` over every index in `pending` (each an index into `tasks`),
/// fanned out over `threads` work-stealing workers, and merge the results
/// by task index: slot `i` of the returned vector holds `Some` result for
/// each pending index, `None` for indices that were skipped (already
/// complete in a resumed campaign).
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
    if pending.is_empty() {
        return merged;
    }
    for &i in pending {
        assert!(i < tasks.len(), "pending index {i} out of range");
    }
    let threads = threads.clamp(1, pending.len());

    // Deal contiguous chunks of the pending list into per-worker deques.
    // Ceiling-sized chunks can fill fewer than `threads` deques (e.g. 25
    // tasks over 8 workers → 7 chunks of 4); the remaining workers start
    // empty and steal immediately.
    let chunk = pending.len().div_ceil(threads);
    let mut queues: Vec<Mutex<VecDeque<usize>>> = pending
        .chunks(chunk)
        .map(|c| Mutex::new(c.iter().copied().collect()))
        .collect();
    queues.resize_with(threads, || Mutex::new(VecDeque::new()));

    let abort = AtomicBool::new(false);
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for me in 0..threads {
            let result_tx = result_tx.clone();
            let (queues, abort, panicked) = (&queues, &abort, &panicked);
            let (make_scratch, run) = (&make_scratch, &run);
            scope.spawn(move || {
                let mut scratch = make_scratch();
                let mut local: VecDeque<usize> = VecDeque::new();
                loop {
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    // Own deque first; refill it by stealing when dry.
                    let next = local.pop_front().or_else(|| {
                        let mut own = queues[me].lock().expect("own queue lock");
                        if own.is_empty() {
                            drop(own);
                            steal_half(queues, me, &mut local);
                            local.pop_front()
                        } else {
                            // Move the whole remaining chunk local: the
                            // deque stays visible to thieves only while
                            // this worker is busy elsewhere, and tasks
                            // never enqueue more tasks.
                            std::mem::swap(&mut *own, &mut local);
                            local.pop_front()
                        }
                    });
                    let Some(idx) = next else { break };
                    // Expose the not-yet-started remainder for stealing
                    // while this task runs.
                    if !local.is_empty() {
                        let mut own = queues[me].lock().expect("own queue lock");
                        own.append(&mut local);
                    }
                    match catch_unwind(AssertUnwindSafe(|| run(&mut scratch, idx, &tasks[idx]))) {
                        Ok(r) => {
                            // The receiver outlives the workers inside
                            // this scope; send cannot fail.
                            result_tx.send((idx, r)).expect("result channel");
                        }
                        Err(payload) => {
                            let mut slot = panicked.lock().expect("panic slot lock");
                            slot.get_or_insert((idx, payload));
                            abort.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
            });
        }
        drop(result_tx); // collection ends when the last worker exits
        for (idx, r) in result_rx.iter() {
            on_done(idx, &r);
            merged[idx] = Some(r);
        }
    });

    if let Some((idx, payload)) = panicked.into_inner().expect("panic slot lock") {
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

/// Steal the back half of the first non-empty victim deque, scanning
/// round-robin from the thief's right-hand neighbour. The victim keeps
/// the front half (its own oldest work); the thief takes the rest into
/// its local deque.
fn steal_half(queues: &[Mutex<VecDeque<usize>>], me: usize, local: &mut VecDeque<usize>) {
    let n = queues.len();
    for step in 1..n {
        let victim = (me + step) % n;
        let mut q = queues[victim].lock().expect("victim queue lock");
        let len = q.len();
        if len == 0 {
            continue;
        }
        let keep = len / 2;
        local.extend(q.drain(keep..));
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn more_workers_than_seed_chunks_start_empty_and_steal() {
        // 25 tasks over 8 workers: ceiling chunks fill only 7 deques;
        // the 8th must start empty and steal, not index out of bounds.
        let tasks: Vec<u64> = (0..25).collect();
        let out = run_all(&tasks, 8, || (), |_, _, &t| t + 1, |_, _| {});
        assert_eq!(out, (1..=25).collect::<Vec<u64>>());
    }

    #[test]
    fn runs_every_task_and_merges_by_index() {
        for threads in [1, 2, 4, 7, 8] {
            let tasks: Vec<u64> = (0..57).collect();
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
            assert_eq!(out.len(), 57);
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
