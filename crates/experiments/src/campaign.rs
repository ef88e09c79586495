//! The campaign engine: grid execution, resume, and the `campaignd`
//! service loop.
//!
//! The paper repeats every Workload-2 configuration multiple times and
//! reports the full distribution (Fig. 6 swarm plot) with medians,
//! because parallel-file-system performance is highly variable. This
//! module fans those repetitions — and any other [`CampaignGrid`] —
//! out over the work-stealing pool in [`crate::pool`]:
//!
//! - **Deterministic merge.** Every task carries its grid index; results
//!   are reassembled in index order no matter which worker finished
//!   what, so merged output is bit-identical across worker counts.
//! - **Incremental, resumable output.** [`run_grid_resumable`] appends
//!   one [`CampaignRecord`] JSON line per completed task to a log whose
//!   first line is the grid spec itself; rerunning with a matching spec
//!   replays the log and runs only the missing indices.
//! - **Service loop.** [`serve_campaigns`] reads one grid spec per input
//!   line and streams records back as tasks finish — the `campaignd`
//!   binary is a thin stdin/stdout wrapper around it.

use crate::driver::{run_experiment_with_scratch, ExperimentResult, RunScratch};
use crate::grid::{CampaignGrid, CampaignRecord, GridTask};
use crate::metrics::scheduling_metrics;
use crate::pool;
use iosched_simkit::json::{from_str, ToJson, Value};
use iosched_simkit::stats::median;
use iosched_workloads::JobSubmission;
use std::fs;
use std::io::{BufRead, Write};
use std::path::Path;

/// Execution knobs shared by every grid entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignOptions {
    /// Worker count; `None` defers to `CAMPAIGN_THREADS` /
    /// `available_parallelism` (see [`pool::configured_threads`]).
    pub threads: Option<usize>,
}

impl CampaignOptions {
    /// These options with the worker count pinned: `threads` if given,
    /// else `CAMPAIGN_THREADS`, else `available_parallelism`. Binaries
    /// call it once at start, so a malformed override is reported as an
    /// error; the grid runners resolve unpinned options themselves and
    /// panic on one.
    pub fn resolved(self) -> Result<Self, pool::ThreadsError> {
        Ok(CampaignOptions {
            threads: Some(pool::configured_threads(self.threads)?),
        })
    }
}

/// Summarise one finished run into the record the engine merges, logs,
/// and streams.
fn record_for(task: &GridTask, res: &ExperimentResult) -> CampaignRecord {
    let m = scheduling_metrics(&res.jobs);
    CampaignRecord {
        index: task.index,
        label: task.scheduler.label(),
        scheduler: task.scheduler,
        seed: task.seed,
        workload: task.workload,
        makespan_secs: res.makespan_secs,
        mean_wait_secs: m.as_ref().map_or(0.0, |m| m.mean_wait_secs),
        max_wait_secs: m.as_ref().map_or(0.0, |m| m.max_wait_secs),
        jobs: m.as_ref().map_or(0, |m| m.jobs as u64),
        sched_passes: res.sched_passes,
        loop_iterations: res.loop_iterations,
    }
}

/// Run the grid tasks whose indices are in `pending`, streaming each
/// record to `on_record` in completion order and returning the merged
/// `Some`/`None` vector in task-index order.
fn run_grid_pending(
    grid: &CampaignGrid,
    pending: &[usize],
    opts: CampaignOptions,
    mut on_record: impl FnMut(&CampaignRecord),
) -> Vec<Option<CampaignRecord>> {
    if let Err(e) = grid.validate() {
        panic!("invalid campaign grid: {e}");
    }
    let workloads: Vec<Vec<JobSubmission>> =
        grid.workloads.iter().map(|w| w.materialize()).collect();
    let tasks = grid.tasks();
    let threads = pool::configured_threads(opts.threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .min(pending.len().max(1));
    pool::run_pending(
        &tasks,
        pending,
        threads,
        RunScratch::default,
        |scratch, _idx, task| {
            let cfg = grid.experiment_config(task);
            let res = run_experiment_with_scratch(&cfg, &workloads[task.workload], scratch);
            record_for(task, &res)
        },
        |_, rec| on_record(rec),
    )
}

/// Run every task of the grid; records come back in task-index order.
pub fn run_grid(grid: &CampaignGrid, opts: CampaignOptions) -> Vec<CampaignRecord> {
    run_grid_streaming(grid, opts, |_| {})
}

/// [`run_grid`] with a completion-order callback per finished task (what
/// `campaignd` uses to stream records as they finish).
pub fn run_grid_streaming(
    grid: &CampaignGrid,
    opts: CampaignOptions,
    on_record: impl FnMut(&CampaignRecord),
) -> Vec<CampaignRecord> {
    let pending: Vec<usize> = (0..grid.task_count()).collect();
    run_grid_pending(grid, &pending, opts, on_record)
        .into_iter()
        .map(|r| r.expect("all indices pending"))
        .collect()
}

/// Parse a record log: first line must round-trip to exactly `grid`,
/// remaining lines are records. Returns `None` when the file is absent,
/// unreadable, or written for a different grid; unparseable record lines
/// (e.g. a crash mid-append) are dropped rather than trusted.
pub fn load_record_log(path: &Path, grid: &CampaignGrid) -> Option<Vec<CampaignRecord>> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: CampaignGrid = from_str(lines.next()?).ok()?;
    if &header != grid {
        return None;
    }
    let count = grid.task_count();
    let mut records = Vec::new();
    for line in lines {
        if let Ok(rec) = from_str::<CampaignRecord>(line) {
            if rec.index < count {
                records.push(rec);
            }
        }
    }
    Some(records)
}

/// Resumable grid run. The log's first line is the grid spec; each
/// completed task appends one compact record line. A rerun with a
/// matching spec replays the log and executes only the missing indices;
/// a missing or mismatched log is rewritten and the grid runs fresh.
/// Merged output is identical to [`run_grid`] either way.
pub fn run_grid_resumable(
    grid: &CampaignGrid,
    opts: CampaignOptions,
    log_path: &Path,
) -> std::io::Result<Vec<CampaignRecord>> {
    let prior = load_record_log(log_path, grid).unwrap_or_default();

    // Rewrite header + surviving records so the file is clean before we
    // append (repairs any torn final line from an interrupted run).
    if let Some(dir) = log_path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut file = fs::File::create(log_path)?;
    writeln!(file, "{}", grid.to_json().to_json_string())?;
    let count = grid.task_count();
    let mut merged: Vec<Option<CampaignRecord>> = vec![None; count];
    for rec in prior {
        writeln!(file, "{}", rec.to_json().to_json_string())?;
        let idx = rec.index;
        merged[idx] = Some(rec);
    }

    let pending: Vec<usize> = (0..count).filter(|&i| merged[i].is_none()).collect();
    if !pending.is_empty() {
        let mut write_err = None;
        let fresh = run_grid_pending(grid, &pending, opts, |rec| {
            if write_err.is_none() {
                write_err = writeln!(file, "{}", rec.to_json().to_json_string())
                    .and_then(|_| file.flush())
                    .err();
            }
        });
        if let Some(e) = write_err {
            return Err(e);
        }
        for (slot, fresh) in merged.iter_mut().zip(fresh) {
            if let Some(rec) = fresh {
                *slot = Some(rec);
            }
        }
    }
    Ok(merged
        .into_iter()
        .map(|r| r.expect("every index prior or pending"))
        .collect())
}

/// Per-(workload, scheduler) median makespans of a finished grid — the
/// summary `campaignd` emits in its `done` line.
fn grid_medians(grid: &CampaignGrid, records: &[CampaignRecord]) -> Value {
    let per_group = grid.seeds.len();
    let mut out = Vec::new();
    for group in records.chunks(per_group) {
        let makespans: Vec<f64> = group.iter().map(|r| r.makespan_secs).collect();
        out.push(Value::Object(vec![
            ("workload".into(), Value::Num(group[0].workload as f64)),
            ("label".into(), Value::Str(group[0].label.clone())),
            (
                "median_makespan_secs".into(),
                Value::Num(median(&makespans).expect("non-empty group")),
            ),
        ]));
    }
    Value::Array(out)
}

/// The `campaignd` service loop, factored over abstract I/O so tests can
/// drive it with in-memory buffers. Each input line is one
/// [`CampaignGrid`] JSON spec; the loop streams one
/// `{"kind":"record",...}` line per finished task (completion order),
/// then a `{"kind":"done",...}` line with per-configuration medians.
/// Malformed or invalid specs produce a `{"kind":"error",...}` line and
/// the loop moves on. With `log_path` set, each grid runs resumably
/// against that log (already-logged tasks are replayed as records
/// without re-running).
pub fn serve_campaigns(
    input: impl BufRead,
    mut out: impl Write,
    opts: CampaignOptions,
    log_path: Option<&Path>,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let grid: CampaignGrid = match from_str(&line) {
            Ok(g) => g,
            Err(e) => {
                emit_error(&mut out, &format!("bad grid spec: {e}"))?;
                continue;
            }
        };
        if let Err(e) = grid.validate() {
            emit_error(&mut out, &format!("invalid grid: {e}"))?;
            continue;
        }
        let mut write_err = None;
        let emit_record = |rec: &CampaignRecord, out: &mut dyn Write| {
            let mut obj = vec![("kind".into(), Value::Str("record".into()))];
            if let Value::Object(fields) = rec.to_json() {
                obj.extend(fields);
            }
            writeln!(out, "{}", Value::Object(obj).to_json_string()).and_then(|_| out.flush())
        };
        let records = match log_path {
            Some(path) => {
                let records = run_grid_resumable(&grid, opts, path)?;
                for rec in &records {
                    emit_record(rec, &mut out)?;
                }
                records
            }
            None => run_grid_streaming(&grid, opts, |rec| {
                if write_err.is_none() {
                    write_err = emit_record(rec, &mut out).err();
                }
            }),
        };
        if let Some(e) = write_err {
            return Err(e);
        }
        let done = Value::Object(vec![
            ("kind".into(), Value::Str("done".into())),
            ("tasks".into(), Value::Num(records.len() as f64)),
            ("medians".into(), grid_medians(&grid, &records)),
        ]);
        writeln!(out, "{}", done.to_json_string())?;
        out.flush()?;
    }
    Ok(())
}

fn emit_error(out: &mut impl Write, message: &str) -> std::io::Result<()> {
    let v = Value::Object(vec![
        ("kind".into(), Value::Str("error".into())),
        ("message".into(), Value::Str(message.into())),
    ]);
    writeln!(out, "{}", v.to_json_string())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_experiment;
    use crate::grid::{PolicyFamily, WorkloadSpec};
    use std::io::Cursor;

    fn tiny_grid() -> CampaignGrid {
        let mut grid = CampaignGrid::new(
            vec![PolicyFamily::Default, PolicyFamily::Adaptive],
            vec![20.0],
            vec![7, 8],
            WorkloadSpec::Wave {
                x8: 4,
                x6: 0,
                x2: 3,
                x1: 4,
                sleeps: 2,
                volume_gib: 4.0,
            },
        );
        grid.base.nodes = 10;
        grid
    }

    fn records_json(records: &[CampaignRecord]) -> String {
        records
            .iter()
            .map(|r| r.to_json().to_json_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn noisy_grid_seeds_give_distinct_makespans() {
        // Enough concurrent streams that OSTs are shared: only then does
        // per-OST bandwidth noise reach completion times (singleton
        // streams are pinned at the deterministic per-stream cap), so
        // seeds produce distinct makespans.
        let mut grid = CampaignGrid::new(
            vec![PolicyFamily::Default],
            vec![],
            vec![1, 2, 3, 4, 5],
            WorkloadSpec::Wave {
                x8: 10,
                x6: 0,
                x2: 0,
                x1: 0,
                sleeps: 3,
                volume_gib: 4.0,
            },
        );
        grid.base.nodes = 10;
        assert!(!grid.base.noiseless);
        let records = run_grid(&grid, CampaignOptions { threads: Some(2) });
        let makespans: Vec<f64> = records.iter().map(|r| r.makespan_secs).collect();
        assert_eq!(makespans.len(), 5);
        assert!(makespans.iter().all(|&m| m > 0.0));
        assert!(
            makespans.iter().any(|&m| m != makespans[0]),
            "all seeds identical: {makespans:?}"
        );
    }

    #[test]
    fn every_grid_record_matches_a_direct_run_of_its_task() {
        let grid = tiny_grid();
        let workload = grid.workloads[0].materialize();
        let records = run_grid(&grid, CampaignOptions { threads: Some(2) });
        let tasks = grid.tasks();
        assert_eq!(records.len(), tasks.len());
        for (task, rec) in tasks.iter().zip(&records) {
            let res = run_experiment(&grid.experiment_config(task), &workload);
            let m = scheduling_metrics(&res.jobs).expect("jobs completed");
            assert_eq!(rec.index, task.index);
            assert_eq!(rec.makespan_secs.to_bits(), res.makespan_secs.to_bits());
            assert_eq!(rec.mean_wait_secs.to_bits(), m.mean_wait_secs.to_bits());
            assert_eq!(rec.max_wait_secs.to_bits(), m.max_wait_secs.to_bits());
            assert_eq!(rec.jobs, m.jobs as u64);
            assert_eq!(rec.sched_passes, res.sched_passes);
            assert_eq!(rec.loop_iterations, res.loop_iterations);
        }
    }

    #[test]
    fn merged_records_are_bit_identical_across_worker_counts() {
        let grid = tiny_grid();
        let one = run_grid(&grid, CampaignOptions { threads: Some(1) });
        let four = run_grid(&grid, CampaignOptions { threads: Some(4) });
        assert_eq!(one.len(), grid.task_count());
        assert_eq!(records_json(&one), records_json(&four));
    }

    #[test]
    fn records_carry_grid_indices_and_metrics() {
        let grid = tiny_grid();
        let records = run_grid(&grid, CampaignOptions { threads: Some(2) });
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.index, i);
            assert!(rec.makespan_secs > 0.0);
            assert!(rec.jobs > 0);
            assert!(rec.loop_iterations > 0);
        }
        assert_eq!(records[0].label, "default");
        assert_eq!(records[2].label, "adaptive-20");
    }

    #[test]
    fn resume_from_partial_log_matches_fresh_run() {
        let grid = tiny_grid();
        let fresh = run_grid(&grid, CampaignOptions { threads: Some(1) });

        let dir = std::env::temp_dir().join("iosched-campaign-resume-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.jsonl");
        // Half-finished log (out of order on purpose) plus a torn line.
        let mut text = format!("{}\n", grid.to_json().to_json_string());
        text.push_str(&format!("{}\n", fresh[2].to_json().to_json_string()));
        text.push_str(&format!("{}\n", fresh[0].to_json().to_json_string()));
        text.push_str("{\"index\":3,\"label\":\"tru");
        fs::write(&path, text).unwrap();

        let resumed =
            run_grid_resumable(&grid, CampaignOptions { threads: Some(2) }, &path).unwrap();
        assert_eq!(records_json(&resumed), records_json(&fresh));

        // The log now holds every record; a rerun replays it verbatim.
        let replay = load_record_log(&path, &grid).unwrap();
        assert_eq!(replay.len(), grid.task_count());
        let again = run_grid_resumable(&grid, CampaignOptions { threads: Some(1) }, &path).unwrap();
        assert_eq!(records_json(&again), records_json(&fresh));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_log_is_replaced_by_a_fresh_run() {
        let grid = tiny_grid();
        let dir = std::env::temp_dir().join("iosched-campaign-mismatch-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.jsonl");
        let mut other = grid.clone();
        other.seeds.push(99);
        fs::write(&path, format!("{}\n", other.to_json().to_json_string())).unwrap();

        assert!(load_record_log(&path, &grid).is_none());
        let records =
            run_grid_resumable(&grid, CampaignOptions { threads: Some(1) }, &path).unwrap();
        assert_eq!(records.len(), grid.task_count());
        // The log header now names `grid`, not the stale spec.
        assert_eq!(
            load_record_log(&path, &grid).unwrap().len(),
            grid.task_count()
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_streams_records_done_and_errors() {
        let grid = tiny_grid();
        let input = format!("{}\nnot json\n", grid.to_json().to_json_string());
        let mut out = Vec::new();
        serve_campaigns(
            Cursor::new(input),
            &mut out,
            CampaignOptions { threads: Some(2) },
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 4 records + done + error for the garbage line.
        assert_eq!(lines.len(), grid.task_count() + 2);
        let kinds: Vec<String> = lines
            .iter()
            .map(|l| {
                let v = iosched_simkit::json::parse(l).unwrap();
                match v.get("kind").unwrap() {
                    Value::Str(s) => s.clone(),
                    _ => panic!("kind not a string"),
                }
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| *k == "record").count(), 4);
        assert_eq!(kinds[grid.task_count()], "done");
        assert_eq!(kinds[grid.task_count() + 1], "error");
        let done = iosched_simkit::json::parse(lines[grid.task_count()]).unwrap();
        match done.get("medians").unwrap() {
            Value::Array(groups) => assert_eq!(groups.len(), 2),
            _ => panic!("medians not an array"),
        }
    }

    #[test]
    fn serve_reports_an_out_of_range_threshold_and_runs_the_next_grid() {
        let mut bad = tiny_grid();
        bad.thresholds_gibps = vec![1e300];
        let grid = tiny_grid();
        let input = format!(
            "{}\n{}\n",
            bad.to_json().to_json_string(),
            grid.to_json().to_json_string()
        );
        let mut out = Vec::new();
        serve_campaigns(
            Cursor::new(input),
            &mut out,
            CampaignOptions { threads: Some(2) },
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + grid.task_count() + 1, "{text}");
        assert!(
            lines[0].contains(r#""kind":"error""#) && lines[0].contains("thresholds_gibps"),
            "{}",
            lines[0]
        );
        assert!(lines[1..=grid.task_count()]
            .iter()
            .all(|l| l.contains(r#""kind":"record""#)));
        assert!(lines[grid.task_count() + 1].contains(r#""kind":"done""#));
    }
}
