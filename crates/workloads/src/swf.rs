//! Standard Workload Format (SWF) support.
//!
//! SWF is the de-facto trace format of the Parallel Workloads Archive;
//! virtually every published job log (including the ones used to study
//! backfill schedulers) is distributed in it. This module parses SWF text
//! into [`JobSubmission`]s so real traces can be replayed against the
//! schedulers.
//!
//! SWF has 18 whitespace-separated fields per line; `;` starts a comment.
//! The fields used here:
//!
//! | # | field | use |
//! |---|---|---|
//! | 1 | job number | id |
//! | 2 | submit time (s) | `submit` |
//! | 4 | run time (s) | execution length |
//! | 5 | allocated processors | node count (via `cpus_per_node`) |
//! | 9 | requested time (s) | limit `L_j` (falls back to run time) |
//!
//! SWF carries no I/O information, so replayed jobs execute as pure
//! compute by default; [`SwfOptions::io_fraction`] optionally converts a
//! fraction of each job's runtime into a trailing write phase at a given
//! per-node rate, a common synthetic-I/O augmentation.

use crate::builder::JobSubmission;
use iosched_cluster::{ExecSpec, Phase};
use iosched_simkit::ids::JobId;
use iosched_simkit::time::{SimDuration, SimTime};

/// Conversion options.
#[derive(Clone, Debug)]
pub struct SwfOptions {
    /// Processors per node of the traced machine (SWF counts CPUs).
    pub cpus_per_node: usize,
    /// Cap on nodes per job (jobs needing more are clamped; keeps small
    /// test clusters usable with big-machine traces). At least 1.
    pub max_nodes: usize,
    /// Fraction of each job's runtime converted into a trailing write
    /// phase (0.0 = pure compute).
    pub io_fraction: f64,
    /// Write rate per node assumed when materialising the I/O phase,
    /// bytes/s (determines the phase's volume). Must be positive and
    /// finite when `io_fraction` is above 0.
    pub io_rate_per_node_bps: f64,
    /// Skip jobs whose status/run time mark them as cancelled (< 0 run
    /// time or zero processors).
    pub skip_invalid: bool,
    /// Skip-with-error handling for *malformed* lines (too few fields,
    /// non-integer fields). When `false` (the default) the first
    /// malformed line is fatal: [`parse_swf`] returns its error and
    /// [`SwfReader`] yields it once and then fuses. When `true`,
    /// [`parse_swf`] skips malformed lines and [`SwfReader`] reports
    /// each one as an `Err` item — carrying its 1-based line number —
    /// and keeps iterating, so a mostly-good archive trace replays past
    /// its damage while still surfacing every bad line to the caller.
    pub skip_malformed: bool,
}

impl Default for SwfOptions {
    fn default() -> Self {
        SwfOptions {
            cpus_per_node: 1,
            max_nodes: usize::MAX,
            io_fraction: 0.0,
            io_rate_per_node_bps: 0.0,
            skip_invalid: true,
            skip_malformed: false,
        }
    }
}

/// The scheduling-relevant integer fields of one SWF record, exactly as
/// they appear on a trace line. [`parse_swf`] extracts one per line;
/// the synthetic generator ([`crate::synth`]) emits them directly, so
/// generated workloads and parsed traces share one conversion path
/// ([`SwfRecord::to_submission`]) and round-trip through
/// [`SwfRecord::to_line`] by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwfRecord {
    /// Field 1: job number (the id).
    pub job_no: i64,
    /// Field 2: submit time, seconds.
    pub submit: i64,
    /// Field 4: run time, seconds (negative marks a cancelled job).
    pub run_time: i64,
    /// Field 5: allocated processors (0 marks a cancelled job).
    pub procs: i64,
    /// Field 9: requested time, seconds (−1 when absent).
    pub requested: i64,
}

impl SwfRecord {
    /// True when the record describes a job that actually ran (SWF marks
    /// cancelled jobs with negative run times or zero processors).
    pub fn is_valid(&self) -> bool {
        self.run_time >= 0 && self.procs > 0 && self.submit >= 0
    }

    /// Render the record as a full 18-field SWF line (fields this model
    /// does not carry are `-1`, per the SWF convention for "not given").
    pub fn to_line(&self) -> String {
        format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 -1 1 1 1 1 -1 -1 -1",
            self.job_no, self.submit, self.run_time, self.procs, self.procs, self.requested
        )
    }

    /// Convert to a [`JobSubmission`] under `opts`. Returns `None` for
    /// invalid (cancelled) records — the caller decides whether that is a
    /// skip or an error.
    pub fn to_submission(&self, opts: &SwfOptions) -> Option<JobSubmission> {
        if !self.is_valid() {
            return None;
        }
        let procs = self.procs;
        let nodes = ((procs as usize).div_ceil(opts.cpus_per_node)).clamp(1, opts.max_nodes);
        let run_secs = self.run_time as u64;
        let limit_secs = if self.requested > 0 {
            (self.requested as u64).max(run_secs)
        } else {
            run_secs.max(1)
        };

        let io_secs = (run_secs as f64 * opts.io_fraction).round() as u64;
        let compute_secs = run_secs - io_secs.min(run_secs);
        let mut phases = Vec::new();
        if compute_secs > 0 || io_secs == 0 {
            phases.push(Phase::Compute(SimDuration::from_secs(compute_secs.max(1))));
        }
        if io_secs > 0 && opts.io_rate_per_node_bps > 0.0 {
            phases.push(Phase::Write {
                threads_per_node: 1,
                bytes_per_thread: opts.io_rate_per_node_bps * io_secs as f64,
            });
        }

        Some(JobSubmission {
            id: JobId(self.job_no as u64),
            name: format!("swf_p{procs}"),
            exec: ExecSpec { nodes, phases },
            limit: SimDuration::from_secs(limit_secs),
            submit: SimTime::from_secs(self.submit as u64),
            priority: 0,
            after: Vec::new(),
        })
    }
}

/// A parse failure with its line number (1-based; 0 for invalid
/// [`SwfOptions`], which no line caused).
#[derive(Debug, PartialEq, Eq)]
pub struct SwfError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Validate the option invariants shared by every entry point, once per
/// reader: options that pass build a runnable job from every valid
/// record.
fn check_opts(opts: &SwfOptions) -> Result<(), SwfError> {
    let rate = opts.io_rate_per_node_bps;
    let message = if opts.cpus_per_node < 1 {
        "cpus_per_node must be at least 1".to_string()
    } else if opts.max_nodes < 1 {
        "max_nodes must be at least 1".to_string()
    } else if !(0.0..=1.0).contains(&opts.io_fraction) {
        format!("io_fraction must be in [0, 1], got {}", opts.io_fraction)
    } else if opts.io_fraction > 0.0 && !(rate > 0.0 && rate.is_finite()) {
        // A write phase needs a volume: without one, the I/O share of
        // the runtime would be dropped, and a job whose share rounds up
        // to the whole runtime would have no phase at all.
        format!("io_rate_per_node_bps must be positive and finite when io_fraction > 0, got {rate}")
    } else {
        return Ok(());
    };
    Err(SwfError { line: 0, message })
}

/// Parse one trace line. `Ok(None)` means the line carries no job
/// (comment, blank, or an invalid record under
/// [`SwfOptions::skip_invalid`]); `Err` is a malformed line or a strict
/// invalid record, stamped with `line_no` (1-based). [`SwfReader`]'s
/// per-line step, and through it [`parse_swf`]'s.
fn parse_swf_line(
    raw: &str,
    line_no: usize,
    opts: &SwfOptions,
) -> Result<Option<JobSubmission>, SwfError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(None);
    }
    // Split lazily instead of collecting a field vector: the streaming
    // reader runs this per line, and a collect would be its only
    // steady-state allocation.
    let mut fields = line.split_whitespace();
    // The first five fields are required; 1, 2, 4 and 5 must parse as
    // integers (field 3, the wait time, is present-but-unused).
    let mut head = [""; 5];
    for (i, slot) in head.iter_mut().enumerate() {
        *slot = fields.next().ok_or_else(|| SwfError {
            line: line_no,
            message: format!("expected at least 5 fields, got {i}"),
        })?;
    }
    let int = |s: &str, field: usize| -> Result<i64, SwfError> {
        s.parse::<i64>().map_err(|_| SwfError {
            line: line_no,
            message: format!("field {field} is not an integer"),
        })
    };
    let record = SwfRecord {
        job_no: int(head[0], 1)?,
        submit: int(head[1], 2)?,
        run_time: int(head[3], 4)?,
        procs: int(head[4], 5)?,
        // Field 9 (requested time) is optional; a missing or non-integer
        // value is "not given", matching the long-standing parser.
        requested: fields
            .nth(3)
            .and_then(|s| s.parse::<i64>().ok())
            .unwrap_or(-1),
    };
    match record.to_submission(opts) {
        Some(job) => Ok(Some(job)),
        None if opts.skip_invalid => Ok(None),
        None => Err(SwfError {
            line: line_no,
            message: "negative run time / non-positive processors".into(),
        }),
    }
}

/// Parse SWF text into submissions. Comment (`;`) and blank lines are
/// skipped; invalid jobs are skipped or rejected per
/// [`SwfOptions::skip_invalid`]; malformed lines are fatal or skipped
/// per [`SwfOptions::skip_malformed`]; invalid options are an error
/// either way. This collects a [`SwfReader`] over `text`; for traces too
/// large to hold in memory, use the reader itself.
pub fn parse_swf(text: &str, opts: &SwfOptions) -> Result<Vec<JobSubmission>, SwfError> {
    check_opts(opts)?;
    SwfReader::new(text.as_bytes(), opts.clone())
        .filter(|item| !(opts.skip_malformed && item.is_err()))
        .collect()
}

/// Streaming SWF reader: a line-at-a-time
/// `Iterator<Item = Result<JobSubmission, SwfError>>` over any
/// [`std::io::BufRead`] source.
///
/// One line is held in memory at a time, so peak memory is independent
/// of trace length — the ingest side of a bounded-window streaming
/// replay (`experiments::streaming` admits from this iterator and
/// retires jobs as they finish, keeping the whole pipeline O(window)).
///
/// Error handling:
/// * comment/blank lines and invalid (cancelled) records under
///   [`SwfOptions::skip_invalid`] are skipped silently, as in
///   [`parse_swf`];
/// * a malformed line yields `Err` with its 1-based line number; with
///   [`SwfOptions::skip_malformed`] set the iterator then continues
///   with the next line, otherwise it fuses (the error is fatal, like
///   [`parse_swf`] returning early);
/// * an I/O error from the source yields one `Err` and always fuses —
///   there is no next line to recover to;
/// * invalid [`SwfOptions`] make the first item an `Err` (line 0), after
///   which the reader is fused without reading the source.
pub struct SwfReader<R: std::io::BufRead> {
    src: R,
    opts: SwfOptions,
    line_no: usize,
    buf: String,
    fused: bool,
    /// The options' error, yielded as the first item.
    opts_error: Option<SwfError>,
}

impl<R: std::io::BufRead> SwfReader<R> {
    /// A reader over `src` converting under `opts`.
    pub fn new(src: R, opts: SwfOptions) -> Self {
        let opts_error = check_opts(&opts).err();
        SwfReader {
            src,
            opts,
            line_no: 0,
            buf: String::new(),
            fused: opts_error.is_some(),
            opts_error,
        }
    }
}

impl<R: std::io::BufRead> Iterator for SwfReader<R> {
    type Item = Result<JobSubmission, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.opts_error.take() {
            return Some(Err(e));
        }
        while !self.fused {
            self.buf.clear();
            match self.src.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.fused = true;
                    return Some(Err(SwfError {
                        line: self.line_no + 1,
                        message: format!("read error: {e}"),
                    }));
                }
            }
            self.line_no += 1;
            match parse_swf_line(&self.buf, self.line_no, &self.opts) {
                Ok(Some(job)) => return Some(Ok(job)),
                Ok(None) => {}
                Err(e) => {
                    self.fused = !self.opts.skip_malformed;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// Open an SWF trace file for streaming replay.
pub fn open_swf(
    path: &std::path::Path,
    opts: SwfOptions,
) -> std::io::Result<SwfReader<std::io::BufReader<std::fs::File>>> {
    Ok(SwfReader::new(
        std::io::BufReader::new(std::fs::File::open(path)?),
        opts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::gibps;

    const SAMPLE: &str = "\
; SWF sample header
; MaxNodes: 128
1 0 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1
2 30 5 50 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1

3 60 2 -1 2 -1 -1 2 100 -1 0 1 1 1 1 -1 -1 -1
4 90 0 20 0 -1 -1 0 30 -1 0 1 1 1 1 -1 -1 -1
";

    #[test]
    fn parses_valid_jobs_and_skips_invalid() {
        let jobs = parse_swf(SAMPLE, &SwfOptions::default()).unwrap();
        // Jobs 3 (run time −1) and 4 (0 procs) are skipped.
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, JobId(1));
        assert_eq!(jobs[0].submit, SimTime::from_secs(0));
        assert_eq!(jobs[0].exec.nodes, 4);
        assert_eq!(jobs[0].limit, SimDuration::from_secs(200));
        assert_eq!(jobs[1].submit, SimTime::from_secs(30));
        // Requested time missing (−1) → limit = run time.
        assert_eq!(jobs[1].limit, SimDuration::from_secs(50));
    }

    #[test]
    fn cpus_per_node_scaling_and_clamp() {
        let opts = SwfOptions {
            cpus_per_node: 2,
            max_nodes: 1,
            ..SwfOptions::default()
        };
        let jobs = parse_swf(SAMPLE, &opts).unwrap();
        // Job 1: 4 procs / 2 = 2 nodes, clamped to 1.
        assert_eq!(jobs[0].exec.nodes, 1);
    }

    #[test]
    fn io_augmentation_adds_write_phase() {
        let opts = SwfOptions {
            io_fraction: 0.2,
            io_rate_per_node_bps: gibps(1.0),
            ..SwfOptions::default()
        };
        let jobs = parse_swf(SAMPLE, &opts).unwrap();
        // Job 1: 100 s runtime → 80 s compute + 20 s of I/O at 1 GiB/s.
        let spec = &jobs[0].exec;
        assert_eq!(spec.phases.len(), 2);
        assert!((spec.total_write_bytes() - gibps(1.0) * 20.0 * 4.0).abs() < 1.0);
        spec.validate().unwrap();
    }

    #[test]
    fn strict_mode_rejects_invalid_jobs() {
        let opts = SwfOptions {
            skip_invalid: false,
            ..SwfOptions::default()
        };
        let err = parse_swf(SAMPLE, &opts).unwrap_err();
        assert_eq!(err.line, 6); // job 3 (after comments + blank line)
    }

    #[test]
    fn malformed_line_is_an_error() {
        let err = parse_swf("1 2 3", &SwfOptions::default()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("at least 5 fields"));
        let err = parse_swf("a b c d e", &SwfOptions::default()).unwrap_err();
        assert!(err.message.contains("not an integer"));
    }

    #[test]
    fn zero_runtime_jobs_become_one_second_compute() {
        let text = "7 0 0 0 1 -1 -1 1 10 -1 1 1 1 1 1 -1 -1 -1";
        let jobs = parse_swf(text, &SwfOptions::default()).unwrap();
        assert_eq!(jobs.len(), 1);
        jobs[0].exec.validate().unwrap();
    }

    #[test]
    fn comment_only_and_whitespace_inputs_parse_empty() {
        for text in ["", "\n\n", "; header only\n;more\n", "   \n\t\n"] {
            assert_eq!(parse_swf(text, &SwfOptions::default()).unwrap().len(), 0);
        }
        // Indented comments and trailing whitespace are tolerated.
        let jobs = parse_swf(
            "  ; indented comment\n  1 0 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1  \n",
            &SwfOptions::default(),
        )
        .unwrap();
        assert_eq!(jobs.len(), 1);
    }

    #[test]
    fn negative_submit_is_invalid() {
        let text = "1 -5 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1";
        assert!(parse_swf(text, &SwfOptions::default()).unwrap().is_empty());
        let opts = SwfOptions {
            skip_invalid: false,
            ..SwfOptions::default()
        };
        assert_eq!(parse_swf(text, &opts).unwrap_err().line, 1);
    }

    #[test]
    fn requested_time_below_run_time_is_raised_to_run_time() {
        // Requested 5 s but ran 50 s: the limit must cover the run.
        let text = "1 0 0 50 1 -1 -1 1 5 -1 1 1 1 1 1 -1 -1 -1";
        let jobs = parse_swf(text, &SwfOptions::default()).unwrap();
        assert_eq!(jobs[0].limit, SimDuration::from_secs(50));
    }

    #[test]
    fn full_io_fraction_yields_pure_write_job() {
        let opts = SwfOptions {
            io_fraction: 1.0,
            io_rate_per_node_bps: gibps(1.0),
            ..SwfOptions::default()
        };
        let jobs = parse_swf("1 0 0 100 2 -1 -1 2 200 -1 1 1 1 1 1 -1 -1 -1", &opts).unwrap();
        let spec = &jobs[0].exec;
        assert_eq!(spec.phases.len(), 1);
        assert!(matches!(spec.phases[0], Phase::Write { .. }));
        spec.validate().unwrap();
    }

    #[test]
    fn record_round_trips_through_its_own_line() {
        let rec = SwfRecord {
            job_no: 42,
            submit: 17,
            run_time: 300,
            procs: 8,
            requested: 600,
        };
        let jobs = parse_swf(&rec.to_line(), &SwfOptions::default()).unwrap();
        let opts = SwfOptions::default();
        let direct = rec.to_submission(&opts).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, direct.id);
        assert_eq!(jobs[0].name, direct.name);
        assert_eq!(jobs[0].submit, direct.submit);
        assert_eq!(jobs[0].limit, direct.limit);
        assert_eq!(jobs[0].exec.nodes, direct.exec.nodes);
    }

    #[test]
    fn reader_round_trips_against_parse_swf_on_sample() {
        // The streaming reader over the sample trace must produce
        // exactly what the batch parser produces, under every option
        // combination the batch parser accepts cleanly, with LF or CRLF
        // line endings and with or without a final newline.
        let texts = [
            SAMPLE.to_string(),
            SAMPLE.replace('\n', "\r\n"),
            SAMPLE.trim_end().to_string(),
        ];
        for opts in [
            SwfOptions::default(),
            SwfOptions {
                cpus_per_node: 2,
                max_nodes: 3,
                ..SwfOptions::default()
            },
            SwfOptions {
                io_fraction: 0.2,
                io_rate_per_node_bps: gibps(1.0),
                ..SwfOptions::default()
            },
        ] {
            let fields = |jobs: &[JobSubmission]| -> Vec<_> {
                jobs.iter()
                    .map(|j| (j.id, j.name.clone(), j.submit, j.limit, j.exec.clone()))
                    .collect()
            };
            let baseline = fields(&parse_swf(SAMPLE, &opts).unwrap());
            assert_eq!(baseline.len(), 2);
            for text in &texts {
                let batch = parse_swf(text, &opts).unwrap();
                let streamed: Vec<_> =
                    SwfReader::new(std::io::Cursor::new(text.as_str()), opts.clone())
                        .map(|r| r.unwrap())
                        .collect();
                assert_eq!(fields(&streamed), fields(&batch));
                assert_eq!(fields(&batch), baseline);
            }
        }
        // Invalid options stay an error under `skip_malformed`: the
        // reader yields it as its only item, and parse_swf returns it.
        for (opts, _) in bad_opts() {
            let opts = SwfOptions {
                skip_malformed: true,
                ..opts
            };
            let batch_err = parse_swf(SAMPLE, &opts).unwrap_err();
            let items: Vec<_> = SwfReader::new(std::io::Cursor::new(SAMPLE), opts).collect();
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].as_ref().unwrap_err(), &batch_err);
        }
    }

    #[test]
    fn reader_reports_malformed_lines_and_continues_when_skipping() {
        let text = "\
; header
1 0 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1
garbage line
2 5 0 10 x -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1
3 9 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1
";
        let opts = SwfOptions {
            skip_malformed: true,
            ..SwfOptions::default()
        };
        let items: Vec<_> = SwfReader::new(std::io::Cursor::new(text), opts.clone()).collect();
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].as_ref().unwrap().id, JobId(1));
        // Malformed lines carry their 1-based line numbers and do not
        // abort the iterator.
        let e1 = items[1].as_ref().unwrap_err();
        assert_eq!(e1.line, 3);
        assert!(e1.message.contains("at least 5 fields"));
        let e2 = items[2].as_ref().unwrap_err();
        assert_eq!(e2.line, 4);
        assert!(e2.message.contains("field 5 is not an integer"));
        assert_eq!(items[3].as_ref().unwrap().id, JobId(3));
        // parse_swf under the same option silently skips the bad lines.
        let batch = parse_swf(text, &opts).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1].id, JobId(3));
    }

    #[test]
    fn reader_fuses_on_malformed_line_by_default() {
        let text = "bad\n1 0 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1\n";
        let mut reader = SwfReader::new(std::io::Cursor::new(text), SwfOptions::default());
        let first = reader.next().unwrap();
        assert_eq!(first.unwrap_err().line, 1);
        assert!(
            reader.next().is_none(),
            "default mode is fatal, like parse_swf"
        );
        assert!(reader.next().is_none());
    }

    #[test]
    fn reader_strict_invalid_matches_parse_swf() {
        let opts = SwfOptions {
            skip_invalid: false,
            ..SwfOptions::default()
        };
        let batch_err = parse_swf(SAMPLE, &opts).unwrap_err();
        let stream_err = SwfReader::new(std::io::Cursor::new(SAMPLE), opts)
            .find_map(|r| r.err())
            .unwrap();
        assert_eq!(stream_err, batch_err);
    }

    #[test]
    fn reader_reports_io_errors_and_fuses() {
        // Invalid UTF-8 makes read_line fail — the reader surfaces one
        // error (stamped with the line it was reading) and ends.
        let bytes: &[u8] = b"1 0 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1\n\xff\xfe\n";
        let mut reader = SwfReader::new(std::io::Cursor::new(bytes), SwfOptions::default());
        assert_eq!(reader.next().unwrap().unwrap().id, JobId(1));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("read error"));
        assert!(reader.next().is_none());
    }

    #[test]
    fn invalid_records_render_and_are_skipped() {
        let cancelled = SwfRecord {
            job_no: 9,
            submit: 0,
            run_time: -1,
            procs: 4,
            requested: -1,
        };
        assert!(!cancelled.is_valid());
        assert!(cancelled.to_submission(&SwfOptions::default()).is_none());
        assert!(parse_swf(&cancelled.to_line(), &SwfOptions::default())
            .unwrap()
            .is_empty());
    }

    /// Option sets every entry point must reject, with a fragment of
    /// the message each one names.
    fn bad_opts() -> Vec<(SwfOptions, &'static str)> {
        let with = |cpus_per_node, io_fraction| SwfOptions {
            cpus_per_node,
            io_fraction,
            ..SwfOptions::default()
        };
        let io = |io_fraction, io_rate_per_node_bps| SwfOptions {
            io_fraction,
            io_rate_per_node_bps,
            ..SwfOptions::default()
        };
        vec![
            (with(0, 0.0), "cpus_per_node"),
            (with(1, -0.1), "io_fraction"),
            (with(1, 1.5), "io_fraction"),
            (with(1, f64::NAN), "io_fraction"),
            (
                SwfOptions {
                    max_nodes: 0,
                    ..SwfOptions::default()
                },
                "max_nodes",
            ),
            // The default rate, 0: the I/O share would be dropped, and at
            // io_fraction 1 every job would have no phase at all.
            (io(0.2, 0.0), "io_rate_per_node_bps"),
            (io(1.0, 0.0), "io_rate_per_node_bps"),
            (io(0.2, f64::NAN), "io_rate_per_node_bps"),
            (io(0.2, f64::INFINITY), "io_rate_per_node_bps"),
            (io(0.2, -1.0), "io_rate_per_node_bps"),
        ]
    }

    #[test]
    fn parse_swf_rejects_invalid_options() {
        for (opts, what) in bad_opts() {
            let err = parse_swf(SAMPLE, &opts).unwrap_err();
            assert_eq!(err.line, 0, "{opts:?}");
            assert!(err.message.contains(what), "{opts:?}: {err}");
        }
        // The edges: all of the runtime as I/O at a real rate, and no
        // I/O at any rate.
        let edge = SwfOptions {
            io_fraction: 1.0,
            io_rate_per_node_bps: gibps(1.0),
            ..SwfOptions::default()
        };
        let jobs = parse_swf(SAMPLE, &edge).unwrap();
        assert!(jobs.iter().all(|j| j.exec.validate().is_ok()));
        let no_io = SwfOptions {
            io_rate_per_node_bps: f64::NAN,
            ..SwfOptions::default()
        };
        assert!(parse_swf(SAMPLE, &no_io).is_ok());
    }

    /// A source whose every read panics.
    struct NeverRead;

    impl std::io::Read for NeverRead {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            panic!("the source is never read");
        }
    }

    #[test]
    fn reader_yields_invalid_options_once_then_fuses() {
        for (opts, what) in bad_opts() {
            let batch_err = parse_swf(SAMPLE, &opts).unwrap_err();
            let mut reader = SwfReader::new(std::io::BufReader::new(NeverRead), opts);
            let err = reader.next().unwrap().unwrap_err();
            assert!(err.message.contains(what), "{err}");
            assert_eq!(err, batch_err);
            assert!(reader.next().is_none());
        }
    }
}
