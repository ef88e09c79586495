//! Write streams: the unit of I/O in the fluid model.

/// Identifier of an active write stream, unique for the lifetime of a
/// [`crate::LustreSim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u64);

/// Opaque owner tag attached to a stream. The cluster simulator stores the
/// job identifier here so per-job throughput can be aggregated without the
/// file-system model knowing about jobs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamTag(pub u64);

/// Internal state of an active stream.
#[derive(Clone, Debug)]
pub struct StreamState {
    /// Owner tag (job id).
    pub tag: StreamTag,
    /// Index of the compute node issuing the transfer.
    pub node: usize,
    /// Index of the OST this stream targets (fixed for the stream's
    /// lifetime, like a file on a single volume).
    pub ost: usize,
    /// Bytes still to be transferred.
    pub remaining_bytes: f64,
    /// Current allocated rate, bytes/s (recomputed on every change event).
    pub rate_bps: f64,
    /// Release threshold: once `remaining_bytes` falls to this level the
    /// stream emits a *release notification* (the issuing thread stops
    /// waiting — e.g. the tail fits in a burst buffer) while the stream
    /// itself keeps draining to completion. 0 means no early release.
    pub notify_remaining: f64,
    /// Whether the release notification has been emitted.
    pub notified: bool,
}
