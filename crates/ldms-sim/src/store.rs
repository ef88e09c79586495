//! SOS-like metric store.
//!
//! SOS (Scalable Object Store) keeps LDMS samples as time-indexed records
//! in schema-named containers. The simulation equivalent: a
//! [`MetricStore`] maps container names to [`Container`]s; each container
//! is an append-only, time-ordered vector of [`Record`]s (timestamp,
//! 64-bit key, value) with binary-search range queries and windowed
//! aggregation. Keys identify the sampled entity (job id, node index);
//! containers that sample a single global quantity use key 0.
//!
//! ## Secondary index
//!
//! Per-key queries (`mean_for_key`, `integrate_for_key`, ...) used to
//! filter-scan the whole time window — O(window × keys) per analytics
//! call, which dominated once the fluid solver got cheap. The container
//! now maintains a secondary index on append: a sorted key directory plus
//! one run of record indices per key. A per-key query binary-searches the
//! directory, then binary-searches that key's run by timestamp, touching
//! only the matching records: O(log n + hits). The old filter-scan
//! implementations survive as `#[cfg(test)]` oracles and the property
//! suite pins the indexed paths to them (same pairing as
//! `max_min_fair`/`WarmSolver` in the Lustre model).
//!
//! ## Retention
//!
//! Containers are append-only and by default unbounded — fine for fig3,
//! a problem for campaign-length runs. [`Container::set_retention`]
//! opts a container into eviction: whenever an append moves `now` past
//! `horizon`, records older than the last complete `bucket_ms` boundary
//! are downsampled (per-key bucket means) into an archive container and
//! dropped from the live set. Queries inside the horizon are exact;
//! older history is available at bucket resolution via
//! [`Container::archive`]. Retention is off by default, so experiment
//! outputs are unchanged unless a caller opts in.

use iosched_simkit::json::{self, FromJson, ToJson, Value};
use iosched_simkit::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One stored sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    pub time: SimTime,
    /// Entity key (job id / node index / 0 for global metrics).
    pub key: u64,
    pub value: f64,
}
iosched_simkit::impl_json_struct!(Record { time, key, value });

/// Eviction policy of one container (see module docs).
#[derive(Clone, Copy, Debug)]
struct Retention {
    horizon: SimDuration,
    bucket_ms: u64,
}

/// A time-ordered, append-only record container with a per-key secondary
/// index maintained on append.
#[derive(Clone, Debug, Default)]
pub struct Container {
    records: Vec<Record>,
    /// Sorted directory of distinct keys; `runs[i]` belongs to `keys[i]`.
    keys: Vec<u64>,
    /// Per-key runs of indices into `records`, ascending (= time order).
    runs: Vec<Vec<u32>>,
    retention: Option<Retention>,
    archive: Option<Box<Container>>,
}

// The index is derived state: serialize the records only and rebuild the
// index when loading (`impl_json_struct!` cannot express that, so these
// are hand-written; the wire format matches the old derive).
impl ToJson for Container {
    fn to_json(&self) -> Value {
        Value::Object(vec![("records".to_string(), self.records.to_json())])
    }
}

impl FromJson for Container {
    fn from_json(v: &Value) -> Result<Self, String> {
        let records: Vec<Record> = json::field(v, "records")?;
        let mut c = Container::default();
        for (i, r) in records.iter().enumerate() {
            if i > 0 && r.time < records[i - 1].time {
                return Err("container records out of time order".to_string());
            }
            c.append(*r);
        }
        Ok(c)
    }
}

impl Container {
    /// Append a record. Timestamps must be non-decreasing (LDMS samples
    /// arrive in order).
    pub fn append(&mut self, rec: Record) {
        if let Some(last) = self.records.last() {
            assert!(
                rec.time >= last.time,
                "records must be appended in time order"
            );
        }
        let idx = u32::try_from(self.records.len()).expect("container exceeds u32 records");
        self.index_record(idx, rec.key);
        self.records.push(rec);
        if self.retention.is_some() {
            self.maybe_evict(rec.time);
        }
    }

    /// Add one record index to the key directory.
    fn index_record(&mut self, idx: u32, key: u64) {
        let slot = match self.keys.binary_search(&key) {
            Ok(s) => s,
            Err(s) => {
                self.keys.insert(s, key);
                self.runs.insert(s, Vec::new());
                s
            }
        };
        self.runs[slot].push(idx);
    }

    /// Rebuild the key directory from scratch (after eviction), reusing
    /// the old run allocations.
    fn rebuild_index(&mut self) {
        let mut spare = std::mem::take(&mut self.runs);
        spare.iter_mut().for_each(Vec::clear);
        self.keys.clear();
        for i in 0..self.records.len() {
            let key = self.records[i].key;
            let slot = match self.keys.binary_search(&key) {
                Ok(s) => s,
                Err(s) => {
                    self.keys.insert(s, key);
                    self.runs.insert(s, spare.pop().unwrap_or_default());
                    s
                }
            };
            self.runs[slot].push(i as u32);
        }
    }

    /// Number of live records (excludes evicted history).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the container holds no live records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records with `from ≤ time < to`, in time order.
    pub fn range(&self, from: SimTime, to: SimTime) -> &[Record] {
        let lo = self.records.partition_point(|r| r.time < from);
        let hi = self.records.partition_point(|r| r.time < to);
        &self.records[lo..hi]
    }

    /// This key's record indices with `from ≤ time < to` (empty slice for
    /// an absent key).
    fn run_range(&self, key: u64, from: SimTime, to: SimTime) -> &[u32] {
        let Ok(slot) = self.keys.binary_search(&key) else {
            return &[];
        };
        let run = &self.runs[slot];
        let lo = run.partition_point(|&i| self.records[i as usize].time < from);
        let hi = run.partition_point(|&i| self.records[i as usize].time < to);
        &run[lo..hi]
    }

    /// Records for one key within `[from, to)`, in time order.
    pub fn range_for_key(
        &self,
        key: u64,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &Record> {
        self.run_range(key, from, to)
            .iter()
            .map(move |&i| &self.records[i as usize])
    }

    /// Mean value over `[from, to)` for a key; `None` when no samples.
    pub fn mean_for_key(&self, key: u64, from: SimTime, to: SimTime) -> Option<f64> {
        let run = self.run_range(key, from, to);
        if run.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        for &i in run {
            sum += self.records[i as usize].value;
        }
        Some(sum / run.len() as f64)
    }

    /// Riemann-sum integral of a key's sampled rate over `[from, to)`:
    /// each sample's value is held until the next sample of that key
    /// (or `to`). Used to turn sampled throughput into bytes.
    pub fn integrate_for_key(&self, key: u64, from: SimTime, to: SimTime) -> f64 {
        let mut acc = 0.0;
        let mut prev: Option<(SimTime, f64)> = None;
        for r in self.range_for_key(key, from, to) {
            if let Some((pt, pv)) = prev {
                acc += pv * (r.time.saturating_since(pt)).as_secs_f64();
            }
            prev = Some((r.time, r.value));
        }
        if let Some((pt, pv)) = prev {
            acc += pv * (to.saturating_since(pt)).as_secs_f64();
        }
        acc
    }

    /// The latest record at or before `t` for a key.
    pub fn latest_for_key(&self, key: u64, t: SimTime) -> Option<&Record> {
        let slot = self.keys.binary_search(&key).ok()?;
        let run = &self.runs[slot];
        let hi = run.partition_point(|&i| self.records[i as usize].time <= t);
        if hi == 0 {
            None
        } else {
            Some(&self.records[run[hi - 1] as usize])
        }
    }

    /// Downsample one key's series over `[from, to)` into buckets of
    /// `bucket_ms` milliseconds, averaging the samples in each bucket
    /// (empty buckets yield `None`). This is the long-term-storage
    /// compaction SOS deployments run to keep year-long archives
    /// queryable.
    pub fn downsample_for_key(
        &self,
        key: u64,
        from: SimTime,
        to: SimTime,
        bucket_ms: u64,
    ) -> Vec<(SimTime, Option<f64>)> {
        assert!(bucket_ms > 0, "bucket size must be positive");
        let mut out = Vec::new();
        let mut bucket_start = from;
        while bucket_start < to {
            let bucket_end = SimTime::from_millis(bucket_start.as_millis() + bucket_ms).min(to);
            out.push((
                bucket_start,
                self.mean_for_key(key, bucket_start, bucket_end),
            ));
            bucket_start = bucket_end;
        }
        out
    }

    /// Distinct keys present in `[from, to)` (e.g. the jobs that did I/O
    /// in a window), ascending.
    pub fn keys_in_range(&self, from: SimTime, to: SimTime) -> Vec<u64> {
        let mut keys = Vec::new();
        for (slot, &key) in self.keys.iter().enumerate() {
            let run = &self.runs[slot];
            let lo = run.partition_point(|&i| self.records[i as usize].time < from);
            if lo < run.len() && self.records[run[lo] as usize].time < to {
                keys.push(key);
            }
        }
        keys
    }

    /// Opt into retention: keep `horizon` of exact history; on append,
    /// evict anything older than the last complete `bucket_ms` boundary
    /// into the archive (per-key bucket means).
    pub fn set_retention(&mut self, horizon: SimDuration, bucket_ms: u64) {
        assert!(bucket_ms > 0, "bucket size must be positive");
        self.retention = Some(Retention { horizon, bucket_ms });
    }

    /// Downsampled history evicted by retention (`None` until the first
    /// eviction).
    pub fn archive(&self) -> Option<&Container> {
        self.archive.as_deref()
    }

    /// Evict-and-downsample everything older than the last complete
    /// bucket before `now - horizon` — but only once the evictable
    /// prefix has grown to a quarter of the live set. An eviction costs
    /// O(live) (front drain plus index rebuild); triggering it on every
    /// bucket boundary made each sample pay O(live / bucket) — the
    /// million-job replay's sampling hotspot. Deferring until the prefix
    /// is a constant fraction amortises eviction to O(1) per append,
    /// keeps the live set within 4/3 of the horizon's record count, and
    /// changes nothing observable: expired records linger a little
    /// longer, every time-windowed query still sees the exact samples
    /// inside the horizon, and the archive receives the identical bucket
    /// means (just flushed in larger batches).
    fn maybe_evict(&mut self, now: SimTime) {
        let Some(pol) = self.retention else { return };
        let cutoff_ms = now.as_millis().saturating_sub(pol.horizon.as_millis());
        let aligned = SimTime::from_millis(cutoff_ms - cutoff_ms % pol.bucket_ms);
        let cut = self.records.partition_point(|r| r.time < aligned);
        if cut == 0 || cut * 4 < self.records.len() {
            return;
        }
        // Bucket the evicted prefix: records are time-ordered, so walk it
        // once, flushing per-key means at each bucket boundary.
        let archive = self.archive.get_or_insert_with(Box::default);
        let mut bucket: Option<u64> = None; // current bucket start (ms)
        let mut acc: BTreeMap<u64, (f64, u32)> = BTreeMap::new();
        let flush = |start_ms: u64, acc: &mut BTreeMap<u64, (f64, u32)>, ar: &mut Container| {
            for (&key, &(sum, n)) in acc.iter() {
                ar.append(Record {
                    time: SimTime::from_millis(start_ms),
                    key,
                    value: sum / n as f64,
                });
            }
            acc.clear();
        };
        for r in &self.records[..cut] {
            let b = r.time.as_millis() - r.time.as_millis() % pol.bucket_ms;
            if bucket != Some(b) {
                if let Some(prev) = bucket {
                    flush(prev, &mut acc, archive);
                }
                bucket = Some(b);
            }
            let e = acc.entry(r.key).or_insert((0.0, 0));
            e.0 += r.value;
            e.1 += 1;
        }
        if let Some(prev) = bucket {
            flush(prev, &mut acc, archive);
        }
        self.records.drain(..cut);
        self.rebuild_index();
    }

    // ---- naive filter-scan oracles (pre-index implementations) ----

    /// Oracle: `range_for_key` by filtering the time window.
    #[cfg(test)]
    fn naive_range_for_key(
        &self,
        key: u64,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &Record> {
        self.range(from, to).iter().filter(move |r| r.key == key)
    }

    /// Oracle: `mean_for_key` via the filter scan.
    #[cfg(test)]
    fn naive_mean_for_key(&self, key: u64, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in self.naive_range_for_key(key, from, to) {
            sum += r.value;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Oracle: `integrate_for_key` via the filter scan.
    #[cfg(test)]
    fn naive_integrate_for_key(&self, key: u64, from: SimTime, to: SimTime) -> f64 {
        let mut acc = 0.0;
        let mut prev: Option<(SimTime, f64)> = None;
        for r in self.naive_range_for_key(key, from, to) {
            if let Some((pt, pv)) = prev {
                acc += pv * (r.time.saturating_since(pt)).as_secs_f64();
            }
            prev = Some((r.time, r.value));
        }
        if let Some((pt, pv)) = prev {
            acc += pv * (to.saturating_since(pt)).as_secs_f64();
        }
        acc
    }

    /// Oracle: `latest_for_key` via a reverse scan.
    #[cfg(test)]
    fn naive_latest_for_key(&self, key: u64, t: SimTime) -> Option<&Record> {
        let hi = self.records.partition_point(|r| r.time <= t);
        self.records[..hi].iter().rev().find(|r| r.key == key)
    }

    /// Oracle: `keys_in_range` via collect-sort-dedup.
    #[cfg(test)]
    fn naive_keys_in_range(&self, from: SimTime, to: SimTime) -> Vec<u64> {
        let mut keys: Vec<u64> = self.range(from, to).iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Named containers, one per metric schema.
#[derive(Clone, Debug, Default)]
pub struct MetricStore {
    containers: BTreeMap<String, Container>,
}
iosched_simkit::impl_json_struct!(MetricStore { containers });

/// Schema name for aggregate file-system throughput samples (key 0,
/// value = bytes/s).
pub const SCHEMA_FS_TOTAL: &str = "lustre_fs_total";
/// Schema name for per-job throughput samples (key = job id,
/// value = bytes/s).
pub const SCHEMA_JOB_IO: &str = "lustre_job_io";
/// Schema name for allocated-node-count samples (key 0, value = nodes).
pub const SCHEMA_NODES_BUSY: &str = "nodes_busy";

impl MetricStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or lazily create) a container. Looks up with `&str` first so
    /// the steady-state path (container exists) never allocates; the key
    /// `String` is built only on first insert.
    pub fn container_mut(&mut self, schema: &str) -> &mut Container {
        if !self.containers.contains_key(schema) {
            self.containers
                .insert(schema.to_string(), Container::default());
        }
        self.containers
            .get_mut(schema)
            .expect("container just ensured")
    }

    /// Read access to a container; `None` if nothing was ever recorded.
    pub fn container(&self, schema: &str) -> Option<&Container> {
        self.containers.get(schema)
    }

    /// Convenience: append to a named container.
    pub fn append(&mut self, schema: &str, rec: Record) {
        self.container_mut(schema).append(rec);
    }

    /// Names of all containers.
    pub fn schemas(&self) -> impl Iterator<Item = &str> {
        self.containers.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, prop_assert_eq, props};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rec(ts: u64, key: u64, value: f64) -> Record {
        Record {
            time: t(ts),
            key,
            value,
        }
    }

    #[test]
    fn range_queries() {
        let mut c = Container::default();
        for i in 0..10 {
            c.append(rec(i, 0, i as f64));
        }
        assert_eq!(c.len(), 10);
        let r = c.range(t(3), t(6));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].value, 3.0);
        assert_eq!(c.range(t(20), t(30)).len(), 0);
        assert_eq!(c.range(t(5), t(5)).len(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_append_panics() {
        let mut c = Container::default();
        c.append(rec(5, 0, 1.0));
        c.append(rec(3, 0, 1.0));
    }

    #[test]
    fn per_key_queries() {
        let mut c = Container::default();
        c.append(rec(0, 1, 10.0));
        c.append(rec(0, 2, 20.0));
        c.append(rec(1, 1, 30.0));
        c.append(rec(1, 2, 40.0));
        assert_eq!(c.range_for_key(1, t(0), t(2)).count(), 2);
        assert_eq!(c.mean_for_key(1, t(0), t(2)), Some(20.0));
        assert_eq!(c.mean_for_key(9, t(0), t(2)), None);
        assert_eq!(c.latest_for_key(2, t(0)).unwrap().value, 20.0);
        assert_eq!(c.latest_for_key(2, t(5)).unwrap().value, 40.0);
        assert!(c.latest_for_key(9, t(5)).is_none());
    }

    #[test]
    fn integration_holds_samples_until_next() {
        let mut c = Container::default();
        // Rate 10 B/s during [0, 2), then 20 B/s during [2, 5).
        c.append(rec(0, 7, 10.0));
        c.append(rec(2, 7, 20.0));
        let bytes = c.integrate_for_key(7, t(0), t(5));
        assert!((bytes - (10.0 * 2.0 + 20.0 * 3.0)).abs() < 1e-9);
        // Empty window.
        assert_eq!(c.integrate_for_key(7, t(10), t(20)), 0.0);
    }

    #[test]
    fn downsampling_buckets_and_averages() {
        let mut c = Container::default();
        for i in 0..10 {
            c.append(rec(i, 1, i as f64));
        }
        // 4-second buckets over [0, 10): means of {0..3}, {4..7}, {8, 9}.
        let ds = c.downsample_for_key(1, t(0), t(10), 4000);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].1, Some(1.5));
        assert_eq!(ds[1].1, Some(5.5));
        assert_eq!(ds[2].1, Some(8.5));
        // A key with no samples produces empty buckets.
        let ds = c.downsample_for_key(9, t(0), t(8), 4000);
        assert!(ds.iter().all(|(_, v)| v.is_none()));
    }

    #[test]
    fn keys_in_range_deduplicates() {
        let mut c = Container::default();
        c.append(rec(0, 5, 1.0));
        c.append(rec(1, 3, 1.0));
        c.append(rec(2, 5, 1.0));
        assert_eq!(c.keys_in_range(t(0), t(10)), vec![3, 5]);
        assert_eq!(c.keys_in_range(t(1), t(2)), vec![3]);
        assert!(c.keys_in_range(t(5), t(9)).is_empty());
    }

    #[test]
    fn store_routes_schemas() {
        let mut s = MetricStore::new();
        s.append(SCHEMA_FS_TOTAL, rec(0, 0, 5.0));
        s.append(SCHEMA_JOB_IO, rec(0, 42, 1.0));
        assert_eq!(s.container(SCHEMA_FS_TOTAL).unwrap().len(), 1);
        assert_eq!(s.container(SCHEMA_JOB_IO).unwrap().len(), 1);
        assert!(s.container("absent").is_none());
        let names: Vec<&str> = s.schemas().collect();
        assert_eq!(names, vec![SCHEMA_FS_TOTAL, SCHEMA_JOB_IO]);
    }

    #[test]
    fn json_roundtrip_rebuilds_index() {
        let mut c = Container::default();
        c.append(rec(0, 3, 1.0));
        c.append(rec(1, 5, 2.0));
        c.append(rec(2, 3, 3.0));
        let text = c.to_json().to_json_string();
        let back: Container = json::from_str(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.mean_for_key(3, t(0), t(10)), Some(2.0));
        assert_eq!(back.keys_in_range(t(0), t(10)), vec![3, 5]);
    }

    #[test]
    fn retention_evicts_into_bucketed_archive() {
        let mut c = Container::default();
        // Keep 10 s of exact history, archive in 5 s buckets.
        c.set_retention(SimDuration::from_secs(10), 5_000);
        for i in 0..30 {
            c.append(rec(i, 1, i as f64));
            c.append(rec(i, 2, 2.0 * i as f64));
        }
        // now = 29 s → cutoff 19 s → aligned boundary 15 s: the live set
        // starts at 15 s, everything older is archived.
        assert_eq!(c.range(t(0), t(40))[0].time, t(15));
        assert_eq!(c.len(), 2 * 15);
        // Live-window queries stay exact.
        assert_eq!(c.mean_for_key(1, t(20), t(25)), Some(22.0));
        // Archive holds per-key bucket means: bucket [0,5) of key 1 is
        // mean(0..=4) = 2, of key 2 is 4.
        let ar = c.archive().expect("archive exists after eviction");
        assert_eq!(ar.mean_for_key(1, t(0), t(5)), Some(2.0));
        assert_eq!(ar.mean_for_key(2, t(0), t(5)), Some(4.0));
        // Three complete buckets ([0,5), [5,10), [10,15)) × two keys.
        assert_eq!(ar.len(), 6);
        // The bound holds as the run continues.
        for i in 30..200 {
            c.append(rec(i, 1, 0.0));
            c.append(rec(i, 2, 0.0));
        }
        assert!(c.len() <= 2 * 15 + 2 * 5, "live set stays bounded");
    }

    #[test]
    fn retention_disabled_keeps_everything() {
        let mut c = Container::default();
        for i in 0..100 {
            c.append(rec(i, 0, 1.0));
        }
        assert_eq!(c.len(), 100);
        assert!(c.archive().is_none());
    }

    props! {
        #![cases(96)]

        /// The indexed per-key queries agree exactly with the naive
        /// filter-scan oracles on arbitrary append sequences, including
        /// duplicate timestamps and keys absent from the container.
        fn indexed_queries_match_naive_oracles(
            steps in prop::vec((0u64..3, 0u64..6, -8.0f64..8.0), 0..120),
            from_s in 0u64..40,
            len_s in 0u64..40,
            key in 0u64..9,
        ) {
            let mut c = Container::default();
            let mut now_ms = 0u64;
            for &(dt, key, value) in &steps {
                now_ms += dt * 500; // dt == 0 → duplicate timestamps
                c.append(Record {
                    time: SimTime::from_millis(now_ms),
                    key,
                    value,
                });
            }
            let from = t(from_s);
            let to = t(from_s + len_s);
            prop_assert_eq!(
                c.mean_for_key(key, from, to),
                c.naive_mean_for_key(key, from, to)
            );
            // Same summation order → bitwise-equal floats.
            prop_assert_eq!(
                c.integrate_for_key(key, from, to),
                c.naive_integrate_for_key(key, from, to)
            );
            prop_assert_eq!(
                c.latest_for_key(key, to),
                c.naive_latest_for_key(key, to)
            );
            prop_assert_eq!(c.keys_in_range(from, to), c.naive_keys_in_range(from, to));
            let indexed: Vec<Record> = c.range_for_key(key, from, to).copied().collect();
            let naive: Vec<Record> = c.naive_range_for_key(key, from, to).copied().collect();
            prop_assert_eq!(indexed, naive);
        }

        /// Eviction never changes what queries inside the retention
        /// horizon see.
        fn retention_preserves_live_window_queries(
            steps in prop::vec((0u64..3, 0u64..4, -8.0f64..8.0), 1..120),
            key in 0u64..4,
        ) {
            let mut kept = Container::default();
            let mut evicting = Container::default();
            evicting.set_retention(SimDuration::from_secs(20), 4_000);
            let mut now_ms = 0u64;
            for &(dt, key, value) in &steps {
                now_ms += dt * 500;
                let r = Record { time: SimTime::from_millis(now_ms), key, value };
                kept.append(r);
                evicting.append(r);
            }
            let now = SimTime::from_millis(now_ms);
            // Query a window strictly inside the horizon: eviction only
            // drops records older than the aligned cutoff ≤ now − 20 s.
            let from = SimTime::from_millis(now_ms.saturating_sub(15_000));
            prop_assert_eq!(
                evicting.mean_for_key(key, from, now),
                kept.mean_for_key(key, from, now)
            );
            prop_assert_eq!(
                evicting.latest_for_key(key, now),
                kept.latest_for_key(key, now)
            );
            prop_assert!(evicting.len() <= kept.len());
        }
    }
}
