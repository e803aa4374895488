//! Fixed-bucket latency histograms.
//!
//! Values (nanoseconds) land in power-of-two buckets: bucket `i` covers
//! `[2^i, 2^(i+1))` ns, with bucket 0 also absorbing zero. 64 buckets span
//! the whole `u64` range, so recording never saturates a counter by value —
//! only the top bucket's *width* saturates (its upper bound is `u64::MAX`),
//! which is the HDR-style trade: constant memory, ~2x relative error, and
//! recording is one atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; bucket `i` covers `[2^i, 2^(i+1))` nanoseconds.
pub const HIST_BUCKETS: usize = 64;

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
fn bucket_hi(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// The bucket a value lands in.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize
    }
}

/// A concurrent latency histogram. Recording is lock-free (one relaxed
/// atomic increment per bucket plus count/sum upkeep); snapshots are
/// monitoring data, not synchronization.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value (nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Plain-data snapshot for reporting.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data snapshot of a [`Histogram`], with percentile estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub counts: [u64; HIST_BUCKETS],
    /// Total recorded values. May exceed `counts.iter().sum()` transiently
    /// when snapshotting a histogram under concurrent writes.
    pub count: u64,
    /// Sum of recorded values (for the mean).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Estimate the `p`-th percentile (`p` in `[0, 100]`) in nanoseconds.
    ///
    /// Linear interpolation within the winning bucket; an empty histogram
    /// reports 0, and the saturating top bucket reports its lower bound
    /// (its upper bound, `u64::MAX`, would be meaningless to interpolate
    /// toward). Counts that arrived over the wire may sum past `u64::MAX`;
    /// the running total saturates rather than overflows.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().clamp(1.0, total as f64) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum.saturating_add(c) >= rank {
                let lo = bucket_lo(i);
                if i >= HIST_BUCKETS - 1 {
                    return lo;
                }
                let hi = bucket_hi(i);
                let frac = (rank - cum) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            cum = cum.saturating_add(c);
        }
        bucket_lo(HIST_BUCKETS - 1)
    }

    /// Median estimate (ns).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate (ns).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate (ns).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Mean of the recorded values (ns); 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Merge another snapshot into this one (bench aggregation). Saturating,
    /// like [`HistSnapshot::percentile`]: either side may be a peer's.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Append the wire encoding: `count`, `sum`, then the 64 bucket counts,
    /// all little-endian u64.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        for c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Number of bytes [`HistSnapshot::encode_into`] appends.
    pub const ENCODED_LEN: usize = 8 * (2 + HIST_BUCKETS);

    /// Decode a snapshot from the front of `buf`, returning it and the
    /// bytes consumed.
    pub fn decode_from(buf: &[u8]) -> Option<(HistSnapshot, usize)> {
        if buf.len() < Self::ENCODED_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        let mut snap = HistSnapshot {
            count: u64_at(0),
            sum: u64_at(1),
            ..HistSnapshot::default()
        };
        for (i, slot) in snap.counts.iter_mut().enumerate() {
            *slot = u64_at(2 + i);
        }
        Some((snap, Self::ENCODED_LEN))
    }

    /// `p50/p95/p99` rendered in microseconds, for compact tables.
    /// `-/-/-` when nothing has been recorded.
    pub fn summary_us(&self) -> String {
        if self.count == 0 {
            return "-/-/-".to_string();
        }
        format!(
            "{}/{}/{}",
            self.p50() / 1_000,
            self.p95() / 1_000,
            self.p99() / 1_000
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(0), 2);
        assert_eq!(bucket_lo(10), 1024);
        assert_eq!(bucket_hi(10), 2048);
        assert_eq!(bucket_hi(63), u64::MAX);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn single_sample_lands_in_its_bucket() {
        let h = Histogram::new();
        h.record(1500); // bucket 10: [1024, 2048)
        let s = h.snapshot();
        for p in [0.0, 50.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!(
                (1024..=2048).contains(&v),
                "p{p} = {v} outside sample's bucket"
            );
        }
        assert_eq!(s.mean(), 1500);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn saturating_max_bucket_reports_lower_bound() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 5);
        let s = h.snapshot();
        assert_eq!(s.p50(), 1u64 << 63);
        assert_eq!(s.p99(), 1u64 << 63);
    }

    #[test]
    fn percentiles_order_and_interpolate() {
        let h = Histogram::new();
        // 100 values spread over two well-separated buckets
        for _ in 0..90 {
            h.record(1_000); // ~1µs
        }
        for _ in 0..10 {
            h.record(1_000_000); // ~1ms
        }
        let s = h.snapshot();
        assert!(
            s.p50() < 2_048,
            "p50 {} must sit in the 1µs bucket",
            s.p50()
        );
        assert!(
            s.p95() >= 512 * 1024,
            "p95 {} must sit in the 1ms bucket",
            s.p95()
        );
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    h.record(t * 1_000 + i);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        assert_eq!(s.counts.iter().sum::<u64>(), threads * per);
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = Histogram::new();
        for v in [0u64, 1, 77, 4096, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        assert_eq!(buf.len(), HistSnapshot::ENCODED_LEN);
        let (back, used) = HistSnapshot::decode_from(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, s);
        assert!(HistSnapshot::decode_from(&buf[..buf.len() - 1]).is_none());
    }

    #[test]
    fn empty_percentiles_zero_at_every_rank() {
        let s = HistSnapshot::default();
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), 0, "p{p} of empty histogram");
        }
        assert_eq!(s.summary_us(), "-/-/-");
    }

    #[test]
    fn single_bucket_interpolation_is_monotonic_within_bounds() {
        // 100 samples all in bucket 10 ([1024, 2048)): percentiles must
        // interpolate across the bucket, never leave it, and never go
        // backwards as p rises.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_500);
        }
        let s = h.snapshot();
        let mut prev = 0u64;
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!((1024..=2048).contains(&v), "p{p} = {v} escaped the bucket");
            assert!(v >= prev, "p{p} = {v} went backwards from {prev}");
            prev = v;
        }
        // Low ranks sit near the bucket floor, high ranks near the top.
        assert!(s.percentile(1.0) < s.percentile(100.0));
    }

    #[test]
    fn top_bucket_saturates_to_lower_bound_even_mixed() {
        // Fast ops plus a few that land in the saturating top bucket:
        // tail percentiles report the top bucket's *lower* bound rather
        // than interpolating toward u64::MAX.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(u64::MAX - 1);
        }
        let s = h.snapshot();
        assert!(s.p50() < 2_048);
        assert_eq!(s.p95(), 1u64 << 63);
        assert_eq!(s.p99(), 1u64 << 63);
        assert_eq!(s.percentile(100.0), 1u64 << 63);
    }

    #[test]
    fn merge_of_disjoint_buckets_keeps_both_populations() {
        // a populates only low buckets, b only high ones; the merge must
        // hold both (disjoint) populations and pull the percentiles apart.
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..50 {
            a.record(100); // bucket 6
        }
        for _ in 0..50 {
            b.record(1 << 30); // bucket 30
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert!(sa
            .counts
            .iter()
            .zip(sb.counts.iter())
            .all(|(&x, &y)| x == 0 || y == 0));
        let mut m = sa;
        m.merge(&sb);
        assert_eq!(m.count, 100);
        assert_eq!(m.counts[6], 50);
        assert_eq!(m.counts[30], 50);
        assert!(m.p50() < 2_048, "median stays in the low population");
        assert!(m.p95() >= 1 << 30, "tail comes from the high population");
        assert_eq!(m.sum, sa.sum + sb.sum);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(100);
        b.record(100);
        b.record(1 << 20);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.counts.iter().sum::<u64>(), 3);
    }
}
