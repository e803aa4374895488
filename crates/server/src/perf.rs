//! Storage/network performance model.
//!
//! The paper's evaluation (§8) runs over three classes of real storage:
//!
//! - **class 1** — Linux boxes at Argonne on the SP2's local network
//!   (Fast Ethernet + ATM): the fastest path;
//! - **class 2** — 8 HP workstations on a shared 10 Mbit Ethernet at
//!   Northwestern, reached over a metropolitan network: the slowest;
//! - **class 3** — 8 SUN workstations on a 155 Mbit ATM at Northwestern,
//!   also metro-distant: ≈3× slower per brick than class 1 (§8.2).
//!
//! We don't have a 2001 metro network, so the substitution (DESIGN.md) is a
//! calibrated cost model: each request pays a fixed per-request overhead
//! (connection handling, thread spawn, RTT), a seek per discontiguous range
//! and `bytes / bandwidth`, the last two on a device that serves one request
//! at a time — "the actual I/O has to be sequentialized locally due to the
//! nature of sequential storage device" (§4.2). The server never sleeps it
//! out: it is data, which `dpfs-bench` evaluates over the requests the
//! servers actually received, and which the testbed turns into the greedy
//! striping algorithm's performance numbers. The figure shapes depend only
//! on the ratios between classes and between per-request and per-byte
//! costs, which this preserves; constants are ~100× faster than 2001.

use std::time::Duration;

/// Cost model for one server: what it costs to service a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfModel {
    /// Fixed cost paid once per framed request (network RTT, dispatch,
    /// thread handoff).
    pub request_latency: Duration,
    /// Payload streaming rate in bytes/second (device + network path).
    pub bandwidth: u64,
    /// Fixed cost per discontiguous range within a request (a seek).
    pub seek_latency: Duration,
}

impl PerfModel {
    /// No modelled cost: the only model an I/O server runs under.
    pub const fn unthrottled() -> Self {
        PerfModel {
            request_latency: Duration::ZERO,
            bandwidth: u64::MAX,
            seek_latency: Duration::ZERO,
        }
    }

    /// Service time for a request of `ranges` ranges totalling `bytes`:
    /// the per-request overhead plus the device time.
    pub fn service_time(&self, ranges: usize, bytes: u64) -> Duration {
        self.request_latency + self.device_time(ranges, bytes)
    }

    /// The *device-bound* part of the service time — seeks plus payload
    /// streaming — which one device serves a request at a time ("the
    /// actual I/O has to be sequentialized locally", §4.2). The remaining
    /// `request_latency` models network RTT and dispatch overhead, which
    /// concurrent requests overlap.
    pub fn device_time(&self, ranges: usize, bytes: u64) -> Duration {
        let mut t = self.seek_latency * (ranges as u32);
        if self.bandwidth != u64::MAX && self.bandwidth > 0 {
            let secs = bytes as f64 / self.bandwidth as f64;
            t += Duration::from_secs_f64(secs);
        }
        t
    }
}

/// The three storage classes of the paper's testbed plus the unthrottled
/// control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// Linux @ ANL, local Fast Ethernet + ATM. The fastest class; greedy
    /// striping gives it performance number 1.
    Class1,
    /// HP @ NWU on shared 10 Mbit Ethernet over a metro network. Slowest.
    Class2,
    /// SUN @ NWU on 155 Mbit ATM over a metro network. ≈3× slower per brick
    /// than class 1 (paper §8.2).
    Class3,
    /// No modelled cost (functional tests, the benchmark).
    Unthrottled,
}

impl StorageClass {
    /// The calibrated cost model for this class.
    ///
    /// Calibration: class 1 ≈ 3× faster than class 3 per brick (paper
    /// §8.2); class 2's shared 10 Mbit Ethernet makes it the slowest. The
    /// absolute values are scaled ~100× faster than the 2001 testbed so the
    /// benchmark suite completes in minutes; only ratios matter for the
    /// reproduced figures.
    pub fn model(self) -> PerfModel {
        match self {
            // local LAN: short RTT, fast disk/network path
            StorageClass::Class1 => PerfModel {
                request_latency: Duration::from_micros(300),
                bandwidth: 9_000_000,
                seek_latency: Duration::from_micros(120),
            },
            // metro + shared 10 Mbit Ethernet: long RTT, slow wire
            StorageClass::Class2 => PerfModel {
                request_latency: Duration::from_micros(1800),
                bandwidth: 1_000_000,
                seek_latency: Duration::from_micros(500),
            },
            // metro + 155 Mbit ATM: long RTT, mid wire
            StorageClass::Class3 => PerfModel {
                request_latency: Duration::from_micros(900),
                bandwidth: 3_000_000,
                seek_latency: Duration::from_micros(360),
            },
            StorageClass::Unthrottled => PerfModel::unthrottled(),
        }
    }

    /// Normalized performance number for the greedy striping algorithm
    /// (paper §4.1): "The value for the fastest storage is 1, and an integer
    /// number larger than 1 for others", proportional to per-brick access
    /// time.
    ///
    /// Computed for a representative 64 KiB brick: class 3 comes out ≈3×
    /// class 1 (matching §8.2) and class 2 ≈7×.
    pub fn performance_number(self) -> i64 {
        let brick = 64 * 1024;
        let base = StorageClass::Class1.model().service_time(1, brick);
        let own = self.model().service_time(1, brick);
        if base.is_zero() || self == StorageClass::Unthrottled {
            return 1;
        }
        (own.as_secs_f64() / base.as_secs_f64()).round().max(1.0) as i64
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StorageClass::Class1 => "class1",
            StorageClass::Class2 => "class2",
            StorageClass::Class3 => "class3",
            StorageClass::Unthrottled => "unthrottled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_is_zero_cost() {
        let m = PerfModel::unthrottled();
        assert_eq!(m.service_time(100, 1 << 30), Duration::ZERO);
    }

    #[test]
    fn service_time_scales_with_bytes_and_ranges() {
        let m = StorageClass::Class1.model();
        let small = m.service_time(1, 1024);
        let big = m.service_time(1, 1024 * 1024);
        assert!(big > small);
        let one_range = m.service_time(1, 4096);
        let many_ranges = m.service_time(64, 4096);
        assert!(many_ranges > one_range);
    }

    #[test]
    fn class1_is_about_3x_faster_than_class3_per_brick() {
        // the calibration target from paper §8.2
        let brick = 64 * 1024u64;
        let t1 = StorageClass::Class1.model().service_time(1, brick);
        let t3 = StorageClass::Class3.model().service_time(1, brick);
        let ratio = t3.as_secs_f64() / t1.as_secs_f64();
        assert!(
            (2.5..=3.5).contains(&ratio),
            "class3/class1 per-brick ratio {ratio} outside [2.5, 3.5]"
        );
    }

    #[test]
    fn performance_numbers_match_paper_convention() {
        assert_eq!(StorageClass::Class1.performance_number(), 1);
        assert_eq!(StorageClass::Class3.performance_number(), 3);
        assert!(StorageClass::Class2.performance_number() > 3);
        assert_eq!(StorageClass::Unthrottled.performance_number(), 1);
    }

    #[test]
    fn class_ordering_fast_to_slow() {
        let brick = 64 * 1024u64;
        let t1 = StorageClass::Class1.model().service_time(1, brick);
        let t2 = StorageClass::Class2.model().service_time(1, brick);
        let t3 = StorageClass::Class3.model().service_time(1, brick);
        assert!(t1 < t3, "class1 must beat class3");
        assert!(t3 < t2, "class3 must beat class2 (10Mbit shared)");
    }

    #[test]
    fn per_request_overhead_dominates_small_requests() {
        // This property drives Figure 11/12: linear striping's thousands of
        // tiny requests lose to multidim's few — per-request latency must
        // dwarf per-byte cost at small sizes.
        let m = StorageClass::Class3.model();
        let tiny = m.service_time(1, 64); // 64-byte useful fragment
        let payload_cost = m.service_time(0, 64).saturating_sub(m.request_latency);
        assert!(tiny.as_secs_f64() > 10.0 * payload_cost.as_secs_f64());
    }
}
