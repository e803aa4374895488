//! Reconstruction proptests: redundant layouts survive the loss of any
//! single server byte-exactly, end-to-end through real TCP servers.
//!
//! - Under `XorParity`, for arbitrary stripe widths, brick sizes, and
//!   file lengths (ragged tails, EOF-short stripes) with an overlapping
//!   rewrite thrown in, killing any single data server still reads the
//!   whole file back byte-exact — every lost range XOR-reconstructed
//!   from the surviving peers plus parity.
//! - Under `Replica(k)`, reads agree with the written bytes regardless
//!   of *which* replica ends up serving: each server is killed in turn
//!   (and restarted), and every read round-trips.

use std::time::Duration;

use proptest::prelude::*;

use dpfs::cluster::Testbed;
use dpfs::core::{ClientOptions, Hint, RedundancyPolicy, RetryPolicy};

/// Tight retries: a killed server refuses connections immediately, so two
/// quick attempts suffice before the read falls over to reconstruction.
fn fast_retry() -> ClientOptions {
    ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    }
}

/// Deterministic, zero-free payload byte (zero-free so reconstruction
/// gone wrong can never masquerade as correct zero-fill).
fn pat(i: u64, salt: u64) -> u8 {
    ((i.wrapping_mul(31).wrapping_add(salt)) % 251) as u8 + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// XOR reconstruction is byte-exact for any stripe width, brick size,
    /// file length, and single lost data server.
    #[test]
    fn xor_reconstructs_any_single_lost_server(
        n in 2usize..=5,
        brick in prop_oneof![Just(512u64), Just(1000u64), Just(4096u64)],
        len in 1u64..120_000,
        over_off in 0u64..120_000,
        over_len in 1u64..40_000,
        victim_seed in 0usize..16,
        salt in 0u64..251,
    ) {
        let mut tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(fast_retry());
        let mut f = client
            .create("/xor", &Hint::linear(brick, len).with_redundancy(RedundancyPolicy::XorParity))
            .unwrap();
        let mut model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        f.write_bytes(0, &model.clone()).unwrap();
        // An overlapping rewrite: parity must track the *union* of both
        // writes, not just the last one.
        let off = over_off % len;
        let l = over_len.min(len - off);
        let patch: Vec<u8> = (0..l).map(|i| pat(i, salt + 97)).collect();
        f.write_bytes(off, &patch).unwrap();
        model[off as usize..(off + l) as usize].copy_from_slice(&patch);
        f.sync().unwrap();

        // Lose any one data server (the parity holder is the last one;
        // losing it never touches the read path).
        let victim = victim_seed % (n - 1);
        tb.kill_server(victim);
        let back = f.read_bytes(0, len).unwrap();
        prop_assert_eq!(&back, &model, "xor reconstruction diverged");
        // Rebuilt, and counted against the server that was lost.
        let stats = client.pool().transport_stats(&format!("ion{victim:02}")).unwrap();
        prop_assert!(stats.reconstructs >= 1, "no reconstruction counted: {:?}", stats);
    }

    /// Replica-K reads agree with the written bytes no matter which
    /// replica serves: kill each server in turn and read through it.
    #[test]
    fn replica_reads_agree_regardless_of_serving_copy(
        n in 2usize..=4,
        k_seed in 0usize..8,
        brick in prop_oneof![Just(512u64), Just(4096u64)],
        len in 1u64..80_000,
        salt in 0u64..251,
    ) {
        let k = 2 + k_seed % (n - 1); // 2 <= k <= n
        let mut tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(fast_retry());
        let mut f = client
            .create(
                "/rep",
                &Hint::linear(brick, len).with_redundancy(RedundancyPolicy::Replica(k)),
            )
            .unwrap();
        let model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        f.write_bytes(0, &model.clone()).unwrap();
        f.sync().unwrap();

        for victim in 0..n {
            tb.kill_server(victim);
            let back = f.read_bytes(0, len).unwrap();
            prop_assert_eq!(&back, &model, "read through killed ion{:02} diverged", victim);
            tb.restart_server(victim).unwrap();
        }
    }
}

/// EOF-short stripes: a file whose last stripe row is only partially
/// written still reconstructs, including the ragged tail, because reads
/// of short subfiles zero-fill and parity covers the longest subfile.
#[test]
fn xor_reconstructs_eof_short_stripe() {
    let mut tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client_opts(fast_retry());
    // 10 bricks of 1000 bytes over 3 data servers: the last stripe row is
    // one brick long, so two data subfiles are a brick shorter.
    let len = 9_500u64;
    let mut f = client
        .create(
            "/ragged",
            &Hint::linear(1000, len).with_redundancy(RedundancyPolicy::XorParity),
        )
        .unwrap();
    let model: Vec<u8> = (0..len).map(|i| pat(i, 7)).collect();
    f.write_bytes(0, &model).unwrap();
    f.sync().unwrap();
    // Server 0 holds the longest data subfile (bricks 0, 3, 6, 9): losing
    // it exercises reconstruction past the other subfiles' extents.
    tb.kill_server(0);
    let back = f.read_bytes(0, len).unwrap();
    assert!(back == model, "ragged-tail reconstruction diverged");
}
