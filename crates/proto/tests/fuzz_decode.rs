//! Adversarial decode tests: arbitrary bytes must never panic the codec or
//! the framing layer — they either parse or error.

use bytes::Bytes;
use dpfs_meta::{Distribution, FileAttrRow};
use dpfs_proto::{frame, AccessPattern, MetaOp, MetaResult, Request, Response};
use proptest::prelude::*;

/// Sorted, disjoint, non-empty `(offset, len)` ranges — the planner's
/// contract for [`AccessPattern::from_runs`].
fn sorted_ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4096, 1u64..512), 1..32).prop_map(|gaps| {
        let mut at = 0u64;
        gaps.into_iter()
            .map(|(gap, len)| {
                let off = at + gap;
                at = off + len;
                (off, len)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Request::decode(Bytes::from(data));
    }

    #[test]
    fn response_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Response::decode(Bytes::from(data));
    }

    #[test]
    fn frame_reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut cursor = std::io::Cursor::new(&data);
        // read frames until error/EOF; must terminate and never panic
        for _ in 0..8 {
            if frame::read_frame_any(&mut cursor).is_err() {
                break;
            }
        }
    }

    /// Mutating a valid encoded request must never panic the decoder.
    #[test]
    fn mutated_valid_request_never_panics(
        flips in proptest::collection::vec((0usize..256, any::<u8>()), 1..8),
        subfile in "[a-z/]{1,20}",
        off in any::<u64>(),
        len in 0u64..1024,
    ) {
        let req = Request::Read { subfile, ranges: vec![(off, len)] };
        let mut enc = req.encode().to_vec();
        for (pos, x) in flips {
            if !enc.is_empty() {
                let i = pos % enc.len();
                enc[i] ^= x;
            }
        }
        let _ = Request::decode(Bytes::from(enc));
    }

    /// Valid encodings always round-trip (encode is injective over decode).
    #[test]
    fn arbitrary_write_requests_round_trip(
        subfile in "[a-zA-Z0-9/_.%-]{0,64}",
        ranges in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..8,
        ),
    ) {
        let req = Request::Write {
            subfile,
            ranges: ranges
                .into_iter()
                .map(|(off, data)| (off as u64, Bytes::from(data)))
                .collect(),
        };
        let back = Request::decode(req.encode()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// List-I/O requests round-trip for any planner-shaped range list, and
    /// the decoded pattern expands to exactly the input ranges.
    #[test]
    fn list_requests_round_trip(
        subfile in "[a-zA-Z0-9/_.%-]{1,64}",
        ranges in sorted_ranges(),
    ) {
        let pattern = AccessPattern::from_runs(&ranges);
        prop_assert_eq!(&pattern.expand(), &ranges);

        let read = Request::ReadList { subfile: subfile.clone(), pattern: pattern.clone() };
        let back = Request::decode(read.encode()).unwrap();
        prop_assert_eq!(&back, &read);

        let payload = Bytes::from(vec![0xabu8; pattern.total_bytes() as usize]);
        let write = Request::WriteList { subfile, pattern, payload };
        let back = Request::decode(write.encode()).unwrap();
        prop_assert_eq!(&back, &write);

        // encode_parts concatenates to the contiguous encoding (the
        // vectored framing invariant).
        let parts = write.encode_parts();
        let mut glued = Vec::new();
        for p in &parts {
            glued.extend_from_slice(p);
        }
        prop_assert_eq!(Bytes::from(glued), write.encode());
    }

    /// Truncating or bit-flipping a valid list request must never panic
    /// the decoder — it parses or errors.
    #[test]
    fn mutated_list_requests_never_panic(
        ranges in sorted_ranges(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let pattern = AccessPattern::from_runs(&ranges);
        let payload = Bytes::from(vec![7u8; pattern.total_bytes() as usize]);
        let req = Request::WriteList { subfile: "/f".into(), pattern, payload };
        let enc = req.encode().to_vec();

        let truncated = &enc[..cut % enc.len()];
        let _ = Request::decode(Bytes::copy_from_slice(truncated));

        let mut flipped = enc.clone();
        for (pos, x) in flips {
            let i = pos % flipped.len();
            flipped[i] ^= x;
        }
        let _ = Request::decode(Bytes::from(flipped));
    }

    /// `Rename` round-trips for any pair of names, every strict prefix of
    /// its encoding is refused (both strings are length-prefixed), trailing
    /// garbage is refused, and a flipped `Renamed` never panics.
    #[test]
    fn rename_round_trips_and_rejects_truncation_and_garbage(
        from in "[a-zA-Z0-9/_.%#-]{0,64}",
        to in "[a-zA-Z0-9/_.%#-]{0,64}",
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
        existed in any::<bool>(),
        x in 1u8..=255,
    ) {
        let req = Request::Rename { from, to };
        let enc = req.encode();
        prop_assert_eq!(&Request::decode(enc.clone()).unwrap(), &req);
        for cut in 0..enc.len() {
            prop_assert!(Request::decode(enc.slice(..cut)).is_err(), "cut at {}", cut);
        }
        let mut long = enc.to_vec();
        long.extend_from_slice(&garbage);
        prop_assert!(Request::decode(Bytes::from(long)).is_err());

        let resp = Response::Renamed { existed };
        let enc = resp.encode().to_vec();
        prop_assert_eq!(Response::decode(Bytes::from(enc.clone())).unwrap(), resp);
        prop_assert!(Response::decode(Bytes::copy_from_slice(&enc[..1])).is_err());
        for i in 0..enc.len() {
            let mut flipped = enc.clone();
            flipped[i] ^= x;
            let _ = Response::decode(Bytes::from(flipped));
        }
    }

    /// `DataList` responses survive the same treatment.
    #[test]
    fn mutated_list_responses_never_panic(
        len in 0usize..2048,
        cut in any::<usize>(),
        pos in any::<usize>(),
        x in any::<u8>(),
    ) {
        let resp = Response::DataList { data: Bytes::from(vec![1u8; len]) };
        let enc = resp.encode().to_vec();
        let back = Response::decode(resp.encode()).unwrap();
        prop_assert_eq!(back, resp);

        let truncated = &enc[..cut % enc.len()];
        let _ = Response::decode(Bytes::copy_from_slice(truncated));

        let mut flipped = enc;
        let i = pos % flipped.len();
        flipped[i] ^= x;
        let _ = Response::decode(Bytes::from(flipped));
    }

    /// An enumerated `Read` asks the server to allocate its lengths: one
    /// whose lengths sum past a frame — or past `u64::MAX`, where a plain
    /// sum would wrap back under the bound — is refused at decode.
    #[test]
    fn oversized_reads_are_refused_at_decode(
        subfile in "[a-z/]{1,20}",
        within in proptest::collection::vec((any::<u64>(), 0u64..4096), 0..8),
        over in 1u64..=u64::MAX - frame::MAX_FRAME_LEN as u64,
    ) {
        let fits: u64 = within.iter().map(|&(_, len)| len).sum();
        let ok = Request::Read { subfile: subfile.clone(), ranges: within.clone() };
        prop_assert_eq!(&Request::decode(ok.encode()).unwrap(), &ok);

        let mut ranges = within;
        ranges.push((0, frame::MAX_FRAME_LEN as u64 - fits + over));
        let too_long = Request::Read { subfile: subfile.clone(), ranges: ranges.clone() };
        prop_assert!(Request::decode(too_long.encode()).is_err());

        // (u64::MAX, 1, ...) wraps an unchecked sum to a small number.
        ranges.pop();
        ranges.extend([(0, u64::MAX), (0, 1)]);
        let wraps = Request::Read { subfile, ranges };
        prop_assert!(Request::decode(wraps.encode()).is_err());
    }

    /// `OpenFile` and the entry-carrying reply (`OpenFile`'s, `DeleteFile`'s,
    /// `RenameFile`'s) round-trip; every strict prefix and any trailing
    /// garbage is refused; a count that claims more rows than the message
    /// holds is refused without being believed; flipped bytes never panic.
    #[test]
    fn open_file_and_its_entry_reply_survive_the_same_treatment(
        filename in "[a-zA-Z0-9/_.%#-]{0,48}",
        dims in proptest::collection::vec(any::<i64>(), 0..4),
        rows in proptest::collection::vec(
            ("[a-z0-9.]{1,12}", proptest::collection::vec(any::<i64>(), 0..8)),
            0..5,
        ),
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
        claimed in 1u32..=u32::MAX,
        pos in any::<usize>(),
        x in 1u8..=255,
    ) {
        let req = Request::Meta { op: MetaOp::OpenFile { filename: filename.clone() } };
        let enc = req.encode();
        prop_assert_eq!(&Request::decode(enc.clone()).unwrap(), &req);
        for cut in 0..enc.len() {
            prop_assert!(Request::decode(enc.slice(..cut)).is_err(), "cut at {}", cut);
        }
        let mut long = enc.to_vec();
        long.extend_from_slice(&garbage);
        prop_assert!(Request::decode(Bytes::from(long)).is_err());

        let attr = FileAttrRow {
            filename: filename.clone(),
            owner: "o".into(),
            permission: 0o644,
            size: 1 << 20,
            filelevel: "multidim".into(),
            dims: dims.len() as i64,
            dimsize: dims.clone(),
            stripe_dims: dims,
            stripe_size: 4096,
            pattern: String::new(),
            placement: "greedy".into(),
            redundancy: "replica:2".into(),
        };
        let dist: Vec<Distribution> = rows
            .into_iter()
            .map(|(server, bricklist)| Distribution { server, filename: filename.clone(), bricklist })
            .collect();
        let reply = |entry| Response::Meta { shard: 1, result: MetaResult::MaybeEntry(entry) };
        let none = reply(None);
        prop_assert_eq!(&Response::decode(none.encode()).unwrap(), &none);
        let resp = reply(Some((attr.clone(), dist)));
        let enc = resp.encode();
        prop_assert_eq!(&Response::decode(enc.clone()).unwrap(), &resp);
        for cut in 0..enc.len() {
            prop_assert!(Response::decode(enc.slice(..cut)).is_err(), "cut at {}", cut);
        }
        let mut long = enc.to_vec();
        long.extend_from_slice(&garbage);
        prop_assert!(Response::decode(Bytes::from(long)).is_err());
        let mut flipped = enc.to_vec();
        let i = pos % flipped.len();
        flipped[i] ^= x;
        let _ = Response::decode(Bytes::from(flipped));

        // An empty distribution ends the message with its zero row count.
        let mut lying = reply(Some((attr, Vec::new()))).encode().to_vec();
        let at = lying.len() - 4;
        prop_assert_eq!(&lying[at..], &[0u8; 4]);
        lying[at..].copy_from_slice(&claimed.to_le_bytes());
        prop_assert!(Response::decode(Bytes::from(lying)).is_err());
    }

    /// `ExtendDistribution` (its reply is the entry-carrying one above):
    /// round trip, every strict prefix and trailing garbage refused, a lying
    /// row count refused without being believed, flipped bytes never panic.
    #[test]
    fn extend_distribution_survives_the_same_treatment(
        filename in "[a-zA-Z0-9/_.%#-]{0,48}",
        expected_bricks in any::<i64>(),
        added in proptest::collection::vec(
            ("[a-z0-9.]{1,12}", proptest::collection::vec(any::<i64>(), 0..8)),
            0..5,
        ),
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
        claimed in 1u32..=u32::MAX,
        pos in any::<usize>(),
        x in 1u8..=255,
    ) {
        let extend = |added| Request::Meta {
            op: MetaOp::ExtendDistribution { filename: filename.clone(), expected_bricks, added },
        };
        let req = extend(added);
        let enc = req.encode();
        prop_assert_eq!(&Request::decode(enc.clone()).unwrap(), &req);
        for cut in 0..enc.len() {
            prop_assert!(Request::decode(enc.slice(..cut)).is_err(), "cut at {}", cut);
        }
        let mut long = enc.to_vec();
        long.extend_from_slice(&garbage);
        prop_assert!(Request::decode(Bytes::from(long)).is_err());
        let mut flipped = enc.to_vec();
        let i = pos % flipped.len();
        flipped[i] ^= x;
        let _ = Request::decode(Bytes::from(flipped));

        // No rows: the message ends with its zero row count.
        let mut lying = extend(Vec::new()).encode().to_vec();
        let at = lying.len() - 4;
        prop_assert_eq!(&lying[at..], &[0u8; 4]);
        lying[at..].copy_from_slice(&claimed.to_le_bytes());
        prop_assert!(Request::decode(Bytes::from(lying)).is_err());
    }
}
