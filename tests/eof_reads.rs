//! Reads past the logical end of file through the byte API come back
//! zero-filled (subfiles are sparse), including when the read spans a brick
//! boundary; accesses past the file's bricks or the offset space are
//! refused before anything is allocated or sent.

use dpfs::cluster::Testbed;
use dpfs::core::{ClientOptions, Datatype, DpfsError, Hint};

const BRICK: u64 = 64;

/// 100 bytes written into 64-byte bricks: brick 0 full, brick 1 written
/// only up to byte 36; bytes [100, 128) exist on the server as holes.
fn written_file(tb: &Testbed) -> (dpfs::core::FileHandle, Vec<u8>) {
    let client = tb.client_opts(ClientOptions::default());
    let mut f = client.create("/eof", &Hint::linear(BRICK, 0)).unwrap();
    let data: Vec<u8> = (0..100u32).map(|x| (x % 251) as u8 + 1).collect();
    f.write_bytes(0, &data).unwrap();
    (f, data)
}

#[test]
fn read_across_brick_boundary_past_eof_zero_fills() {
    let tb = Testbed::unthrottled(3).unwrap();
    let (mut f, data) = written_file(&tb);
    // [60, 128): tail of brick 0, all of brick 1 — logical EOF at 100.
    let got = f.read_bytes(60, 68).unwrap();
    assert_eq!(&got[..40], &data[60..100], "written bytes must round-trip");
    assert_eq!(&got[40..], &[0u8; 28], "bytes past EOF must be zero");
}

#[test]
fn read_entirely_past_eof_is_all_zeros() {
    let tb = Testbed::unthrottled(3).unwrap();
    let (mut f, _) = written_file(&tb);
    // [100, 128): inside allocated brick 1, entirely past the written extent.
    let got = f.read_bytes(100, 28).unwrap();
    assert_eq!(got, vec![0u8; 28]);
}

/// An extent that overflows the offset space, or that no file could
/// hold, is the caller's error on all four byte-addressed calls — decided
/// before a buffer is allocated for it (`read_bytes(0, 1 << 62)` used to
/// die in the allocator) — and the handle is untouched by the refusal.
#[test]
fn overflowing_or_absurd_extents_are_invalid_arguments() {
    let tb = Testbed::unthrottled(3).unwrap();
    let (mut f, data) = written_file(&tb);
    let invalid = |r: Result<(), DpfsError>| matches!(r, Err(DpfsError::InvalidArgument(_)));

    assert!(invalid(f.read_bytes(0, 1 << 62).map(drop)), "absurd read");
    assert!(invalid(f.read_bytes(u64::MAX, 2).map(drop)), "read wraps");
    assert!(invalid(f.write_bytes(u64::MAX - 1, &[7; 4])), "write wraps");
    let pair = Datatype::contiguous(2);
    assert!(
        invalid(f.read_datatype(u64::MAX, &pair).map(drop)),
        "datatype read wraps"
    );
    assert!(
        invalid(f.write_datatype(u64::MAX, &pair, &[7; 2])),
        "datatype write wraps"
    );
    let absurd = Datatype::contiguous(1 << 62);
    assert!(
        invalid(f.read_datatype(0, &absurd).map(drop)),
        "absurd datatype read"
    );

    assert_eq!(f.size(), 100, "a refused write grows nothing");
    assert_eq!(f.read_bytes(0, 100).unwrap(), data);
}
