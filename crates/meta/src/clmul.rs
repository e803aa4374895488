//! CRC-32 folding with carry-less multiply (x86_64 PCLMULQDQ): the one
//! CPU-specific kernel — and, with `dpfs-server`'s `sys.rs`, one of the two
//! `unsafe` sites — in the tree. Same reflected IEEE 802.3 polynomial as
//! the tables in [`crate::codec`], so the values are bit-identical; only
//! [`crate::codec::crc32_update`] calls it.
//!
//! The method is Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), as zlib ships
//! it: keep 4 × 128 bits of running remainder, multiply each lane by
//! x^512 mod P to move it past the next 64 input bytes and xor those in,
//! then fold the four lanes into one, 128 → 64 → 32 bits, the last step by
//! Barrett reduction.
#![allow(unsafe_code)]

/// Fold `data` into the running CRC state `state` (the raw register of
/// `crc32_update`, not the finished checksum). `None` when this CPU — or
/// this target — has no carry-less multiply: the caller runs its tables.
///
/// # Panics
/// If `data.len()` is below 64 or not a multiple of 16.
pub(crate) fn fold(state: u32, data: &[u8]) -> Option<u32> {
    assert!(
        data.len() >= 64 && data.len().is_multiple_of(16),
        "the kernel takes whole 16-byte blocks, at least four"
    );
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `fold_x86` asks only for the two CPU features it is
        // compiled with, and both were detected on the line above. (The
        // length assert above is its contract, not a memory-safety
        // condition: every index inside is checked.)
        return Some(unsafe { fold_x86(state, data) });
    }
    let _ = state; // unused where the kernel is compiled out
    None
}

/// [`fold`] on a CPU with `pclmulqdq` and `sse4.1` — calling it is `unsafe`
/// from code compiled without them, which is the whole safety condition.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_x86(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // x^n mod P, bit-reflected, for the distances the folds move a lane:
    // 4 lanes ahead (512 ± 32 bits), 1 lane ahead (128 ± 32), 64 → 32;
    // then floor(x^64 / P) and P itself for the Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const MU: i64 = 0x1_f701_1641;
    const POLY: i64 = 0x1_db71_0641;

    /// Move `lane` ahead by the distance `k` encodes and xor `next` in.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn step(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The 16 bytes of `block`, at whatever alignment they have.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a live reference to exactly 16 bytes, and
        // `_mm_loadu_si128` reads 16 bytes with no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    // Checked indexing throughout: memory safety does not rest on the
    // length contract `fold` asserted (the empty tail, the first quad).
    let (blocks, _) = data.as_chunks::<16>();
    let (quads, singles) = blocks.as_chunks::<4>();
    let (first, quads) = quads.split_first().expect("at least 64 bytes");
    let mut x1 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32));
    let (mut x2, mut x3, mut x4) = (load(&first[1]), load(&first[2]), load(&first[3]));

    let k1k2 = _mm_set_epi64x(K2, K1);
    for quad in quads {
        x1 = step(x1, k1k2, load(&quad[0]));
        x2 = step(x2, k1k2, load(&quad[1]));
        x3 = step(x3, k1k2, load(&quad[2]));
        x4 = step(x4, k1k2, load(&quad[3]));
    }

    // Four lanes into one, then whatever whole blocks (at most three) the
    // 64-byte loop left.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = step(x1, k3k4, x2);
    x = step(x, k3k4, x3);
    x = step(x, k3k4, x4);
    for block in singles {
        x = step(x, k3k4, load(block));
    }

    // 128 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
    );
    // 64 → 32 bits.
    x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
    );
    // Barrett reduction: the remainder lands in bits 32..64.
    let mu_poly = _mm_set_epi64x(MU, POLY);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), mu_poly);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), mu_poly);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
}
