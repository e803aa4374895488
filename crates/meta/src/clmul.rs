//! CRC-32 folding with carry-less multiply on x86_64: the one CPU-specific
//! code — and, with `dpfs-server`'s `sys.rs`, one of the two `unsafe`
//! sites — in the tree. Same reflected IEEE 802.3 polynomial as the tables
//! in [`crate::codec`], so the values are bit-identical; only
//! [`crate::codec::crc32_update`] calls it.
//!
//! The method is Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), as zlib ships
//! it: keep 4 × 128 bits of running remainder, multiply each lane by
//! x^512 mod P to move it past the next 64 input bytes and xor those in,
//! then fold the four lanes into one, 128 → 64 → 32 bits, the last step by
//! Barrett reduction.
//!
//! Two arms share that tail. [`fold`] (PCLMULQDQ) runs it from the first
//! byte. [`fold_wide`] (VPCLMULQDQ on 512-bit registers) first keeps
//! 4 × 512 bits of remainder and moves 256 input bytes a step, by
//! x^2048 mod P; then it folds those four registers into the narrow arm's
//! four lanes and hands the rest of the input to the same tail.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m128i;

/// Fold `data` into the running CRC state `state` (the raw register of
/// `crc32_update`, not the finished checksum), 64 bytes a step. `None`
/// when this CPU — or this target — has no carry-less multiply: the
/// caller runs its tables.
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

/// [`fold`], 256 bytes a step. `None` when `data` is shorter than one
/// step, or this CPU — or this target — has no VPCLMULQDQ on 512-bit
/// registers: the caller runs [`fold`]. From one step on it is the faster
/// of the two at every length (EXPERIMENTS.md).
///
/// # Panics
/// If `data.len()` is not a multiple of 16.
pub(crate) fn fold_wide(state: u32, data: &[u8]) -> Option<u32> {
    assert!(
        data.len().is_multiple_of(16),
        "the wide kernel takes whole 16-byte blocks"
    );
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 256
        && is_x86_feature_detected!("vpclmulqdq")
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold_x86_wide` asks only for the four CPU features it
        // is compiled with, all detected above; as in `fold`, the length
        // assert is a contract, not a memory-safety condition.
        return Some(unsafe { fold_x86_wide(state, data) });
    }
    let _ = state;
    None
}

/// x^n mod P, bit-reflected, for the distances the folds move a lane:
/// 4 × 512-bit registers ahead (2048 ± 32 bits), 4 lanes ahead
/// (512 ± 32), 1 lane ahead (128 ± 32), 64 → 32; then floor(x^64 / P) and
/// P itself for the Barrett step.
#[cfg(target_arch = "x86_64")]
mod k {
    pub const K2048_LO: i64 = 0x1_1542_778a;
    pub const K2048_HI: i64 = 0x1_322d_1430;
    pub const K1: i64 = 0x1_5444_2bd4;
    pub const K2: i64 = 0x1_c6e4_1596;
    pub const K3: i64 = 0x1_7519_97d0;
    pub const K4: i64 = 0x0_ccaa_009e;
    pub const K5: i64 = 0x1_63cd_6124;
    pub const MU: i64 = 0x1_f701_1641;
    pub const POLY: i64 = 0x1_db71_0641;
}

/// [`fold`] on a CPU with `pclmulqdq` and `sse4.1` — calling it is `unsafe`
/// from code compiled without them, which is the whole safety condition.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_x86(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_cvtsi32_si128, _mm_xor_si128};

    // Checked indexing throughout: memory safety does not rest on the
    // length contract `fold` asserted (the empty tail, the first quad).
    let (first, rest) = data.split_first_chunk::<64>().expect("at least 64 bytes");
    let (quad, _) = first.as_chunks::<16>();
    let x1 = _mm_xor_si128(load(&quad[0]), _mm_cvtsi32_si128(state as i32));
    tail([x1, load(&quad[1]), load(&quad[2]), load(&quad[3])], rest)
}

/// [`fold_wide`] on a CPU with `vpclmulqdq`, `avx512f`, `pclmulqdq` and
/// `sse4.1` — the whole safety condition, as for [`fold_x86`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "vpclmulqdq,avx512f,pclmulqdq,sse4.1")]
fn fold_x86_wide(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32,
        _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm512_zextsi128_si512,
        _mm_cvtsi32_si128, _mm_set_epi64x,
    };

    /// Move each 128-bit lane of `lanes` ahead by the distance `k`
    /// encodes and xor `next` in: [`step`], four lanes at once.
    #[inline]
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    fn step4(lanes: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(lanes, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(lanes, k);
        // 0x96: a ^ b ^ c.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// The 64 bytes of `quad`, at whatever alignment they have.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load4(quad: &[u8; 64]) -> __m512i {
        // SAFETY: `quad` is a live reference to exactly 64 bytes, and
        // `_mm512_loadu_si512` reads 64 bytes with no alignment
        // requirement.
        unsafe { _mm512_loadu_si512(quad.as_ptr().cast()) }
    }

    let (steps, rest) = data.as_chunks::<256>();
    let (first, steps) = steps.split_first().expect("at least 256 bytes");
    let (q, _) = first.as_chunks::<64>();
    let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
    let mut z = [
        _mm512_xor_si512(load4(&q[0]), seed),
        load4(&q[1]),
        load4(&q[2]),
        load4(&q[3]),
    ];
    let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(k::K2048_HI, k::K2048_LO));
    for block in steps {
        let (q, _) = block.as_chunks::<64>();
        for (lane, quad) in z.iter_mut().zip(q) {
            *lane = step4(*lane, k2048, load4(quad));
        }
    }

    // Four registers into one, 64 bytes at a time: what is left is the
    // narrow arm's four lanes over the last 64 bytes folded.
    let k512 = _mm512_broadcast_i32x4(_mm_set_epi64x(k::K2, k::K1));
    let x = step4(step4(step4(z[0], k512, z[1]), k512, z[2]), k512, z[3]);
    let lanes = [
        _mm512_extracti32x4_epi32::<0>(x),
        _mm512_extracti32x4_epi32::<1>(x),
        _mm512_extracti32x4_epi32::<2>(x),
        _mm512_extracti32x4_epi32::<3>(x),
    ];
    tail(lanes, rest)
}

/// The 16 bytes of `block`, at whatever alignment they have.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sse4.1")]
fn load(block: &[u8; 16]) -> __m128i {
    use std::arch::x86_64::_mm_loadu_si128;
    // SAFETY: `block` is a live reference to exactly 16 bytes, and
    // `_mm_loadu_si128` reads 16 bytes with no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Move `lane` ahead by the distance `k` encodes and xor `next` in.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn step(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
    use std::arch::x86_64::{_mm_clmulepi64_si128, _mm_xor_si128};
    let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
    let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// Both arms' end: carry the four lanes `x` over `rest` (whole 16-byte
/// blocks) 64 bytes a step, fold them into one, take the last blocks, and
/// reduce to the 32-bit state.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn tail(mut x: [__m128i; 4], rest: &[u8]) -> u32 {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_extract_epi32, _mm_set_epi64x, _mm_setr_epi32,
        _mm_srli_si128, _mm_xor_si128,
    };

    let (blocks, _) = rest.as_chunks::<16>();
    let (quads, singles) = blocks.as_chunks::<4>();
    let k1k2 = _mm_set_epi64x(k::K2, k::K1);
    for quad in quads {
        for (lane, block) in x.iter_mut().zip(quad) {
            *lane = step(*lane, k1k2, load(block));
        }
    }

    // Four lanes into one, then whatever whole blocks (at most three) the
    // 64-byte loop left.
    let k3k4 = _mm_set_epi64x(k::K4, k::K3);
    let mut x = step(step(step(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
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
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, k::K5)),
    );
    // Barrett reduction: the remainder lands in bits 32..64.
    let mu_poly = _mm_set_epi64x(k::MU, k::POLY);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), mu_poly);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), mu_poly);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
}
