//! SHA-NI and AES-NI tiers: the crate's one `unsafe` island.
//!
//! Each `#[target_feature]` function is private to this module and only
//! reachable through the [`Sha256Kernel`] / [`AesCtrKernel`] statics below,
//! which [`sha256_kernel`] and [`aes_ctr_kernel`] hand out only after the
//! matching `is_x86_feature_detected!` probe succeeded on this host.
//!
//! Both tiers are byte-identical to the scalar oracle: SHA-NI computes the
//! same FIPS 180-4 rounds, and AES-NI the same FIPS 197 rounds over the
//! same expanded key bytes. AES-NI has no secret-indexed table lookups.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

use crate::aes::Aes;
use crate::kernel::{AesCtrKernel, CryptoTier, Sha256Kernel};
use crate::sha2::K256;

static SHA_NI: Sha256Kernel = Sha256Kernel {
    tier: CryptoTier::Hardware,
    name: "sha-ni",
    blocks: sha256_blocks,
};

static AES_NI: AesCtrKernel = AesCtrKernel {
    tier: CryptoTier::Hardware,
    name: "aes-ni",
    ctr: aes_ctr,
};

/// The SHA-NI kernel, if this host has the instructions it uses.
pub(crate) fn sha256_kernel() -> Option<&'static Sha256Kernel> {
    let ok = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3");
    ok.then_some(&SHA_NI)
}

/// The AES-NI kernel, if this host has the instructions it uses.
pub(crate) fn aes_ctr_kernel() -> Option<&'static AesCtrKernel> {
    is_x86_feature_detected!("aes").then_some(&AES_NI)
}

fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: only reachable through `SHA_NI`, which `sha256_kernel`
    // returns only after probing every feature the function enables.
    unsafe { sha256_blocks_impl(state, blocks) }
}

fn aes_ctr(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    // SAFETY: only reachable through `AES_NI`, which `aes_ctr_kernel`
    // returns only after probing every feature the function enables.
    unsafe { aes_ctr_impl(aes.round_keys(), iv, data) }
}

/// Four rounds: message words `w` of round group `group` (< 16) plus
/// their round constants, two `sha256rnds2` at a time.
///
/// # Safety
///
/// The host must support SHA-NI and SSE2 (callers are `sha256_blocks_impl`).
#[inline(always)]
unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    // In bounds: `group < 16` and `K256` holds 64 words.
    let k = _mm_loadu_si128(K256.as_ptr().add(4 * group).cast());
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
}

/// The next four schedule words from the previous sixteen (`w0` oldest).
///
/// # Safety
///
/// The host must support SHA-NI and SSSE3 (callers are `sha256_blocks_impl`).
#[inline(always)]
unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// Compresses each 64-byte block of `blocks` (a trailing partial block is
/// ignored) into `state`.
///
/// # Safety
///
/// The host must support SHA-NI, SSE2, SSSE3 and SSE4.1.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn sha256_blocks_impl(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian words: reverse the bytes of each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // The instructions want the state split as ABEF / CDGH.
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef0, cdgh0) = (abef, cdgh);
        // `block` is exactly 64 bytes: the four 16-byte loads stay inside.
        let p = block.as_ptr();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap),
        ];
        for (g, &wg) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, wg, g);
        }
        for g in 4..16 {
            let next = schedule(w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
            w[g % 4] = next;
            rounds4(&mut abef, &mut cdgh, next, g);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
}

/// Blocks encrypted per step: enough independent `aesenc` chains to cover
/// the instruction's latency.
const LANES: usize = 8;

/// XORs the CTR keystream of the expanded key `round_keys` (11 or 15
/// round keys) into `data`.
///
/// # Safety
///
/// The host must support AES-NI and SSE2.
#[target_feature(enable = "aes,sse2")]
unsafe fn aes_ctr_impl(round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) {
    let rounds = round_keys.len() - 1;
    let mut rk = [_mm_setzero_si128(); 15];
    for (k, bytes) in rk.iter_mut().zip(round_keys) {
        *k = _mm_loadu_si128(bytes.as_ptr().cast());
    }
    let word = |i: usize| i32::from_le_bytes([iv[i], iv[i + 1], iv[i + 2], iv[i + 3]]);
    let (w0, w1, w2) = (word(0), word(4), word(8));
    let mut ctr = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]);

    let mut chunks = data.chunks_exact_mut(16 * LANES);
    for chunk in &mut chunks {
        let ks = keystream(&rk, rounds, w0, w1, w2, ctr);
        ctr = ctr.wrapping_add(LANES as u32);
        // `chunk` is exactly `16 * LANES` bytes, one 16-byte slot per lane.
        let p = chunk.as_mut_ptr();
        for (j, k) in ks.iter().enumerate() {
            let d = _mm_loadu_si128(p.add(16 * j).cast());
            _mm_storeu_si128(p.add(16 * j).cast(), _mm_xor_si128(d, *k));
        }
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let ks = keystream(&rk, rounds, w0, w1, w2, ctr);
        let mut bytes = [0u8; 16 * LANES];
        for (j, k) in ks.iter().enumerate() {
            _mm_storeu_si128(bytes.as_mut_ptr().add(16 * j).cast(), *k);
        }
        for (b, k) in tail.iter_mut().zip(bytes) {
            *b ^= k;
        }
    }
}

/// Encrypts the `LANES` counter blocks `iv[..12] || be32(ctr + j)`; the
/// low word wraps without carrying into the nonce, as in the scalar tier.
///
/// # Safety
///
/// The host must support AES-NI and SSE2 (callers are `aes_ctr_impl`).
#[inline(always)]
unsafe fn keystream(
    rk: &[__m128i; 15],
    rounds: usize,
    w0: i32,
    w1: i32,
    w2: i32,
    ctr: u32,
) -> [__m128i; LANES] {
    let mut b: [__m128i; LANES] = core::array::from_fn(|j| {
        let c = ctr.wrapping_add(j as u32).swap_bytes() as i32;
        _mm_xor_si128(_mm_set_epi32(c, w2, w1, w0), rk[0])
    });
    for k in &rk[1..rounds] {
        for x in b.iter_mut() {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in b.iter_mut() {
        *x = _mm_aesenclast_si128(*x, rk[rounds]);
    }
    b
}
