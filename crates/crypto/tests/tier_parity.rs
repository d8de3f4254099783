//! Cross-tier parity: every SHA-256 and AES-CTR tier the host supports
//! must be byte-identical to the scalar oracle, and must reproduce the
//! standard vectors on its own — not only whichever tier is active.

use aeon_crypto::aes::Aes;
use aeon_crypto::hmac::hmac_sha256;
use aeon_crypto::kernel::{AesCtrKernel, CryptoTier, Sha256Kernel};
use aeon_crypto::sha2::to_hex;
use aeon_crypto::Sha256;
use proptest::prelude::*;

fn sha_scalar() -> &'static Sha256Kernel {
    Sha256Kernel::for_tier(CryptoTier::Scalar).expect("scalar tier")
}

fn aes_scalar() -> &'static AesCtrKernel {
    AesCtrKernel::for_tier(CryptoTier::Scalar).expect("scalar tier")
}

fn digest_on(kernel: &'static Sha256Kernel, parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::with_kernel(kernel);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

fn ctr_on(kernel: &AesCtrKernel, aes: &Aes, iv: &[u8; 16], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    kernel.apply_ctr(aes, iv, &mut out);
    out
}

/// A deterministic, non-periodic test pattern.
fn pattern(len: usize, seed: u32) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn scalar_is_always_supported_and_listed_first() {
    assert_eq!(Sha256Kernel::supported()[0].tier(), CryptoTier::Scalar);
    assert_eq!(AesCtrKernel::supported()[0].tier(), CryptoTier::Scalar);
    let names: Vec<_> = Sha256Kernel::supported().iter().map(|k| k.name()).collect();
    let aes_names: Vec<_> = AesCtrKernel::supported().iter().map(|k| k.name()).collect();
    println!("sha256 tiers: {names:?}; aes-ctr tiers: {aes_names:?}");
}

#[test]
fn sha256_every_length_matches_scalar() {
    let data = pattern(1100, 1);
    for kernel in Sha256Kernel::supported() {
        for len in 0..=data.len() {
            assert_eq!(
                digest_on(kernel, &[&data[..len]]),
                digest_on(sha_scalar(), &[&data[..len]]),
                "{} len {len}",
                kernel.name()
            );
        }
    }
}

#[test]
fn sha256_every_single_split_matches_scalar() {
    let data = pattern(300, 2);
    for kernel in Sha256Kernel::supported() {
        for len in [
            0usize, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 192, 300,
        ] {
            let want = digest_on(sha_scalar(), &[&data[..len]]);
            for split in 0..=len {
                let (a, b) = data[..len].split_at(split);
                assert_eq!(
                    digest_on(kernel, &[a, b]),
                    want,
                    "{} len {len} split {split}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn sha256_ragged_update_sequences_match_scalar() {
    let data = pattern(1100, 3);
    let steps: [&[usize]; 4] = [
        &[1, 3, 7, 63, 64, 65, 17, 128, 0, 200],
        &[64, 1, 127, 129, 5],
        &[0, 0, 33, 31, 192, 2],
        &[500, 1, 1, 1, 1000],
    ];
    for kernel in Sha256Kernel::supported() {
        for (pi, pat) in steps.iter().enumerate() {
            for len in (0..=data.len()).step_by(37) {
                let mut parts: Vec<&[u8]> = Vec::new();
                let mut at = 0;
                for &step in pat.iter().cycle() {
                    if at >= len {
                        break;
                    }
                    let end = (at + step).min(len);
                    parts.push(&data[at..end]);
                    at = end;
                }
                assert_eq!(
                    digest_on(kernel, &parts),
                    digest_on(sha_scalar(), &[&data[..len]]),
                    "{} pattern {pi} len {len}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn sha256_fips_180_4_vectors_on_every_tier() {
    let vectors: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    let chunk = [b'a'; 1000];
    for kernel in Sha256Kernel::supported() {
        for (msg, want) in vectors {
            assert_eq!(
                to_hex(&digest_on(kernel, &[msg])),
                want,
                "{}",
                kernel.name()
            );
        }
        assert_eq!(
            to_hex(&digest_on(kernel, &[&chunk[..]; 1000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            "{} million a",
            kernel.name()
        );
    }
}

/// HMAC-SHA-256 (RFC 2104) built directly on one tier's hasher.
fn hmac_on(kernel: &'static Sha256Kernel, key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&digest_on(kernel, &[key]));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let inner = digest_on(kernel, &[&k.map(|b| b ^ 0x36), data]);
    digest_on(kernel, &[&k.map(|b| b ^ 0x5c), &inner])
}

#[test]
fn hmac_rfc_4231_vectors_on_every_tier() {
    let long_key = [0xaau8; 131];
    let vectors: [(&[u8], &[u8], &str); 3] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ];
    for kernel in Sha256Kernel::supported() {
        for (key, data, want) in vectors {
            assert_eq!(
                to_hex(&hmac_on(kernel, key, data)),
                want,
                "{}",
                kernel.name()
            );
        }
    }
    // The library HMAC (on the active tier) is the same function.
    for (key, data, _) in vectors {
        assert_eq!(hmac_sha256(key, data), hmac_on(sha_scalar(), key, data));
    }
}

fn aes_keys() -> [Aes; 2] {
    [
        Aes::new_128(&pattern(16, 4).try_into().expect("16")),
        Aes::new_256(&pattern(32, 5).try_into().expect("32")),
    ]
}

#[test]
fn aes_ctr_every_length_matches_scalar() {
    let data = pattern(300, 6);
    let iv: [u8; 16] = pattern(16, 7).try_into().expect("16");
    for kernel in AesCtrKernel::supported() {
        for aes in &aes_keys() {
            for len in 0..=data.len() {
                assert_eq!(
                    ctr_on(kernel, aes, &iv, &data[..len]),
                    ctr_on(aes_scalar(), aes, &iv, &data[..len]),
                    "{} rounds {} len {len}",
                    kernel.name(),
                    aes.rounds()
                );
            }
        }
    }
}

#[test]
fn aes_ctr_low_word_wraps_inside_a_batch() {
    let data = pattern(300, 8);
    for low in [0xFFFF_FFF0u32, 0xFFFF_FFFC, 0xFFFF_FFF9, 0xFFFF_FFFF] {
        let mut iv: [u8; 16] = pattern(16, 9).try_into().expect("16");
        iv[12..].copy_from_slice(&low.to_be_bytes());
        for kernel in AesCtrKernel::supported() {
            for aes in &aes_keys() {
                for len in [1usize, 15, 16, 17, 64, 127, 128, 129, 200, 256, 300] {
                    assert_eq!(
                        ctr_on(kernel, aes, &iv, &data[..len]),
                        ctr_on(aes_scalar(), aes, &iv, &data[..len]),
                        "{} low {low:#x} len {len}",
                        kernel.name()
                    );
                }
                // The keystream is E(iv[..12] || be32(low + j)): the low
                // word wraps to zero and never carries into byte 11.
                let ks = ctr_on(kernel, aes, &iv, &[0u8; 16 * 20]);
                for (j, block) in ks.chunks_exact(16).enumerate() {
                    let mut counter = iv;
                    counter[12..].copy_from_slice(&low.wrapping_add(j as u32).to_be_bytes());
                    assert_eq!(
                        block,
                        aes.encrypt_block(&counter),
                        "{} block {j}",
                        kernel.name()
                    );
                }
            }
        }
    }
}

#[test]
fn aes_fips_197_block_vectors_on_every_tier() {
    // One CTR block over zeros is E(iv): Appendix B (AES-128) and C.3
    // (AES-256) through each tier's keystream.
    let cases = [
        (
            Aes::new_128(
                &unhex("2b7e151628aed2a6abf7158809cf4f3c")
                    .try_into()
                    .expect("16"),
            ),
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            Aes::new_256(
                &unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                    .try_into()
                    .expect("32"),
            ),
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ];
    for kernel in AesCtrKernel::supported() {
        for (aes, pt, ct) in &cases {
            let iv: [u8; 16] = unhex(pt).try_into().expect("16");
            assert_eq!(
                to_hex(&ctr_on(kernel, aes, &iv, &[0; 16])),
                *ct,
                "{}",
                kernel.name()
            );
        }
    }
}

#[test]
fn aes_sp_800_38a_ctr_vectors_on_every_tier() {
    let iv: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        .try_into()
        .expect("16");
    let pt = unhex(
        "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
    );
    // F.5.1 CTR-AES128.Encrypt and F.5.5 CTR-AES256.Encrypt.
    let cases = [
        (
            Aes::new_128(
                &unhex("2b7e151628aed2a6abf7158809cf4f3c")
                    .try_into()
                    .expect("16"),
            ),
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
        ),
        (
            Aes::new_256(
                &unhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                    .try_into()
                    .expect("32"),
            ),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
        ),
    ];
    for kernel in AesCtrKernel::supported() {
        for (aes, ct) in &cases {
            assert_eq!(
                to_hex(&ctr_on(kernel, aes, &iv, &pt)),
                *ct,
                "{}",
                kernel.name()
            );
        }
    }
}

proptest! {
    #[test]
    fn aes_ctr_random_inputs_match_scalar(key in any::<[u8; 32]>(), iv in any::<[u8; 16]>(),
                                          data in prop::collection::vec(any::<u8>(), 0..700)) {
        let aes = Aes::new_256(&key);
        let want = ctr_on(aes_scalar(), &aes, &iv, &data);
        for kernel in AesCtrKernel::supported() {
            prop_assert_eq!(ctr_on(kernel, &aes, &iv, &data), want.clone());
        }
    }

    #[test]
    fn sha256_random_inputs_match_scalar(data in prop::collection::vec(any::<u8>(), 0..2048),
                                         split in 0usize..2048) {
        let (a, b) = data.split_at(split.min(data.len()));
        let want = digest_on(sha_scalar(), &[&data]);
        for kernel in Sha256Kernel::supported() {
            prop_assert_eq!(digest_on(kernel, &[a, b]), want);
        }
    }
}
