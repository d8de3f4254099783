//! Layer probes for the traced run: each one times a single layer's
//! public functions on the workload's own payloads and policies.

use crate::trace::{self, Tracer};
use crate::world::{cpu_seconds, Item};
use aeon_cas::{Chunker, ChunkerParams};
use aeon_core::keys::KeyStore;
use aeon_core::PolicyKind;
use aeon_crypto::aead::{Aes256CtrHmac, ChaCha20Poly1305};
use aeon_crypto::{Aead, ChaChaDrbg, Sha256};
use aeon_erasure::ReedSolomon;
use aeon_store::batch::{decode_read_frame, encode_batch_frame, encode_read_frame};
use aeon_store::node::ShardKey;
use std::hint::black_box;

/// Bytes each probe processes, taken from the front of the workload.
const PROBE_BYTES: usize = 8 << 20;

/// Throughputs in MB/s, plus the chunk count of the chunker probe.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub sha256: f64,
    pub aes_ctr_hmac: f64,
    pub chacha20_poly1305: f64,
    pub codec_encode: f64,
    pub codec_decode: f64,
    pub rs_encode: f64,
    pub rs_reconstruct: f64,
    pub shamir_split: f64,
    pub chunker: f64,
    pub chunks: u64,
    pub frame_encode: f64,
    pub read_frame_decode: f64,
}

/// Times `f` once over `bytes` of work and returns MB/s.
fn rate(t: Option<&Tracer>, name: &'static str, bytes: usize, f: impl FnOnce()) -> f64 {
    trace::request(t, name, || {
        let start = cpu_seconds();
        f();
        bytes as f64 / 1e6 / (cpu_seconds() - start).max(1e-9)
    })
}

/// Runs every probe; the codec probe encodes under `policy`. `frame` is
/// the observed mean batch shape: `(keys per frame, bytes per key)`.
pub fn run(
    t: Option<&Tracer>,
    items: &[Item],
    policy: &PolicyKind,
    frame: (usize, usize),
) -> Result<Probes, String> {
    let mut sample: Vec<&Item> = Vec::new();
    let mut bytes = 0;
    for it in items {
        if bytes >= PROBE_BYTES {
            break;
        }
        bytes += it.payload.len();
        sample.push(it);
    }
    let mut p = Probes {
        sha256: rate(t, "probe.crypto.sha256", bytes, || {
            for it in &sample {
                black_box(Sha256::digest(black_box(&it.payload)));
            }
        }),
        ..Probes::default()
    };
    let key = [0x5A; 32];
    let nonce = [0x01; 12];
    let aes = Aes256CtrHmac::new(&key);
    p.aes_ctr_hmac = rate(t, "probe.crypto.aes_ctr_hmac", bytes, || {
        for it in &sample {
            black_box(aes.seal(&nonce, b"", black_box(&it.payload)));
        }
    });
    let chacha = ChaCha20Poly1305::new(&key);
    p.chacha20_poly1305 = rate(t, "probe.crypto.chacha20_poly1305", bytes, || {
        for it in &sample {
            black_box(chacha.seal(&nonce, b"", black_box(&it.payload)));
        }
    });

    // The codec: each payload encoded and decoded back.
    let keys = KeyStore::new([0x42; 32]);
    let mut rng = ChaChaDrbg::from_u64_seed(7);
    let mut encoded = Vec::new();
    let mut failure = None;
    p.codec_encode = rate(t, "probe.core.codec.encode", bytes, || {
        for it in &sample {
            match policy.encode(&mut rng, &keys, &it.name, &it.payload) {
                Ok(e) => encoded.push(e),
                Err(e) => failure = Some(format!("encode {}: {e}", it.name)),
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let mut decoded = Vec::new();
    p.codec_decode = rate(t, "probe.core.codec.decode", bytes, || {
        for (it, e) in sample.iter().zip(&encoded) {
            let shards: Vec<Option<Vec<u8>>> = e.shards.iter().cloned().map(Some).collect();
            decoded.push(policy.decode(&keys, &it.name, &shards, &e.meta));
        }
    });
    for (it, d) in sample.iter().zip(decoded) {
        if !matches!(d, Ok(ref data) if *data == it.payload) {
            return Err(format!("codec probe round trip of {} differs", it.name));
        }
    }

    // GF kernels: RS(4+2) encode and a two-erasure reconstruct, Shamir 3-of-5.
    let rs = ReedSolomon::new(4, 2).map_err(|e| format!("{e:?}"))?;
    let stripes: Vec<Vec<Vec<u8>>> = sample
        .iter()
        .map(|it| {
            let len = it.payload.len().div_ceil(4);
            let mut padded = it.payload.clone();
            padded.resize(4 * len, 0);
            padded.chunks(len).map(<[u8]>::to_vec).collect()
        })
        .collect();
    let mut parities = Vec::new();
    p.rs_encode = rate(t, "probe.gf.rs_encode", bytes, || {
        for s in &stripes {
            let refs: Vec<&[u8]> = s.iter().map(Vec::as_slice).collect();
            parities.push(rs.encode_shards(&refs));
        }
    });
    let mut erased = Vec::new();
    for (s, parity) in stripes.iter().zip(parities) {
        let parity = parity.map_err(|e| format!("{e:?}"))?;
        let mut all: Vec<Option<Vec<u8>>> = s.iter().cloned().map(Some).collect();
        all.extend(parity.into_iter().map(Some));
        all[0] = None;
        all[1] = None;
        erased.push(all);
    }
    let mut rebuilt = Vec::new();
    p.rs_reconstruct = rate(t, "probe.gf.rs_reconstruct", bytes, || {
        for shards in &erased {
            rebuilt.push(rs.reconstruct_shards(shards));
        }
    });
    for (s, r) in stripes.iter().zip(rebuilt) {
        let r = r.map_err(|e| format!("{e:?}"))?;
        if r[..4] != s[..] {
            return Err("RS probe reconstruct differs".into());
        }
    }
    p.shamir_split = rate(t, "probe.gf.shamir_split", bytes, || {
        for it in &sample {
            black_box(aeon_secretshare::shamir::split(&mut rng, &it.payload, 3, 5).ok());
        }
    });

    let chunker = Chunker::new(ChunkerParams::default());
    let mut chunks = 0u64;
    p.chunker = rate(t, "probe.cas.chunker", bytes, || {
        for it in &sample {
            chunks += chunker.boundaries(black_box(&it.payload)).len() as u64;
        }
    });
    p.chunks = chunks;

    // Node frames at the batch shape the workload produced.
    let (nkeys, per_key) = (frame.0.max(1), frame.1.max(1));
    let blob = vec![0xA5u8; per_key];
    let entries: Vec<(ShardKey, &[u8])> = (0..nkeys)
        .map(|i| {
            (
                ShardKey::new(format!("probe-{i}"), i as u32),
                blob.as_slice(),
            )
        })
        .collect();
    let read_entries: Vec<(ShardKey, Option<&[u8]>)> =
        entries.iter().map(|(k, d)| (k.clone(), Some(*d))).collect();
    let frame_bytes = nkeys * per_key;
    let reps = PROBE_BYTES.div_ceil(frame_bytes);
    p.frame_encode = rate(t, "probe.store.frame_encode", reps * frame_bytes, || {
        for _ in 0..reps {
            black_box(encode_batch_frame(black_box(&entries)));
        }
    });
    let read_frame = encode_read_frame(&read_entries);
    let mut ok = true;
    p.read_frame_decode = rate(
        t,
        "probe.store.read_frame_decode",
        reps * frame_bytes,
        || {
            for _ in 0..reps {
                ok &= decode_read_frame(black_box(&read_frame)).is_ok();
            }
        },
    );
    if !ok {
        return Err("read frame probe failed to decode".into());
    }
    Ok(p)
}
