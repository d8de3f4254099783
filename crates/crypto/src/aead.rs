//! Authenticated encryption with associated data.
//!
//! Two independent AEAD constructions back the cipher-agility story: a
//! stream-cipher-based suite (ChaCha20-Poly1305, RFC 8439) and a
//! block-cipher-based suite (AES-256-CTR with HMAC-SHA-256 in
//! encrypt-then-MAC composition). Cascading both hedges against the
//! cryptanalysis of either family — the ArchiveSafeLT approach.

use crate::aes::Aes;
use crate::chacha::ChaCha20;
use crate::hmac::{hmac_sha256, verify_tag, HmacSha256};
use crate::poly1305::Poly1305;

/// Error returned when AEAD opening fails authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// An authenticated encryption scheme with associated data.
///
/// `seal` returns `ciphertext || tag`; `open` verifies and strips the tag.
/// Implementations are deterministic given (key, nonce, aad, plaintext) —
/// nonce uniqueness is the caller's responsibility.
pub trait Aead: core::fmt::Debug + Send + Sync {
    /// Key length in bytes.
    const KEY_LEN: usize;
    /// Nonce length in bytes.
    const NONCE_LEN: usize;
    /// Authentication tag length in bytes.
    const TAG_LEN: usize;

    /// Encrypts and authenticates `plaintext`, binding `aad`.
    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8>;

    /// Verifies and decrypts `ciphertext` (which includes the trailing tag).
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify.
    fn open(&self, nonce: &[u8], aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, AuthError>;
}

/// Zero bytes that pad Poly1305 input to a 16-byte boundary.
static PAD16: [u8; 16] = [0; 16];

/// ChaCha20-Poly1305 AEAD (RFC 8439).
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

impl ChaCha20Poly1305 {
    /// Creates an instance from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    fn poly_key(&self, nonce: &[u8; 12]) -> [u8; 32] {
        let block = ChaCha20::new(&self.key, nonce).block(0);
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&block[..32]);
        pk
    }

    fn compute_tag(poly_key: &[u8; 32], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut mac = Poly1305::new(poly_key);
        mac.update(aad);
        mac.update(&PAD16[..(16 - aad.len() % 16) % 16]);
        mac.update(ct);
        mac.update(&PAD16[..(16 - ct.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ct.len() as u64).to_le_bytes());
        mac.finalize()
    }
}

impl Aead for ChaCha20Poly1305 {
    const KEY_LEN: usize = 32;
    const NONCE_LEN: usize = 12;
    const TAG_LEN: usize = 16;

    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let nonce: &[u8; 12] = nonce.try_into().expect("nonce must be 12 bytes");
        let mut out = plaintext.to_vec();
        ChaCha20::new(&self.key, nonce).apply_keystream(1, &mut out);
        let tag = Self::compute_tag(&self.poly_key(nonce), aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, nonce: &[u8], aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, AuthError> {
        let nonce: &[u8; 12] = nonce.try_into().map_err(|_| AuthError)?;
        if ciphertext.len() < 16 {
            return Err(AuthError);
        }
        let (ct, tag) = ciphertext.split_at(ciphertext.len() - 16);
        let expect = Self::compute_tag(&self.poly_key(nonce), aad, ct);
        if !verify_tag(&expect, tag) {
            return Err(AuthError);
        }
        let mut out = ct.to_vec();
        ChaCha20::new(&self.key, nonce).apply_keystream(1, &mut out);
        Ok(out)
    }
}

/// AES-256-CTR with HMAC-SHA-256 (encrypt-then-MAC).
///
/// The 64-byte master key splits into an encryption half and a MAC half.
/// The MAC covers `nonce || aad_len || aad || ciphertext`, giving the same
/// binding properties as a standard AEAD. Both halves are expanded once
/// in [`Aes256CtrHmac::new`]: the AES key schedule and the HMAC state
/// after absorbing its ipad/opad blocks.
#[derive(Debug, Clone)]
pub struct Aes256CtrHmac {
    aes: Aes,
    mac: HmacSha256,
}

impl Aes256CtrHmac {
    /// Creates an instance from a 256-bit key, deriving independent
    /// encryption and MAC subkeys via HKDF.
    pub fn new(key: &[u8; 32]) -> Self {
        let okm = crate::hkdf::derive(b"aeon-aes-ctr-hmac", key, b"subkeys", 64);
        let enc_key: &[u8; 32] = okm[..32].try_into().expect("32-byte subkey");
        Aes256CtrHmac {
            aes: Aes::new_256(enc_key),
            mac: HmacSha256::new(&okm[32..]),
        }
    }

    fn iv_from_nonce(nonce: &[u8]) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..12].copy_from_slice(nonce);
        iv
    }

    fn compute_tag(&self, nonce: &[u8], aad: &[u8], ct: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        mac.update(ct);
        mac.finalize()
    }
}

impl Aead for Aes256CtrHmac {
    const KEY_LEN: usize = 32;
    const NONCE_LEN: usize = 12;
    const TAG_LEN: usize = 32;

    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        assert_eq!(nonce.len(), 12, "nonce must be 12 bytes");
        let mut out = plaintext.to_vec();
        self.aes.apply_ctr(&Self::iv_from_nonce(nonce), &mut out);
        let tag = self.compute_tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, nonce: &[u8], aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, AuthError> {
        if nonce.len() != 12 || ciphertext.len() < 32 {
            return Err(AuthError);
        }
        let (ct, tag) = ciphertext.split_at(ciphertext.len() - 32);
        let expect = self.compute_tag(nonce, aad, ct);
        if !verify_tag(&expect, tag) {
            return Err(AuthError);
        }
        let mut out = ct.to_vec();
        self.aes.apply_ctr(&Self::iv_from_nonce(nonce), &mut out);
        Ok(out)
    }
}

/// Convenience: derives a deterministic nonce from context bytes by
/// hashing. Safe when each (key, context) pair is unique.
pub fn derive_nonce(context: &[u8]) -> [u8; 12] {
    let d = hmac_sha256(b"aeon-nonce", context);
    let mut n = [0u8; 12];
    n.copy_from_slice(&d[..12]);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::to_hex;

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = [
            0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let sealed = ChaCha20Poly1305::new(&key).seal(&nonce, &aad, pt);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(to_hex(&ct[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
    }

    fn roundtrip<A: Aead>(aead: &A) {
        let nonce = [9u8; 12];
        for len in [0usize, 1, 16, 17, 100, 1000] {
            let pt = vec![0x3Cu8; len];
            let sealed = aead.seal(&nonce, b"aad", &pt);
            let opened = aead.open(&nonce, b"aad", &sealed).unwrap();
            assert_eq!(opened, pt, "len {len}");
        }
    }

    #[test]
    fn chacha_roundtrip() {
        roundtrip(&ChaCha20Poly1305::new(&[1u8; 32]));
    }

    #[test]
    fn aes_roundtrip() {
        roundtrip(&Aes256CtrHmac::new(&[1u8; 32]));
    }

    fn tamper_detected<A: Aead>(aead: &A) {
        let nonce = [3u8; 12];
        let mut sealed = aead.seal(&nonce, b"aad", b"payload");
        // Flip a ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(aead.open(&nonce, b"aad", &sealed), Err(AuthError));
        sealed[0] ^= 1;
        // Flip a tag bit.
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(aead.open(&nonce, b"aad", &sealed), Err(AuthError));
        sealed[last] ^= 1;
        // Wrong AAD.
        assert_eq!(aead.open(&nonce, b"bad", &sealed), Err(AuthError));
        // Wrong nonce.
        assert_eq!(aead.open(&[4u8; 12], b"aad", &sealed), Err(AuthError));
        // Truncated.
        assert_eq!(aead.open(&nonce, b"aad", &sealed[..4]), Err(AuthError));
        // Intact still opens.
        assert!(aead.open(&nonce, b"aad", &sealed).is_ok());
    }

    #[test]
    fn chacha_tamper_detected() {
        tamper_detected(&ChaCha20Poly1305::new(&[2u8; 32]));
    }

    #[test]
    fn aes_tamper_detected() {
        tamper_detected(&Aes256CtrHmac::new(&[2u8; 32]));
    }

    #[test]
    fn different_keys_cannot_open() {
        let a = ChaCha20Poly1305::new(&[1u8; 32]);
        let b = ChaCha20Poly1305::new(&[2u8; 32]);
        let sealed = a.seal(&[0u8; 12], b"", b"msg");
        assert!(b.open(&[0u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn derive_nonce_deterministic() {
        assert_eq!(derive_nonce(b"ctx"), derive_nonce(b"ctx"));
        assert_ne!(derive_nonce(b"ctx1"), derive_nonce(b"ctx2"));
    }
}
