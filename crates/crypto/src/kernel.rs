//! Runtime-dispatched tiers for the two crypto hot loops.
//!
//! Every archived byte passes through SHA-256 and, under the AES suite,
//! AES-256-CTR on each ingest, retrieve, repair and re-encode step, so
//! these are the two places where CPU-specific code pays for itself. Each
//! primitive funnels through one small vtable chosen once per process,
//! following the rules of `aeon_gf::kernel`:
//!
//! | kernel           | tier                     | mechanism                                          | availability    |
//! |------------------|--------------------------|----------------------------------------------------|-----------------|
//! | [`Sha256Kernel`] | [`CryptoTier::Scalar`]   | FIPS 180-4 compression in portable Rust            | always          |
//! | [`Sha256Kernel`] | [`CryptoTier::Hardware`] | SHA-NI `sha256rnds2`/`sha256msg1`/`sha256msg2`     | x86-64 with SHA |
//! | [`AesCtrKernel`] | [`CryptoTier::Scalar`]   | table-driven FIPS 197 rounds, one block at a time  | always          |
//! | [`AesCtrKernel`] | [`CryptoTier::Hardware`] | AES-NI `aesenc`/`aesenclast`, 8 blocks in flight   | x86-64 with AES |
//!
//! The scalar tier is the always-available oracle: every other tier is
//! byte-identical to it (`tests/tier_parity.rs`). The `active()` kernels
//! pick the fastest tier the host supports, probed with
//! `is_x86_feature_detected!` and cached in a `OnceLock`.
//! `AEON_FORCE_KERNEL=scalar` — the variable that pins the GF(2^8)
//! kernel — also pins both crypto kernels to scalar; any other value
//! leaves crypto on auto-detection.

use std::sync::OnceLock;

use crate::aes::Aes;

/// The implementation tiers, ordered slowest to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CryptoTier {
    /// Portable Rust (the universal reference).
    Scalar,
    /// The host's crypto instructions (SHA-NI for SHA-256, AES-NI for AES).
    Hardware,
}

impl CryptoTier {
    /// All tiers, slowest first (the order `supported()` probes).
    pub const ALL: [CryptoTier; 2] = [CryptoTier::Scalar, CryptoTier::Hardware];
}

/// Whether `AEON_FORCE_KERNEL=scalar` pins every kernel to its scalar tier.
fn forced_scalar() -> bool {
    std::env::var("AEON_FORCE_KERNEL").is_ok_and(|v| v.trim().eq_ignore_ascii_case("scalar"))
}

/// Compresses each whole 64-byte block into a SHA-256 state.
type Sha256Blocks = fn(&mut [u32; 8], &[u8]);
/// Applies the CTR keystream of an expanded key to a buffer.
type CtrApply = fn(&Aes, &[u8; 16], &mut [u8]);

/// One tier's SHA-256 block compression; [`crate::Sha256::with_kernel`]
/// hashes through it.
#[derive(Debug)]
pub struct Sha256Kernel {
    pub(crate) tier: CryptoTier,
    pub(crate) name: &'static str,
    pub(crate) blocks: Sha256Blocks,
}

impl Sha256Kernel {
    /// Which tier this kernel implements.
    pub fn tier(&self) -> CryptoTier {
        self.tier
    }

    /// Lowercase name for benchmark output (`scalar`, `sha-ni`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The process-wide kernel: the fastest supported tier, or scalar
    /// under `AEON_FORCE_KERNEL=scalar`. Chosen on first use and cached.
    pub fn active() -> &'static Sha256Kernel {
        static ACTIVE: OnceLock<&'static Sha256Kernel> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            if forced_scalar() {
                &SHA256_SCALAR
            } else {
                best(Sha256Kernel::supported())
            }
        })
    }

    /// The kernel for a specific tier, or `None` when the host cannot run
    /// it. `Scalar` always succeeds.
    pub fn for_tier(tier: CryptoTier) -> Option<&'static Sha256Kernel> {
        match tier {
            CryptoTier::Scalar => Some(&SHA256_SCALAR),
            #[cfg(target_arch = "x86_64")]
            CryptoTier::Hardware => crate::hw::sha256_kernel(),
            #[cfg(not(target_arch = "x86_64"))]
            CryptoTier::Hardware => None,
        }
    }

    /// Every tier the host supports, slowest first.
    pub fn supported() -> Vec<&'static Sha256Kernel> {
        CryptoTier::ALL
            .into_iter()
            .filter_map(Sha256Kernel::for_tier)
            .collect()
    }
}

/// One tier's AES CTR-mode keystream.
#[derive(Debug)]
pub struct AesCtrKernel {
    pub(crate) tier: CryptoTier,
    pub(crate) name: &'static str,
    pub(crate) ctr: CtrApply,
}

impl AesCtrKernel {
    /// Which tier this kernel implements.
    pub fn tier(&self) -> CryptoTier {
        self.tier
    }

    /// Lowercase name for benchmark output (`scalar`, `aes-ni`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The process-wide kernel: the fastest supported tier, or scalar
    /// under `AEON_FORCE_KERNEL=scalar`. Chosen on first use and cached.
    pub fn active() -> &'static AesCtrKernel {
        static ACTIVE: OnceLock<&'static AesCtrKernel> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            if forced_scalar() {
                &AES_CTR_SCALAR
            } else {
                best(AesCtrKernel::supported())
            }
        })
    }

    /// The kernel for a specific tier, or `None` when the host cannot run
    /// it. `Scalar` always succeeds.
    pub fn for_tier(tier: CryptoTier) -> Option<&'static AesCtrKernel> {
        match tier {
            CryptoTier::Scalar => Some(&AES_CTR_SCALAR),
            #[cfg(target_arch = "x86_64")]
            CryptoTier::Hardware => crate::hw::aes_ctr_kernel(),
            #[cfg(not(target_arch = "x86_64"))]
            CryptoTier::Hardware => None,
        }
    }

    /// Every tier the host supports, slowest first.
    pub fn supported() -> Vec<&'static AesCtrKernel> {
        CryptoTier::ALL
            .into_iter()
            .filter_map(AesCtrKernel::for_tier)
            .collect()
    }

    /// XORs the CTR keystream of `aes` into `data`, starting from counter
    /// block `iv` (big-endian wrapping increment of the low 32 bits).
    #[inline]
    pub fn apply_ctr(&self, aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
        (self.ctr)(aes, iv, data)
    }
}

fn best<K>(supported: Vec<&'static K>) -> &'static K {
    supported.last().copied().expect("scalar always supported")
}

static SHA256_SCALAR: Sha256Kernel = Sha256Kernel {
    tier: CryptoTier::Scalar,
    name: "scalar",
    blocks: crate::sha2::compress_blocks_scalar,
};

static AES_CTR_SCALAR: AesCtrKernel = AesCtrKernel {
    tier: CryptoTier::Scalar,
    name: "scalar",
    ctr: crate::aes::ctr_scalar,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_a_supported_tier() {
        let sha = Sha256Kernel::active().tier();
        assert!(Sha256Kernel::supported().iter().any(|k| k.tier() == sha));
        let aes = AesCtrKernel::active().tier();
        assert!(AesCtrKernel::supported().iter().any(|k| k.tier() == aes));
        if forced_scalar() {
            assert_eq!((sha, aes), (CryptoTier::Scalar, CryptoTier::Scalar));
        }
    }
}
