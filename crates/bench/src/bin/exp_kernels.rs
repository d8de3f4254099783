//! Kernel-throughput baseline: GB/s for every GF(2^8) and crypto
//! dispatch tier.
//!
//! Measures each supported [`Kernel`] tier (scalar, SWAR, and — when the
//! host has them — SSSE3/AVX2) on the three slice operations the archive
//! hot paths use: `mul_slice`, `mul_add_slice`, and the fused
//! `mul_add_rows`; and each supported crypto tier (scalar, and — when the
//! host has them — SHA-NI/AES-NI) on `sha256` and `aes256_ctr`. Every
//! cell runs at 4 KiB / 64 KiB / 1 MiB buffers. Emits
//! `BENCH_kernels.json` so future PRs diff kernel throughput against a
//! pinned baseline instead of a feeling.
//!
//! Timing is min-of-N over repeated sweeps: on a shared host the
//! *minimum* is the reproducible number — every slower sample is the
//! kernel plus someone else's noise. `--quick` (CI) cuts the per-cell
//! byte budget and repetitions; `--rows N` changes the fused-row fan-in
//! (default 8, a typical RS data width).

use std::hint::black_box;
use std::time::Instant;

use aeon_bench::{f2, reference_payload, CliArgs, Json, Table};
use aeon_crypto::aes::Aes;
use aeon_crypto::kernel::{AesCtrKernel, Sha256Kernel};
use aeon_crypto::Sha256;
use aeon_gf::slice::{mul_add_rows_on, Gf256MulTable};
use aeon_gf::{Gf256, Kernel};

/// Buffer sizes every cell is measured at.
const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];

/// A generic odd scalar (not 0, 1, or a power of two) so no tier hits a
/// degenerate fast path.
const SCALAR: u8 = 0xB7;

struct Cell {
    kernel: &'static str,
    op: &'static str,
    size: usize,
    gbs: f64,
}

/// Times `work` (which processes `bytes_per_call` bytes per invocation)
/// and returns GB/s from the fastest of `reps` timed sweeps.
fn best_gbs(bytes_per_call: usize, budget: usize, reps: usize, mut work: impl FnMut()) -> f64 {
    let iters = (budget / bytes_per_call).max(1);
    // Warmup sweep: faults pages, warms caches and the branch predictor.
    for _ in 0..iters.min(16) {
        work();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            work();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (iters * bytes_per_call) as f64 / best / 1e9
}

fn main() {
    let args = CliArgs::parse();
    let quick = args.flag("--quick");
    let row_count = args.usize_value("--rows", 8);
    let budget = if quick { 8 << 20 } else { 32 << 20 };
    let reps = if quick { 3 } else { 7 };

    let table = Gf256MulTable::new(Gf256::new(SCALAR));
    let max = *SIZES.last().expect("sizes");
    let src = reference_payload(max, 0xAE0);
    let rows_data: Vec<Vec<u8>> = (0..row_count)
        .map(|r| reference_payload(max, 0xAE1 + r as u64))
        .collect();
    // Row coefficients cycle through distinct non-trivial scalars.
    let row_tables: Vec<Gf256MulTable> = (0..row_count)
        .map(|r| Gf256MulTable::new(Gf256::new(SCALAR.wrapping_add(2 * r as u8 + 2))))
        .collect();
    let mut dst = vec![0u8; max];

    let mut cells: Vec<Cell> = Vec::new();
    let mut out = Table::new(
        "GF(2^8) and crypto kernel throughput (GB/s, min-of-N)",
        &["kernel", "op", "size", "GB/s"],
    );
    for kernel in Kernel::supported() {
        let name = kernel.tier().name();
        for size in SIZES {
            let gbs = best_gbs(size, budget, reps, || {
                kernel.mul_slice(&table, black_box(&src[..size]), black_box(&mut dst[..size]));
            });
            cells.push(Cell {
                kernel: name,
                op: "mul_slice",
                size,
                gbs,
            });

            let gbs = best_gbs(size, budget, reps, || {
                kernel.mul_add_slice(&table, black_box(&src[..size]), black_box(&mut dst[..size]));
            });
            cells.push(Cell {
                kernel: name,
                op: "mul_add_slice",
                size,
                gbs,
            });

            let trows: Vec<(&Gf256MulTable, &[u8])> = row_tables
                .iter()
                .zip(&rows_data)
                .map(|(t, d)| (t, &d[..size]))
                .collect();
            let gbs = best_gbs(size * row_count, budget, reps, || {
                mul_add_rows_on(kernel, black_box(&mut dst[..size]), black_box(&trows));
            });
            cells.push(Cell {
                kernel: name,
                op: "mul_add_rows",
                size,
                gbs,
            });
        }
    }
    let aes = Aes::new_256(&[0xA5; 32]);
    let iv = [0x5A; 16];
    for kernel in Sha256Kernel::supported() {
        for size in SIZES {
            let gbs = best_gbs(size, budget, reps, || {
                let mut h = Sha256::with_kernel(kernel);
                h.update(black_box(&src[..size]));
                black_box(h.finalize());
            });
            cells.push(Cell {
                kernel: kernel.name(),
                op: "sha256",
                size,
                gbs,
            });
        }
    }
    for kernel in AesCtrKernel::supported() {
        for size in SIZES {
            let gbs = best_gbs(size, budget, reps, || {
                kernel.apply_ctr(&aes, &iv, black_box(&mut dst[..size]));
            });
            cells.push(Cell {
                kernel: kernel.name(),
                op: "aes256_ctr",
                size,
                gbs,
            });
        }
    }
    for c in &cells {
        out.row(&[
            c.kernel.to_string(),
            c.op.to_string(),
            format!("{}KiB", c.size / 1024),
            f2(c.gbs),
        ]);
    }
    out.emit("E_kernels");

    let lookup = |kernel: &str, op: &str, size: usize| {
        cells
            .iter()
            .find(|c| c.kernel == kernel && c.op == op && c.size == size)
            .map(|c| c.gbs)
            .expect("cell measured")
    };
    // The acceptance ratio: the portable wide tier must beat per-byte
    // scalar by 2x on the canonical RS inner-loop shape.
    let ratio =
        lookup("swar", "mul_add_slice", 64 * 1024) / lookup("scalar", "mul_add_slice", 64 * 1024);
    let active = Kernel::active().tier().name();
    let active_sha256 = Sha256Kernel::active().name();
    let active_aes = AesCtrKernel::active().name();
    println!("active kernel: {active}; sha256: {active_sha256}; aes-ctr: {active_aes}");
    println!(
        "swar/scalar mul_add_slice @64KiB: {}x (target >= 2x)",
        f2(ratio)
    );

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("kernels".into())),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        ("rows".into(), Json::Num(row_count as f64)),
        ("active_kernel".into(), Json::Str(active.into())),
        ("active_sha256".into(), Json::Str(active_sha256.into())),
        ("active_aes_ctr".into(), Json::Str(active_aes.into())),
        (
            "tiers".into(),
            Json::Arr(
                Kernel::supported()
                    .iter()
                    .map(|k| Json::Str(k.tier().name().into()))
                    .collect(),
            ),
        ),
        (
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("kernel".into(), Json::Str(c.kernel.into())),
                            ("op".into(), Json::Str(c.op.into())),
                            ("size".into(), Json::Num(c.size as f64)),
                            ("gbs".into(), Json::Num(c.gbs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("swar_vs_scalar_mul_add_64k".into(), Json::Num(ratio)),
    ]);
    if let Some(path) = json.write_artifact("BENCH_kernels.json") {
        println!("wrote {}", path.display());
    }
}
