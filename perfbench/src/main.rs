//! The aeon benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dedup_versions|maintenance_under_load> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then repeats lifecycle
//! passes (see [`world`]) until `--seconds` have elapsed. With
//! `--trace 0` it prints the end-to-end metrics: figures timed in process
//! CPU time over the passes, and virtual-clock figures that must repeat exactly
//! in every pass. With `--trace 1` it alternates untraced and traced
//! passes, checks that tracing changed no result, and prints per-layer
//! metrics from the traced passes and their layer probes. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod probes;
mod trace;
mod world;

use aeon_serve::LatencyHistogram;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use world::{Kind, Pass, Workload};

/// Worlds per run: the seed derives this many sub-seeds, pass `i` runs
/// sub-seed `i % WORLDS`, and virtual metrics pool all of them, so one
/// run's figures rest on more requests and repairs than one world holds.
/// A pass generates its world's inputs afresh, outside every timed
/// region, so only one world's inputs are in memory at a time.
const WORLDS: usize = 8;
/// Untraced passes a `--trace 0` run makes at least: one warm-up pass,
/// whose timed figures are dropped, then every world once.
const MIN_PASSES: usize = WORLDS + 1;

fn sub_seed(seed: u64, world: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(world as u64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Per-layer figures of one traced pass.
struct Layers {
    pass: Pass,
    probes: probes::Probes,
    archive_self_share: f64,
    spans: usize,
}

fn traced_pass(
    w: &Workload,
    args: &Args,
    seed: u64,
    items: &[world::Item],
    first: bool,
) -> Result<Layers, String> {
    let tracer = Arc::new(Tracer::new());
    let pass = world::run_pass(w, seed, items, Some(&tracer));
    let stats = &pass.traced.as_ref().expect("traced pass").total;
    let frames = stats.get_batch_calls + stats.put_batch_calls;
    let shape = (
        stats.batch_keys.checked_div(frames).unwrap_or(1) as usize,
        stats.frame_bytes.checked_div(stats.batch_keys).unwrap_or(1) as usize,
    );
    let probes = probes::run(Some(&tracer), items, &w.policy, shape)?;
    let spans = tracer.spans();
    let self_ns = trace::self_wall_ns(&spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&self_ns) {
        if matches!(s.name, "core.archive.ingest" | "core.archive.retrieve") {
            own += own_ns;
            total += s.wall_ns();
        }
    }
    if first {
        let path = format!(
            "{}/out/trace-{}-{}.tsv",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        tracer
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Layers {
        pass,
        probes,
        archive_self_share: own as f64 / total.max(1) as f64,
        spans: spans.len(),
    })
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value fails the run (see `run`); keep the
            // line valid JSON regardless.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Quantile `q` of a latency histogram in ms, interpolated linearly
/// inside the bucket that holds it, so that it moves with the
/// distribution rather than in bucket-width steps. Bucket edges follow
/// the histogram's documented shape (exact below 16 ns, then 16
/// sub-buckets per power of two); the upper edge must equal what
/// `LatencyHistogram::quantile` reports.
fn quantile_ms(h: &LatencyHistogram, q: f64) -> Result<f64, String> {
    let total = h.total();
    if total == 0 {
        return Err("no latency samples".into());
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for (i, &count) in h.counts().iter().enumerate() {
        if below + count >= rank {
            let (lo, hi) = if i < 16 {
                (i as u64, i as u64)
            } else {
                let (octave, sub) = ((i - 16) / 16, ((i - 16) % 16) as u64);
                ((16 + sub) << octave, ((17 + sub) << octave) - 1)
            };
            if hi != h.quantile(q).as_nanos() {
                return Err(format!("latency bucket {i} has an unexpected upper edge"));
            }
            let share = (rank - below) as f64 / count as f64;
            return Ok((lo as f64 + (hi - lo) as f64 * share) / 1e6);
        }
        below += count;
    }
    Err("latency rank beyond the histogram".into())
}

/// Served-request latencies of every world in one histogram.
fn pooled_latency(worlds: &[&world::Exact]) -> LatencyHistogram {
    let mut latency = LatencyHistogram::new();
    for e in worlds {
        latency.merge(&e.latency);
    }
    latency
}

/// Timed figures (process CPU time): taken over the passes after the
/// warm-up pass; `setup_s` is their median, each rate their fastest.
/// Virtual figures: pooled over the worlds (one exact result each).
fn end_to_end(plain: &[Pass], worlds: &[&world::Exact]) -> Result<Metrics, String> {
    let timed = &plain[1..];
    let med = |f: fn(&Pass) -> f64| median(timed.iter().map(f).collect());
    // Noise on a shared host only ever slows a pass down, so a phase's
    // fastest timed pass is the nearest to the program's own cost, while
    // a median follows how much of the run the host was busy (Chen and
    // Revels, "Robust benchmarking in noisy environments", 2016).
    let rate = |f: fn(&Pass) -> &world::Phase| {
        timed
            .iter()
            .map(|p| f(p).work as f64 / f(p).secs.max(1e-9))
            .fold(0.0, f64::max)
    };
    let mean = |f: fn(&world::Exact) -> f64| {
        worlds.iter().map(|e| f(e)).sum::<f64>() / worlds.len() as f64
    };
    let latency = pooled_latency(worlds);
    let stored: u64 = worlds.iter().map(|e| e.stored_bytes).sum();
    let user: u64 = worlds.iter().map(|e| e.user_bytes).sum();
    let mut m = Metrics(Vec::new());
    m.push("setup_s", med(|p| p.cpu.setup_s), "s");
    m.push("ingest_MBps", rate(|p| &p.cpu.ingest) / 1e6, "MB/s");
    m.push("retrieve_MBps", rate(|p| &p.cpu.retrieve) / 1e6, "MB/s");
    m.push("stored_per_user_byte", stored as f64 / user as f64, "ratio");
    m.push("peak_rss_MB", peak_rss_mb(), "MB");
    m.push("repair_virtual_s", mean(|e| e.repair_virtual_s), "s");
    m.push("repair_MBps", rate(|p| &p.cpu.repair) / 1e6, "MB/s");
    m.push("campaign_virtual_s", mean(|e| e.campaign_virtual_s), "s");
    m.push("request_p50_virtual_ms", quantile_ms(&latency, 0.50)?, "ms");
    m.push("request_p99_virtual_ms", quantile_ms(&latency, 0.99)?, "ms");
    m.push("requests_per_cpu_s", rate(|p| &p.cpu.serve), "req/s");
    Ok(m)
}

fn per_layer(plain: &[Pass], traced: &[Layers]) -> Metrics {
    let tmed = |f: &dyn Fn(&Layers) -> f64| median(traced.iter().map(f).collect());
    let first = &traced[0];
    let e = &first.pass.exact;
    let tr = first.pass.traced.as_ref().expect("traced pass");
    let (n, r) = (&tr.total, &tr.repair);
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut m = Metrics(Vec::new());
    m.push(
        "core.archive.ingest_busy_s",
        tmed(&|l| l.pass.cpu.ingest.secs),
        "s",
    );
    m.push(
        "core.archive.retrieve_busy_s",
        tmed(&|l| l.pass.cpu.retrieve.secs),
        "s",
    );
    m.push(
        "core.archive.self_share",
        tmed(&|l| l.archive_self_share),
        "ratio",
    );
    m.push(
        "core.codec.encode_MBps",
        tmed(&|l| l.probes.codec_encode),
        "MB/s",
    );
    m.push(
        "core.codec.decode_MBps",
        tmed(&|l| l.probes.codec_decode),
        "MB/s",
    );
    m.push(
        "crypto.sha2.sha256_MBps",
        tmed(&|l| l.probes.sha256),
        "MB/s",
    );
    m.push(
        "crypto.aead.aes_ctr_hmac_MBps",
        tmed(&|l| l.probes.aes_ctr_hmac),
        "MB/s",
    );
    m.push(
        "crypto.aead.chacha20_poly1305_MBps",
        tmed(&|l| l.probes.chacha20_poly1305),
        "MB/s",
    );
    let tier = aeon_gf::Kernel::active().tier();
    let rank = aeon_gf::KernelTier::ALL.iter().position(|t| *t == tier);
    m.push("gf.kernel.tier", rank.unwrap_or(0) as f64, "rank");
    m.push(
        "gf.kernel.rs_encode_MBps",
        tmed(&|l| l.probes.rs_encode),
        "MB/s",
    );
    m.push(
        "gf.kernel.rs_reconstruct_MBps",
        tmed(&|l| l.probes.rs_reconstruct),
        "MB/s",
    );
    m.push(
        "gf.kernel.shamir_split_MBps",
        tmed(&|l| l.probes.shamir_split),
        "MB/s",
    );
    m.push(
        "cas.chunker.boundaries_MBps",
        tmed(&|l| l.probes.chunker),
        "MB/s",
    );
    m.push("cas.chunker.chunks", first.probes.chunks as f64, "count");
    m.push("core.dedup.dedup_ratio", e.dedup_ratio, "ratio");
    m.push(
        "core.dedup.unique_data_blocks",
        e.dedup_unique_data_blocks as f64,
        "count",
    );
    m.push(
        "core.dedup.tree_blocks",
        e.dedup_tree_blocks as f64,
        "count",
    );
    m.push("core.dedup.index_hit_rate", e.dedup_index_hit_rate, "ratio");
    m.push(
        "store.batch.frame_encode_MBps",
        tmed(&|l| l.probes.frame_encode),
        "MB/s",
    );
    m.push(
        "store.batch.read_frame_decode_MBps",
        tmed(&|l| l.probes.read_frame_decode),
        "MB/s",
    );
    m.push("store.node.get_calls", n.get_calls as f64, "count");
    m.push("store.node.put_calls", n.put_calls as f64, "count");
    m.push(
        "store.node.get_batch_calls",
        n.get_batch_calls as f64,
        "count",
    );
    m.push(
        "store.node.put_batch_calls",
        n.put_batch_calls as f64,
        "count",
    );
    let frames = n.get_batch_calls + n.put_batch_calls;
    m.push(
        "store.node.keys_per_batch",
        n.batch_keys as f64 / frames.max(1) as f64,
        "count",
    );
    m.push("store.node.bytes_read", n.bytes_read as f64, "bytes");
    m.push("store.node.bytes_written", n.bytes_written as f64, "bytes");
    m.push(
        "store.node.wall_busy_s",
        tmed(&|l| {
            secs(
                l.pass
                    .traced
                    .as_ref()
                    .expect("traced pass")
                    .total
                    .wall_busy_ns,
            )
        }),
        "s",
    );
    let ok_keys = n.key_attempts - n.failed_attempts;
    m.push(
        "store.retry.attempts_per_key",
        n.key_attempts as f64 / ok_keys.max(1) as f64,
        "ratio",
    );
    m.push(
        "store.retry.failed_attempts",
        n.failed_attempts as f64,
        "count",
    );
    m.push(
        "store.retry.backoff_virtual_s",
        secs(n.backoff_virtual_ns),
        "s",
    );
    m.push(
        "store.throughput.seek_virtual_s",
        secs(n.seek_virtual_ns),
        "s",
    );
    m.push(
        "store.throughput.transfer_virtual_s",
        secs(n.transfer_virtual_ns),
        "s",
    );
    // Lanes during the repair drain: media-busy time summed over drives
    // per second of clock advance, and the drive time left idle.
    let busy: u64 = r.busy_virtual_ns.values().sum();
    let advance = e.repair_virtual_s;
    m.push(
        "store.lane.overlap",
        secs(busy) / advance.max(1e-12),
        "ratio",
    );
    let idle: f64 = (0..6u32)
        .map(|d| (advance - secs(r.busy_virtual_ns.get(&d).copied().unwrap_or(0))).max(0.0))
        .sum();
    m.push("store.lane.idle_virtual_s", idle, "s");
    m.push(
        "serve.cache.payload_hit_rate",
        e.cache_payload_hit_rate,
        "ratio",
    );
    m.push(
        "serve.cache.manifest_hit_rate",
        e.cache_manifest_hit_rate,
        "ratio",
    );
    m.push("serve.cache.evictions", e.cache_evictions as f64, "count");
    m.push(
        "serve.admission.queue_wait_p99_virtual_ms",
        e.queue_wait_p99_virtual_ms,
        "ms",
    );
    m.push("serve.admission.rejected", e.rejected as f64, "count");
    m.push("serve.engine.cpu_s", tmed(&|l| l.pass.cpu.serve.secs), "s");
    m.push("core.fleet.tickets", e.fleet_tickets as f64, "count");
    m.push(
        "core.fleet.objects_repaired",
        e.fleet_objects_repaired as f64,
        "count",
    );
    m.push(
        "core.fleet.bytes_moved",
        e.fleet_bytes_moved as f64,
        "bytes",
    );
    m.push(
        "core.fleet.foreground_virtual_s",
        e.fleet_foreground_virtual_s,
        "s",
    );
    m.push(
        "core.campaign.objects_done",
        e.campaign_objects_done as f64,
        "count",
    );
    m.push(
        "core.campaign.bytes_read",
        e.campaign_bytes_read as f64,
        "bytes",
    );
    m.push(
        "core.campaign.bytes_written",
        e.campaign_bytes_written as f64,
        "bytes",
    );
    // Fastest pass on each side, as for the end-to-end rates.
    let plain_s = plain.iter().map(|p| p.cpu.pass_s).fold(f64::MAX, f64::min);
    let traced_s = traced
        .iter()
        .map(|l| l.pass.cpu.pass_s)
        .fold(f64::MAX, f64::min);
    let overhead = traced_s - plain_s;
    m.push("trace.overhead_s", overhead, "s");
    m.push(
        "trace.overhead_share",
        overhead / plain_s.max(1e-9),
        "ratio",
    );
    m.push("trace.spans", first.spans as f64, "count");
    m
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Both variables would silently change what is measured: the first
    // picks a slower GF kernel, the second overrides explicit dispatch.
    for var in ["AEON_FORCE_KERNEL", "AEON_FORCE_DISPATCH"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it to benchmark"));
        }
    }
    let kind =
        Kind::parse(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let w = Workload::new(kind);
    let seeds: Vec<u64> = (0..WORLDS).map(|k| sub_seed(args.seed, k)).collect();

    let mut errors = Vec::new();
    if let Err(e) = world::check_decorator(&w, seeds[0]) {
        errors.push(e);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    loop {
        if args.trace && plain.len() > traced.len() {
            let k = traced.len() % WORLDS;
            let first = traced.is_empty();
            let items = world::inputs(&w, seeds[k]);
            traced.push(traced_pass(&w, &args, seeds[k], &items, first)?);
        } else {
            let k = plain.len() % WORLDS;
            let items = world::inputs(&w, seeds[k]);
            plain.push(world::run_pass(&w, seeds[k], &items, None));
        }
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            plain.len() >= MIN_PASSES
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    for p in &plain {
        let w = &p.cpu;
        eprintln!(
            "perfbench: pass {:.2} s wall, {:.2} s cpu: setup {:.2} s, ingest {:.1} MB/s, retrieve {:.1} MB/s, repair {:.1} MB/s, serve {:.2} s",
            p.wall_s,
            w.pass_s,
            w.setup_s,
            w.ingest.work as f64 / 1e6 / w.ingest.secs,
            w.retrieve.work as f64 / 1e6 / w.retrieve.secs,
            w.repair.work as f64 / 1e6 / w.repair.secs,
            w.serve.secs
        );
    }
    // Every pass of a world, traced or not, must reproduce its first pass.
    let worlds: Vec<&world::Exact> = plain.iter().take(WORLDS).map(|p| &p.exact).collect();
    let passes = plain.iter().enumerate().map(|(i, p)| ("pass", i, p));
    let traced_passes = traced
        .iter()
        .enumerate()
        .map(|(i, l)| ("traced pass", i, &l.pass));
    let mut trace_identical = true;
    for (label, i, p) in passes.chain(traced_passes) {
        errors.extend(p.errors.iter().map(|e| format!("{label} {i}: {e}")));
        if p.exact != *worlds[i % WORLDS] {
            trace_identical &= p.traced.is_none();
            errors.push(format!(
                "{label} {i}: virtual results differ from pass {}",
                i % WORLDS
            ));
        }
    }
    let all: Vec<&Pass> = plain.iter().chain(traced.iter().map(|l| &l.pass)).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    // p99 is reported only with at least ten samples beyond it.
    let samples = pooled_latency(&worlds).total();
    if samples < 1000 && !args.trace {
        errors.push(format!("{samples} latency samples: too few for a p99"));
    }
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, &worlds).unwrap_or_else(|e| {
            errors.push(e);
            Metrics(Vec::new())
        })
    };
    if let Some((name, ..)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        errors.push(format!("metric {name} is not finite"));
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    eprintln!(
        "perfbench: {} {} passes, {} traced, {:.1} s",
        args.workload,
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "env {{\"nproc\": {}, \"pipeline_workers\": {}, \"dispatch_workers\": {}, \"kernel_tier\": \"{}\", \"latency_samples\": {samples}, \"trace_identical\": {}, \"event_digest\": \"{}\"}}",
        world::nproc(),
        world::WORKERS,
        world::WORKERS,
        aeon_gf::Kernel::active().tier().name(),
        trace_identical,
        worlds[0].event_digest.iter().map(|b| format!("{b:02x}")).collect::<String>(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        metrics.json()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
