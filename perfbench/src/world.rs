//! Workloads and the archive lifecycle every workload runs.
//!
//! One pass builds a fresh cluster and archive from the seed, then runs
//! five phases on them: ingest (the pre-load, timed as set-up), retrieve,
//! repair after a wiped drive, serve under a re-encode campaign, and a
//! final verification sweep. Workloads differ in their data, policies and
//! cluster, so each one puts its load on different layers. Every virtual
//! result of a pass is a pure function of the workload and the seed.

use crate::trace::{self, NodeLogSink, NodeStats, TimedNode, Tracer};
use aeon_core::{
    Archive, ArchiveConfig, DedupConfig, DispatchPolicy, ObjectId, PipelineConfig, PolicyKind,
    RepairBudget, RepairQueue, RepairQueueOrder, RepairTicket, RetryPolicy,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256, SuiteId};
use aeon_serve::{
    serve, ArrivalProcess, BackgroundCampaign, CacheConfig, EngineConfig, LatencyHistogram,
    TenantSpec, WorkloadSpec,
};
use aeon_store::node::{MemoryNode, NodeId, StorageNode};
use aeon_store::{
    Cluster, EpochSchedule, FaultPlan, FaultyNode, MediaProfile, SimClock, ThroughputNode,
    ThroughputProfile,
};
use std::sync::Arc;
use std::time::Instant;

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;
/// One drive per site; the wiped drive is always the first.
const DRIVES: u32 = 6;
const WIPED: usize = 0;
/// Foreground share reserved during repair and the campaign (§3.2).
const RESERVED: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DedupVersions,
    MaintenanceUnderLoad,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "dedup_versions" => Some(Kind::DedupVersions),
            "maintenance_under_load" => Some(Kind::MaintenanceUnderLoad),
            _ => None,
        }
    }
}

fn aes_rs() -> PolicyKind {
    PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 4,
        parity: 2,
    }
}

fn chacha_rs() -> PolicyKind {
    PolicyKind::Encrypted {
        suite: SuiteId::ChaCha20Poly1305,
        data: 4,
        parity: 2,
    }
}

/// How one workload configures the lifecycle.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// Archive default policy (serve writes use it too).
    pub policy: PolicyKind,
    /// Policy the background campaign re-encodes every object to.
    pub campaign_policy: PolicyKind,
    pub dedup: bool,
    /// Per-operation transient I/O fault probability on every drive.
    pub fault_rate: f64,
    pub parallel_dispatch: bool,
    /// Served requests per world, the gold tenant's read share (silver
    /// and bronze read 0.1 and 0.2 less), and the open-loop rate.
    pub requests: usize,
    pub read_fraction: f64,
    pub requests_per_sec: f64,
    pub cache_bytes: u64,
}

impl Workload {
    pub fn new(kind: Kind) -> Workload {
        match kind {
            // Archives are written far more than read: the multi-MiB
            // versions fit the hot cache, and the latency distribution is
            // set by writes queueing behind campaign steps.
            Kind::DedupVersions => Workload {
                kind,
                policy: chacha_rs(),
                campaign_policy: aes_rs(),
                dedup: true,
                fault_rate: 0.0,
                parallel_dispatch: false,
                requests: 600,
                read_fraction: 0.3,
                requests_per_sec: 3.0,
                cache_bytes: CacheConfig::default().capacity_bytes,
            },
            // The catalog is larger than the hot cache, so Zipf reads
            // keep reaching the drives.
            Kind::MaintenanceUnderLoad => Workload {
                kind,
                policy: aes_rs(),
                campaign_policy: chacha_rs(),
                dedup: false,
                fault_rate: 0.01,
                parallel_dispatch: true,
                requests: 500,
                read_fraction: 0.9,
                requests_per_sec: 20.0,
                cache_bytes: 2 * MIB as u64,
            },
        }
    }
}

/// One object of a workload's input.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    pub payload: Vec<u8>,
}

/// Generates the workload's objects from the seed.
pub fn inputs(w: &Workload, seed: u64) -> Vec<Item> {
    let mut rng = ChaChaDrbg::from_u64_seed(seed ^ 0x9E37_79B9_7F4A_7C15);
    let bytes = |rng: &mut ChaChaDrbg, n: usize| {
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    };
    match w.kind {
        // Each version inserts a few KiB at a random offset into the
        // previous one.
        Kind::DedupVersions => {
            let n = 3 * MIB + rng.gen_range(64 * KIB as u64) as usize;
            let mut doc = bytes(&mut rng, n);
            (0..6)
                .map(|v| {
                    if v > 0 {
                        let at = rng.gen_range(doc.len() as u64) as usize;
                        let len = KIB + rng.gen_range(7 * KIB as u64) as usize;
                        let insert = bytes(&mut rng, len);
                        doc.splice(at..at, insert);
                    }
                    Item {
                        name: format!("doc-v{v}"),
                        payload: doc.clone(),
                    }
                })
                .collect()
        }
        Kind::MaintenanceUnderLoad => (0..250)
            .map(|i| {
                let n = 16 * KIB + rng.gen_range(32 * KIB as u64) as usize;
                Item {
                    name: format!("rec-{i}"),
                    payload: bytes(&mut rng, n),
                }
            })
            .collect(),
    }
}

/// Worker threads for the pipeline and for lane dispatch, set
/// explicitly so the library defaults do not follow the host. One
/// thread keeps timed figures free of cross-CPU scheduling noise on small
/// shared hosts; lanes are still priced in parallel with one worker.
pub const WORKERS: usize = 1;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn drive_profile() -> ThroughputProfile {
    ThroughputProfile::from_media(&MediaProfile::hdd())
}

/// A cluster and archive built for one pass.
pub struct World {
    pub archive: Archive,
    pub clock: SimClock,
    drives: Vec<MemoryNode>,
}

impl World {
    /// Builds six single-drive sites, each an HDD-priced in-memory node
    /// (behind a fault injector when the workload has faults), wrapped
    /// in a [`TimedNode`] when `timed` is given.
    pub fn build(
        w: &Workload,
        seed: u64,
        timed: Option<(&Arc<Tracer>, &Arc<NodeLogSink>)>,
    ) -> World {
        let clock = SimClock::new();
        let profile = drive_profile();
        let plan = FaultPlan::new(seed).with_transient_io_rate(w.fault_rate);
        let mut drives = Vec::new();
        let mut nodes: Vec<Arc<dyn StorageNode>> = Vec::new();
        for i in 0..DRIVES {
            let drive = MemoryNode::new(i, format!("site-{i}"));
            drives.push(drive.clone());
            let mut node: Arc<dyn StorageNode> = Arc::new(drive);
            if w.fault_rate > 0.0 {
                // Inside the pricing decorator, so a batch stays one
                // priced frame while faults still hit single keys.
                node = Arc::new(FaultyNode::with_clock(
                    node,
                    plan.for_node(NodeId(i)),
                    clock.clone(),
                    EpochSchedule::default(),
                ));
            }
            node = Arc::new(ThroughputNode::new(node, profile, clock.clone()));
            if let Some((tracer, sink)) = timed {
                node = Arc::new(TimedNode::new(
                    node,
                    profile,
                    clock.clone(),
                    tracer.clone(),
                    sink.clone(),
                ));
            }
            nodes.push(node);
        }
        let dispatch = if w.parallel_dispatch {
            DispatchPolicy::Parallel { workers: WORKERS }
        } else {
            DispatchPolicy::Sequential
        };
        let mut config = ArchiveConfig::new(w.policy.clone())
            .with_pipeline(PipelineConfig::serial().with_workers(WORKERS))
            .with_dispatch(dispatch)
            .with_retry(RetryPolicy::default().with_attempts(5));
        if w.dedup {
            config = config.with_dedup(DedupConfig::default());
        }
        let cluster = Cluster::new(nodes).with_clock(clock.clone());
        let archive = Archive::with_cluster(config, cluster).expect("valid workload policy");
        World {
            archive,
            clock,
            drives,
        }
    }

    fn node_bytes(&self) -> Vec<u64> {
        self.drives.iter().map(MemoryNode::stored_bytes).collect()
    }

    fn wipe(&self, i: usize) {
        let drive = &self.drives[i];
        for key in drive.keys() {
            let _ = drive.delete(&key);
        }
    }
}

/// Results of one pass that must repeat exactly for a seed, traced or
/// not. Floats are compared bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub repair_virtual_s: f64,
    pub campaign_virtual_s: f64,
    pub latency: LatencyHistogram,
    pub event_digest: [u8; 32],
    pub end_virtual_ns: u64,
    pub fleet_tickets: u64,
    pub fleet_objects_repaired: u64,
    pub fleet_bytes_moved: u64,
    pub fleet_foreground_virtual_s: f64,
    pub campaign_objects_done: u64,
    pub campaign_bytes_read: u64,
    pub campaign_bytes_written: u64,
    pub cache_payload_hit_rate: f64,
    pub cache_manifest_hit_rate: f64,
    pub cache_evictions: u64,
    pub queue_wait_p99_virtual_ms: f64,
    pub rejected: u64,
    pub dedup_ratio: f64,
    pub dedup_unique_data_blocks: u64,
    pub dedup_tree_blocks: u64,
    pub dedup_index_hit_rate: f64,
}

/// Work one phase of a pass did and the CPU time spent inside its timed
/// calls.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub work: u64,
    pub secs: f64,
}

/// Timed results of one pass, in seconds of process CPU time (see
/// [`cpu_seconds`]).
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    pub setup_s: f64,
    /// User bytes ingested; user bytes retrieved and verified.
    pub ingest: Phase,
    pub retrieve: Phase,
    /// Bytes repair moved (read + written) in `drain_repairs`.
    pub repair: Phase,
    /// Served requests completed in `serve`.
    pub serve: Phase,
    pub pass_s: f64,
}

/// Node accounting of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub total: NodeStats,
    pub repair: NodeStats,
}

#[derive(Debug, Clone)]
pub struct Pass {
    pub exact: Exact,
    pub cpu: Cpu,
    /// Wall time of the whole pass, for the pass log.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; empty when every check held.
    pub errors: Vec<String>,
    pub traced: Option<Traced>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// CPU time this process has run so far, in seconds: every thread, live
/// or ended. The kernel leaves out the time the host ran other guests
/// (steal) and the time this process waited for a CPU, so a rate over it
/// does not follow the load of a shared host the way a wall rate does.
/// With one worker thread, it equals wall time on an idle host.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - t)
}

/// Runs one full lifecycle pass. With a tracer, spans are recorded and
/// every node call goes through a [`TimedNode`].
pub fn run_pass(w: &Workload, seed: u64, items: &[Item], tracer: Option<&Arc<Tracer>>) -> Pass {
    let pass_start = Instant::now();
    let pass_cpu = cpu_seconds();
    let sink = Arc::new(NodeLogSink::default());
    let t = tracer.map(|t| t.as_ref());
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut traced = tracer.map(|_| Traced::default());

    // Set-up: build the world and pre-load every object.
    let setup_start = cpu_seconds();
    let mut world = World::build(w, seed, tracer.map(|t| (t, &sink)));
    if let Some(t) = tracer {
        t.set_clock(&world.clock);
    }
    let user_bytes: u64 = items.iter().map(|it| it.payload.len() as u64).sum();
    let mut stored_items: Vec<(ObjectId, &Item)> = Vec::with_capacity(items.len());
    let mut ingest_s = 0.0;
    for it in items {
        attempted += 1;
        let (res, s) = trace::request(t, "core.archive.ingest", || {
            timed(|| world.archive.ingest(&it.payload, &it.name))
        });
        ingest_s += s;
        match res {
            Ok(id) => stored_items.push((id, it)),
            Err(e) => {
                failed += 1;
                errors.push(format!("ingest {}: {e}", it.name));
            }
        }
    }
    let setup_s = cpu_seconds() - setup_start;
    let stored = world.archive.cluster().total_stored_bytes();
    if !w.dedup {
        check_expansion(&w.policy, stored, items, &mut errors);
    }
    take_stats(&sink, &mut traced, false);

    // Retrieve every object and compare bytes.
    let (mut retrieved, mut retrieve_s) = (0u64, 0.0);
    for (id, it) in &stored_items {
        attempted += 1;
        let (res, s) = trace::request(t, "core.archive.retrieve", || {
            timed(|| world.archive.retrieve(id))
        });
        retrieve_s += s;
        match res {
            Ok(data) if data == it.payload => retrieved += data.len() as u64,
            Ok(_) => errors.push(format!("retrieve {}: bytes differ", it.name)),
            Err(e) => {
                failed += 1;
                errors.push(format!("retrieve {}: {e}", it.name));
            }
        }
    }
    if w.dedup {
        attempted += check_catalog(&mut world.archive, items, t, &mut errors);
    }
    take_stats(&sink, &mut traced, false);

    // Phase 1: lose a drive, scan, and drain repairs with reserved
    // foreground capacity.
    let before = world.node_bytes();
    world.wipe(WIPED);
    let v0 = world.clock.now();
    let scan = trace::request(t, "core.fleet.scan_fleet", || world.archive.scan_fleet());
    if !scan.lost.is_empty() {
        errors.push(format!(
            "{} objects lost to one wiped drive",
            scan.lost.len()
        ));
    }
    let mut queue = RepairQueue::from_scan(&scan, RepairQueueOrder::Priority);
    // The scan leaves block-tree objects to the dedup repair path, which
    // the same drain reaches through a ticket per object.
    for m in world.archive.manifests().filter(|m| m.blocks.is_some()) {
        queue.push(RepairTicket {
            id: m.id.clone(),
            surviving: 0,
            required: 0,
            total: 0,
        });
    }
    let tickets = queue.len() as u64;
    let budget = RepairBudget {
        bytes: u64::MAX,
        reserved_foreground: RESERVED,
    };
    let ((outcome, foreground), repair_s) = trace::request(t, "core.fleet.drain_repairs", || {
        timed(|| world.archive.drain_repairs(&mut queue, &budget))
    });
    let repair_virtual_s = (world.clock.now() - v0).as_secs_f64();
    attempted += tickets;
    failed += outcome.failed.len() as u64;
    for (id, e) in &outcome.failed {
        errors.push(format!("repair {id}: {e}"));
    }
    let after_scan = world.archive.scan_fleet();
    if !after_scan.tickets.is_empty() || !after_scan.lost.is_empty() {
        errors.push(format!(
            "{} tickets and {} lost objects after repair",
            after_scan.tickets.len(),
            after_scan.lost.len()
        ));
    }
    // Physics: a drive cannot take the rebuilt bytes faster than its
    // write rate, so the drain lasts at least that long.
    let profile = drive_profile();
    let busiest = world
        .node_bytes()
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b) as f64 / profile.write_bytes_per_sec)
        .fold(0.0, f64::max);
    if repair_virtual_s < busiest {
        errors.push(format!(
            "repair took {repair_virtual_s} virtual s, below the {busiest} s the busiest drive needs"
        ));
    }
    let bytes_moved = outcome.bytes_moved();
    take_stats(&sink, &mut traced, true);

    // Phase 2: open-loop multi-tenant serve while the campaign runs.
    let spec = WorkloadSpec::new(
        vec![
            TenantSpec::new("gold", 5.0).with_read_fraction(w.read_fraction),
            TenantSpec::new("silver", 3.0).with_read_fraction(w.read_fraction - 0.1),
            TenantSpec::new("bronze", 2.0).with_read_fraction(w.read_fraction - 0.2),
        ],
        ArrivalProcess::Open {
            requests_per_sec: w.requests_per_sec,
        },
    )
    .with_total_requests(w.requests)
    .with_write_bytes(16 * KIB)
    .with_zipf_exponent(1.1)
    .with_seed(seed);
    let config = EngineConfig {
        cache: CacheConfig {
            capacity_bytes: w.cache_bytes,
            ..CacheConfig::default()
        },
        background: Some(BackgroundCampaign {
            new_policy: w.campaign_policy.clone(),
            reserved_fraction: RESERVED,
        }),
        ..EngineConfig::default()
    };
    let catalog: Vec<ObjectId> = stored_items.iter().map(|(id, _)| id.clone()).collect();
    let (report, serve_s) = trace::request(t, "serve.engine.serve", || {
        timed(|| serve(&mut world.archive, &catalog, &spec, &config))
    });
    attempted += w.requests as u64;
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("serve: {e:?}"));
            return Pass {
                exact: Exact::default(),
                cpu: Cpu::default(),
                wall_s: pass_start.elapsed().as_secs_f64(),
                attempted,
                failed: failed + w.requests as u64,
                errors,
                traced,
            };
        }
    };
    let latency = report.merged_latency();
    let mut queue_wait = LatencyHistogram::new();
    let (mut completed, mut refused, mut rejected) = (0u64, 0u64, 0u64);
    for tenant in &report.tenants {
        queue_wait.merge(&tenant.queue_wait);
        completed += tenant.completed;
        refused += tenant.failed + tenant.rejected;
        rejected += tenant.rejected;
    }
    failed += refused;
    let campaign = report
        .campaign
        .expect("serve was given a background campaign");
    if campaign.objects_done != campaign.objects_total {
        errors.push(format!(
            "campaign migrated {} of {} objects",
            campaign.objects_done, campaign.objects_total
        ));
    }
    take_stats(&sink, &mut traced, false);

    // Every object must still read back intact after the campaign.
    for (id, it) in &stored_items {
        attempted += 1;
        match trace::request(t, "core.archive.retrieve", || world.archive.retrieve(id)) {
            Ok(data) if data == it.payload => {}
            Ok(_) => errors.push(format!("after campaign {}: bytes differ", it.name)),
            Err(e) => {
                failed += 1;
                errors.push(format!("after campaign {}: {e}", it.name));
            }
        }
    }
    take_stats(&sink, &mut traced, false);

    let ms = |d: aeon_store::SimDuration| d.as_secs_f64() * 1e3;
    let dedup = world.archive.dedup_stats();
    let cache = report.cache;
    let exact = Exact {
        stored_bytes: stored,
        user_bytes,
        repair_virtual_s,
        campaign_virtual_s: campaign.background_time.as_secs_f64(),
        latency,
        event_digest: report.event_digest,
        end_virtual_ns: world.clock.now().as_nanos(),
        fleet_tickets: tickets,
        fleet_objects_repaired: outcome.repaired.len() as u64,
        fleet_bytes_moved: bytes_moved,
        fleet_foreground_virtual_s: foreground.as_secs_f64(),
        campaign_objects_done: campaign.objects_done as u64,
        campaign_bytes_read: campaign.bytes_read,
        campaign_bytes_written: campaign.bytes_written,
        cache_payload_hit_rate: ratio(
            cache.payload_hits,
            cache.payload_hits + cache.payload_misses,
        ),
        cache_manifest_hit_rate: ratio(
            cache.manifest_hits,
            cache.manifest_hits + cache.manifest_misses,
        ),
        cache_evictions: cache.evictions,
        queue_wait_p99_virtual_ms: ms(queue_wait.quantile(0.99)),
        rejected,
        dedup_ratio: dedup.as_ref().map_or(0.0, |d| d.dedup_ratio),
        dedup_unique_data_blocks: dedup.as_ref().map_or(0, |d| d.unique_data_blocks as u64),
        dedup_tree_blocks: dedup.as_ref().map_or(0, |d| d.tree_blocks as u64),
        dedup_index_hit_rate: dedup
            .as_ref()
            .map_or(0.0, |d| ratio(d.index.hits, d.index.hits + d.index.misses)),
    };
    let cpu = Cpu {
        setup_s,
        ingest: Phase {
            work: user_bytes,
            secs: ingest_s,
        },
        retrieve: Phase {
            work: retrieved,
            secs: retrieve_s,
        },
        repair: Phase {
            work: bytes_moved,
            secs: repair_s,
        },
        serve: Phase {
            work: completed,
            secs: serve_s,
        },
        pass_s: cpu_seconds() - pass_cpu,
    };
    Pass {
        exact,
        cpu,
        wall_s: pass_start.elapsed().as_secs_f64(),
        attempted,
        failed,
        errors,
        traced,
    }
}

/// Moves the sink's counters into the pass totals (and into the repair
/// phase's own record when `repair`).
fn take_stats(sink: &NodeLogSink, traced: &mut Option<Traced>, repair: bool) {
    if let Some(tr) = traced.as_mut() {
        let s = sink.stats();
        sink.reset();
        tr.total.merge(&s);
        if repair {
            tr.repair = s;
        }
    }
}

/// Stored bytes per user byte must match the codec's analytic expansion,
/// plus at most [`SHARD_OVERHEAD`] bytes per shard per pipeline chunk
/// (tags, nonces, share coordinates).
const SHARD_OVERHEAD: u64 = 64;

fn check_expansion(policy: &PolicyKind, stored: u64, items: &[Item], errors: &mut Vec<String>) {
    let user: u64 = items.iter().map(|it| it.payload.len() as u64).sum();
    let chunks: u64 = items
        .iter()
        .map(|it| it.payload.len().div_ceil(aeon_core::DEFAULT_CHUNK_SIZE) as u64)
        .sum();
    let analytic = policy.expansion();
    let slack = (SHARD_OVERHEAD * policy.shard_count() as u64 * chunks) as f64;
    let measured = stored as f64 / user as f64;
    let ceiling = analytic + slack / user as f64;
    if measured < analytic || measured > ceiling {
        errors.push(format!(
            "{policy:?} stores {measured} bytes per user byte, outside [{analytic}, {ceiling}]"
        ));
    }
}

/// Commits the dedup catalog and checks that it lists every version and
/// that each version reads back by its root. Returns the reads made.
fn check_catalog(
    archive: &mut Archive,
    items: &[Item],
    t: Option<&Tracer>,
    errors: &mut Vec<String>,
) -> u64 {
    let root = match trace::request(t, "core.dedup.commit_catalog", || archive.commit_catalog()) {
        Ok(root) => root,
        Err(e) => {
            errors.push(format!("commit_catalog: {e}"));
            return 1;
        }
    };
    let entries = match archive.catalog_entries(&root) {
        Ok(entries) => entries,
        Err(e) => {
            errors.push(format!("catalog_entries: {e}"));
            return 1;
        }
    };
    let mut reads = 1;
    for it in items {
        let digest = Sha256::digest(&it.payload);
        let Some(entry) = entries
            .iter()
            .find(|e| e.name == it.name && e.digest == digest)
        else {
            errors.push(format!("catalog does not list {}", it.name));
            continue;
        };
        reads += 1;
        let read = trace::request(t, "core.dedup.read_object_by_root", || {
            archive.read_object_by_root(&entry.root)
        });
        if !matches!(read, Ok(ref data) if *data == it.payload) {
            errors.push(format!("read_object_by_root {} differs", it.name));
        }
    }
    reads
}

/// Checks that the timing decorator changes neither virtual time nor
/// stored bytes: the same batched reads on a decorated and a plain
/// cluster must end on the same clock reading and byte totals.
pub fn check_decorator(w: &Workload, seed: u64) -> Result<(), String> {
    // Classic objects: several shards per drive in one read frame.
    let w = &Workload {
        dedup: false,
        ..w.clone()
    };
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let payloads: Vec<Vec<u8>> = (0..3)
        .map(|_| {
            let mut p = vec![0u8; 48 * KIB];
            rng.fill_bytes(&mut p);
            p
        })
        .collect();
    let tracer = Arc::new(Tracer::new());
    let sink = Arc::new(NodeLogSink::default());
    let run = |timed: bool| -> Result<(u64, u64, Vec<Vec<u8>>), String> {
        let mut world = World::build(w, seed, timed.then_some((&tracer, &sink)));
        let mut ids: Vec<ObjectId> = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let id = world
                .archive
                .ingest_with_policy(p, &format!("fidelity-{i}"), aes_rs())
                .map_err(|e| e.to_string())?;
            ids.push(id);
        }
        let mut out = vec![world
            .archive
            .retrieve_batched(&ids[0])
            .map_err(|e| e.to_string())?];
        for r in world.archive.retrieve_many(&ids) {
            out.push(r.map_err(|e| e.to_string())?);
        }
        Ok((
            world.clock.now().as_nanos(),
            world.archive.cluster().total_stored_bytes(),
            out,
        ))
    };
    let plain = run(false)?;
    let decorated = run(true)?;
    if plain != decorated {
        return Err(format!(
            "decorated cluster differs: clock {} vs {}, stored {} vs {}",
            decorated.0, plain.0, decorated.1, plain.1
        ));
    }
    let stats = sink.stats();
    if stats.batch_keys <= stats.get_batch_calls + stats.put_batch_calls {
        return Err("batched reads did not reach the decorator as multi-key frames".into());
    }
    Ok(())
}
