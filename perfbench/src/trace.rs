//! Benchmark-side tracing.
//!
//! Spans are recorded from this package only, around calls into the
//! library's public functions, and by [`TimedNode`], a `StorageNode`
//! decorator that wraps every node call. Each span carries wall-clock
//! nanoseconds since the tracer started and, where the cluster has one,
//! the `SimClock` reading. Spans stay in memory until [`Tracer::write`].

use aeon_store::batch::{framed_len, read_framed_len};
use aeon_store::node::{NodeError, NodeId, ShardKey, StorageNode};
use aeon_store::{SimClock, ThroughputProfile};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub wall_start: u64,
    pub wall_end: u64,
    pub virt_start: u64,
    pub virt_end: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.wall_end - self.wall_start
    }
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    /// Open benchmark spans, innermost last. Load comes from one client
    /// thread, so this stack is the parent of every span that starts,
    /// including node spans on lane-dispatch worker threads.
    open: Vec<usize>,
    next_request: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    clock: Mutex<Option<SimClock>>,
    state: Mutex<TraceState>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            clock: Mutex::new(None),
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Stamps later spans with this clock's virtual time.
    pub fn set_clock(&self, clock: &SimClock) {
        *self.clock.lock().expect("tracer clock lock") = Some(clock.clone());
    }

    fn wall(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn virt(&self) -> u64 {
        self.clock
            .lock()
            .expect("tracer clock lock")
            .as_ref()
            .map_or(0, |c| c.now().as_nanos())
    }

    fn open(&self, name: &'static str, new_request: bool, push: bool) -> usize {
        let (wall_start, virt_start) = (self.wall(), self.virt());
        let mut st = self.state.lock().expect("tracer state lock");
        let parent = st.open.last().copied();
        let request = match (new_request, parent) {
            (false, Some(p)) => st.spans[p].request,
            _ => {
                st.next_request += 1;
                st.next_request
            }
        };
        let id = st.spans.len();
        st.spans.push(Span {
            name,
            parent,
            request,
            wall_start,
            wall_end: wall_start,
            virt_start,
            virt_end: virt_start,
        });
        if push {
            st.open.push(id);
        }
        id
    }

    fn close(&self, id: usize, pop: bool) {
        let (wall_end, virt_end) = (self.wall(), self.virt());
        let mut st = self.state.lock().expect("tracer state lock");
        if pop {
            let top = st.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
        let span = &mut st.spans[id];
        span.wall_end = wall_end;
        span.virt_end = virt_end;
    }

    fn scoped<T>(&self, name: &'static str, new_request: bool, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, new_request, true);
        let out = f();
        self.close(id, true);
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer state lock").spans.clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from(
            "id\tparent\trequest\tname\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns\n",
        );
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.wall_start, s.wall_end, s.virt_start, s.virt_end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span that starts a new request. A no-op wrapper
/// when tracing is off.
pub fn request<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.scoped(name, true, f),
        None => f(),
    }
}

/// Self time of every span: its wall duration minus the union of the
/// intervals its direct children cover (children may overlap when node
/// legs run on parallel lanes).
pub fn self_wall_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.wall_start, s.wall_end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.wall_start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.wall_end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.wall_ns() - covered
        })
        .collect()
}

/// Per-node call accounting gathered by [`TimedNode`].
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    pub get_calls: u64,
    pub put_calls: u64,
    pub get_batch_calls: u64,
    pub put_batch_calls: u64,
    pub batch_keys: u64,
    /// Single-key and per-key-in-batch attempts.
    pub key_attempts: u64,
    pub failed_attempts: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Sizes of the framed batch transfers seen, for the frame probe.
    pub frame_bytes: u64,
    pub wall_busy_ns: u64,
    /// Seek and transfer components of the media price of each call.
    pub seek_virtual_ns: u64,
    pub transfer_virtual_ns: u64,
    /// Virtual time between a failed single-key call and the next call
    /// on the same key: the retry layer's backoff.
    pub backoff_virtual_ns: u64,
    /// Each node's own media-busy time, by node id.
    pub busy_virtual_ns: HashMap<u32, u64>,
}

impl NodeStats {
    pub fn merge(&mut self, o: &NodeStats) {
        self.get_calls += o.get_calls;
        self.put_calls += o.put_calls;
        self.get_batch_calls += o.get_batch_calls;
        self.put_batch_calls += o.put_batch_calls;
        self.batch_keys += o.batch_keys;
        self.key_attempts += o.key_attempts;
        self.failed_attempts += o.failed_attempts;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.frame_bytes += o.frame_bytes;
        self.wall_busy_ns += o.wall_busy_ns;
        self.seek_virtual_ns += o.seek_virtual_ns;
        self.transfer_virtual_ns += o.transfer_virtual_ns;
        self.backoff_virtual_ns += o.backoff_virtual_ns;
        for (node, ns) in &o.busy_virtual_ns {
            *self.busy_virtual_ns.entry(*node).or_default() += ns;
        }
    }
}

#[derive(Debug, Default)]
struct NodeLog {
    stats: NodeStats,
    /// The last call, when it was a failed single-key call: `(is_put,
    /// key, virtual end)`. The retry layer's next attempt follows it
    /// directly, so the gap up to that attempt is its backoff.
    failed_last: Option<(bool, ShardKey, u64)>,
}

/// Shared sink the [`TimedNode`]s of one cluster report into.
#[derive(Debug, Default)]
pub struct NodeLogSink(Mutex<NodeLog>);

impl NodeLogSink {
    pub fn stats(&self) -> NodeStats {
        self.0.lock().expect("node log lock").stats.clone()
    }

    /// Forgets the counters, keeping pending retry state.
    pub fn reset(&self) {
        self.0.lock().expect("node log lock").stats = NodeStats::default();
    }
}

/// A `StorageNode` decorator that records a span and counters for every
/// call it forwards. Every method forwards to the same method of the
/// inner node: the trait's per-key `get_batch`/`put_batch` defaults
/// would split a framed batch into single calls and change what a
/// media-priced inner node charges.
#[derive(Debug)]
pub struct TimedNode {
    inner: Arc<dyn StorageNode>,
    profile: ThroughputProfile,
    clock: SimClock,
    tracer: Arc<Tracer>,
    sink: Arc<NodeLogSink>,
}

/// What one forwarded call did: its virtual start and wall duration,
/// per-key attempts and failures, payload bytes moved, framed bytes, and
/// the media price `(seek, transfer)` it incurs, in nanoseconds.
#[derive(Debug, Default)]
struct Observed {
    virt_start: u64,
    wall: u64,
    keys: u64,
    failed: u64,
    read: u64,
    written: u64,
    frame: u64,
    price: (u64, u64),
}

#[derive(Clone, Copy)]
enum Call<'a> {
    Get(&'a ShardKey),
    Put(&'a ShardKey),
    GetBatch,
    PutBatch,
    Delete,
}

impl TimedNode {
    pub fn new(
        inner: Arc<dyn StorageNode>,
        profile: ThroughputProfile,
        clock: SimClock,
        tracer: Arc<Tracer>,
        sink: Arc<NodeLogSink>,
    ) -> Self {
        TimedNode {
            inner,
            profile,
            clock,
            tracer,
            sink,
        }
    }

    /// Runs one forwarded call inside a span and returns its result with
    /// the call's start on the virtual clock and its wall duration.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Observed) {
        let virt_start = self.clock.now().as_nanos();
        let id = self.tracer.open(name, false, false);
        let w0 = Instant::now();
        let out = f();
        let wall = w0.elapsed().as_nanos() as u64;
        self.tracer.close(id, false);
        let seen = Observed {
            virt_start,
            wall,
            keys: 1,
            ..Observed::default()
        };
        (out, seen)
    }

    fn record(&self, call: Call<'_>, o: Observed) {
        let mut log = self.sink.0.lock().expect("node log lock");
        let single = match call {
            Call::Get(k) => Some((false, k)),
            Call::Put(k) => Some((true, k)),
            _ => None,
        };
        if let (Some((was_put, was_key, at)), Some((is_put, key))) =
            (log.failed_last.take(), single)
        {
            if was_put == is_put && was_key == *key {
                log.stats.backoff_virtual_ns += o.virt_start.saturating_sub(at);
            }
        }
        if let (Some((is_put, key)), true) = (single, o.failed > 0) {
            log.failed_last = Some((is_put, key.clone(), self.clock.now().as_nanos()));
        }
        let st = &mut log.stats;
        match call {
            Call::Get(_) => st.get_calls += 1,
            Call::Put(_) => st.put_calls += 1,
            Call::GetBatch => {
                st.get_batch_calls += 1;
                st.batch_keys += o.keys;
            }
            Call::PutBatch => {
                st.put_batch_calls += 1;
                st.batch_keys += o.keys;
            }
            Call::Delete => {}
        }
        let (seek, transfer) = o.price;
        st.key_attempts += o.keys;
        st.failed_attempts += o.failed;
        st.bytes_read += o.read;
        st.bytes_written += o.written;
        st.frame_bytes += o.frame;
        st.wall_busy_ns += o.wall;
        st.seek_virtual_ns += seek;
        st.transfer_virtual_ns += transfer;
        *st.busy_virtual_ns.entry(self.inner.id().0).or_default() += seek + transfer;
    }

    fn read_price(&self, bytes: usize) -> (u64, u64) {
        let seek = self.profile.seek.as_nanos();
        (seek, self.profile.read_charge(bytes).as_nanos() - seek)
    }

    fn write_price(&self, bytes: usize) -> (u64, u64) {
        let seek = self.profile.seek.as_nanos();
        (seek, self.profile.write_charge(bytes).as_nanos() - seek)
    }
}

impl StorageNode for TimedNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn site(&self) -> &str {
        self.inner.site()
    }

    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        let (out, seen) = self.timed("store.node.put", || self.inner.put(key, data));
        let ok = out.is_ok();
        let seen = Observed {
            failed: u64::from(!ok),
            written: if ok { data.len() as u64 } else { 0 },
            price: self.write_price(data.len()),
            ..seen
        };
        self.record(Call::Put(key), seen);
        out
    }

    fn put_batch(&self, entries: &[(ShardKey, &[u8])]) -> Vec<Result<(), NodeError>> {
        let (out, seen) = self.timed("store.node.put_batch", || self.inner.put_batch(entries));
        let frame = framed_len(entries);
        let seen = Observed {
            keys: entries.len() as u64,
            failed: out.iter().filter(|r| r.is_err()).count() as u64,
            written: entries
                .iter()
                .zip(&out)
                .filter(|(_, r)| r.is_ok())
                .map(|((_, d), _)| d.len() as u64)
                .sum(),
            frame: frame as u64,
            price: self.write_price(frame),
            ..seen
        };
        self.record(Call::PutBatch, seen);
        out
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        let (out, seen) = self.timed("store.node.get", || self.inner.get(key));
        let seen = match &out {
            Ok(d) => Observed {
                read: d.len() as u64,
                price: self.read_price(d.len()),
                ..seen
            },
            // A failed read still pays the positioning cost.
            Err(_) => Observed {
                failed: 1,
                price: (self.profile.seek.as_nanos(), 0),
                ..seen
            },
        };
        self.record(Call::Get(key), seen);
        out
    }

    fn get_batch(&self, keys: &[ShardKey]) -> Vec<Result<Vec<u8>, NodeError>> {
        let (out, seen) = self.timed("store.node.get_batch", || self.inner.get_batch(keys));
        let response: Vec<(ShardKey, Option<&[u8]>)> = keys
            .iter()
            .zip(&out)
            .map(|(k, r)| (k.clone(), r.as_ref().ok().map(Vec::as_slice)))
            .collect();
        let frame = read_framed_len(&response);
        let seen = Observed {
            keys: keys.len() as u64,
            failed: out.iter().filter(|r| r.is_err()).count() as u64,
            read: out.iter().flatten().map(|d| d.len() as u64).sum(),
            frame: frame as u64,
            price: self.read_price(frame),
            ..seen
        };
        self.record(Call::GetBatch, seen);
        out
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        let (out, seen) = self.timed("store.node.delete", || self.inner.delete(key));
        let seen = Observed {
            failed: u64::from(out.is_err()),
            price: (self.profile.seek.as_nanos(), 0),
            ..seen
        };
        self.record(Call::Delete, seen);
        out
    }

    fn keys(&self) -> Vec<ShardKey> {
        self.inner.keys()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}
