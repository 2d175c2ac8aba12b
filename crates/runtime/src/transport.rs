//! Inter-instance channels.
//!
//! libcompart "provides channel abstractions for communication between
//! instances. Its channels wrap OS-provided IPC, including TCP sockets
//! and pipes" (§3). We provide three link kinds:
//!
//! * [`LinkKind::Direct`] — in-process delivery (the "same VM" setting);
//! * [`LinkKind::Tcp`] — a real loopback TCP socket pair with
//!   length-prefixed frames (OS IPC cost);
//! * [`LinkKind::Sim`] — a simulated link with configurable latency and
//!   bandwidth, standing in for the paper's dedicated 1GbE testbed in the
//!   cURL experiments (see DESIGN.md, substitutions).
//!
//! Delivery order is FIFO per (sender instance, receiver instance) pair
//! for every link kind, matching the paper's "handled in the order that
//! they are received" — unless a [`FaultPlan`](crate::fault::FaultPlan)
//! injects reordering on the link.
//!
//! ## Reliability layer
//!
//! [`Network::send`] is wrapped in a reliability layer (see
//! `crate::fault`): send errors are a typed [`SendError`] split into
//! retryable link faults and fatal transport errors; retryable faults
//! are retried with bounded exponential backoff and jitter; every
//! message carries a per-(sender, receiver) sequence number — the
//! route's conversation *generation* in the high bits, a counter in the
//! low bits — and the receiver drops sequence numbers it has already
//! seen, so a retried or fault-duplicated update never double-applies
//! against the KV table's local-priority update rule (§8). Both halves
//! can be switched off
//! ([`crate::fault::RetryPolicy::disabled`], [`Network::set_dedup`]) for
//! ablations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_core::value::Value;
use csaw_kv::{Update, UpdateKind};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell::JunctionId;
use crate::clock::Clock;
use crate::fault::{FaultDecision, FaultPlan, LinkFaults, RetryPolicy};
use crate::overload::{OverloadConfig, OverloadStats, RetryBudgetPolicy};
use crate::trace::{Gauge, LinkEv, Metrics, Tracer};

/// The kind of channel between a pair of instances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkKind {
    /// In-process immediate delivery.
    Direct,
    /// Simulated link: constant propagation latency plus serialization at
    /// the given bandwidth.
    Sim {
        /// One-way propagation latency.
        latency: Duration,
        /// Bytes per second; 0 = infinite.
        bandwidth: u64,
    },
    /// Real loopback TCP socket pair.
    Tcp,
}

/// Callback invoked when a message arrives at its destination.
pub type DeliverFn = Arc<dyn Fn(&JunctionId, Update) + Send + Sync>;

/// Callback invoked when a whole batch of messages arrives at the same
/// destination junction, letting the receiver amortize its table lock
/// and scheduler wakeup over the batch. Every element was admitted by
/// the same fence/dedup filter as single deliveries.
pub type DeliverBatchFn = Arc<dyn Fn(&JunctionId, Vec<Update>) + Send + Sync>;

/// All mutable transport state for one directed (sender instance,
/// receiver instance) pair, interned once per route. Replaces five
/// separate `HashMap<(String, String), _>` tables whose lookups
/// allocated a fresh `(String, String)` key on every send, every fault
/// check and every dedup probe. Each concern has its own small mutex,
/// so the send path takes exactly the locks it needs.
struct RouteState {
    /// Sender instance name (interned).
    from: Box<str>,
    /// Receiver instance name (interned).
    to: Box<str>,
    /// Sender-side sequence state: low-bits counter + conversation
    /// generation, stamped together under one lock.
    seq: Mutex<RouteSeq>,
    /// Installed fault plan, if any.
    faults: Mutex<Option<LinkFaults>>,
    /// Explicit link kind override (None → network default).
    link: Mutex<Option<LinkKind>>,
    /// Serialization clock for finite-bandwidth sim links.
    sim_clock: Mutex<SimLinkClock>,
    /// FIFO clamp + in-flight count for delayed deliveries.
    fifo: Mutex<FifoClock>,
    /// Cached TCP connection.
    tcp: Mutex<Option<Arc<TcpLink>>>,
    /// Receiver-side dedup memory: seqs already delivered on this
    /// route. Seqs embed the route generation (see
    /// [`ROUTE_GEN_SHIFT`]), so the memory of an old conversation can
    /// never collide with a new one.
    seen: Mutex<HashSet<u64>>,
}

/// Sender-side sequence state of one route.
#[derive(Default)]
struct RouteSeq {
    /// Low-bits counter within the current conversation; reset by
    /// [`Network::reset_route`]. `counter > 0` ⇔ the route has carried
    /// sequenced traffic since the last reset.
    counter: u64,
    /// Conversation generation (monotonic, never reset).
    gen: u64,
    /// Retry-budget token bucket in millitokens (see
    /// [`RetryBudgetPolicy`]): refilled on fresh stamps, drained 1000
    /// per retry. `None` until the first stamp lazily seeds the
    /// initial allowance. Lives under the seq lock the stamp path
    /// already takes, so the refill costs no extra lock.
    retry_tokens_milli: Option<u64>,
}

impl RouteState {
    fn new(from: &str, to: &str) -> Arc<RouteState> {
        Arc::new(RouteState {
            from: from.into(),
            to: to.into(),
            seq: Mutex::new(RouteSeq::default()),
            faults: Mutex::new(None),
            link: Mutex::new(None),
            sim_clock: Mutex::new(SimLinkClock::default()),
            fifo: Mutex::new(FifoClock::default()),
            tcp: Mutex::new(None),
            seen: Mutex::new(HashSet::new()),
        })
    }
}

/// Interner for [`RouteState`]s. Linear scan over a small vector: the
/// route set is bounded by the program's topology, so this beats
/// hashing — and, unlike the old keyed maps, a lookup never allocates.
struct Routes {
    inner: Mutex<Vec<Arc<RouteState>>>,
}

impl Routes {
    fn new() -> Arc<Routes> {
        Arc::new(Routes { inner: Mutex::new(Vec::new()) })
    }

    /// Find or create the route `from → to`.
    fn get(&self, from: &str, to: &str) -> Arc<RouteState> {
        let mut inner = self.inner.lock();
        if let Some(r) = inner.iter().find(|r| &*r.from == from && &*r.to == to) {
            return Arc::clone(r);
        }
        let r = RouteState::new(from, to);
        inner.push(Arc::clone(&r));
        r
    }

    /// Drop every cached TCP connection (shutdown path).
    fn clear_tcp(&self) {
        for r in self.inner.lock().iter() {
            r.tcp.lock().take();
        }
    }
}

/// Sequence numbers are
/// `(fence_epoch << FENCE_EPOCH_SHIFT) | (generation << ROUTE_GEN_SHIFT) | counter`:
/// [`Network::reset_route`] bumps the route's generation, so a new
/// conversation's seqs can never collide with stale retries from the
/// old one still in flight. 2^40 messages per conversation and 2^12
/// rewires per route before wrap — both far beyond any run.
const ROUTE_GEN_SHIFT: u32 = 40;

/// Route generations occupy 12 bits above the counter; the sender's
/// supervisor fence epoch fills the 12 bits above them (see
/// [`Network::fence_instance`]). 2^12 repairs per instance before wrap.
const ROUTE_GEN_MASK: u64 = (1 << (FENCE_EPOCH_SHIFT - ROUTE_GEN_SHIFT)) - 1;

/// Where the sender's fence epoch sits in a sequence number. The stamp
/// is read at delivery to reject a fenced-out sender's traffic: a
/// sender fenced at epoch `e` keeps stamping `e` until it is re-admitted
/// at `e + 1`, so both its in-flight and its future sends fall below the
/// receiver's floor — the classic fencing-token scheme.
const FENCE_EPOCH_SHIFT: u32 = 52;

/// Wire size model for an update: key + payload + fixed header.
pub fn wire_size(u: &Update) -> usize {
    let payload = match &u.kind {
        UpdateKind::Assert | UpdateKind::Retract => 1,
        UpdateKind::Data(v) => v.approx_size(),
    };
    24 + u.key.len() + u.from.len() + payload
}

// ---------------------------------------------------------------------
// Simulated link scheduler
// ---------------------------------------------------------------------

struct SimPacket {
    arrival: Instant,
    seq: u64,
    to: JunctionId,
    update: Update,
    /// Route whose FIFO clock tracks this packet (None for explicitly
    /// reordered packets, which bypass FIFO clamping). The scheduler
    /// decrements the route's in-flight count after delivery, which is
    /// what lets the Direct-link fast path recover.
    fifo_link: Option<Arc<RouteState>>,
    /// Absolute deadline carried by the update (None = no budget).
    /// Checked at dequeue: a packet whose arrival already missed its
    /// deadline is shed instead of delivered (when shedding is on).
    deadline: Option<Instant>,
}

impl PartialEq for SimPacket {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl Eq for SimPacket {}
impl PartialOrd for SimPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

struct SimState {
    queue: BinaryHeap<Reverse<SimPacket>>,
    shutdown: bool,
}

/// Per-route FIFO bookkeeping: the latest scheduled arrival (for
/// clamping) and how many scheduled deliveries are still in flight.
/// The clamp resets once the link drains, so the Direct fast path
/// recovers after transient jitter instead of detouring through the
/// scheduler forever.
#[derive(Default)]
struct FifoClock {
    latest: Option<Instant>,
    inflight: u64,
}

/// The fence/dedup-wrapped delivery callbacks shared by the send path
/// and the scheduler: `one` hands over a single update, `batch` a run
/// of updates addressed to the same junction (amortizing the
/// receiver's table lock). `shed` is the overload layer's dequeue-time
/// deadline check plus its trace/counter sink.
#[derive(Clone)]
struct DeliveryFns {
    one: DeliverFn,
    batch: DeliverBatchFn,
    shed: Arc<ShedSink>,
}

/// Dequeue-time shedding context handed to the scheduler: the shared
/// overload state (config + counters) and the tracer for the explicit
/// `link_shed` event.
struct ShedSink {
    state: Arc<OverloadState>,
    tracer: Arc<Tracer>,
}

impl ShedSink {
    /// Whether a due packet must be shed instead of delivered: it
    /// carries a deadline its arrival already missed, and shedding is
    /// on.
    fn should_shed(&self, p: &SimPacket) -> bool {
        p.deadline.is_some_and(|d| p.arrival > d) && self.state.shed_expired()
    }

    /// Record one dequeue-time shed (sender-attributed, like drops).
    fn record(&self, p: &SimPacket) {
        self.state.note_shed();
        if self.tracer.is_enabled() {
            let (fi, fj) = p.update.from.split_once("::").unwrap_or((p.update.from.as_str(), ""));
            self.tracer.record_link_at(
                fi,
                fj,
                0,
                LinkEv::Shed { to: &p.to.qualified(), seq: p.update.seq },
            );
        }
    }
}

/// Decrement a delivered packet's route in-flight count. Only after
/// the delivery lands may the count drop: a zero count re-arms the
/// Direct fast path, and synchronous delivery must not overtake a
/// packet still being handed over.
fn packet_delivered(fifo_link: Option<Arc<RouteState>>) {
    if let Some(route) = fifo_link {
        let mut f = route.fifo.lock();
        f.inflight = f.inflight.saturating_sub(1);
        if f.inflight == 0 {
            f.latest = None;
        }
    }
}

/// Hand a run of due packets addressed to the same junction over to
/// the receiver — as one batch when the run has more than one packet —
/// then decrement the in-flight counts.
fn deliver_run(
    fns: &DeliveryFns,
    to: &JunctionId,
    batch: &mut Vec<Update>,
    links: &mut Vec<Option<Arc<RouteState>>>,
) {
    if batch.len() == 1 {
        (fns.one)(to, batch.pop().expect("run has one update"));
    } else if !batch.is_empty() {
        (fns.batch)(to, std::mem::take(batch));
    }
    for link in links.drain(..) {
        packet_delivered(link);
    }
}

/// Deliver a drained slice of due packets, grouping consecutive
/// packets bound for the same junction into batches. Packets were
/// popped in (arrival, seq) order, so grouping consecutive runs
/// preserves the global delivery order across destinations and the
/// per-link FIFO order within each run. Packets whose deadline already
/// expired are shed here — traced, counted, their in-flight slot
/// released — instead of delivered (dequeue-time shedding).
fn deliver_due(fns: &DeliveryFns, due: &mut Vec<SimPacket>) {
    let mut cur_to: Option<JunctionId> = None;
    let mut batch: Vec<Update> = Vec::new();
    let mut links: Vec<Option<Arc<RouteState>>> = Vec::new();
    for p in due.drain(..) {
        if fns.shed.should_shed(&p) {
            fns.shed.record(&p);
            packet_delivered(p.fifo_link);
            continue;
        }
        if cur_to.as_ref() != Some(&p.to) {
            if let Some(to) = cur_to.take() {
                deliver_run(fns, &to, &mut batch, &mut links);
            }
            cur_to = Some(p.to);
        }
        batch.push(p.update);
        links.push(p.fifo_link);
    }
    if let Some(to) = cur_to.take() {
        deliver_run(fns, &to, &mut batch, &mut links);
    }
}

/// The delay-queue thread behind all simulated links.
struct SimScheduler {
    state: Mutex<SimState>,
    cond: Condvar,
    seq: AtomicU64,
}

impl SimScheduler {
    fn new() -> Arc<SimScheduler> {
        Arc::new(SimScheduler {
            state: Mutex::new(SimState { queue: BinaryHeap::new(), shutdown: false }),
            cond: Condvar::new(),
            seq: AtomicU64::new(0),
        })
    }

    fn spawn(self: &Arc<Self>, fns: DeliveryFns) -> std::thread::JoinHandle<()> {
        let me = Arc::clone(self);
        std::thread::Builder::new()
            .name("csaw-simlink".into())
            .spawn(move || me.run(fns))
            .expect("spawn sim scheduler")
    }

    fn run(&self, fns: DeliveryFns) {
        // Scratch reused across wakeups: the drain below leaves the
        // allocation in place, so a steady stream of due packets stops
        // allocating after the first burst.
        let mut due: Vec<SimPacket> = Vec::new();
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Pop everything due in one pass under the queue lock.
            while let Some(Reverse(head)) = state.queue.peek() {
                if head.arrival <= now {
                    let Reverse(p) = state.queue.pop().unwrap();
                    due.push(p);
                } else {
                    break;
                }
            }
            if !due.is_empty() {
                // Deliver without holding the lock, batching runs of
                // packets bound for the same junction.
                drop(state);
                deliver_due(&fns, &mut due);
                state = self.state.lock();
                continue;
            }
            match state.queue.peek() {
                Some(Reverse(head)) => {
                    let deadline = head.arrival;
                    self.cond.wait_until(&mut state, deadline);
                }
                None => {
                    self.cond.wait_for(&mut state, Duration::from_millis(50));
                }
            }
        }
    }

    /// Deliver every packet due at `now`. Virtual-clock mode: the sim
    /// executor calls this instead of running the scheduler thread.
    /// Returns how many packets were handed over.
    fn pump_due(&self, now: Instant, fns: &DeliveryFns) -> usize {
        let mut due = Vec::new();
        {
            let mut state = self.state.lock();
            while let Some(Reverse(head)) = state.queue.peek() {
                if head.arrival <= now {
                    let Reverse(p) = state.queue.pop().unwrap();
                    due.push(p);
                } else {
                    break;
                }
            }
        }
        let n = due.len();
        deliver_due(fns, &mut due);
        n
    }

    /// Earliest scheduled arrival still queued, if any.
    fn next_due(&self) -> Option<Instant> {
        self.state.lock().queue.peek().map(|Reverse(p)| p.arrival)
    }

    fn enqueue(
        &self,
        arrival: Instant,
        to: JunctionId,
        update: Update,
        fifo_link: Option<Arc<RouteState>>,
        deadline: Option<Instant>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.state.lock();
            state
                .queue
                .push(Reverse(SimPacket { arrival, seq, to, update, fifo_link, deadline }));
        }
        self.cond.notify_all();
    }

    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cond.notify_all();
    }
}

// ---------------------------------------------------------------------
// TCP link
// ---------------------------------------------------------------------

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Undef => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(4);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Duration(d) => {
            out.push(5);
            out.extend_from_slice(&d.as_nanos().to_le_bytes());
        }
        Value::Target(t) => {
            out.push(6);
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
        }
        Value::Set(_) => {
            // §6: "Neither indices nor sets should be serialized or
            // transmitted between junctions" — encode as undef.
            out.push(0);
        }
    }
}

fn read_exact_buf(buf: &mut &[u8], n: usize) -> Option<Vec<u8>> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head.to_vec())
}

fn decode_value(buf: &mut &[u8]) -> Option<Value> {
    let tag = read_exact_buf(buf, 1)?[0];
    Some(match tag {
        0 => Value::Undef,
        1 => Value::Bool(read_exact_buf(buf, 1)?[0] == 1),
        2 => Value::Int(i64::from_le_bytes(read_exact_buf(buf, 8)?.try_into().ok()?)),
        3 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Str(String::from_utf8(read_exact_buf(buf, len)?).ok()?)
        }
        4 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Bytes(read_exact_buf(buf, len)?)
        }
        5 => {
            let nanos = u128::from_le_bytes(read_exact_buf(buf, 16)?.try_into().ok()?);
            Value::Duration(Duration::from_nanos(nanos as u64))
        }
        6 => {
            let len = u32::from_le_bytes(read_exact_buf(buf, 4)?.try_into().ok()?) as usize;
            Value::Target(String::from_utf8(read_exact_buf(buf, len)?).ok()?)
        }
        _ => return None,
    })
}

/// Append one length-prefixed frame for `u` to `out`, writing the body
/// in place (no intermediate body buffer, no fresh `Vec` per frame —
/// the caller reuses `out` across sends).
fn encode_frame_into(to: &JunctionId, u: &Update, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length placeholder
    for s in [&to.instance, &to.junction, &u.key, &u.from] {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&u.seq.to_le_bytes());
    match &u.kind {
        UpdateKind::Assert => out.push(0),
        UpdateKind::Retract => out.push(1),
        UpdateKind::Data(v) => {
            out.push(2);
            encode_value(v, out);
        }
    }
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

#[cfg(test)]
fn encode_frame(to: &JunctionId, u: &Update) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(to, u, &mut frame);
    frame
}

fn decode_frame(body: &[u8]) -> Option<(JunctionId, Update)> {
    let mut buf = body;
    let mut strings = Vec::with_capacity(4);
    for _ in 0..4 {
        let len = u32::from_le_bytes(read_exact_buf(&mut buf, 4)?.try_into().ok()?) as usize;
        strings.push(String::from_utf8(read_exact_buf(&mut buf, len)?).ok()?);
    }
    let seq = u64::from_le_bytes(read_exact_buf(&mut buf, 8)?.try_into().ok()?);
    let kind_tag = read_exact_buf(&mut buf, 1)?[0];
    let kind = match kind_tag {
        0 => UpdateKind::Assert,
        1 => UpdateKind::Retract,
        2 => UpdateKind::Data(decode_value(&mut buf)?),
        _ => return None,
    };
    let from = strings.pop()?;
    let key = strings.pop()?;
    let junction = strings.pop()?;
    let instance = strings.pop()?;
    Some((JunctionId { instance, junction }, Update { key, kind, from, seq }))
}

/// Write half of a TCP link: the stream plus a reusable encode buffer
/// guarded by the same mutex, so frames are encoded straight into a
/// long-lived allocation while the writer is held anyway.
struct TcpWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct TcpLink {
    writer: Mutex<TcpWriter>,
}

impl TcpLink {
    /// Create a connected loopback pair; the read side feeds `deliver`.
    fn new(deliver: DeliverFn, shutdown: Arc<AtomicBool>) -> std::io::Result<TcpLink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let writer = TcpStream::connect(addr)?;
        let (reader, _) = listener.accept()?;
        writer.set_nodelay(true).ok();
        reader.set_nodelay(true).ok();
        std::thread::Builder::new()
            .name("csaw-tcplink".into())
            .spawn(move || Self::read_loop(reader, deliver, shutdown))
            .expect("spawn tcp reader");
        Ok(TcpLink {
            writer: Mutex::new(TcpWriter { stream: writer, buf: Vec::with_capacity(256) }),
        })
    }

    fn read_loop(mut stream: TcpStream, deliver: DeliverFn, shutdown: Arc<AtomicBool>) {
        // Blocking reads: a read timeout could fire mid-frame and
        // desynchronize the stream under bulk traffic. Shutdown closes
        // the write side, which ends the blocking read with an error.
        let mut len_buf = [0u8; 4];
        // Body buffer reused across frames (resize keeps capacity).
        let mut body: Vec<u8> = Vec::new();
        loop {
            match stream.read_exact(&mut len_buf) {
                Ok(()) => {}
                Err(_) => return,
            }
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            body.clear();
            body.resize(len, 0);
            if stream.read_exact(&mut body).is_err() {
                return;
            }
            if let Some((to, update)) = decode_frame(&body) {
                deliver(&to, update);
            }
        }
    }

    fn send(&self, to: &JunctionId, u: &Update) -> std::io::Result<()> {
        let mut w = self.writer.lock();
        let TcpWriter { stream, buf } = &mut *w;
        buf.clear();
        encode_frame_into(to, u, buf);
        stream.write_all(buf)
    }
}

// ---------------------------------------------------------------------
// Network facade
// ---------------------------------------------------------------------

/// Per-sim-link bandwidth bookkeeping (serialization of back-to-back
/// transfers at finite bandwidth).
#[derive(Default)]
struct SimLinkClock {
    next_free: Option<Instant>,
}

/// Counters for the reliability layer and fault injection
/// (observability; all monotonically increasing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to the network (excluding fault-injected copies).
    pub msgs_sent: u64,
    /// Bytes sent under the wire-size model.
    pub bytes_sent: u64,
    /// Messages dropped by fault injection.
    pub drops: u64,
    /// Extra copies delivered by fault injection.
    pub dups: u64,
    /// Send attempts blocked by a partition window.
    pub partitioned: u64,
    /// Retry attempts made by the reliability layer.
    pub retries: u64,
    /// Deliveries suppressed by receiver-side sequence dedup.
    pub deduped: u64,
    /// Direct-link sends delivered synchronously (fast path).
    pub fast_path: u64,
    /// Sends rejected (at send or delivery) by the supervisor epoch
    /// fence: traffic from a fenced-out instance carrying a stale
    /// fence epoch.
    pub fenced: u64,
    /// Deliveries shed by the overload layer (deadline expiry at
    /// dispatch/dequeue, or mailbox overflow at admission).
    pub shed: u64,
    /// Sends refused with [`SendError::QueueFull`] by a queue bound.
    pub queue_full: u64,
    /// Sends refused with [`SendError::DeadlineExpired`] before
    /// dispatch.
    pub deadline_expired: u64,
    /// Retries suppressed by an exhausted per-route retry budget.
    pub retries_suppressed: u64,
}

/// Callback resolving a destination junction to its current mailbox
/// depth (pending undelivered updates). Installed by the runtime; used
/// by the mailbox bound. Must not block: probes that cannot observe
/// the mailbox (e.g. the table lock is held) return `None`.
pub type MailboxProbe = Arc<dyn Fn(&JunctionId) -> Option<usize> + Send + Sync>;

/// Shared overload-control state: the installed [`OverloadConfig`] and
/// [`RetryBudgetPolicy`] flattened into atomics (the send hot path
/// reads them with relaxed loads, no lock), the mailbox-depth probe,
/// and the overload counters + metric handles. One `Arc` shared by the
/// [`Network`], its [`DeliveryFilter`] and the scheduler's
/// [`ShedSink`].
struct OverloadState {
    outbox_bound: AtomicUsize,
    mailbox_bound: AtomicUsize,
    /// Ingress deadline budget in nanoseconds (0 = none).
    ingress_deadline_nanos: AtomicU64,
    shed_expired: AtomicBool,
    priority_lane: AtomicBool,
    /// Retry budget, flattened (millitokens).
    budget_enabled: AtomicBool,
    budget_initial: AtomicU64,
    budget_per_send: AtomicU64,
    budget_cap: AtomicU64,
    /// Mailbox-depth probe installed by the runtime.
    probe: Mutex<Option<MailboxProbe>>,
    /// Counters (mirrored into the metrics registry).
    shed: AtomicU64,
    queue_full: AtomicU64,
    deadline_expired: AtomicU64,
    retries_suppressed: AtomicU64,
    m_shed: Arc<AtomicU64>,
    m_queue_full: Arc<AtomicU64>,
    m_deadline_expired: Arc<AtomicU64>,
    m_retries_suppressed: Arc<AtomicU64>,
}

impl OverloadState {
    fn new(metrics: &Metrics) -> Arc<OverloadState> {
        let cfg = OverloadConfig::default();
        let budget = RetryBudgetPolicy::default();
        let state = OverloadState {
            outbox_bound: AtomicUsize::new(cfg.outbox_bound),
            mailbox_bound: AtomicUsize::new(cfg.mailbox_bound),
            ingress_deadline_nanos: AtomicU64::new(0),
            shed_expired: AtomicBool::new(cfg.shed_expired),
            priority_lane: AtomicBool::new(cfg.priority_lane),
            budget_enabled: AtomicBool::new(budget.enabled),
            budget_initial: AtomicU64::new(budget.initial_milli),
            budget_per_send: AtomicU64::new(budget.per_send_milli),
            budget_cap: AtomicU64::new(budget.cap_milli),
            probe: Mutex::new(None),
            shed: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            retries_suppressed: AtomicU64::new(0),
            m_shed: metrics.counter("link_shed_total"),
            m_queue_full: metrics.counter("link_queue_full_total"),
            m_deadline_expired: metrics.counter("link_deadline_expired_total"),
            m_retries_suppressed: metrics.counter("link_retries_suppressed_total"),
        };
        Arc::new(state)
    }

    fn set_config(&self, cfg: OverloadConfig) {
        self.outbox_bound.store(cfg.outbox_bound, Ordering::Relaxed);
        self.mailbox_bound.store(cfg.mailbox_bound, Ordering::Relaxed);
        self.ingress_deadline_nanos.store(
            cfg.ingress_deadline.map_or(0, |d| d.as_nanos() as u64),
            Ordering::Relaxed,
        );
        self.shed_expired.store(cfg.shed_expired, Ordering::Relaxed);
        self.priority_lane.store(cfg.priority_lane, Ordering::Relaxed);
    }

    fn config(&self) -> OverloadConfig {
        let nanos = self.ingress_deadline_nanos.load(Ordering::Relaxed);
        OverloadConfig {
            outbox_bound: self.outbox_bound.load(Ordering::Relaxed),
            mailbox_bound: self.mailbox_bound.load(Ordering::Relaxed),
            ingress_deadline: (nanos > 0).then(|| Duration::from_nanos(nanos)),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            priority_lane: self.priority_lane.load(Ordering::Relaxed),
        }
    }

    fn set_budget(&self, b: RetryBudgetPolicy) {
        self.budget_enabled.store(b.enabled, Ordering::Relaxed);
        self.budget_initial.store(b.initial_milli, Ordering::Relaxed);
        self.budget_per_send.store(b.per_send_milli, Ordering::Relaxed);
        self.budget_cap.store(b.cap_milli, Ordering::Relaxed);
    }

    fn shed_expired(&self) -> bool {
        self.shed_expired.load(Ordering::Relaxed)
    }

    /// Whether any send-side gate is installed (quick hot-path check:
    /// all-zero state keeps the unconfigured send path unchanged).
    fn gates_sends(&self) -> bool {
        self.outbox_bound.load(Ordering::Relaxed) > 0
            || self.mailbox_bound.load(Ordering::Relaxed) > 0
    }

    /// Current ingress deadline budget, if configured.
    fn ingress_deadline(&self) -> Option<Duration> {
        let nanos = self.ingress_deadline_nanos.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Probe the destination mailbox depth (None: no probe installed,
    /// or the probe could not observe the mailbox).
    fn mailbox_len(&self, to: &JunctionId) -> Option<usize> {
        let probe = self.probe.lock().clone();
        probe.and_then(|p| p(to))
    }

    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.m_shed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_queue_full(&self) {
        self.queue_full.fetch_add(1, Ordering::Relaxed);
        self.m_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
        self.m_deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    fn note_retry_suppressed(&self) {
        self.retries_suppressed.fetch_add(1, Ordering::Relaxed);
        self.m_retries_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> OverloadStats {
        OverloadStats {
            shed: self.shed.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            retries_suppressed: self.retries_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// Supervisor fencing-token state, shared between the send path and the
/// delivery wrapper. Each instance has a *stamp* epoch (carried in the
/// high bits of every seq it sends) and a *floor* (the minimum stamp
/// receivers accept from it). [`Network::fence_instance`] raises the
/// floor above the stamp — every send the zombie already has in flight
/// and every send it will attempt is rejected until
/// [`Network::admit_instance`] lifts its stamp to the floor.
struct FenceState {
    enabled: AtomicBool,
    /// instance → (stamp epoch, accepted floor).
    inner: Mutex<HashMap<String, (u64, u64)>>,
    /// Rejection count (send-side + delivery-side).
    fenced: AtomicU64,
}

impl FenceState {
    fn new() -> FenceState {
        FenceState {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(HashMap::new()),
            fenced: AtomicU64::new(0),
        }
    }

    /// (stamp, floor) for a sender; unknown senders are (0, 0) — never
    /// fenced.
    fn of(&self, instance: &str) -> (u64, u64) {
        self.inner.lock().get(instance).copied().unwrap_or((0, 0))
    }
}

/// Receiver-side admission filter (fence + dedup), shared by the
/// single-update and batch delivery wrappers so both paths enforce
/// identical semantics.
struct DeliveryFilter {
    dedup_enabled: Arc<AtomicBool>,
    deduped: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
    routes: Arc<Routes>,
    fence: Arc<FenceState>,
    overload: Arc<OverloadState>,
    m_dedup: Arc<AtomicU64>,
    m_fenced: Arc<AtomicU64>,
}

impl DeliveryFilter {
    /// Whether one update may land. `cache` carries the sender's
    /// interned route across consecutive updates of a batch, so a
    /// same-route run probes the interner once.
    fn admit(&self, to: &JunctionId, u: &Update, cache: &mut Option<Arc<RouteState>>) -> bool {
        if u.seq == 0 {
            // Unsequenced probes (heartbeats, test deliveries) pass:
            // loss of *data* acks is what fencing protects, and dedup
            // keys on sequence numbers, not content.
            return true;
        }
        // Fence check first: an in-flight send stamped before its
        // sender was fenced out must not land, even though its
        // (sender, seq) was never seen.
        if self.fence.enabled.load(Ordering::Relaxed) {
            let sender = u.sender_instance();
            let (_, floor) = self.fence.of(sender);
            if floor != 0 && (u.seq >> FENCE_EPOCH_SHIFT) < floor {
                self.fence.fenced.fetch_add(1, Ordering::Relaxed);
                self.m_fenced.fetch_add(1, Ordering::Relaxed);
                if self.tracer.is_enabled() {
                    self.tracer.record_link_at(
                        &to.instance,
                        &to.junction,
                        0,
                        LinkEv::Fenced { from: sender, seq: u.seq },
                    );
                }
                return false;
            }
        }
        // Mailbox bound: shed the delivery when the destination mailbox
        // is over its depth bound. Deliberately *before* the dedup
        // insert — a shed update is never marked seen, so a later retry
        // of the same sequence number can still land (and once one copy
        // applies, further copies dedup as usual).
        let mbound = self.overload.mailbox_bound.load(Ordering::Relaxed);
        if mbound > 0 && self.overload.mailbox_len(to).is_some_and(|len| len >= mbound) {
            self.overload.note_shed();
            if self.tracer.is_enabled() {
                let (fi, fj) = u.from.split_once("::").unwrap_or((u.from.as_str(), ""));
                self.tracer.record_link_at(
                    fi,
                    fj,
                    0,
                    LinkEv::Shed { to: &to.qualified(), seq: u.seq },
                );
            }
            return false;
        }
        if self.dedup_enabled.load(Ordering::Relaxed) {
            let sender = u.sender_instance();
            let route = match cache {
                Some(r) if &*r.from == sender && *r.to == to.instance => Arc::clone(r),
                _ => {
                    let r = self.routes.get(sender, &to.instance);
                    *cache = Some(Arc::clone(&r));
                    r
                }
            };
            let fresh = route.seen.lock().insert(u.seq);
            if !fresh {
                self.deduped.fetch_add(1, Ordering::Relaxed);
                self.m_dedup.fetch_add(1, Ordering::Relaxed);
                if self.tracer.is_enabled() {
                    self.tracer.record_link_at(
                        &to.instance,
                        &to.junction,
                        0,
                        LinkEv::Dedup { from: sender, seq: u.seq },
                    );
                }
                return false;
            }
        }
        true
    }
}

/// The network connecting instances. Owned by the runtime.
/// Interned trace identities for one directed route (see
/// [`Network::route_trace_ids`]).
struct RouteTraceIds {
    /// `update.from` verbatim (`instance::junction`).
    from: String,
    to_instance: String,
    to_junction: String,
    sender_instance: Arc<str>,
    sender_junction: Arc<str>,
    /// `to.qualified()`.
    to_qualified: Arc<str>,
}

pub struct Network {
    deliver: DeliverFn,
    /// Batch sibling of `deliver`: same fence/dedup filter, then the
    /// receiver's batch path (or a per-update fallback loop when the
    /// receiver has none).
    deliver_batch: DeliverBatchFn,
    /// Time source for arrivals, fault windows and retry backoff. A
    /// simulated clock also switches the delay queue to executor-pumped
    /// delivery (no scheduler thread).
    clock: Clock,
    default_link: LinkKind,
    /// All per-route transport state (seqs, generations, fault plans,
    /// link kinds, FIFO/serialization clocks, TCP connections, dedup
    /// memory), interned once per directed pair — the send path does
    /// one allocation-free lookup instead of five keyed-map probes.
    routes: Arc<Routes>,
    sim: Arc<SimScheduler>,
    shutdown: Arc<AtomicBool>,
    /// Reliability-layer retry policy. The send path never clones it:
    /// the retry loop snapshots the (all-`Copy`) fields once, and only
    /// after a first attempt has actually failed.
    retry: Mutex<RetryPolicy>,
    /// Dice for backoff jitter (separate from link fault dice so a
    /// policy change doesn't perturb the fault schedule).
    backoff_dice: Mutex<StdRng>,
    /// Receiver-side dedup switch (shared with the deliver wrapper).
    dedup_enabled: Arc<AtomicBool>,
    /// Supervisor fencing tokens (shared with the deliver wrapper).
    fence: Arc<FenceState>,
    drops: AtomicU64,
    dups: AtomicU64,
    partitioned: AtomicU64,
    retries: AtomicU64,
    deduped: Arc<AtomicU64>,
    fast_path: AtomicU64,
    /// Send operations attempted through any entry point, including
    /// fenced/dropped ones (counters and dice still moved). The sim
    /// executor reads the delta around a step to classify the step's
    /// footprint: a step that sent anything — even over the Direct
    /// fast path, which delivers synchronously into the receiver's
    /// cell — touched cross-instance state.
    send_ops: AtomicU64,
    /// Total messages sent (observability).
    pub msgs_sent: AtomicU64,
    /// Total bytes sent under the wire-size model (observability).
    pub bytes_sent: AtomicU64,
    /// Trace recorder shared with the runtime (disabled by default).
    tracer: Arc<Tracer>,
    /// Interned identity strings per (sender junction, target junction)
    /// route, so the hot send path records trace events without
    /// re-allocating the names. Bounded by the program's topology.
    trace_ids: Mutex<Vec<RouteTraceIds>>,
    /// Metrics counters, resolved once at construction.
    m_send: Arc<AtomicU64>,
    m_retry: Arc<AtomicU64>,
    m_drop: Arc<AtomicU64>,
    m_dup: Arc<AtomicU64>,
    m_partition: Arc<AtomicU64>,
    m_fast: Arc<AtomicU64>,
    m_scheduled: Arc<AtomicU64>,
    /// Overload-control state (bounds, deadlines, retry budget,
    /// counters), shared with the delivery filter and the scheduler's
    /// shed sink.
    overload: Arc<OverloadState>,
    /// `link_inflight` gauge: scheduled deliveries currently in flight
    /// across all routes (refreshed by
    /// [`Network::refresh_overload_gauges`]).
    g_inflight: Arc<Gauge>,
}

/// Error sending a message, split into retryable link faults and fatal
/// errors so `otherwise[t]` handlers (and the reliability layer) can
/// tell transient loss from a dead endpoint or a broken transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The destination instance is not running.
    TargetDown,
    /// The link dropped the message (modelled ack timeout). Retryable.
    LinkDropped,
    /// The link is inside a partition window. Retryable.
    PartitionedAway,
    /// The send did not complete in time. Retryable.
    Timeout,
    /// The sender has been fenced out by a supervisor repair: its fence
    /// epoch is below the accepted floor. Fatal — retrying cannot help;
    /// only re-admission ([`Network::admit_instance`]) can.
    Fenced,
    /// A queue bound refused the send (route outbox or destination
    /// mailbox full). Retryable — backpressure: the queue drains as the
    /// receiver makes progress.
    QueueFull,
    /// The update's deadline budget expired before (or during)
    /// dispatch; the overload layer shed it. Fatal — retrying cannot
    /// un-expire a deadline.
    DeadlineExpired,
    /// The underlying transport failed (socket setup/write). Fatal.
    Transport(String),
}

impl SendError {
    /// Whether the reliability layer should retry this error.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SendError::LinkDropped
                | SendError::PartitionedAway
                | SendError::Timeout
                | SendError::QueueFull
        )
    }
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::TargetDown => write!(f, "target down"),
            SendError::LinkDropped => write!(f, "link dropped message"),
            SendError::PartitionedAway => write!(f, "partitioned away"),
            SendError::Timeout => write!(f, "send timeout"),
            SendError::Fenced => write!(f, "fenced out (stale supervisor epoch)"),
            SendError::QueueFull => write!(f, "queue full (overload backpressure)"),
            SendError::DeadlineExpired => write!(f, "deadline expired (shed by overload control)"),
            SendError::Transport(m) => write!(f, "transport: {m}"),
        }
    }
}

impl std::error::Error for SendError {}

impl Network {
    /// Create a network delivering through `deliver`. The callback is
    /// wrapped in the receiver-side dedup filter: sequenced updates
    /// (seq ≠ 0) whose (sender, receiver, seq) was already delivered are
    /// suppressed, so retries and fault duplicates apply at most once.
    pub fn new(deliver: DeliverFn) -> Network {
        Network::with_telemetry(deliver, Arc::new(Tracer::new()), &Metrics::new(), Clock::wall())
    }

    /// [`Network::new`] with an externally owned trace recorder,
    /// metrics registry and clock (the runtime shares its own with the
    /// network).
    pub fn with_telemetry(
        deliver: DeliverFn,
        tracer: Arc<Tracer>,
        metrics: &Metrics,
        clock: Clock,
    ) -> Network {
        Network::with_telemetry_batched(deliver, None, tracer, metrics, clock)
    }

    /// [`Network::with_telemetry`] plus an optional receiver batch
    /// path: when the delay-queue scheduler has a run of due updates
    /// for one junction, `deliver_batch` receives them as a
    /// single call after the fence/dedup filter, so the receiver can
    /// take its table lock once per run. Without it, batches fall back
    /// to the per-update callback.
    pub fn with_telemetry_batched(
        deliver: DeliverFn,
        deliver_batch: Option<DeliverBatchFn>,
        tracer: Arc<Tracer>,
        metrics: &Metrics,
        clock: Clock,
    ) -> Network {
        let dedup_enabled = Arc::new(AtomicBool::new(true));
        let deduped = Arc::new(AtomicU64::new(0));
        let fence = Arc::new(FenceState::new());
        let routes = Routes::new();
        let overload = OverloadState::new(metrics);
        let filter = Arc::new(DeliveryFilter {
            dedup_enabled: Arc::clone(&dedup_enabled),
            deduped: Arc::clone(&deduped),
            tracer: Arc::clone(&tracer),
            routes: Arc::clone(&routes),
            fence: Arc::clone(&fence),
            overload: Arc::clone(&overload),
            m_dedup: metrics.counter("link_dedup_total"),
            m_fenced: metrics.counter("link_fenced_total"),
        });
        let inner_one = deliver;
        let deliver: DeliverFn = {
            let filter = Arc::clone(&filter);
            let inner = Arc::clone(&inner_one);
            Arc::new(move |to: &JunctionId, u: Update| {
                let mut cache = None;
                if filter.admit(to, &u, &mut cache) {
                    inner(to, u)
                }
            })
        };
        let deliver_batch: DeliverBatchFn = {
            let filter = Arc::clone(&filter);
            let inner_one = Arc::clone(&inner_one);
            Arc::new(move |to: &JunctionId, mut updates: Vec<Update>| {
                // One filter pass over the batch; the route cache means
                // a same-link run probes the interner once.
                let mut cache = None;
                updates.retain(|u| filter.admit(to, u, &mut cache));
                if updates.is_empty() {
                    return;
                }
                match &deliver_batch {
                    Some(b) => b(to, updates),
                    None => {
                        for u in updates {
                            inner_one(to, u)
                        }
                    }
                }
            })
        };
        let sim = SimScheduler::new();
        if !clock.is_simulated() {
            // Virtual time has no place for a wall-clock delay thread:
            // the sim executor pumps due packets as schedulable events.
            sim.spawn(DeliveryFns {
                one: Arc::clone(&deliver),
                batch: Arc::clone(&deliver_batch),
                shed: Arc::new(ShedSink {
                    state: Arc::clone(&overload),
                    tracer: Arc::clone(&tracer),
                }),
            });
        }
        Network {
            deliver,
            deliver_batch,
            clock,
            default_link: LinkKind::Direct,
            routes,
            sim,
            shutdown: Arc::new(AtomicBool::new(false)),
            retry: Mutex::new(RetryPolicy::default()),
            backoff_dice: Mutex::new(StdRng::seed_from_u64(0xBAC0FF)),
            dedup_enabled,
            fence,
            send_ops: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            deduped,
            fast_path: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            m_send: metrics.counter("link_send_total"),
            m_retry: metrics.counter("link_retry_total"),
            m_drop: metrics.counter("link_drop_total"),
            m_dup: metrics.counter("link_dup_total"),
            m_partition: metrics.counter("link_partition_total"),
            m_fast: metrics.counter("link_direct_fast_total"),
            m_scheduled: metrics.counter("link_scheduled_total"),
            overload,
            g_inflight: metrics.gauge("link_inflight"),
            tracer,
            trace_ids: Mutex::new(Vec::new()),
        }
    }

    /// The sending junction of an update, for trace attribution:
    /// `update.from` is `instance::junction`.
    fn sender_of(update: &Update) -> (&str, &str) {
        update
            .from
            .split_once("::")
            .unwrap_or((update.from.as_str(), ""))
    }

    /// Interned trace identities (sender instance, sender junction,
    /// qualified target) for the route `update.from → to`. Linear scan
    /// over a small vector: the route set is bounded by the program's
    /// topology, so this beats hashing — and it keeps the hot send path
    /// free of per-event string allocations.
    fn route_trace_ids(&self, update: &Update, to: &JunctionId) -> (Arc<str>, Arc<str>, Arc<str>) {
        let mut ids = self.trace_ids.lock();
        if let Some(e) = ids.iter().find(|e| {
            e.from == update.from && e.to_instance == to.instance && e.to_junction == to.junction
        }) {
            return (
                Arc::clone(&e.sender_instance),
                Arc::clone(&e.sender_junction),
                Arc::clone(&e.to_qualified),
            );
        }
        let (fi, fj) = Network::sender_of(update);
        let entry = RouteTraceIds {
            from: update.from.clone(),
            to_instance: to.instance.clone(),
            to_junction: to.junction.clone(),
            sender_instance: Arc::from(fi),
            sender_junction: Arc::from(fj),
            to_qualified: Arc::from(to.qualified()),
        };
        let out = (
            Arc::clone(&entry.sender_instance),
            Arc::clone(&entry.sender_junction),
            Arc::clone(&entry.to_qualified),
        );
        ids.push(entry);
        out
    }

    /// Install (or replace) the fault plan on the directed link
    /// `from → to`. Runtime-reconfigurable; windows are relative to this
    /// call.
    pub fn set_fault_plan(&self, from: &str, to: &str, plan: FaultPlan) {
        *self.routes.get(from, to).faults.lock() = Some(LinkFaults::new(plan, self.clock.now()));
    }

    /// Remove the fault plan on `from → to` (the link heals).
    pub fn clear_fault_plan(&self, from: &str, to: &str) {
        self.routes.get(from, to).faults.lock().take();
    }

    /// Replace the reliability-layer retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Toggle receiver-side sequence dedup (ablations only — disabling
    /// it lets retries and duplicates double-apply).
    pub fn set_dedup(&self, enabled: bool) {
        self.dedup_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Fence an instance out: raise the floor above its current stamp
    /// epoch, so every send it has in flight and every send it attempts
    /// is rejected until [`Network::admit_instance`]. Returns the new
    /// floor (the supervisor epoch of the repair). Idempotent while the
    /// instance stays fenced; fencing again after a re-admission bumps
    /// the epoch once more.
    pub fn fence_instance(&self, instance: &str) -> u64 {
        let mut inner = self.fence.inner.lock();
        let entry = inner.entry(instance.to_string()).or_insert((0, 0));
        entry.1 = entry.1.max(entry.0 + 1);
        entry.1
    }

    /// Re-admit a fenced instance: lift its stamp epoch to the floor so
    /// its *future* sends are accepted again. Anything still in flight
    /// from before the fence keeps its stale stamp and stays rejected.
    /// Returns the stamp epoch granted.
    pub fn admit_instance(&self, instance: &str) -> u64 {
        let mut inner = self.fence.inner.lock();
        let entry = inner.entry(instance.to_string()).or_insert((0, 0));
        entry.0 = entry.1;
        entry.0
    }

    /// Whether an instance is currently fenced out (stamp below floor).
    pub fn is_fenced(&self, instance: &str) -> bool {
        let (stamp, floor) = self.fence.of(instance);
        stamp < floor
    }

    /// The current fence floor of an instance (0 = never fenced).
    pub fn fence_floor(&self, instance: &str) -> u64 {
        self.fence.of(instance).1
    }

    /// Toggle fence enforcement (ablations and the split-brain
    /// fail-before/pass-after test). Stamping continues either way;
    /// only the reject checks are gated.
    pub fn set_fencing(&self, enabled: bool) {
        self.fence.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether fence enforcement is on (default true).
    pub fn fencing_enabled(&self) -> bool {
        self.fence.enabled.load(Ordering::Relaxed)
    }

    /// Snapshot the reliability/fault counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            dups: self.dups.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            fast_path: self.fast_path.load(Ordering::Relaxed),
            fenced: self.fence.fenced.load(Ordering::Relaxed),
            shed: self.overload.shed.load(Ordering::Relaxed),
            queue_full: self.overload.queue_full.load(Ordering::Relaxed),
            deadline_expired: self.overload.deadline_expired.load(Ordering::Relaxed),
            retries_suppressed: self.overload.retries_suppressed.load(Ordering::Relaxed),
        }
    }

    /// Install the overload-control configuration (bounds, ingress
    /// deadline, shedding, priority lane). Takes effect on the next
    /// send; the default configuration is inert.
    pub fn set_overload(&self, cfg: OverloadConfig) {
        self.overload.set_config(cfg);
    }

    /// The currently installed overload configuration.
    pub fn overload_config(&self) -> OverloadConfig {
        self.overload.config()
    }

    /// Replace the per-route retry-budget policy (token bucket capping
    /// retries as a fraction of fresh sends).
    pub fn set_retry_budget(&self, budget: RetryBudgetPolicy) {
        self.overload.set_budget(budget);
    }

    /// Snapshot the overload-layer counters.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload.stats()
    }

    /// Install the mailbox-depth probe the mailbox bound consults
    /// (wired by the runtime, which owns the junction registry).
    pub fn set_mailbox_probe(&self, probe: MailboxProbe) {
        *self.overload.probe.lock() = Some(probe);
    }

    /// Refresh the `link_inflight` gauge from the routes' in-flight
    /// counts (total scheduled deliveries not yet landed).
    pub fn refresh_overload_gauges(&self) {
        let total: u64 = {
            let routes = self.routes.inner.lock();
            routes.iter().map(|r| r.fifo.lock().inflight).sum()
        };
        self.g_inflight.set(total as f64);
    }

    /// Set the default link kind for unlisted instance pairs.
    pub fn set_default_link(&mut self, kind: LinkKind) {
        self.default_link = kind;
    }

    /// Configure the link between an (ordered) pair of instances.
    ///
    /// Rewiring an **already-connected** route (one that had an explicit
    /// link or has carried sequenced traffic) flushes the route's
    /// per-link state — sender seq counter, conversation generation,
    /// FIFO and serialization clocks, and any cached TCP connection. A
    /// new link is a new conversation, tagged with a fresh generation in
    /// the seq high bits so neither stale dedup memory nor stale
    /// in-flight retries from the old conversation can interfere with it
    /// (see [`Network::reset_route`]).
    pub fn set_link(&self, from: &str, to: &str, kind: LinkKind) {
        let route = self.routes.get(from, to);
        let prev = route.link.lock().replace(kind);
        let had_traffic = route.seq.lock().counter > 0;
        if prev.is_some() || had_traffic {
            self.reset_route(from, to);
        }
    }

    /// Flush all per-route transport state for the directed pair
    /// `from → to`: the conversation generation bumps (so the restarted
    /// counter yields seqs disjoint from every earlier conversation),
    /// FIFO/serialization clocks reset and a cached TCP connection (if
    /// any) is dropped so the next send redials.
    ///
    /// The receiver's dedup memory is **not** cleared: the route's
    /// endpoints are not necessarily quiesced, so retries from the old
    /// conversation may still be in flight. Keeping the memory lets
    /// those stale retries dedup under their old generation; the new
    /// conversation's generation-tagged seqs can never collide with it.
    pub fn reset_route(&self, from: &str, to: &str) {
        let route = self.routes.get(from, to);
        {
            let mut s = route.seq.lock();
            s.gen += 1;
            s.counter = 0;
        }
        *route.fifo.lock() = FifoClock::default();
        *route.sim_clock.lock() = SimLinkClock::default();
        route.tcp.lock().take();
    }

    fn link_kind(&self, route: &RouteState) -> LinkKind {
        route.link.lock().unwrap_or(self.default_link)
    }

    /// Send an update from `from_instance` to junction `to`, through the
    /// reliability layer: the update gets the next per-link sequence
    /// number (retries reuse it, so the receiver dedups them), faults
    /// from the link's [`FaultPlan`] are applied per attempt, and
    /// retryable errors are retried with bounded exponential backoff.
    pub fn send(
        &self,
        from_instance: &str,
        to: &JunctionId,
        update: Update,
    ) -> Result<(), SendError> {
        self.send_with_deadline(from_instance, to, update, None)
    }

    /// [`send`](Network::send) with an explicit absolute deadline: the
    /// overload layer sheds the update (at dispatch prediction or at
    /// dequeue) once the deadline passes, provided shedding is enabled.
    /// `None` falls back to the configured ingress deadline, if any.
    pub fn send_with_deadline(
        &self,
        from_instance: &str,
        to: &JunctionId,
        mut update: Update,
        deadline: Option<Instant>,
    ) -> Result<(), SendError> {
        self.send_ops.fetch_add(1, Ordering::Relaxed);
        let deadline = deadline
            .or_else(|| self.overload.ingress_deadline().map(|b| self.clock.now() + b));
        let route = self.routes.get(from_instance, &to.instance);
        self.stamp_one(&route, &mut update)?;
        self.send_stamped(&route, to, update, deadline)
    }

    /// Monotonic count of send operations attempted (any entry point,
    /// any outcome). See the `send_ops` field.
    pub(crate) fn send_ops(&self) -> u64 {
        self.send_ops.load(Ordering::Relaxed)
    }

    /// Stamp an update with the next sequence number for `route`
    /// (fence epoch | generation | counter) and apply the send-side
    /// fence check. The counter advances even for a fenced sender,
    /// exactly as before.
    fn stamp_one(&self, route: &RouteState, update: &mut Update) -> Result<(), SendError> {
        let (stamp, floor) = self.fence.of(&route.from);
        {
            let mut s = route.seq.lock();
            s.counter += 1;
            update.seq = (stamp << FENCE_EPOCH_SHIFT)
                | ((s.gen & ROUTE_GEN_MASK) << ROUTE_GEN_SHIFT)
                | s.counter;
            // A fresh send earns retry-budget tokens (see
            // `RetryBudgetPolicy`) — piggybacked on the seq lock we
            // already hold, so the hot path takes no extra lock.
            if self.overload.budget_enabled.load(Ordering::Relaxed) {
                let cap = self.overload.budget_cap.load(Ordering::Relaxed);
                let earn = self.overload.budget_per_send.load(Ordering::Relaxed);
                let cur = s.retry_tokens_milli.unwrap_or_else(|| {
                    self.overload.budget_initial.load(Ordering::Relaxed)
                });
                s.retry_tokens_milli = Some(cap.min(cur.saturating_add(earn)));
            }
        }
        // Send-side fence: a fenced-out sender learns immediately (and
        // fatally — no retry can outwait a fence) that its writes are
        // rejected. The delivery-side check still covers whatever it
        // already had in flight.
        if stamp < floor && self.fence.enabled.load(Ordering::Relaxed) {
            self.fence.fenced.fetch_add(1, Ordering::Relaxed);
            if self.tracer.is_enabled() {
                let (fi, fj) = Network::sender_of(update);
                self.tracer.record_link_at(
                    fi,
                    fj,
                    0,
                    LinkEv::Fenced { from: route.from.as_ref(), seq: update.seq },
                );
            }
            return Err(SendError::Fenced);
        }
        Ok(())
    }

    /// Snapshot the retry policy's (all-`Copy`) fields without going
    /// through `Clone` — the regression test in this module pins the
    /// send path to zero policy clones.
    fn retry_snapshot(&self) -> RetryPolicy {
        let p = self.retry.lock();
        RetryPolicy { enabled: p.enabled, max_retries: p.max_retries, base: p.base, cap: p.cap }
    }

    /// Drive one already-stamped update through attempt + bounded
    /// retry. The update is *moved* into each attempt and handed back
    /// on failure, so the (almost-always-successful) first attempt
    /// performs no payload clone; the retry policy is only read once a
    /// first attempt has actually failed.
    fn send_stamped(
        &self,
        route: &Arc<RouteState>,
        to: &JunctionId,
        update: Update,
        deadline: Option<Instant>,
    ) -> Result<(), SendError> {
        let mut update = update;
        let mut attempt = 0u32;
        let mut policy: Option<RetryPolicy> = None;
        loop {
            match self.send_attempt(route, to, update, deadline, true) {
                Ok(()) => return Ok(()),
                Err((e, back)) if e.is_retryable() => {
                    let p = policy.get_or_insert_with(|| self.retry_snapshot());
                    if !p.enabled || attempt >= p.max_retries {
                        return Err(e);
                    }
                    // Retry budget: each retry costs one token (1000
                    // milli); an exhausted route fails the retryable
                    // error straight through so loss under overload
                    // cannot amplify into a retry storm.
                    if self.overload.budget_enabled.load(Ordering::Relaxed) {
                        let mut s = route.seq.lock();
                        let cur = s.retry_tokens_milli.unwrap_or_else(|| {
                            self.overload.budget_initial.load(Ordering::Relaxed)
                        });
                        if cur < 1000 {
                            drop(s);
                            self.overload.note_retry_suppressed();
                            return Err(e);
                        }
                        s.retry_tokens_milli = Some(cur - 1000);
                    }
                    update = back;
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.m_retry.fetch_add(1, Ordering::Relaxed);
                    if self.tracer.is_enabled() {
                        let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                        self.tracer.record_link(
                            &fi,
                            &fj,
                            0,
                            LinkEv::Retry {
                                to: &to_q,
                                seq: update.seq,
                                attempt: attempt as u64,
                            },
                        );
                    }
                    let backoff = p.backoff(attempt, &mut self.backoff_dice.lock());
                    // Virtual clocks turn this into schedulable
                    // progress (the sim hook runs other events while
                    // the sender "waits"); wall clocks park as before.
                    self.clock.sleep(backoff);
                }
                Err((e, _)) => return Err(e),
            }
        }
    }

    /// Send without sequencing or retry: probes (heartbeats) whose loss
    /// *is* the signal, and ablation runs that bypass reliability.
    pub(crate) fn send_raw(
        &self,
        from_instance: &str,
        to: &JunctionId,
        update: Update,
    ) -> Result<(), SendError> {
        self.send_ops.fetch_add(1, Ordering::Relaxed);
        let route = self.routes.get(from_instance, &to.instance);
        // Control lane: heartbeats/probes ride the priority lane (no
        // queue bounds, no deadline) unless the lane is disabled, in
        // which case they face the same data-plane gates as everything
        // else — the deliberate metastable-failure configuration.
        self.send_attempt(&route, to, update, None, false).map_err(|(e, _)| e)
    }

    /// Feed the transport's schedule-relevant mutable state to `h` for
    /// the sim executor's state fingerprint: queued undelivered packets
    /// in delivery order, then per-route sequence/FIFO/dedup/fence
    /// state. Arrival times are normalized to `origin`, and the heap's
    /// global tie-break seq is reduced to relative order — it counts
    /// monotonically over a whole run, so its absolute value would make
    /// every state hash unique. Fault-plan dice positions are *not*
    /// folded in: probabilistic plans degrade revisit-pruning fidelity,
    /// while windowed plans are a pure function of virtual time.
    pub(crate) fn sim_fingerprint(&self, origin: Instant, h: &mut dyn FnMut(&[u8])) {
        // (arrival, seq, to, key, from, update seq, kind, deadline)
        type PacketKey = (u64, u64, String, String, String, u64, String, u64);
        let mut packets: Vec<PacketKey> = {
            let state = self.sim.state.lock();
            state
                .queue
                .iter()
                .map(|Reverse(p)| {
                    (
                        p.arrival.saturating_duration_since(origin).as_nanos() as u64,
                        p.seq,
                        p.to.qualified(),
                        p.update.key.clone(),
                        p.update.from.clone(),
                        p.update.seq,
                        format!("{:?}", p.update.kind),
                        p.deadline.map_or(u64::MAX, |d| {
                            d.saturating_duration_since(origin).as_nanos() as u64
                        }),
                    )
                })
                .collect()
        };
        packets.sort_by_key(|a| (a.0, a.1));
        h(&(packets.len() as u64).to_le_bytes());
        for (arr, _seq, to, key, from, useq, kind, dl) in &packets {
            h(&arr.to_le_bytes());
            h(to.as_bytes());
            h(key.as_bytes());
            h(from.as_bytes());
            h(&useq.to_le_bytes());
            h(kind.as_bytes());
            h(&dl.to_le_bytes());
        }
        let mut routes: Vec<Arc<RouteState>> = self.routes.inner.lock().clone();
        routes.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        for r in &routes {
            h(r.from.as_bytes());
            h(r.to.as_bytes());
            {
                let s = r.seq.lock();
                h(&s.counter.to_le_bytes());
                h(&s.gen.to_le_bytes());
                h(&s.retry_tokens_milli.map_or(u64::MAX, |t| t).to_le_bytes());
            }
            {
                let f = r.fifo.lock();
                let latest = f.latest.map_or(u64::MAX, |t| {
                    t.saturating_duration_since(origin).as_nanos() as u64
                });
                h(&latest.to_le_bytes());
                h(&f.inflight.to_le_bytes());
            }
            {
                // Order-independent digest of the dedup memory.
                let seen = r.seen.lock();
                let mut xor = 0u64;
                for &s in seen.iter() {
                    xor ^= s.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
                h(&(seen.len() as u64).to_le_bytes());
                h(&xor.to_le_bytes());
            }
            let (stamp, floor) = self.fence.of(&r.from);
            h(&stamp.to_le_bytes());
            h(&floor.to_le_bytes());
        }
    }

    /// One delivery attempt: roll the link's fault dice, then dispatch
    /// over the configured link kind. The update is moved in and handed
    /// back alongside any error, so callers retry without cloning.
    fn send_attempt(
        &self,
        route: &Arc<RouteState>,
        to: &JunctionId,
        update: Update,
        deadline: Option<Instant>,
        data_plane: bool,
    ) -> Result<(), (SendError, Update)> {
        // Admission: queue bounds apply to the data plane, and to the
        // control plane too once the priority lane is switched off.
        if (data_plane || !self.overload.priority_lane.load(Ordering::Relaxed))
            && self.overload.gates_sends()
        {
            let obound = self.overload.outbox_bound.load(Ordering::Relaxed);
            let outbox_full = obound > 0 && route.fifo.lock().inflight >= obound as u64;
            let mbound = self.overload.mailbox_bound.load(Ordering::Relaxed);
            let mailbox_full = !outbox_full
                && mbound > 0
                && self.overload.mailbox_len(to).is_some_and(|len| len >= mbound);
            if outbox_full || mailbox_full {
                self.overload.note_queue_full();
                if self.tracer.is_enabled() {
                    let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                    self.tracer.record_link(
                        &fi,
                        &fj,
                        0,
                        LinkEv::QueueFull { to: &to_q, seq: update.seq },
                    );
                }
                return Err((SendError::QueueFull, update));
            }
        }
        let decision = {
            let mut faults = route.faults.lock();
            match faults.as_mut() {
                Some(lf) => lf.decide(self.clock.now()),
                None => FaultDecision::Deliver {
                    delay: Duration::ZERO,
                    duplicate: false,
                    reorder: false,
                },
            }
        };
        match decision {
            FaultDecision::Partitioned => {
                self.partitioned.fetch_add(1, Ordering::Relaxed);
                self.m_partition.fetch_add(1, Ordering::Relaxed);
                if self.tracer.is_enabled() {
                    let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                    self.tracer.record_link(
                        &fi,
                        &fj,
                        0,
                        LinkEv::Partition { to: &to_q, seq: update.seq },
                    );
                }
                Err((SendError::PartitionedAway, update))
            }
            FaultDecision::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                self.m_drop.fetch_add(1, Ordering::Relaxed);
                if self.tracer.is_enabled() {
                    let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                    self.tracer.record_link(
                        &fi,
                        &fj,
                        0,
                        LinkEv::Drop { to: &to_q, seq: update.seq },
                    );
                }
                Err((SendError::LinkDropped, update))
            }
            FaultDecision::Deliver { delay, duplicate, reorder } => {
                let size = wire_size(&update) as u64;
                self.msgs_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(size, Ordering::Relaxed);
                self.m_send.fetch_add(1, Ordering::Relaxed);
                if self.tracer.is_enabled() {
                    let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                    self.tracer.record_link(
                        &fi,
                        &fj,
                        0,
                        LinkEv::Send { to: &to_q, key: &update.key, seq: update.seq, bytes: size },
                    );
                }
                // Already expired at the sender: shed before spending
                // link capacity. Placed after the `link_send` trace so
                // conformance always sees a send preceding its shed.
                if self.overload.shed_expired() {
                    if let Some(d) = deadline {
                        if self.clock.now() > d {
                            self.overload.note_shed();
                            self.overload.note_deadline_expired();
                            if self.tracer.is_enabled() {
                                let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                                self.tracer.record_link(
                                    &fi,
                                    &fj,
                                    0,
                                    LinkEv::Shed { to: &to_q, seq: update.seq },
                                );
                            }
                            return Err((SendError::DeadlineExpired, update));
                        }
                    }
                }
                // The original dispatches first and alone decides the
                // send's outcome; the duplicate copy is best-effort
                // chaos. Were the copy dispatched first, a shed of the
                // original would surface as an error with a live copy
                // still in flight — and an app-level retry of that
                // "failed" send would then double-apply.
                let dup_copy = duplicate.then(|| update.clone());
                self.dispatch(route, to, update, delay, !reorder, deadline)?;
                if let Some(copy) = dup_copy {
                    self.dups.fetch_add(1, Ordering::Relaxed);
                    self.m_dup.fetch_add(1, Ordering::Relaxed);
                    if self.tracer.is_enabled() {
                        let (fi, fj, to_q) = self.route_trace_ids(&copy, to);
                        self.tracer.record_link(
                            &fi,
                            &fj,
                            0,
                            LinkEv::Dup { to: &to_q, seq: copy.seq },
                        );
                    }
                    let _ = self.dispatch(route, to, copy, delay, !reorder, deadline);
                }
                Ok(())
            }
        }
    }

    /// Deliver every queued packet due at the clock's current time.
    /// Virtual-clock mode only (the wall-clock scheduler thread pumps
    /// its own queue). Returns how many packets landed.
    pub(crate) fn pump_due(&self) -> usize {
        let fns = DeliveryFns {
            one: Arc::clone(&self.deliver),
            batch: Arc::clone(&self.deliver_batch),
            shed: Arc::new(ShedSink {
                state: Arc::clone(&self.overload),
                tracer: Arc::clone(&self.tracer),
            }),
        };
        self.sim.pump_due(self.clock.now(), &fns)
    }

    /// Earliest scheduled arrival still queued on any link, if any —
    /// the sim executor folds this into its next-deadline computation.
    pub(crate) fn next_arrival(&self) -> Option<Instant> {
        self.sim.next_due()
    }

    /// Clamp `arrival` so this link stays FIFO: never earlier than the
    /// latest already-scheduled arrival on the same route. Also
    /// registers the packet as in flight; the scheduler decrements the
    /// count after delivery (see [`packet_delivered`]).
    fn fifo_arrival(&self, route: &RouteState, arrival: Instant) -> Instant {
        let mut f = route.fifo.lock();
        let clamped = match f.latest {
            Some(latest) if latest > arrival => latest,
            _ => arrival,
        };
        f.latest = Some(clamped);
        f.inflight += 1;
        clamped
    }

    /// Whether a directed Direct link has no scheduled delivery still
    /// in flight (the clamp resets once the link drains, so the fast
    /// path recovers after transient jitter).
    fn link_idle(&self, route: &RouteState) -> bool {
        let mut f = route.fifo.lock();
        if f.inflight == 0 {
            f.latest = None;
            true
        } else {
            false
        }
    }

    /// Get (or dial) the route's cached TCP link.
    fn tcp_link(&self, route: &RouteState) -> Result<Arc<TcpLink>, SendError> {
        let mut tcp = route.tcp.lock();
        if let Some(l) = tcp.as_ref() {
            return Ok(Arc::clone(l));
        }
        let l = Arc::new(
            TcpLink::new(Arc::clone(&self.deliver), Arc::clone(&self.shutdown))
                .map_err(|e| SendError::Transport(format!("tcp setup: {e}")))?,
        );
        *tcp = Some(Arc::clone(&l));
        Ok(l)
    }

    /// Dispatch over the configured link kind. `extra_delay` (fault
    /// jitter / reorder hold-back) applies to Direct and Sim links; TCP
    /// frames go out immediately (the socket provides its own timing and
    /// is FIFO by construction). With `fifo` set the delay is treated as
    /// link latency — later messages on the same directed pair cannot
    /// overtake; explicit reordering passes `fifo = false`.
    fn dispatch(
        &self,
        route: &Arc<RouteState>,
        to: &JunctionId,
        update: Update,
        extra_delay: Duration,
        fifo: bool,
        deadline: Option<Instant>,
    ) -> Result<(), (SendError, Update)> {
        let size = wire_size(&update) as u64;
        match self.link_kind(route) {
            LinkKind::Direct => {
                // Fast path: no delay and nothing still in flight on
                // this link — deliver synchronously. The in-flight
                // count (not mere clock existence) gates this, so one
                // jittered delivery only detours the link through the
                // scheduler until its backlog drains, not forever.
                if extra_delay.is_zero() && self.link_idle(route) {
                    self.fast_path.fetch_add(1, Ordering::Relaxed);
                    self.m_fast.fetch_add(1, Ordering::Relaxed);
                    (self.deliver)(to, update);
                    return Ok(());
                }
                let mut arrival = self.clock.now() + extra_delay;
                let mut fifo_link = None;
                if fifo {
                    arrival = self.fifo_arrival(route, arrival);
                    fifo_link = Some(Arc::clone(route));
                }
                self.m_scheduled.fetch_add(1, Ordering::Relaxed);
                self.sim.enqueue(arrival, to.clone(), update, fifo_link, deadline);
                Ok(())
            }
            LinkKind::Sim { latency, bandwidth } => {
                let now = self.clock.now();
                let serialization = if bandwidth == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_secs_f64(size as f64 / bandwidth as f64)
                };
                // Early shed: if the link's backlog already guarantees
                // the packet arrives past its deadline, refuse it
                // *without* reserving bandwidth. This is what keeps the
                // backlog bounded under a storm — doomed work never
                // joins the queue, so admitted work stays timely.
                if self.overload.shed_expired() {
                    if let Some(d) = deadline {
                        let predicted = {
                            let clock = route.sim_clock.lock();
                            let start = clock.next_free.map_or(now, |t| t.max(now));
                            start + serialization + latency + extra_delay
                        };
                        if predicted > d {
                            self.overload.note_shed();
                            self.overload.note_deadline_expired();
                            if self.tracer.is_enabled() {
                                let (fi, fj, to_q) = self.route_trace_ids(&update, to);
                                self.tracer.record_link(
                                    &fi,
                                    &fj,
                                    0,
                                    LinkEv::Shed { to: &to_q, seq: update.seq },
                                );
                            }
                            return Err((SendError::DeadlineExpired, update));
                        }
                    }
                }
                let arrival = {
                    let mut clock = route.sim_clock.lock();
                    let start = clock.next_free.map_or(now, |t| t.max(now));
                    let done = start + serialization;
                    clock.next_free = Some(done);
                    done + latency
                };
                let mut arrival = arrival + extra_delay;
                let mut fifo_link = None;
                if fifo {
                    arrival = self.fifo_arrival(route, arrival);
                    fifo_link = Some(Arc::clone(route));
                }
                self.m_scheduled.fetch_add(1, Ordering::Relaxed);
                self.sim.enqueue(arrival, to.clone(), update, fifo_link, deadline);
                Ok(())
            }
            LinkKind::Tcp => {
                let link = match self.tcp_link(route) {
                    Ok(l) => l,
                    Err(e) => return Err((e, update)),
                };
                match link.send(to, &update) {
                    Ok(()) => Ok(()),
                    Err(e) => Err((SendError::Transport(format!("tcp send: {e}")), update)),
                }
            }
        }
    }

    /// Stop background threads. Dropping the TCP writers closes the
    /// sockets, which unblocks and terminates the reader threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.sim.shutdown();
        self.routes.clear_tcp();
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn collecting_network() -> (Network, mpsc::Receiver<(JunctionId, Update)>) {
        let (tx, rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            tx.send((to.clone(), u)).ok();
        });
        (Network::new(deliver), rx)
    }

    #[test]
    fn direct_delivers_synchronously() {
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::junction")).unwrap();
        let (got_to, got) = rx.try_recv().unwrap();
        assert_eq!(got_to, to);
        assert_eq!(got.key, "Work");
    }

    #[test]
    fn sim_link_delays_delivery() {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(30), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        let t0 = Instant::now();
        net.send("f", &to, Update::assert("Work", "f::junction")).unwrap();
        assert!(rx.try_recv().is_err(), "should not deliver immediately");
        let (_, _) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn sim_link_bandwidth_serializes() {
        let (net, rx) = collecting_network();
        // 10 KB/s: a 1000-byte payload takes ~100ms to serialize.
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::ZERO, bandwidth: 10_000 },
        );
        let to = JunctionId::new("g", "junction");
        let t0 = Instant::now();
        net.send(
            "f",
            &to,
            Update::data("n", Value::Bytes(vec![0; 1000]), "f::j"),
        )
        .unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "bandwidth not applied: {elapsed:?}"
        );
    }

    #[test]
    fn sim_preserves_fifo_per_pair() {
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(5), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..10 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        for i in 0..10 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)));
        }
    }

    #[test]
    fn jitter_preserves_per_link_fifo() {
        // Jitter is variable latency on a FIFO link, not reordering: a
        // 5ms-jittered message must not be overtaken by a later
        // 0ms-jittered one.
        let (net, rx) = collecting_network();
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none().with_jitter(Duration::from_millis(5)).with_seed(11),
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..50 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        for i in 0..50 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)), "arrived out of order");
        }
    }

    #[test]
    fn direct_fast_path_recovers_after_backlog_drains() {
        // Regression: one delayed delivery used to leave a fifo_clocks
        // entry behind forever, permanently disabling the Direct-link
        // synchronous fast path for the pair.
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(net.stats().fast_path, 1, "first send is synchronous");
        // A delayed delivery puts the link's FIFO clock in play…
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(20), bandwidth: 0 },
        );
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(net.stats().fast_path, 1);
        // …but once the backlog drains, Direct sends go synchronous
        // again (the scheduler clears the in-flight count only after
        // handing the packet over, so poll briefly).
        net.set_link("f", "g", LinkKind::Direct);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut recovered = false;
        while Instant::now() < deadline {
            net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
            if net.stats().fast_path > 1 {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(recovered, "fast path must re-arm after the backlog drains");
    }

    #[test]
    fn explicit_reorder_lets_later_messages_overtake() {
        let (net, rx) = collecting_network();
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none()
                .with_reorder(0.5, Duration::from_millis(30))
                .with_seed(5),
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..20 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..20 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            if let UpdateKind::Data(Value::Int(i)) = u.kind {
                order.push(i);
            }
        }
        assert_eq!(order.len(), 20, "no message may be lost by reordering");
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "expected at least one inversion, got {order:?}"
        );
    }

    #[test]
    fn reset_route_does_not_confuse_conversations() {
        // Regression: reset_route used to clear the receiver's dedup
        // memory and restart seqs at 1 while a delivery from the old
        // conversation was still in flight. The stale delivery then
        // repopulated `seen` with low seqs, and the new conversation's
        // first message (same low seq) was swallowed as a "duplicate".
        // Generation-tagged seqs make the two conversations disjoint.
        let (net, rx) = collecting_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(60), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        // Old conversation: one message, still in flight…
        net.send("f", &to, Update::data("n", Value::Int(1), "f::j")).unwrap();
        // …when the route is reset and a new conversation starts.
        net.reset_route("f", "g");
        net.send("f", &to, Update::data("n", Value::Int(2), "f::j")).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            if let UpdateKind::Data(Value::Int(i)) = u.kind {
                got.push(i);
            }
        }
        got.sort_unstable();
        assert_eq!(
            got,
            vec![1, 2],
            "neither the stale in-flight delivery nor the new conversation's \
             first message may be lost across a route reset"
        );
        assert_eq!(net.stats().deduped, 0);
        // And a genuine retry of the new conversation still dedups.
        net.set_fault_plan("f", "g", FaultPlan::none().with_dup(1.0).with_seed(5));
        net.send("f", &to, Update::data("n", Value::Int(3), "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            rx.recv_timeout(Duration::from_millis(150)).is_err(),
            "duplicate within the new conversation must still dedup"
        );
        assert_eq!(net.stats().deduped, 1);
    }

    #[test]
    fn tcp_round_trips_frames() {
        let (net, rx) = collecting_network();
        net.set_link("f", "g", LinkKind::Tcp);
        let to = JunctionId::new("g", "serve");
        net.send(
            "f",
            &to,
            Update::data("state", Value::Bytes(vec![7; 300]), "f::c"),
        )
        .unwrap();
        let (got_to, got) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got_to, to);
        assert_eq!(got.key, "state");
        assert_eq!(got.from, "f::c");
        assert_eq!(got.kind, UpdateKind::Data(Value::Bytes(vec![7; 300])));
    }

    #[test]
    fn value_codec_round_trips() {
        let values = vec![
            Value::Undef,
            Value::Bool(true),
            Value::Int(-42),
            Value::Str("hello".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Duration(Duration::from_micros(1500)),
            Value::Target("b1::serve".into()),
        ];
        for v in values {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(decode_value(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        // Sets do not transmit (§6) — they decode as undef.
        let mut buf = Vec::new();
        encode_value(&Value::Set(vec![]), &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_value(&mut slice).unwrap(), Value::Undef);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = Update::assert("Work", "f::j");
        let big = Update::data("n", Value::Bytes(vec![0; 10_000]), "f::j");
        assert!(wire_size(&big) > wire_size(&small) + 9000);
    }

    #[test]
    fn frame_codec_carries_sequence_numbers() {
        let mut u = Update::data("n", Value::Int(7), "f::j");
        u.seq = 42;
        let frame = encode_frame(&JunctionId::new("g", "serve"), &u);
        // decode_frame takes the body, after the 4-byte length prefix.
        let (to, decoded) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(to, JunctionId::new("g", "serve"));
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.kind, UpdateKind::Data(Value::Int(7)));
    }

    #[test]
    fn drop_without_retry_surfaces_link_dropped() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(crate::fault::RetryPolicy::disabled());
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(1.0).with_seed(1));
        let to = JunctionId::new("g", "junction");
        let err = net.send("f", &to, Update::assert("Work", "f::j")).unwrap_err();
        assert_eq!(err, SendError::LinkDropped);
        assert!(err.is_retryable());
        assert!(rx.try_recv().is_err());
        assert_eq!(net.stats().drops, 1);
    }

    #[test]
    fn retry_recovers_through_transient_drops() {
        let (net, rx) = collecting_network();
        // drop ~60% of attempts: 7 tries at p=0.6 fail with prob ~2.8%,
        // and the seed below is known-good.
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(0.6).with_seed(3));
        let to = JunctionId::new("g", "junction");
        for i in 0..20 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        for i in 0..20 {
            let (_, u) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)));
        }
        let stats = net.stats();
        assert!(stats.retries > 0, "expected retries, got {stats:?}");
        assert_eq!(stats.deduped, 0, "no dups were injected");
    }

    #[test]
    fn duplicates_are_deduped_unless_disabled() {
        let (net, rx) = collecting_network();
        net.set_fault_plan("f", "g", FaultPlan::none().with_dup(1.0).with_seed(5));
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "duplicate should have been suppressed"
        );
        assert_eq!(net.stats().deduped, 1);

        // Ablation: with dedup off the duplicate reaches the receiver.
        net.set_dedup(false);
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        rx.recv_timeout(Duration::from_secs(1))
            .expect("duplicate should arrive with dedup disabled");
    }

    #[test]
    fn unsequenced_updates_bypass_dedup() {
        // Test-path deliveries (seq 0) must never be suppressed, even if
        // identical — dedup keys on sequence numbers, not content.
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        let raw = Update::assert("Work", "f::j");
        assert_eq!(raw.seq, 0);
        net.send_raw("f", &to, raw.clone()).unwrap();
        net.send_raw("f", &to, raw).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
    }

    #[test]
    fn partition_window_rejects_then_heals() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(crate::fault::RetryPolicy::disabled());
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none().with_outage(Duration::ZERO, Duration::from_millis(50)),
        );
        let to = JunctionId::new("g", "junction");
        let err = net.send("f", &to, Update::assert("Work", "f::j")).unwrap_err();
        assert_eq!(err, SendError::PartitionedAway);
        assert!(rx.try_recv().is_err());
        std::thread::sleep(Duration::from_millis(60));
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(net.stats().partitioned, 1);
    }

    #[test]
    fn retry_outlasts_short_partition() {
        let (net, rx) = collecting_network();
        // Long enough budget to ride out a 40ms outage.
        net.set_retry_policy(crate::fault::RetryPolicy {
            enabled: true,
            max_retries: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
        });
        net.set_fault_plan(
            "f",
            "g",
            FaultPlan::none().with_outage(Duration::ZERO, Duration::from_millis(40)),
        );
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::assert("Work", "f::j")).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(net.stats().retries > 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = || {
            let (net, rx) = collecting_network();
            net.set_retry_policy(crate::fault::RetryPolicy::disabled());
            net.set_fault_plan(
                "f",
                "g",
                FaultPlan::none().with_drop(0.3).with_dup(0.2).with_seed(99),
            );
            let to = JunctionId::new("g", "junction");
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let r = net.send("f", &to, Update::data("n", Value::Int(i), "f::j"));
                outcomes.push(r.is_ok());
            }
            drop(net);
            let delivered = rx.iter().count();
            (outcomes, delivered)
        };
        assert_eq!(run(), run());
    }

    /// A network whose receiver records both per-update and batched
    /// deliveries, so tests can see which path fired.
    fn batching_network() -> (Network, mpsc::Receiver<(JunctionId, Update, bool)>) {
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        let one: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            tx.send((to.clone(), u, false)).ok();
        });
        let batch: DeliverBatchFn = Arc::new(move |to: &JunctionId, us: Vec<Update>| {
            for u in us {
                tx2.send((to.clone(), u, true)).ok();
            }
        });
        let net = Network::with_telemetry_batched(
            one,
            Some(batch),
            Arc::new(Tracer::new()),
            &Metrics::new(),
            Clock::wall(),
        );
        (net, rx)
    }

    #[test]
    fn scheduler_coalesces_same_destination_runs_into_batches() {
        // Packets for the same junction due together should land via the
        // batch callback, not twenty scheduler wakeups.
        let (net, rx) = batching_network();
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(20), bandwidth: 0 },
        );
        let to = JunctionId::new("g", "junction");
        for i in 0..20 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        let mut batched_count = 0;
        for i in 0..20 {
            let (_, u, batched) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(u.kind, UpdateKind::Data(Value::Int(i)));
            if batched {
                batched_count += 1;
            }
        }
        assert!(
            batched_count > 0,
            "a 20-deep same-destination backlog should coalesce at least once"
        );
    }

    #[test]
    fn send_performs_no_retry_policy_clone() {
        // Regression: `Network::send` used to deep-clone the whole
        // retry policy under its mutex on every send. The send path now
        // snapshots `Copy` fields (and only after a failed attempt), so
        // the thread-local clone counter must not move.
        let (net, rx) = collecting_network();
        let to = JunctionId::new("g", "junction");
        let before = RetryPolicy::clones_on_this_thread();
        for i in 0..100 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        assert_eq!(
            RetryPolicy::clones_on_this_thread(),
            before,
            "send must not clone the retry policy"
        );
        drop(net);
        assert_eq!(rx.iter().count(), 100);
    }

    #[test]
    fn retrying_send_clones_payload_only_on_actual_retry() {
        // A lossy link forces retries; the success path must still hand
        // the update through by move. We can't count payload clones
        // directly, but we can pin the policy read to the failure path:
        // a clean run of sends reads the policy zero times via Clone.
        let (net, rx) = collecting_network();
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(0.3).with_seed(3));
        let to = JunctionId::new("g", "junction");
        let before = RetryPolicy::clones_on_this_thread();
        for i in 0..50 {
            net.send("f", &to, Update::data("n", Value::Int(i), "f::j")).unwrap();
        }
        assert_eq!(RetryPolicy::clones_on_this_thread(), before);
        assert!(net.stats().retries > 0, "seed 3 at p=0.3 should force retries");
        drop(net);
        assert_eq!(rx.iter().count(), 50, "every send must still land exactly once");
    }

    #[test]
    fn outbox_bound_refuses_with_queue_full() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(200), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { outbox_bound: 2, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap();
        net.send("f", &to, Update::data("n", Value::Int(1), "f::j")).unwrap();
        let err = net.send("f", &to, Update::data("n", Value::Int(2), "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
        assert!(err.is_retryable(), "QueueFull is backpressure, not a fatal error");
        assert_eq!(net.stats().queue_full, 1);
        // The two admitted sends still land.
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn priority_lane_exempts_control_traffic_until_disabled() {
        let (net, _rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(200), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { outbox_bound: 1, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap();
        // Data plane is full; a raw (heartbeat-style) send still goes.
        net.send_raw("f", &to, Update::assert("hb", "f::j")).unwrap();
        // Without the lane, control traffic faces the same bound — the
        // metastable configuration the Overload scenario's bug proves.
        net.set_overload(OverloadConfig {
            outbox_bound: 1,
            priority_lane: false,
            ..Default::default()
        });
        let err = net.send_raw("f", &to, Update::assert("hb", "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
    }

    #[test]
    fn expired_deadline_is_shed_before_reserving_the_link() {
        let (net, rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        net.set_link(
            "f",
            "g",
            LinkKind::Sim { latency: Duration::from_millis(100), bandwidth: 0 },
        );
        net.set_overload(OverloadConfig { shed_expired: true, ..Default::default() });
        let to = JunctionId::new("g", "junction");
        // A 1ms budget cannot survive a 100ms link: the dispatch
        // predictor sheds it without queueing anything.
        let err = net
            .send_with_deadline(
                "f",
                &to,
                Update::data("n", Value::Int(0), "f::j"),
                Some(Instant::now() + Duration::from_millis(1)),
            )
            .unwrap_err();
        assert!(matches!(err, SendError::DeadlineExpired), "got {err}");
        assert!(!err.is_retryable(), "an expired deadline cannot be outwaited");
        let s = net.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.deadline_expired, 1);
        assert!(
            rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "shed update must never be delivered"
        );
        // A comfortable budget passes untouched.
        net.send_with_deadline(
            "f",
            &to,
            Update::data("n", Value::Int(1), "f::j"),
            Some(Instant::now() + Duration::from_secs(5)),
        )
        .unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn retry_budget_caps_retry_amplification() {
        let (net, _rx) = collecting_network();
        // Always-dropping link with a generous retry policy: without a
        // budget each send would burn max_retries attempts.
        net.set_fault_plan("f", "g", FaultPlan::none().with_drop(1.0).with_seed(7));
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 100,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
        });
        // Two retries of burst, nothing earned per send.
        net.set_retry_budget(RetryBudgetPolicy {
            enabled: true,
            initial_milli: 2000,
            per_send_milli: 0,
            cap_milli: 2000,
        });
        let to = JunctionId::new("g", "junction");
        let err = net.send("f", &to, Update::data("n", Value::Int(0), "f::j")).unwrap_err();
        assert!(matches!(err, SendError::LinkDropped), "got {err}");
        let s = net.stats();
        assert_eq!(s.retries, 2, "budget must stop the retry loop at 2 tokens");
        assert_eq!(s.retries_suppressed, 1);
        // Disabled budget falls back to the policy bound.
        net.set_retry_budget(RetryBudgetPolicy::disabled());
        net.set_retry_policy(RetryPolicy {
            enabled: true,
            max_retries: 5,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
        });
        let _ = net.send("f", &to, Update::data("n", Value::Int(1), "f::j")).unwrap_err();
        assert_eq!(net.stats().retries, 2 + 5);
    }

    #[test]
    fn mailbox_bound_consults_probe_and_sheds_at_admit() {
        let (net, _rx) = collecting_network();
        net.set_retry_policy(RetryPolicy::disabled());
        // Probe reports the target junction as saturated.
        net.set_mailbox_probe(Arc::new(|to: &JunctionId| {
            if to.junction == "busy" {
                Some(100)
            } else {
                Some(0)
            }
        }));
        net.set_overload(OverloadConfig { mailbox_bound: 8, ..Default::default() });
        let busy = JunctionId::new("g", "busy");
        let idle = JunctionId::new("g", "idle");
        let err = net.send("f", &busy, Update::assert("Work", "f::j")).unwrap_err();
        assert!(matches!(err, SendError::QueueFull), "got {err}");
        net.send("f", &idle, Update::assert("Work", "f::j")).unwrap();
        assert_eq!(net.stats().queue_full, 1);
    }

    #[test]
    fn overload_metrics_register_in_prometheus_rendering() {
        let (tx, _rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            tx.send((to.clone(), u)).ok();
        });
        let metrics = Arc::new(Metrics::new());
        let net = Network::with_telemetry_batched(
            deliver,
            None,
            Arc::new(Tracer::new()),
            &metrics,
            Clock::wall(),
        );
        net.refresh_overload_gauges();
        let text = metrics.render_prometheus();
        for name in [
            "csaw_link_shed_total",
            "csaw_link_queue_full_total",
            "csaw_link_deadline_expired_total",
            "csaw_link_retries_suppressed_total",
            "csaw_link_inflight",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
