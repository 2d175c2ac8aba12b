//! Per-layer attribution from outside the program. Two sources:
//!
//! * the runtime's public trace ([`csaw_runtime::Runtime::trace_events`]):
//!   activation begin/end, KV-table and link events, stamped in µs on
//!   the tracer's clock;
//! * the [`crate::timed`] wrapper's spans around every host entry point,
//!   stamped with `Instant`.
//!
//! The two clocks are never compared directly: trace metrics are
//! differences of trace stamps, wrapper metrics differences of
//! `Instant`s, and the two meet only as durations (an activation's span
//! minus the host spans inside it).

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use csaw_kv::TableEvent;
use csaw_runtime::{TraceEvent, TraceKind};

use crate::timed::{Op, Span};

fn junction_of(ev: &TraceEvent) -> String {
    format!("{}::{}", ev.instance, ev.junction)
}

/// Streaming accumulator over drained trace events. Events of one
/// junction arrive in order across drains; matches between junctions
/// (a send and its delivery) are made by key, so a pair split across
/// two drains still matches.
#[derive(Default)]
pub struct TraceAcc {
    acts: HashMap<String, VecDeque<f64>>,
    open: HashMap<String, u64>,
    sends: HashMap<(String, String, String, u64), u64>,
    queued_since: HashMap<String, u64>,
    flushed_at: HashMap<String, u64>,
    window_deliver: HashMap<String, u64>,
    /// Σ µs from each `link_send` to its `kv_deliver`.
    pub send_deliver_us: f64,
    /// Σ µs a receiver took to pick up delivered updates: a queued
    /// delivery to the receiver's next `kv_flush_apply`, or an update
    /// applied into an open `wait` window to that window's close.
    pub wake_us: f64,
    /// Σ µs from a junction's first `kv_flush_apply` of a scheduling
    /// pass to its `sched`: applying queued updates, guard evaluation
    /// and activation start.
    pub apply_us: f64,
    /// KV-table events seen.
    pub kv_events: u64,
}

impl TraceAcc {
    /// Fold one drain (sorted by global sequence number) in.
    pub fn feed(&mut self, events: Vec<TraceEvent>) {
        for ev in events {
            let at = ev.at_us;
            match &ev.kind {
                TraceKind::Sched => {
                    let j = junction_of(&ev);
                    if let Some(f) = self.flushed_at.remove(&j) {
                        self.apply_us += at.saturating_sub(f) as f64;
                    }
                    self.open.insert(j, at);
                }
                TraceKind::Unsched { .. } => {
                    let j = junction_of(&ev);
                    if let Some(s) = self.open.remove(&j) {
                        self.acts
                            .entry(j)
                            .or_default()
                            .push_back(at.saturating_sub(s) as f64);
                    }
                }
                TraceKind::LinkSend { to, key, seq, .. } => {
                    self.sends
                        .insert((junction_of(&ev), to.to_string(), key.clone(), *seq), at);
                }
                TraceKind::Kv(kv) => {
                    self.kv_events += 1;
                    self.table_event(&ev, kv, at);
                }
                _ => {}
            }
        }
    }

    fn table_event(&mut self, ev: &TraceEvent, kv: &TableEvent, at: u64) {
        match kv {
            TableEvent::Deliver {
                key,
                from,
                link_seq,
                applied,
                ..
            } => {
                let j = junction_of(ev);
                if let Some(sent) =
                    self.sends
                        .remove(&(from.clone(), j.clone(), key.clone(), *link_seq))
                {
                    self.send_deliver_us += at.saturating_sub(sent) as f64;
                }
                if *applied {
                    self.window_deliver.insert(j, at);
                } else {
                    self.queued_since.insert(j, at);
                }
            }
            TableEvent::FlushApply { .. } | TableEvent::RetroApply { .. } => {
                let j = junction_of(ev);
                if let Some(d) = self.queued_since.remove(&j) {
                    self.wake_us += at.saturating_sub(d) as f64;
                    self.flushed_at.insert(j, at);
                }
            }
            TableEvent::WindowClose { .. } => {
                if let Some(d) = self.window_deliver.remove(&junction_of(ev)) {
                    self.wake_us += at.saturating_sub(d) as f64;
                }
            }
            _ => {}
        }
    }

    /// The next completed activation span (µs) of `junction`
    /// (`instance::junction`), in activation order.
    pub fn pop_act(&mut self, junction: &str) -> Option<f64> {
        self.acts.get_mut(junction)?.pop_front()
    }
}

/// One request's wall-clock boundaries on the client.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// `invoke` called.
    pub t0: Instant,
    /// Reply verified.
    pub t1: Instant,
}

/// Handoff gap that counts as a scheduler stall (the runtime's 2 ms
/// tick is the only source of gaps this long on an idle request path).
pub const STALL_NS: f64 = 1e6;

/// Per-request decomposition of closed-loop requests through a front
/// instance and (for requests that leave it) one back instance:
///
/// `invoke = host + codec + fwd + ret + back_self + front_self + unattributed`
///
/// * `host`: `host_call` spans on the front and the back;
/// * `codec`: `save`/`restore` spans of the request and reply data;
/// * `fwd`: front `save("n")` return → back `restore("n")` entry;
/// * `ret`: back `save("m")` return → front `restore("m")` entry;
/// * `back_self`: back time between `restore("n")` entry and
///   `save("m")` return outside host spans;
/// * `front_self`: the front activation's trace span minus its host and
///   codec spans and minus the `fwd → back → ret` interval;
/// * `unattributed`: what is left, i.e. `invoke` outside the front
///   activation.
#[derive(Default)]
pub struct Attribution {
    pending: VecDeque<Req>,
    /// Requests attributed.
    pub n: u64,
    /// Requests that left the front.
    pub back_trips: u64,
    /// Requests with a handoff gap of at least [`STALL_NS`].
    pub stalls: u64,
    /// Requests whose front activation was missing from the trace.
    pub missing_acts: u64,
    /// Requests whose spans were incomplete.
    pub incomplete: u64,
    /// Σ ns per component, over attributed requests.
    pub invoke_ns: f64,
    /// Σ front `host_call` ns.
    pub front_host_ns: f64,
    /// Σ back `host_call` ns.
    pub back_host_ns: f64,
    /// Σ `save`/`restore` ns.
    pub codec_ns: f64,
    /// Σ forward handoff ns.
    pub fwd_ns: f64,
    /// Σ return handoff ns.
    pub ret_ns: f64,
    /// Σ back self ns.
    pub back_self_ns: f64,
    /// Σ front self ns.
    pub front_self_ns: f64,
    /// Forward handoff per back trip, µs.
    pub fwd_us: Vec<f64>,
    /// Return handoff per back trip, µs.
    pub ret_us: Vec<f64>,
}

impl Attribution {
    /// Register a completed request.
    pub fn push(&mut self, req: Req) {
        self.pending.push_back(req);
    }

    /// Attribute every pending request. `front` and `back` hold every
    /// span recorded since the last call (any order); `front_junction`
    /// names the front's activations in `trace`.
    pub fn attribute(
        &mut self,
        mut front: Vec<Span>,
        mut back: Vec<Span>,
        trace: &mut TraceAcc,
        front_junction: &str,
    ) {
        front.sort_by_key(|s| s.start);
        back.sort_by_key(|s| s.start);
        let (mut fi, mut bi) = (0, 0);
        while let Some(req) = self.pending.pop_front() {
            let take = |spans: &[Span], i: &mut usize| {
                while *i < spans.len() && spans[*i].start < req.t0 {
                    *i += 1;
                }
                let from = *i;
                while *i < spans.len() && spans[*i].start <= req.t1 {
                    *i += 1;
                }
                from..*i
            };
            let fr = take(&front, &mut fi);
            let br = take(&back, &mut bi);
            let act_us = trace.pop_act(front_junction);
            self.one(req, &front[fr], &back[br], act_us);
        }
    }

    fn one(&mut self, req: Req, front: &[Span], back: &[Span], act_us: Option<f64>) {
        let Some(act_us) = act_us else {
            self.missing_acts += 1;
            return;
        };
        let host = |spans: &[Span]| {
            spans
                .iter()
                .filter(|s| s.op == Op::Host)
                .map(Span::ns)
                .sum::<f64>()
        };
        let codec = |spans: &[Span]| {
            spans
                .iter()
                .filter(|s| s.op != Op::Host)
                .map(Span::ns)
                .sum::<f64>()
        };
        let find = |spans: &[Span], op: Op, name: &str| {
            spans.iter().find(|s| s.op == op && s.name == name).copied()
        };
        let front_spans_ns: f64 = front.iter().map(Span::ns).sum();
        let mut away_ns = 0.0;
        if !back.is_empty() {
            let (Some(d), Some(e), Some(f), Some(g)) = (
                find(front, Op::Save, "n"),
                find(back, Op::Restore, "n"),
                find(back, Op::Save, "m"),
                find(front, Op::Restore, "m"),
            ) else {
                self.incomplete += 1;
                return;
            };
            let gap = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as f64;
            let fwd = gap(d.end, e.start);
            let ret = gap(f.end, g.start);
            let back_spans_ns: f64 = back.iter().map(Span::ns).sum();
            self.back_trips += 1;
            self.fwd_ns += fwd;
            self.ret_ns += ret;
            self.fwd_us.push(fwd / 1e3);
            self.ret_us.push(ret / 1e3);
            self.back_self_ns += gap(e.start, f.end) - back_spans_ns;
            self.back_host_ns += host(back);
            self.codec_ns += codec(back);
            if fwd >= STALL_NS || ret >= STALL_NS {
                self.stalls += 1;
            }
            away_ns = gap(d.end, g.start);
        }
        self.n += 1;
        self.invoke_ns += req.t1.saturating_duration_since(req.t0).as_nanos() as f64;
        self.front_host_ns += host(front);
        self.codec_ns += codec(front);
        self.front_self_ns += act_us * 1e3 - front_spans_ns - away_ns;
    }

    /// Σ of every attributed component, ns.
    pub fn attributed_ns(&self) -> f64 {
        self.front_host_ns
            + self.back_host_ns
            + self.codec_ns
            + self.fwd_ns
            + self.ret_ns
            + self.back_self_ns
            + self.front_self_ns
    }

    /// Per-request mean of a Σ, in the Σ's unit; 0 with no request.
    pub fn per_req(&self, sum: f64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            sum / self.n as f64
        }
    }
}
