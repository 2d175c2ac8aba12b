//! The closed-loop workloads: one client thread invokes the front
//! junction of the sharding or caching architecture and verifies every
//! reply before sending the next request.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mini_redis::{Command, WorkloadSpec};

use crate::deploy::{deploy_repeated, time_encode, Arch, Deployment, SetupTimes};
use crate::layers::{Attribution, Req, TraceAcc};
use crate::model::{Model, Stream};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{median, percentile, summarize, LatencySummary};
use crate::timed::{wrap, SpanLog};
use crate::{Config, Counters, MAX_SUBRUNS, SETUPS_PER_SUBRUN, SETUP_REPS};

/// Requests between trace drains in the traced run (~24 events each on
/// the sharded path, far below a ring shard's capacity).
const DRAIN_EVERY: usize = 256;
/// Requests the first sub-run serves before `peak_rss_mb` is read: a
/// fixed count, so memory that grows with requests served compares
/// across versions of different speed. About 1.5 s of the first sub-run
/// at the throughput of the commit that introduced the benchmark.
fn rss_requests(arch: Arch) -> u64 {
    match arch {
        Arch::Sharded => 25_000,
        _ => 120_000,
    }
}
/// Serving [`rss_requests`] may take this many times a sub-run's share
/// of `--seconds` before it is cut short.
const SLOT_CAP: u32 = 3;
/// Requests sent before any timing to settle threads and caches.
const WARM_REQUESTS: usize = 1_000;
/// The layer-sum check's tolerance: host, codec, handoff and self time
/// must account for the mean `invoke` time within this share.
const LAYER_SUM_TOLERANCE: f64 = 0.10;
/// A closed-loop gap between a reply and the next request longer than
/// this counts as the generator running late.
const LATE_NS: u64 = 10_000;

/// The command mix of a closed-loop architecture.
pub fn spec(arch: Arch, seed: u64) -> WorkloadSpec {
    match arch {
        // redis-benchmark's defaults: 10k uniform keys, 50% GET, 64 B.
        Arch::Sharded => WorkloadSpec {
            seed,
            ..WorkloadSpec::default()
        },
        // Fig. 23c: 90% GET, 90% of requests on 10% of the keys.
        _ => WorkloadSpec {
            seed,
            ..WorkloadSpec::hotspot_90_10()
        },
    }
}

struct Client {
    dep: Deployment,
    stream: Stream,
    model: Model,
    attempted: u64,
    failed: u64,
}

/// Samples of one measured phase.
struct Phase {
    /// Latency of each verified request, ns.
    latency: Vec<u64>,
    /// Reply-to-next-request gaps, ns (traced phases only).
    gaps: Vec<u64>,
    elapsed: Duration,
}

impl Client {
    /// One request: enqueue, invoke, take the reply and check it.
    /// Returns the `invoke` call and verified-reply instants, or `None`
    /// for a failed, refused or wrong reply.
    fn request(&mut self, cmd: Command) -> Option<(Instant, Instant)> {
        let requests = self.dep.requests.as_ref().expect("closed-loop front");
        let replies = self.dep.replies.as_ref().expect("closed-loop front");
        requests.lock().push_back(cmd.clone());
        let t0 = Instant::now();
        let invoked = self.dep.rt.invoke(self.dep.front, "junction");
        let reply = {
            let mut q = replies.lock();
            let r = q.pop_front();
            let extra = !q.is_empty();
            q.clear();
            r.filter(|_| !extra)
        };
        let ok = invoked.is_ok() && reply.is_some_and(|r| self.model.check(&cmd, &r));
        let t1 = Instant::now();
        self.attempted += 1;
        if ok {
            Some((t0, t1))
        } else {
            self.failed += 1;
            requests.lock().clear();
            None
        }
    }

    /// Send requests for `dur` or until `max` requests were attempted,
    /// whichever comes first.
    fn phase(&mut self, dur: Duration, max: u64, mut traced: Option<&mut Traced>) -> Phase {
        let start = Instant::now();
        let end = start + dur;
        let until = self.attempted.saturating_add(max);
        let mut p = Phase {
            latency: Vec::new(),
            gaps: Vec::new(),
            elapsed: Duration::ZERO,
        };
        loop {
            let ready = Instant::now();
            if ready >= end || self.attempted >= until {
                break;
            }
            let cmd = self.stream.next();
            let Some((t0, t1)) = self.request(cmd) else {
                continue;
            };
            p.latency.push((t1 - t0).as_nanos() as u64);
            if let Some(tr) = traced.as_deref_mut() {
                p.gaps.push((t0 - ready).as_nanos() as u64);
                tr.after(Req { t0, t1 }, &self.dep);
            }
        }
        p.elapsed = start.elapsed();
        p
    }

    /// Check the stores against the model and shut the deployment down.
    /// Returns whether the stores match and the warm-up had no failure.
    fn finish(&self, warm_failed: u64) -> bool {
        let state_ok = self.state_matches();
        if !state_ok {
            eprintln!("FAIL: store contents differ from the model");
        }
        if warm_failed > 0 {
            eprintln!("FAIL: {warm_failed} warm-up requests failed");
        }
        self.dep.rt.shutdown();
        state_ok && warm_failed == 0
    }

    /// Every store holds exactly the model's keys and values.
    fn state_matches(&self) -> bool {
        let stores: Vec<_> = self.dep.stores.iter().map(|s| s.lock()).collect();
        let total: usize = stores.iter().map(|s| s.len()).sum();
        total == self.model.len()
            && stores.iter().enumerate().all(|(i, s)| {
                s.entries()
                    .all(|(k, v)| self.dep.store_for(k) == i && self.model.holds(k, v))
            })
    }
}

/// The traced run's observers.
struct Traced {
    front_log: Arc<SpanLog>,
    back_logs: Vec<Arc<SpanLog>>,
    front_junction: String,
    acc: TraceAcc,
    attr: Attribution,
    since_drain: usize,
}

impl Traced {
    fn install(dep: &Deployment) -> Traced {
        Traced {
            front_log: wrap(&dep.rt, dep.front),
            back_logs: dep.backs.iter().map(|b| wrap(&dep.rt, b)).collect(),
            front_junction: format!("{}::junction", dep.front),
            acc: TraceAcc::default(),
            attr: Attribution::default(),
            since_drain: 0,
        }
    }

    fn after(&mut self, req: Req, dep: &Deployment) {
        self.attr.push(req);
        self.since_drain += 1;
        if self.since_drain >= DRAIN_EVERY {
            self.drain(dep);
        }
    }

    fn drain(&mut self, dep: &Deployment) {
        self.since_drain = 0;
        self.acc.feed(dep.rt.trace_events());
        let front = self.front_log.drain();
        let back = self.back_logs.iter().flat_map(|l| l.drain()).collect();
        self.attr
            .attribute(front, back, &mut self.acc, &self.front_junction);
    }

    /// Forget everything recorded so far (the warm-up before the window).
    fn discard(&mut self, dep: &Deployment) {
        let _ = dep.rt.trace_events();
        self.front_log.drain();
        for l in &self.back_logs {
            l.drain();
        }
    }
}

/// Put `p50_us`, the median over sub-runs, and describe every sub-run
/// on stderr.
///
/// `p99_us`, `p999_us` and `ops_s` (also medians over sub-runs) are
/// printed but not reported: at the commit that introduced the benchmark
/// lost wake-ups make them swing by more than any usable bound from run
/// to run (see `README.md`, "End-to-end metrics").
pub fn put_latency(m: &mut Metrics, sums: &[LatencySummary], ops: &[f64]) {
    let med = |f: fn(&LatencySummary) -> f64| median(&sums.iter().map(f).collect::<Vec<_>>());
    m.put("p50_us", med(|s| s.p50_us), "us");
    eprintln!(
        "  not reported: median p99_us {:.3}, p999_us {:.3}, ops_s {:.1}",
        med(|s| s.p99_us),
        med(|s| s.p999_us),
        median(ops)
    );
    for (i, s) in sums.iter().enumerate() {
        eprintln!(
            "  sub-run {i}: n {} p50 {:.3} p99 {:.3} p999 {:.3} us ({} beyond p999), {:.0} ops/s",
            s.n, s.p50_us, s.p99_us, s.p999_us, s.beyond_p999, ops[i]
        );
    }
}

/// Put `peak_rss_mb`, the process's peak once the first deployment has
/// served a fixed amount of work (`reported`). Later sub-runs raise it
/// only by what the allocator keeps from earlier deployments, which
/// varies with thread timing; stderr shows the peak after each.
pub fn put_rss(m: &mut Metrics, reported: f64, after_each: &[f64]) {
    eprintln!("  peak RSS after each sub-run (MiB): {after_each:.3?}");
    m.put("peak_rss_mb", reported, "MiB");
}

fn p50(phase: &Phase) -> f64 {
    summarize(&mut phase.latency.clone()).p50_us
}

/// The seed of sub-run `k` of a run seeded `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(MAX_SUBRUNS as u64).wrapping_add(k as u64)
}

/// Deploy `arch` `setup_reps` times (keeping the last), preload it and
/// warm it up. Returns the client, the set-up timings and the number of
/// failed warm-up requests.
fn start(arch: Arch, seed: u64, setup_reps: usize) -> (Client, Vec<SetupTimes>, u64) {
    let spec = spec(arch, seed);
    let mut model = Model::new(spec.value_size);
    let mut stream = Stream::new(spec);
    let preload = stream.preload();
    preload.iter().for_each(|c| model.apply(c));
    let (dep, setups) = deploy_repeated(arch, &preload, setup_reps);
    let mut client = Client {
        dep,
        stream,
        model,
        attempted: 0,
        failed: 0,
    };
    // Unmeasured but verified. The caching workload first reads every
    // key once so the cache holds the whole keyspace.
    if arch == Arch::Cached {
        for i in 0..preload.len() {
            client.request(Command::Get(format!("key:{i}")));
        }
    }
    for _ in 0..WARM_REQUESTS {
        let cmd = client.stream.next();
        client.request(cmd);
    }
    let warm_failed = client.failed;
    client.attempted = 0;
    client.failed = 0;
    (client, setups, warm_failed)
}

/// Run a closed-loop workload.
pub fn run(arch: Arch, cfg: &Config) -> Outcome {
    let mut m = Metrics::default();
    let (mut attempted, mut failed, mut ok) = (0, 0, true);
    let mut checks = Vec::new();
    if !cfg.trace {
        // Each sub-run is a fresh deployment with fresh threads, measured
        // for its share of the run. The first one reads peak memory after
        // a fixed number of requests; the time cap bounds that on a slow
        // machine.
        let (slot, subruns) = (cfg.slot(), cfg.subruns());
        let (mut sums, mut ops, mut setups, mut rss) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut rss_mark = 0.0;
        for k in 0..subruns {
            let (mut client, s, warm_failed) =
                start(arch, sub_seed(cfg.seed, k), SETUPS_PER_SUBRUN);
            let began = Instant::now();
            let mut latency = Vec::new();
            if k == 0 {
                latency = client
                    .phase(slot * SLOT_CAP, rss_requests(arch), None)
                    .latency;
                rss_mark = peak_rss_mb();
            }
            let rest = slot.saturating_sub(began.elapsed());
            latency.extend(client.phase(rest, u64::MAX, None).latency);
            ops.push(latency.len() as f64 / began.elapsed().as_secs_f64());
            sums.push(summarize(&mut latency));
            setups.extend(s);
            ok &= client.finish(warm_failed);
            rss.push(peak_rss_mb());
            attempted += client.attempted;
            failed += client.failed;
        }
        eprintln!(
            "end-to-end: {subruns} sub-runs of {:.3} s; peak RSS read after {} requests",
            slot.as_secs_f64(),
            rss_requests(arch)
        );
        put_latency(&mut m, &sums, &ops);
        m.put(
            "setup_s",
            median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
            "s",
        );
        put_rss(&mut m, rss_mark, &rss);
    } else {
        let (mut client, setups, warm_failed) = start(arch, cfg.seed, SETUP_REPS);
        let plain = client.phase(cfg.duration().mul_f64(0.4), u64::MAX, None);
        let plain_p50 = p50(&plain);
        let mut tr = Traced::install(&client.dep);
        client.dep.rt.set_tracing(true);
        // The first traced event pays the tracer's one-off clock
        // calibration; keep it out of the window.
        for _ in 0..3 {
            let cmd = client.stream.next();
            client.request(cmd);
        }
        std::thread::sleep(Duration::from_millis(5));
        tr.discard(&client.dep);
        let before = Counters::take(&client.dep);
        let traced = client.phase(cfg.duration().mul_f64(0.6), u64::MAX, Some(&mut tr));
        std::thread::sleep(Duration::from_millis(5));
        tr.drain(&client.dep);
        let after = Counters::take(&client.dep);
        client.dep.rt.set_tracing(false);
        let traced_p50 = p50(&traced);
        eprintln!("untraced p50 {plain_p50:.3} us, traced p50 {traced_p50:.3} us");
        put_layers(
            &mut m,
            &mut checks,
            arch,
            &setups,
            &tr,
            &traced,
            &before,
            &after,
            &client,
        );
        m.put("trace.overhead_ratio", traced_p50 / plain_p50, "ratio");
        m.put(
            "trace.dropped",
            (after.trace_dropped - before.trace_dropped) as f64,
            "count",
        );
        checks.push((
            "trace ring dropped no event",
            after.trace_dropped == before.trace_dropped,
        ));
        ok &= client.finish(warm_failed);
        attempted = client.attempted;
        failed = client.failed;
    }
    eprintln!(
        "fail_ratio = {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        correct: ok && failed == 0,
        attempted,
        failed,
        metrics: m,
        checks,
    }
}

#[allow(clippy::too_many_arguments)]
fn put_layers(
    m: &mut Metrics,
    checks: &mut crate::Checks,
    arch: Arch,
    setups: &[SetupTimes],
    tr: &Traced,
    traced: &Phase,
    before: &Counters,
    after: &Counters,
    client: &Client,
) {
    let a = &tr.attr;
    let reqs = traced.latency.len().max(1) as f64;
    crate::put_setup_layers(m, setups);
    m.put("redis.front_ns", a.per_req(a.front_host_ns), "ns");
    m.put("redis.back_ns", a.per_req(a.back_host_ns), "ns");
    m.put("redis.codec_ns", a.per_req(a.codec_ns), "ns");
    m.put("handoff.fwd_us.p50", percentile(&a.fwd_us, 0.5), "us");
    m.put("handoff.fwd_us.p99", percentile(&a.fwd_us, 0.99), "us");
    m.put("handoff.ret_us.p50", percentile(&a.ret_us, 0.5), "us");
    m.put("handoff.ret_us.p99", percentile(&a.ret_us, 0.99), "us");
    m.put(
        "runtime.stall_ratio",
        a.stalls as f64 / a.n.max(1) as f64,
        "ratio",
    );
    m.put(
        "transport.send_deliver_us",
        tr.acc.send_deliver_us / reqs,
        "us",
    );
    m.put("kv.apply_us", tr.acc.apply_us / reqs, "us");
    m.put("runtime.wake_us", tr.acc.wake_us / reqs, "us");
    m.put(
        "interp.front_self_us",
        a.per_req(a.front_self_ns) / 1e3,
        "us",
    );
    m.put("interp.back_self_us", a.per_req(a.back_self_ns) / 1e3, "us");
    let invoke_us = a.per_req(a.invoke_ns) / 1e3;
    let unattributed_us = a.per_req(a.invoke_ns - a.attributed_ns()) / 1e3;
    m.put("layers.unattributed_us", unattributed_us, "us");
    crate::put_counter_layers(m, before, after, reqs, tr.acc.kv_events);
    let (hits, misses) = (
        after.cache.0 - before.cache.0,
        after.cache.1 - before.cache.1,
    );
    m.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let (encode_s, _) = time_encode(client.model.entries(), 5);
    m.put("serial.encode_ms", encode_s * 1e3, "ms");
    for (name, unit) in [
        ("ckpt.save_ms", "ms"),
        ("ckpt.lock_wait_us", "us"),
        ("ckpt.ship_ms", "ms"),
        ("ckpt.count", "count"),
        ("ckpt.bytes", "B"),
    ] {
        m.put(name, 0.0, unit);
    }
    let late_max = traced.gaps.iter().copied().max().unwrap_or(0);
    m.put("gen.late_max_us", late_max as f64 / 1e3, "us");
    m.put(
        "gen.late_ratio",
        traced.gaps.iter().filter(|&&g| g > LATE_NS).count() as f64 / reqs,
        "ratio",
    );

    eprintln!(
        "layer sum over {} requests ({} left the front): invoke {invoke_us:.3} us = host {:.3} + codec {:.3} \
         + handoff {:.3} (fwd {:.3} + ret {:.3}) + back self {:.3} + front self {:.3} + unattributed {:.3}",
        a.n,
        a.back_trips,
        a.per_req(a.front_host_ns + a.back_host_ns) / 1e3,
        a.per_req(a.codec_ns) / 1e3,
        a.per_req(a.fwd_ns + a.ret_ns) / 1e3,
        a.per_req(a.fwd_ns) / 1e3,
        a.per_req(a.ret_ns) / 1e3,
        a.per_req(a.back_self_ns) / 1e3,
        a.per_req(a.front_self_ns) / 1e3,
        unattributed_us,
    );
    eprintln!(
        "handoff from the trace, per request: transport {:.3} us, wake-up {:.3} us, kv apply {:.3} us",
        tr.acc.send_deliver_us / reqs,
        tr.acc.wake_us / reqs,
        tr.acc.apply_us / reqs
    );
    checks.push(("the traced window served requests", a.n > 0));
    checks.push((
        "every traced request attributed",
        a.missing_acts + a.incomplete == 0 && a.n as usize == traced.latency.len(),
    ));
    if arch == Arch::Sharded {
        checks.push((
            "every sharded request reached a back-end",
            a.back_trips == a.n,
        ));
        checks.push((
            "layers sum to the mean invoke time within 10%",
            unattributed_us.abs() <= LAYER_SUM_TOLERANCE * invoke_us,
        ));
    }
}
