//! The open-loop checkpoint workload: direct store operations on the
//! primary arrive on a fixed schedule while the checkpoint architecture
//! periodically `save`s the whole store and ships it to the store
//! instance.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mini_redis::{Store, WorkloadSpec};

use crate::closed::{put_latency, put_rss, sub_seed};
use crate::deploy::{deploy_repeated, time_encode, Arch, Deployment, SetupTimes};
use crate::layers::TraceAcc;
use crate::model::{version_of, Model, Stream};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{mean, median, summarize};
use crate::timed::{wrap, Op, Span};
use crate::{Config, Counters, SETUPS_PER_SUBRUN, SETUP_REPS};

/// Offered load: one operation every 10 µs (100k ops/s).
const PERIOD_NS: u64 = 10_000;
/// Unmeasured open-loop time before the window (covers checkpoints).
const WARM: Duration = Duration::from_millis(300);
/// An operation issued later than one arrival period after its due time
/// counts as late.
const LATE_NS: u64 = PERIOD_NS;
/// The first sub-run reads `peak_rss_mb` after this much of its
/// schedule (80k operations): a fixed amount of work, and short, because
/// the peak over a longer window depends on how many multi-MB checkpoint
/// blobs happen to be in flight at once.
const RSS_WINDOW: Duration = Duration::from_millis(800);

/// Fig. 23a's store: 20k keys × 128 B, 70% GET.
pub fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        keyspace: 20_000,
        read_ratio: 0.7,
        value_size: 128,
        seed,
        ..WorkloadSpec::default()
    }
}

/// Samples of one open-loop phase, ns. Latency is from the due time.
#[derive(Default)]
struct Phase {
    latency: Vec<u64>,
    late: Vec<u64>,
    lock_wait: Vec<u64>,
    execute: Vec<u64>,
    elapsed: Duration,
}

struct Generator {
    store: Arc<parking_lot::Mutex<Store>>,
    stream: Stream,
    model: Model,
    attempted: u64,
    failed: u64,
}

impl Generator {
    /// Issue operations every [`PERIOD_NS`] for `dur`. With `detail`,
    /// also time lock acquisition and execution separately.
    fn phase(&mut self, dur: Duration, detail: bool) -> Phase {
        let n = (dur.as_nanos() as u64 / PERIOD_NS) as usize;
        let mut p = Phase {
            latency: Vec::with_capacity(n),
            ..Default::default()
        };
        let start = Instant::now() + Duration::from_micros(100);
        for i in 0..n {
            let due = start + Duration::from_nanos(i as u64 * PERIOD_NS);
            let cmd = self.stream.next();
            let mut now = Instant::now();
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            let issued = now;
            let mut store = self.store.lock();
            let locked = if detail { Instant::now() } else { issued };
            let reply = cmd.execute(&mut store);
            let executed = if detail { Instant::now() } else { issued };
            drop(store);
            let ok = self.model.check(&cmd, &reply);
            let done = Instant::now();
            self.attempted += 1;
            if !ok {
                self.failed += 1;
            }
            p.latency.push((done - due).as_nanos() as u64);
            if detail {
                p.late.push((issued - due).as_nanos() as u64);
                p.lock_wait.push((locked - issued).as_nanos() as u64);
                p.execute.push((executed - locked).as_nanos() as u64);
            }
        }
        p.elapsed = start.elapsed();
        p
    }
}

fn ns_mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// Deploy the checkpoint architecture `setup_reps` times (keeping the
/// last), preload it and run the generator unmeasured for [`WARM`].
fn start(seed: u64, setup_reps: usize) -> (Deployment, Generator, Vec<SetupTimes>, u64) {
    let spec = spec(seed);
    let mut model = Model::new(spec.value_size);
    let mut stream = Stream::new(spec);
    let preload = stream.preload();
    preload.iter().for_each(|c| model.apply(c));
    let (dep, setups) = deploy_repeated(Arch::Checkpoint, &preload, setup_reps);
    let mut gen = Generator {
        store: Arc::clone(&dep.stores[0]),
        stream,
        model,
        attempted: 0,
        failed: 0,
    };
    gen.phase(WARM, false);
    let warm_failed = gen.failed;
    gen.attempted = 0;
    gen.failed = 0;
    (dep, gen, setups, warm_failed)
}

/// Check the stored checkpoint and the primary's store, then shut the
/// deployment down. The last stored checkpoint must restore into a fresh
/// store holding the whole keyspace, each value one this run wrote to
/// that key; the primary must hold exactly the model.
fn finish(dep: &Deployment, gen: &Generator, warm_failed: u64) -> bool {
    let blob = dep.checkpoint.as_ref().and_then(|l| l.lock().clone());
    let restored_ok = blob.is_some_and(|b| {
        let mut fresh = Store::new();
        fresh.restore(&b).is_ok()
            && fresh.len() == gen.model.len()
            && fresh
                .entries()
                .all(|(k, v)| version_of(k, v).is_some_and(|ver| ver <= gen.stream.writes()))
    });
    if !restored_ok {
        eprintln!("FAIL: the last checkpoint does not restore the keyspace");
    }
    let state_ok = {
        let store = gen.store.lock();
        store.len() == gen.model.len() && store.entries().all(|(k, v)| gen.model.holds(k, v))
    };
    if !state_ok {
        eprintln!("FAIL: primary store differs from the model");
    }
    if warm_failed > 0 {
        eprintln!("FAIL: {warm_failed} warm-up operations failed");
    }
    dep.rt.shutdown();
    restored_ok && state_ok && warm_failed == 0
}

/// Run the checkpoint workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut m = Metrics::default();
    let (mut attempted, mut failed, mut ok) = (0, 0, true);
    let mut checks = Vec::new();
    if !cfg.trace {
        let (mut sums, mut ops, mut setups, mut rss) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let slot = cfg.slot();
        let mut rss_mark = 0.0;
        for k in 0..cfg.subruns() {
            let (dep, mut gen, s, warm_failed) = start(sub_seed(cfg.seed, k), SETUPS_PER_SUBRUN);
            let mut p = gen.phase(if k == 0 { RSS_WINDOW.min(slot) } else { slot }, false);
            if k == 0 {
                rss_mark = peak_rss_mb();
                let rest = gen.phase(slot.saturating_sub(p.elapsed), false);
                p.latency.extend(rest.latency);
                p.elapsed += rest.elapsed;
            }
            ops.push(p.latency.len() as f64 / p.elapsed.as_secs_f64());
            sums.push(summarize(&mut p.latency));
            setups.extend(s);
            ok &= finish(&dep, &gen, warm_failed);
            rss.push(peak_rss_mb());
            attempted += gen.attempted;
            failed += gen.failed;
        }
        eprintln!(
            "end-to-end: {} sub-runs of {} operations each",
            cfg.subruns(),
            slot.as_nanos() as u64 / PERIOD_NS
        );
        put_latency(&mut m, &sums, &ops);
        m.put(
            "setup_s",
            median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
            "s",
        );
        put_rss(&mut m, rss_mark, &rss);
    } else {
        let (dep, mut gen, setups, warm_failed) = start(cfg.seed, SETUP_REPS);
        let plain = gen.phase(cfg.duration().mul_f64(0.4), false);
        let plain_p50 = summarize(&mut plain.latency.clone()).p50_us;
        let prim_log = wrap(&dep.rt, "Prim");
        let store_log = wrap(&dep.rt, "Store");
        dep.rt.set_tracing(true);
        // At least one checkpoint under tracing before the window: the
        // first traced event pays the tracer's clock calibration.
        gen.phase(WARM, false);
        let _ = dep.rt.trace_events();
        let window_start = Instant::now();
        prim_log.drain();
        store_log.drain();
        let before = Counters::take(&dep);
        let traced = gen.phase(cfg.duration().mul_f64(0.6), true);
        let window_end = Instant::now();
        // Let the checkpoint in flight at the window's end land.
        std::thread::sleep(Duration::from_millis(300));
        let mut acc = TraceAcc::default();
        acc.feed(dep.rt.trace_events());
        let after = Counters::take(&dep);
        dep.rt.set_tracing(false);
        let in_window = |s: &Span| s.start >= window_start && s.start <= window_end;
        let saves: Vec<Span> = prim_log
            .drain()
            .into_iter()
            .filter(|s| s.op == Op::Save && in_window(s))
            .collect();
        let keeps: Vec<Span> = store_log
            .drain()
            .into_iter()
            .filter(|s| s.op == Op::Restore && s.start >= window_start)
            .collect();
        let traced_p50 = summarize(&mut traced.latency.clone()).p50_us;
        eprintln!("untraced p50 {plain_p50:.3} us, traced p50 {traced_p50:.3} us");
        put_layers(
            &mut m, &setups, &traced, &saves, &keeps, &mut acc, &before, &after, &gen,
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
        checks.push((
            "a checkpoint completed in the traced window",
            !saves.is_empty(),
        ));
        ok &= finish(&dep, &gen, warm_failed);
        attempted = gen.attempted;
        failed = gen.failed;
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
    setups: &[SetupTimes],
    traced: &Phase,
    saves: &[Span],
    keeps: &[Span],
    acc: &mut TraceAcc,
    before: &Counters,
    after: &Counters,
    gen: &Generator,
) {
    let reqs = traced.latency.len().max(1) as f64;
    let ckpts = saves.len().max(1) as f64;
    crate::put_setup_layers(m, setups);
    m.put("redis.front_ns", ns_mean(&traced.execute), "ns");
    m.put("redis.back_ns", 0.0, "ns");
    m.put("redis.codec_ns", 0.0, "ns");
    for name in [
        "handoff.fwd_us.p50",
        "handoff.fwd_us.p99",
        "handoff.ret_us.p50",
        "handoff.ret_us.p99",
    ] {
        m.put(name, 0.0, "us");
    }
    m.put("runtime.stall_ratio", 0.0, "ratio");
    m.put(
        "transport.send_deliver_us",
        acc.send_deliver_us / ckpts,
        "us",
    );
    m.put("kv.apply_us", acc.apply_us / ckpts, "us");
    m.put("runtime.wake_us", acc.wake_us / ckpts, "us");
    let mut self_us = |junction: &str, spans: &[Span]| {
        let v: Vec<f64> = spans
            .iter()
            .map_while(|s| acc.pop_act(junction).map(|act| act - s.ns() / 1e3))
            .collect();
        mean(&v)
    };
    m.put(
        "interp.front_self_us",
        self_us("Prim::checkpoint", saves),
        "us",
    );
    m.put("interp.back_self_us", self_us("Store::keep", keeps), "us");
    let latency = ns_mean(&traced.latency);
    let late = ns_mean(&traced.late);
    let wait = ns_mean(&traced.lock_wait);
    let exec = ns_mean(&traced.execute);
    let unattributed = (latency - late - wait - exec) / 1e3;
    m.put("layers.unattributed_us", unattributed, "us");
    crate::put_counter_layers(m, before, after, reqs, acc.kv_events);
    m.put("cache.hit_ratio", 0.0, "ratio");
    let (encode_s, encoded) = time_encode(gen.model.entries(), 5);
    m.put("serial.encode_ms", encode_s * 1e3, "ms");
    let save_ms: Vec<f64> = saves.iter().map(|s| s.ns() / 1e6).collect();
    m.put("ckpt.save_ms", mean(&save_ms), "ms");
    m.put("ckpt.lock_wait_us", wait / 1e3, "us");
    // Each save pairs with the first store restore that follows it.
    let mut next = keeps.iter().peekable();
    let ship_ms: Vec<f64> = saves
        .iter()
        .filter_map(|s| {
            while next.next_if(|k| k.start < s.end).is_some() {}
            next.next().map(|k| (k.start - s.end).as_secs_f64() * 1e3)
        })
        .collect();
    m.put("ckpt.ship_ms", mean(&ship_ms), "ms");
    m.put("ckpt.count", saves.len() as f64, "count");
    let bytes = mean(&saves.iter().map(|s| s.bytes as f64).collect::<Vec<_>>());
    m.put("ckpt.bytes", bytes, "B");
    m.put(
        "gen.late_max_us",
        traced.late.iter().copied().max().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    m.put(
        "gen.late_ratio",
        traced.late.iter().filter(|&&l| l > LATE_NS).count() as f64 / reqs,
        "ratio",
    );
    eprintln!(
        "latency from due {:.3} us = late {:.3} + lock wait {:.3} + execute {:.3} + unattributed {unattributed:.3}; \
         {} checkpoints of {bytes:.0} B (encode alone {:.3} ms for {encoded} B), save {:.3} ms, ship {:.3} ms",
        latency / 1e3,
        late / 1e3,
        wait / 1e3,
        exec / 1e3,
        saves.len(),
        encode_s * 1e3,
        mean(&save_ms),
        mean(&ship_ms),
    );
}
