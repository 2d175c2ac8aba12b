//! Suricata experiments: Figs. 24a/24b/24c of §10.

use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::checkpoint::{checkpoint, CheckpointSpec};
use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::program::LoadConfig;
use csaw_core::value::Value;
use csaw_kv::Update;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{Runtime, RuntimeConfig};
use mini_redis::apps::CheckpointStoreApp;
use mini_redis::metrics::{CumulativeByClass, Throughput};
use mini_suricata::apps::{EngineApp, SteeringApp};
use mini_suricata::{CaptureSpec, SyntheticCapture};

use crate::report::Report;

// ---------------------------------------------------------------------
// Fig. 24a — packet rate under checkpointing (+ crash recovery)
// ---------------------------------------------------------------------

/// "The same checkpointing logic was used in Suricata" — the Redis
/// checkpoint architecture re-bound to the packet engine (the
/// reusability claim in action).
pub fn fig24a(seconds: f64) -> Report {
    let spec = CheckpointSpec::default();
    let cp = csaw_core::compile(checkpoint(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let prim = EngineApp::new();
    let engine = Arc::clone(&prim.engine);
    rt.bind_app("Prim", Box::new(prim));
    rt.bind_app("Store", Box::new(CheckpointStoreApp::new()));
    let interval = Duration::from_secs_f64(seconds / 8.0);
    rt.set_policy("Prim", "checkpoint", Policy::Periodic(interval));
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    // A large flow population makes checkpoint/restore visibly expensive
    // (the paper's 19× restart spike comes from state-resume cost).
    let cap = SyntheticCapture::generate(&CaptureSpec {
        flows: 30_000,
        packets: 300_000,
        ..Default::default()
    });
    let mut tp = Throughput::start(Duration::from_secs_f64(seconds / 60.0));
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    let crash_at = Duration::from_secs_f64(seconds * 0.55);
    let mut crashed = false;
    let mut crash_time = 0.0;
    let mut recovered_time = 0.0;
    let mut i = 0usize;
    while start.elapsed() < total {
        if !crashed && start.elapsed() >= crash_at {
            crashed = true;
            crash_time = start.elapsed().as_secs_f64();
            let flows_before = engine.lock().flow_count();
            rt.crash("Prim");
            *engine.lock() = mini_suricata::Engine::new(); // state lost
            rt.set_policy("Prim", "checkpoint", Policy::OnDemand);
            rt.restart("Prim").unwrap();
            rt.deliver_for_test("Prim", "recover", Update::assert("NeedState", "driver"));
            let deadline = Instant::now() + Duration::from_secs(10);
            while engine.lock().flow_count() < flows_before / 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            recovered_time = start.elapsed().as_secs_f64();
            rt.set_policy("Prim", "checkpoint", Policy::Periodic(interval));
            continue;
        }
        let pkt = &cap.packets[i % cap.packets.len()];
        i += 1;
        let _ = engine.lock().process(pkt);
        tp.hit();
    }
    let mut report = Report::new("fig24a", "Response of Suricata packet rate to checkpoints");
    report.series("Packet Rate", "time (s)", "packets/s", tp.series());
    report.note("crash_at_s", crash_time);
    report.note("recovered_at_s", recovered_time);
    report.note("total_packets", tp.total() as f64);
    report.note("flows_tracked", engine.lock().flow_count() as f64);
    report.note("alerts", engine.lock().alerts_raised as f64);
    report.remark(
        "expected shape: periodic dips at checkpoints, deep dip + recovery at the crash \
         (paper Fig. 24a)",
    );
    rt.shutdown();
    report
}

// ---------------------------------------------------------------------
// Fig. 24b — cumulative packets steered by 5-tuple hash
// ---------------------------------------------------------------------

/// "The key-based sharding logic was adapted to implement
/// packet-steering in Suricata" — the *same* sharding DSL program, with
/// the steering host hook hashing the 5-tuple.
pub fn fig24b(seconds: f64) -> Report {
    let n = 4;
    let spec = ShardingSpec { n_backends: n, ..Default::default() };
    let cp = csaw_core::compile(sharding(&spec), &LoadConfig::new()).unwrap();
    let rt = Runtime::new(&cp, RuntimeConfig::default());
    let front = SteeringApp::new(n);
    let packets = Arc::clone(&front.packets);
    rt.bind_app("Fnt", Box::new(front));
    let mut engines = Vec::new();
    for i in 1..=n {
        let app = EngineApp::new();
        engines.push(Arc::clone(&app.engine));
        rt.bind_app(&format!("Bck{i}"), Box::new(app));
    }
    rt.set_policy("Fnt", "junction", Policy::OnDemand);
    rt.run_main(vec![Value::Duration(Duration::from_secs(5))]).unwrap();

    let cap = SyntheticCapture::generate(&CaptureSpec {
        flows: 500,
        packets: 100_000,
        ..Default::default()
    });
    let mut cum = CumulativeByClass::start(n, Duration::from_secs_f64(seconds / 50.0));
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while start.elapsed() < total {
        let pkt = cap.packets[i % cap.packets.len()].clone();
        i += 1;
        let shard = pkt.flow_key().shard(n);
        packets.lock().push_back(pkt);
        if rt.invoke("Fnt", "junction").is_ok() {
            cum.hit(shard);
        }
    }
    let mut report = Report::new("fig24b", "Cumulative packets sharded by 5-tuple");
    for (idx, series) in cum.series().into_iter().enumerate() {
        report.series(
            &format!("Shard {}", idx + 1),
            "time (s)",
            "cumulative packets",
            series.into_iter().map(|(x, y)| (x, y as f64)).collect(),
        );
    }
    for (idx, t) in cum.totals().iter().enumerate() {
        report.note(&format!("total_shard_{}", idx + 1), *t as f64);
    }
    for (idx, e) in engines.iter().enumerate() {
        report.note(
            &format!("engine_{}_packets", idx + 1),
            e.lock().packets_seen as f64,
        );
    }
    report.remark(
        "expected shape: cumulative curves splitting in the (heavy-tailed) flow-hash \
         ratios (paper Fig. 24b)",
    );
    rt.shutdown();
    report
}

// ---------------------------------------------------------------------
// Fig. 24c — normalized checkpointing overhead
// ---------------------------------------------------------------------

/// Per-window normalized overhead of a checkpointed run against its
/// baseline (see [`window_overhead`]).
#[derive(Debug, PartialEq)]
struct WindowOverhead {
    /// `(window start, baseline rate / checkpointed rate)` for every
    /// window in which both runs processed packets.
    series: Vec<(f64, f64)>,
    /// Median of `series` (0 when it is empty).
    median: f64,
    /// Largest value of `series` (0 when it is empty).
    spike: f64,
    /// Seconds the checkpointed run processed nothing while the
    /// baseline did: its empty windows times the window length.
    stall_s: f64,
}

/// Compare two per-window rate series (`(window start, rate)`, as
/// `Throughput::series` returns them). A window in which the
/// checkpointed run processed nothing has no finite overhead ratio, so
/// it counts toward the restore stall instead of the ratio statistics.
fn window_overhead(
    baseline: &[(f64, f64)],
    checkpointed: &[(f64, f64)],
    window_s: f64,
) -> WindowOverhead {
    let mut series = Vec::new();
    let mut empty = 0usize;
    for (&(t, b), &(_, c)) in baseline.iter().zip(checkpointed) {
        if b > 0.0 && c > 0.0 {
            series.push((t, b / c));
        } else if b > 0.0 {
            empty += 1;
        }
    }
    let mut sorted: Vec<f64> = series.iter().map(|(_, o)| *o).collect();
    sorted.sort_by(f64::total_cmp);
    WindowOverhead {
        median: sorted.get(sorted.len() / 2).copied().unwrap_or(0.0),
        spike: sorted.last().copied().unwrap_or(0.0),
        stall_s: empty as f64 * window_s,
        series,
    }
}

/// "Overhead is usually less than 10% and spikes to around 19× during
/// checkpoint-restart-and-resume phases" — we compute the per-window
/// normalized overhead of the checkpointed run against an unmodified
/// baseline run of the same engine and capture.
pub fn fig24c(seconds: f64) -> Report {
    // Baseline: unmodified engine (same capture shape as Fig. 24a).
    let cap = SyntheticCapture::generate(&CaptureSpec {
        flows: 30_000,
        packets: 300_000,
        ..Default::default()
    });
    // Fig. 24a's window length, so window k of both series covers the
    // same stretch of time.
    let window = Duration::from_secs_f64(seconds / 60.0);
    let baseline_series = {
        let mut engine = mini_suricata::Engine::new();
        let mut tp = Throughput::start(window);
        let start = Instant::now();
        let total = Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while start.elapsed() < total {
            let _ = engine.process(&cap.packets[i % cap.packets.len()]);
            i += 1;
            tp.hit();
        }
        tp.series()
    };

    // Checkpointed run reuses the Fig. 24a machinery.
    let ckpt_report = fig24a(seconds);
    let ckpt_series = &ckpt_report.series[0].points;

    let o = window_overhead(&baseline_series, ckpt_series, window.as_secs_f64());
    let mut report = Report::new("fig24c", "Normalized checkpointing overhead (Suricata)");
    report.series("Packet Rate overhead", "time (s)", "normalized overhead (×)", o.series);
    report.note("median_overhead_x", o.median);
    report.note("spike_overhead_x", o.spike);
    report.note("restore_stall_s", o.stall_s);
    report.remark(
        "expected shape: near-1× steady overhead with a large spike at the \
         checkpoint-restart-and-resume phase (paper Fig. 24c reports <10% steady, ~19× spike)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_checkpointed_window_is_a_stall_not_a_spike() {
        // The restore stalls the checkpointed run for one whole window.
        // Clamping its zero rate to 1 would report a 216070× spike.
        let baseline = [(0.0, 216070.0), (0.2, 216070.0), (0.4, 216070.0), (0.6, 216070.0)];
        let ckpt = [(0.0, 216070.0), (0.2, 0.0), (0.4, 108035.0), (0.6, 216070.0)];
        let o = window_overhead(&baseline, &ckpt, 0.2);
        assert_eq!(o.series, vec![(0.0, 1.0), (0.4, 2.0), (0.6, 1.0)]);
        assert_eq!(o.median, 1.0);
        assert_eq!(o.spike, 2.0);
        assert!((o.stall_s - 0.2).abs() < 1e-12);
    }
}
