//! The repository benchmark: three §10 Redis architectures, compiled
//! from the C-Saw DSL and driven end to end, with a separately traced
//! run that splits request time into layers from outside the program.
//!
//! See `README.md` next to this crate for the workloads, the metrics
//! and the layer each per-layer metric belongs to.

pub mod checkpoint;
pub mod closed;
pub mod deploy;
pub mod layers;
pub mod model;
pub mod report;
pub mod stats;
pub mod timed;

use std::sync::atomic::Ordering;
use std::time::Duration;

use deploy::{Arch, Deployment, SetupTimes};
use report::{Metrics, Outcome};

/// Set-ups timed in a traced run; the set-up layer metrics are medians.
pub const SETUP_REPS: usize = 5;
/// Measured seconds per end-to-end sub-run. An end-to-end run measures
/// fresh deployments in turn, each for an equal share of the run, and
/// latency metrics are medians over them: one run samples many thread
/// placements and spreads its samples over the host's slow and fast
/// moments.
pub const SUBRUN_SECONDS: f64 = 3.5;
/// Fewest sub-runs of an end-to-end run, however short.
pub const MIN_SUBRUNS: usize = 5;
/// Most sub-runs of an end-to-end run; also the stride of their seeds.
pub const MAX_SUBRUNS: usize = 64;
/// Set-ups timed per sub-run (the last one is measured); `setup_s` is
/// the median over all of a run's set-ups.
pub const SETUPS_PER_SUBRUN: usize = 3;

/// The benchmark's workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sharded_mixed", "cached_hot_read", "checkpoint_write"];

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the command stream.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Config {
    /// The measured time.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Sub-runs of an end-to-end run: one per [`SUBRUN_SECONDS`].
    pub fn subruns(&self) -> usize {
        ((self.seconds / SUBRUN_SECONDS).round() as usize).clamp(MIN_SUBRUNS, MAX_SUBRUNS)
    }

    /// Measured time of one end-to-end sub-run.
    pub fn slot(&self) -> Duration {
        self.duration() / self.subruns() as u32
    }
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    Some(match workload {
        "sharded_mixed" => closed::run(Arch::Sharded, cfg),
        "cached_hot_read" => closed::run(Arch::Cached, cfg),
        "checkpoint_write" => checkpoint::run(cfg),
        _ => return None,
    })
}

/// Runtime counters read before and after a traced window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    msgs: u64,
    bytes: u64,
    fast_path: u64,
    retries: u64,
    activations: u64,
    cache: (u64, u64),
    trace_dropped: u64,
}

impl Counters {
    /// Read them now.
    pub fn take(dep: &Deployment) -> Counters {
        let rt = &dep.rt;
        let link = rt.link_stats();
        Counters {
            msgs: rt.messages_sent(),
            bytes: rt.bytes_sent(),
            fast_path: link.fast_path,
            retries: link.retries,
            activations: rt.instance_names().iter().map(|i| rt.activations(i)).sum(),
            cache: dep.cache.as_ref().map_or((0, 0), |(h, m)| {
                (h.load(Ordering::Relaxed), m.load(Ordering::Relaxed))
            }),
            trace_dropped: rt.trace_dropped(),
        }
    }
}

/// `core.compile_ms` and `runtime.start_ms`: medians over the run's
/// set-ups.
pub fn put_setup_layers(m: &mut Metrics, setups: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    m.put("core.compile_ms", med(|s| s.compile_s) * 1e3, "ms");
    m.put("runtime.start_ms", med(|s| s.start_s) * 1e3, "ms");
}

/// Counter-derived transport, runtime and KV metrics over a window of
/// `reqs` requests.
pub fn put_counter_layers(
    m: &mut Metrics,
    before: &Counters,
    after: &Counters,
    reqs: f64,
    kv_events: u64,
) {
    let msgs = (after.msgs - before.msgs) as f64;
    m.put("transport.msgs_per_req", msgs / reqs, "msgs/req");
    m.put(
        "transport.bytes_per_req",
        (after.bytes - before.bytes) as f64 / reqs,
        "B/req",
    );
    m.put(
        "transport.fast_path_ratio",
        if msgs > 0.0 {
            (after.fast_path - before.fast_path) as f64 / msgs
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "transport.retries",
        (after.retries - before.retries) as f64,
        "count",
    );
    m.put(
        "runtime.activations_per_req",
        (after.activations - before.activations) as f64 / reqs,
        "acts/req",
    );
    m.put("kv.events_per_req", kv_events as f64 / reqs, "events/req");
}

/// Measurement checks of a traced run: whether the measurement itself
/// is sound (every request attributed, the layers summing to the whole,
/// no trace event lost). They describe the benchmark, not the program's
/// output, so they do not change the run's `correct` flag; they are
/// printed, and the smoke test asserts them.
pub type Checks = Vec<(&'static str, bool)>;
