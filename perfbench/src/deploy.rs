//! Building the three §10 architectures with their mini-redis apps, with
//! each set-up step timed from outside.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csaw_arch::caching::{caching, CachingSpec};
use csaw_arch::checkpoint::{checkpoint, CheckpointSpec};
use csaw_arch::sharding::{sharding, ShardingSpec};
use csaw_core::program::{LoadConfig, Program};
use csaw_core::value::Value;
use csaw_runtime::runtime::Policy;
use csaw_runtime::{Runtime, RuntimeConfig};
use mini_redis::apps::{
    CacheApp, CheckpointStoreApp, ReplyQueue, RequestQueue, ServerApp, ShardFrontApp, ShardMode,
};
use mini_redis::hash::shard_of;
use mini_redis::{Command, Store};
use parking_lot::Mutex;

/// Back-ends of the sharding architecture.
pub const SHARDS: usize = 4;
/// Cache capacity of the caching architecture: above the keyspace, so
/// only writes (invalidations) cause misses once the cache is warm.
pub const CACHE_CAPACITY: usize = 16_384;
/// Checkpoint period of the checkpoint architecture (Fig. 25c).
pub const CHECKPOINT_PERIOD: Duration = Duration::from_millis(100);
/// `t`, the `otherwise` timeout every architecture's `main` takes.
const MAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Which architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Fig. 5 sharding, key-hash routing over [`SHARDS`] back-ends.
    Sharded,
    /// Fig. 7 caching in front of one store, cache capacity
    /// [`CACHE_CAPACITY`].
    Cached,
    /// Periodic checkpointing of a primary store.
    Checkpoint,
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `csaw_core::compile`.
    pub compile_s: f64,
    /// `Runtime::new` + `bind_app` + `set_policy` + `run_main`.
    pub start_s: f64,
    /// Loading the preload commands into the stores.
    pub preload_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.compile_s + self.start_s + self.preload_s
    }
}

/// A running architecture and the handles a workload needs.
pub struct Deployment {
    /// The runtime.
    pub rt: Runtime,
    /// The instance clients invoke (or, for the checkpoint architecture,
    /// the primary).
    pub front: &'static str,
    /// The instances behind the front, in routing order.
    pub backs: Vec<String>,
    /// Requests the front consumes (closed-loop architectures).
    pub requests: Option<RequestQueue>,
    /// Replies the front produces (closed-loop architectures).
    pub replies: Option<ReplyQueue>,
    /// The back-end stores, in `backs` order; for the checkpoint
    /// architecture the primary's store.
    pub stores: Vec<Arc<Mutex<Store>>>,
    /// Cache hit and miss counters (caching architecture).
    pub cache: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
    /// The latest stored checkpoint (checkpoint architecture).
    pub checkpoint: Option<Arc<Mutex<Option<Vec<u8>>>>>,
}

impl Deployment {
    /// Index of the store that holds `key`.
    pub(crate) fn store_for(&self, key: &str) -> usize {
        if self.stores.len() == 1 {
            0
        } else {
            shard_of(key, self.stores.len())
        }
    }
}

fn program(arch: Arch) -> Program {
    match arch {
        Arch::Sharded => sharding(&ShardingSpec {
            n_backends: SHARDS,
            ..Default::default()
        }),
        Arch::Cached => caching(&CachingSpec::default()),
        Arch::Checkpoint => checkpoint(&CheckpointSpec::default()),
    }
}

/// Compile, start and preload `arch`, timing each step.
pub fn deploy(arch: Arch, preload: &[Command]) -> (Deployment, SetupTimes) {
    let t0 = Instant::now();
    let compiled =
        csaw_core::compile(program(arch), &LoadConfig::new()).expect("architecture compiles");
    let t1 = Instant::now();
    let rt = Runtime::new(&compiled, RuntimeConfig::default());
    let dep = match arch {
        Arch::Sharded => {
            let front = ShardFrontApp::new(ShardMode::ByKey, SHARDS);
            let (requests, replies) = (Arc::clone(&front.requests), Arc::clone(&front.replies));
            rt.bind_app("Fnt", Box::new(front));
            let backs: Vec<String> = (1..=SHARDS).map(|i| format!("Bck{i}")).collect();
            let mut stores = Vec::new();
            for b in &backs {
                let app = ServerApp::new();
                stores.push(Arc::clone(&app.store));
                rt.bind_app(b, Box::new(app));
            }
            rt.set_policy("Fnt", "junction", Policy::OnDemand);
            Deployment {
                rt,
                front: "Fnt",
                backs,
                requests: Some(requests),
                replies: Some(replies),
                stores,
                cache: None,
                checkpoint: None,
            }
        }
        Arch::Cached => {
            let cache = CacheApp::new(CACHE_CAPACITY);
            let (requests, replies) = (Arc::clone(&cache.requests), Arc::clone(&cache.replies));
            let counters = (Arc::clone(&cache.hits), Arc::clone(&cache.misses));
            rt.bind_app("Cache", Box::new(cache));
            let fun = ServerApp::new();
            let store = Arc::clone(&fun.store);
            rt.bind_app("Fun", Box::new(fun));
            rt.set_policy("Cache", "junction", Policy::OnDemand);
            Deployment {
                rt,
                front: "Cache",
                backs: vec!["Fun".into()],
                requests: Some(requests),
                replies: Some(replies),
                stores: vec![store],
                cache: Some(counters),
                checkpoint: None,
            }
        }
        Arch::Checkpoint => {
            let prim = ServerApp::new();
            let store = Arc::clone(&prim.store);
            rt.bind_app("Prim", Box::new(prim));
            let keeper = CheckpointStoreApp::new();
            let latest = Arc::clone(&keeper.latest);
            rt.bind_app("Store", Box::new(keeper));
            rt.set_policy("Prim", "checkpoint", Policy::Periodic(CHECKPOINT_PERIOD));
            Deployment {
                rt,
                front: "Prim",
                backs: vec!["Store".into()],
                requests: None,
                replies: None,
                stores: vec![store],
                cache: None,
                checkpoint: Some(latest),
            }
        }
    };
    dep.rt
        .run_main(vec![Value::Duration(MAIN_TIMEOUT)])
        .expect("main starts every instance");
    let t2 = Instant::now();
    for cmd in preload {
        if let Command::Set(k, v) = cmd {
            let i = dep.store_for(k);
            dep.stores[i].lock().set(k, v.clone());
        }
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        compile_s: (t1 - t0).as_secs_f64(),
        start_s: (t2 - t1).as_secs_f64(),
        preload_s: (t3 - t2).as_secs_f64(),
    };
    (dep, times)
}

/// Deploy `reps` times and keep the last deployment; the others are shut
/// down. Returns every repetition's timings.
pub fn deploy_repeated(
    arch: Arch,
    preload: &[Command],
    reps: usize,
) -> (Deployment, Vec<SetupTimes>) {
    let (mut dep, first) = deploy(arch, preload);
    let mut times = vec![first];
    for _ in 1..reps {
        dep.rt.shutdown();
        let (next, t) = deploy(arch, preload);
        times.push(t);
        dep = next;
    }
    (dep, times)
}

/// The total wall time of the checkpoint payload encode, on a store with
/// the same keys and value sizes as `entries`; median of `reps` timings,
/// in seconds, and the encoded size.
pub fn time_encode<'a>(
    entries: impl Iterator<Item = (&'a str, Vec<u8>)>,
    reps: usize,
) -> (f64, usize) {
    let mut store = Store::new();
    for (k, v) in entries {
        store.set(k, v);
    }
    let mut times = Vec::with_capacity(reps);
    let mut bytes = 0;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let blob = std::hint::black_box(store.checkpoint().expect("store encodes"));
        times.push(t.elapsed().as_secs_f64());
        bytes = blob.len();
    }
    (crate::stats::median(&times), bytes)
}
