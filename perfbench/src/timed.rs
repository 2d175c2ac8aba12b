//! A timing wrapper around an [`InstanceApp`]: every `host_call`, `save`
//! and `restore` is logged as a span with `Instant` timestamps, so spans
//! recorded on different threads share one clock.
//!
//! Only the traced run binds it; end-to-end runs bind the bare app.

use std::sync::Arc;
use std::time::Instant;

use csaw_core::value::Value;
use csaw_runtime::app::AppError;
use csaw_runtime::{HostCtx, InstanceApp, NoopApp, Runtime};
use parking_lot::Mutex;

/// Which app entry point a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `host_call` (`⌊H⌉`).
    Host,
    /// `save(key)`: the host encodes a reply, request or checkpoint.
    Save,
    /// `restore(key, …)`: the host decodes one.
    Restore,
}

/// One timed call into an app.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Entry point.
    pub op: Op,
    /// Hook name or data key: `Choose`, `Handle`, `n`, `m`, `state`, ….
    pub name: &'static str,
    /// Call entry.
    pub start: Instant,
    /// Call return.
    pub end: Instant,
    /// Payload size for `save`/`restore` of bytes (0 otherwise).
    pub bytes: usize,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_nanos() as f64
    }
}

/// The spans one instance recorded, in call order.
#[derive(Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }

    fn push(&self, span: Span) {
        self.spans.lock().push(span);
    }
}

/// Interns the names the architectures use so a span carries no heap
/// string (an allocation would land on the request path).
fn static_name(name: &str) -> &'static str {
    const KNOWN: [&str; 9] = [
        "Choose",
        "Handle",
        "F",
        "CheckCacheable",
        "LookupCache",
        "UpdateCache",
        "n",
        "m",
        "state",
    ];
    KNOWN.iter().find(|k| **k == name).copied().unwrap_or("?")
}

/// The wrapper.
pub struct Timed {
    inner: Box<dyn InstanceApp>,
    log: Arc<SpanLog>,
}

impl Timed {
    fn record(&self, op: Op, name: &str, start: Instant, bytes: usize) {
        let end = Instant::now();
        self.log.push(Span {
            op,
            name: static_name(name),
            start,
            end,
            bytes,
        });
    }
}

impl InstanceApp for Timed {
    fn host_call(&mut self, name: &str, ctx: &mut HostCtx<'_>) -> Result<(), AppError> {
        let start = Instant::now();
        let r = self.inner.host_call(name, ctx);
        self.record(Op::Host, name, start, 0);
        r
    }

    fn save(&mut self, key: &str) -> Result<Value, AppError> {
        let start = Instant::now();
        let r = self.inner.save(key);
        let bytes = match &r {
            Ok(Value::Bytes(b)) => b.len(),
            _ => 0,
        };
        self.record(Op::Save, key, start, bytes);
        r
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), AppError> {
        let start = Instant::now();
        let r = self.inner.restore(key, value);
        self.record(
            Op::Restore,
            key,
            start,
            value.as_bytes().map_or(0, <[u8]>::len),
        );
        r
    }

    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn on_stop(&mut self) {
        self.inner.on_stop();
    }

    fn sim_digest(&self) -> u64 {
        self.inner.sim_digest()
    }
}

/// Wrap the app already bound to `instance` (its state kept) and return
/// the log its calls now record into. Call only while the instance is
/// idle.
pub fn wrap(rt: &Runtime, instance: &str) -> Arc<SpanLog> {
    let log = Arc::new(SpanLog::default());
    let app = rt.app(instance).expect("instance exists");
    let mut slot = app.lock();
    let inner = std::mem::replace(&mut *slot, Box::new(NoopApp));
    *slot = Box::new(Timed {
        inner,
        log: Arc::clone(&log),
    });
    log
}
