//! Benchmark-side probes around the calls into each layer's public
//! interfaces. They time and count from the outside; the program's own
//! source is not instrumented.

use cackle::history::WorkloadHistory;
use cackle::{Env, MetaStrategy, ProvisioningStrategy, Telemetry};
use cackle_engine::shuffle::{MemoryShuffle, ShuffleKey, ShuffleStats, ShuffleTransport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wraps the meta-strategy a runner drives and times every `target`
/// call. Between calls it copies the demand seconds the runner appended
/// to its history, so the decision stream can be replayed afterwards
/// through the decision layer's building blocks.
pub struct TimedStrategy {
    inner: MetaStrategy,
    /// Host nanoseconds of each `target` call, in call order.
    pub tick_ns: Vec<u64>,
    /// `(now, returned target)` of each call.
    pub decisions: Vec<(u64, u32)>,
    /// Every demand second the runner recorded up to its last tick.
    pub demand: Vec<u32>,
}

impl TimedStrategy {
    /// Wrap a freshly built strategy.
    pub fn new(inner: MetaStrategy) -> Self {
        TimedStrategy {
            inner,
            tick_ns: Vec::new(),
            decisions: Vec::new(),
            demand: Vec::new(),
        }
    }

    /// The wrapped strategy, for its deterministic counters.
    pub fn inner(&self) -> &MetaStrategy {
        &self.inner
    }
}

impl ProvisioningStrategy for TimedStrategy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn target(&mut self, now: u64, history: &WorkloadHistory, env: &Env) -> u32 {
        let t0 = Instant::now();
        let target = self.inner.target(now, history, env);
        self.tick_ns.push(t0.elapsed().as_nanos() as u64);
        self.decisions.push((now, target));
        let seen = self.demand.len();
        self.demand.extend_from_slice(&history.samples()[seen..]);
        target
    }

    fn on_rates_changed(&mut self, vm_per_sec: f64, pool_per_sec: f64) {
        self.inner.on_rates_changed(vm_per_sec, pool_per_sec);
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.set_telemetry(telemetry);
    }
}

/// A [`MemoryShuffle`] that sums the host time spent in `write` and
/// `read`. Reads run on executor workers concurrently, so `read_ns` is
/// busy time summed over threads, not wall time.
#[derive(Default)]
pub struct TimedShuffle {
    inner: MemoryShuffle,
    write_ns: AtomicU64,
    read_ns: AtomicU64,
}

impl TimedShuffle {
    /// Seconds spent in `write`.
    pub fn write_s(&self) -> f64 {
        self.write_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds spent in `read`, summed over worker threads.
    pub fn read_s(&self) -> f64 {
        self.read_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl ShuffleTransport for TimedShuffle {
    fn write(&self, key: ShuffleKey, producer_task: u32, data: Vec<u8>) {
        let t0 = Instant::now();
        self.inner.write(key, producer_task, data);
        // Relaxed: a statistic that publishes no other data.
        self.write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>> {
        let t0 = Instant::now();
        let chunks = self.inner.read(key);
        self.read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        chunks
    }

    fn delete_query(&self, query: u64) {
        self.inner.delete_query(query);
    }

    fn stats(&self) -> ShuffleStats {
        self.inner.stats()
    }
}
