//! Timing wrappers the traced run puts around the program's public
//! interfaces, and the per-layer metric table they fill.

use moda_fleet::{FleetAggregator, FleetMonitor, Observation};
use moda_obs::Obs;
use moda_sim::SimTime;
use moda_telemetry::export::{ExportBatch, Sink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A [`Sink`] that accumulates the wall time spent inside the wrapped
/// sink's `write_batch` (for a socket sink: framing, `write(2)`, and
/// waiting on the in-flight window).
pub struct TimedSink<S> {
    pub inner: S,
    pub busy: Duration,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            busy: Duration::ZERO,
        }
    }
}

impl<S: Sink> Sink for TimedSink<S> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_batch(batch);
        self.busy += t.elapsed();
        r
    }
}

/// A [`FleetMonitor`] that records the wall time of every `observe`
/// call into a shared list.
pub struct TimedMonitor {
    pub inner: Box<dyn FleetMonitor>,
    pub times_ms: Rc<RefCell<Vec<f64>>>,
}

impl FleetMonitor for TimedMonitor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn subsystem(&self) -> &str {
        self.inner.subsystem()
    }

    fn observe(&mut self, fleet: &FleetAggregator, now: SimTime) -> Observation {
        let t = Instant::now();
        let o = self.inner.observe(fleet, now);
        self.times_ms
            .borrow_mut()
            .push(t.elapsed().as_secs_f64() * 1e3);
        o
    }
}

/// One per-layer metric: value and unit.
pub type Layer = BTreeMap<String, (f64, &'static str)>;

pub fn put(layer: &mut Layer, name: &str, value: f64, unit: &'static str) {
    layer.insert(name.to_string(), (value, unit));
}

/// Quantile of an `Obs` latency recorder (ns) times `scale`, or NaN
/// when nothing was recorded.
pub fn obs_quantile(obs: &Obs, name: &str, q: f64, scale: f64) -> f64 {
    obs.latency(name)
        .quantile(q)
        .map(|ns| ns * scale)
        .unwrap_or(f64::NAN)
}

/// The aggregator and persistence layers of one fleet service, read
/// from the `Obs` recorders `DurableFleet::set_obs` attaches: per-batch
/// ingest, log flushes, and snapshot writes. `samples` is what the
/// service ingested, `stored` what its last snapshot holds, and `runs`
/// how many services shared the handle.
pub fn fleet_layers(
    l: &mut Layer,
    prefix: &str,
    obs: &Obs,
    samples: u64,
    snapshot: (u64, u64),
    runs: u64,
) {
    let (snapshot_bytes, stored) = snapshot;
    let per_sample = |v: u64| v as f64 / samples.max(1) as f64;
    let p = |name: &str| format!("{prefix}.{name}");
    let ingest = obs.latency("fleet.ingest_ns").snapshot();
    put(
        l,
        &p("fleet.ingest_us.p50"),
        obs_quantile(obs, "fleet.ingest_ns", 0.5, 1e-3),
        "us",
    );
    put(
        l,
        &p("fleet.ingest_us.p99"),
        obs_quantile(obs, "fleet.ingest_ns", 0.99, 1e-3),
        "us",
    );
    put(
        l,
        &p("fleet.ingest_ns_per_sample"),
        per_sample(ingest.sum_ns),
        "ns",
    );
    let wal_bytes = obs.counter_value("wal.bytes").unwrap_or(0);
    put(l, &p("wal.bytes_per_sample"), per_sample(wal_bytes), "B");
    put(
        l,
        &p("wal.flush_us.p50"),
        obs_quantile(obs, "wal.fsync_ns", 0.5, 1e-3),
        "us",
    );
    put(
        l,
        &p("wal.flush_us.p99"),
        obs_quantile(obs, "wal.fsync_ns", 0.99, 1e-3),
        "us",
    );
    let snap = obs.latency("snapshot.write_ns").snapshot();
    put(
        l,
        &p("snapshot.count"),
        snap.count as f64 / runs.max(1) as f64,
        "count",
    );
    put(
        l,
        &p("snapshot.write_ms.p50"),
        obs_quantile(obs, "snapshot.write_ns", 0.5, 1e-6),
        "ms",
    );
    put(
        l,
        &p("snapshot.write_ms.max"),
        snap.max_ns as f64 * 1e-6,
        "ms",
    );
    put(
        l,
        &p("snapshot.bytes_per_sample"),
        snapshot_bytes as f64 / stored.max(1) as f64,
        "B",
    );
}
