//! Seeded input generator and the reference it is checked against.
//!
//! Every sample is an integer in `[0, VALUE_LEVELS)`, so the reference
//! can keep exact per-hour sums and value histograms: Count, Sum, Min
//! and Max over hour-aligned windows are compared bit for bit, and a
//! fleet percentile against the exact order statistic of the pooled
//! values.

use moda_hpc::PowerModel;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{chunk, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Distinct integer values a sample can take.
pub const VALUE_LEVELS: usize = 1024;
pub const HOUR_S: u64 = 3600;
pub const DAY_S: u64 = 24 * HOUR_S;

/// Which of the power streams a `World` serves every metric follows.
/// Both are drawn with the program's own [`PowerModel`] (default
/// parameters) over the occupancy of an 8-node world, and rounded to
/// integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A node's `node.<i>.power_w` sensor: the idle or busy draw plus
    /// the model's uniform ±8 W sensor noise, `PowerModel::node_sample`,
    /// at whole watts. About 16 distinct values a minute.
    Sensors,
    /// The world's `facility.power_kw` meter: the noise-free facility
    /// draw, `PowerModel::facility_kw`, at 10 W resolution. One value a
    /// minute, stepping when the occupancy changes.
    Meters,
}

impl Shape {
    pub fn parse(name: &str) -> Option<Shape> {
        match name {
            "sensors" => Some(Shape::Sensors),
            "meters" => Some(Shape::Meters),
            _ => None,
        }
    }

    fn unit(self) -> &'static str {
        match self {
            Shape::Sensors => "W",
            Shape::Meters => "10W",
        }
    }

    fn domain(self) -> SourceDomain {
        match self {
            Shape::Sensors => SourceDomain::Hardware,
            Shape::Meters => SourceDomain::Facility,
        }
    }
}

/// Nodes of the simulated world a stream's occupancy comes from.
const WORLD_NODES: u32 = 8;

/// splitmix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One metric's value stream.
///
/// Each series follows one of a fixed set of *profiles*. A profile is
/// node `profile % 8` of simulated world `profile / 8`: the world's busy
/// node count does a ±1 step walk over `[0, 8]`, one step attempt per
/// minute with probability 1/2 (a job arriving or ending about every
/// two minutes, the default `WorkloadConfig` arrival rate), and node `k`
/// is busy while `k` is below that count, as in `World`. A profile fixes
/// the multiset of values in every minute; the seed decides which series
/// follows which profile and the order of the values within each
/// minute. So every seed ships the same number of records per minute
/// bucket (sketch columns depend only on the values in the bucket),
/// which keeps batch counts, snapshot rotations and the log tail the
/// same across seeds, while the raw stream — and what Gorilla
/// compression makes of it — changes.
#[derive(Debug, Clone)]
pub struct Series {
    shape: Shape,
    model: PowerModel,
    profile: u64,
    order: Rng,
    /// The world's occupancy walk (the same for all nodes of a world).
    walk: Rng,
    busy: u32,
    minute: u64,
    /// The current minute's values, emitted from the back.
    pending: Vec<u32>,
}

impl Series {
    /// Series `index` of `count` under `seed`.
    pub fn new(shape: Shape, seed: u64, index: usize, count: usize) -> Self {
        let profile = (index as u64).wrapping_add(seed) % count as u64;
        let mut walk = Rng::new((profile / WORLD_NODES as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let busy = walk.below(WORLD_NODES as u64 + 1) as u32;
        Series {
            shape,
            model: PowerModel::default(),
            profile,
            order: Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ (index as u64) << 20),
            walk,
            busy,
            minute: 0,
            pending: Vec::with_capacity(60),
        }
    }

    fn refill(&mut self) {
        match self.walk.below(4) {
            0 => self.busy = self.busy.saturating_sub(1),
            1 => self.busy = (self.busy + 1).min(WORLD_NODES),
            _ => {}
        }
        let mut rng = StdRng::seed_from_u64(self.profile << 32 ^ self.minute);
        self.minute += 1;
        self.pending.clear();
        let node_busy = (self.profile % WORLD_NODES as u64) < self.busy as u64;
        for _ in 0..60 {
            let v = match self.shape {
                Shape::Sensors => self.model.node_sample(node_busy, &mut rng),
                Shape::Meters => self.model.facility_kw(self.busy, WORLD_NODES) * 100.0,
            };
            self.pending
                .push(v.round().clamp(0.0, VALUE_LEVELS as f64 - 1.0) as u32);
        }
        // Seeded Fisher–Yates shuffle of the minute's values.
        for i in (1..self.pending.len()).rev() {
            let j = self.order.below(i as u64 + 1) as usize;
            self.pending.swap(i, j);
        }
    }

    /// The next integer sample (one per simulated second).
    pub fn next(&mut self) -> u32 {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop().expect("refilled")
    }
}

/// Exact per-hour aggregates of everything generated, per node and
/// metric, plus per-metric value histograms pooled across nodes.
#[derive(Debug, Clone)]
pub struct Reference {
    nodes: usize,
    metrics: usize,
    hours: usize,
    /// `[node][metric][hour]` → (count, sum, min, max).
    hourly: Vec<(u64, u64, u32, u32)>,
    /// `[metric][hour][value]` → samples with that value, all nodes.
    hist: Vec<u32>,
}

impl Reference {
    pub fn new(nodes: usize, metrics: usize, hours: usize) -> Self {
        Reference {
            nodes,
            metrics,
            hours,
            hourly: vec![(0, 0, u32::MAX, 0); nodes * metrics * hours],
            hist: vec![0; metrics * hours * VALUE_LEVELS],
        }
    }

    pub fn record(&mut self, node: usize, metric: usize, t_s: u64, v: u32) {
        let hour = (t_s / HOUR_S) as usize;
        if hour >= self.hours {
            return;
        }
        let cell = &mut self.hourly[(node * self.metrics + metric) * self.hours + hour];
        cell.0 += 1;
        cell.1 += v as u64;
        cell.2 = cell.2.min(v);
        cell.3 = cell.3.max(v);
        self.hist[(metric * self.hours + hour) * VALUE_LEVELS + v as usize] += 1;
    }

    /// (count, sum, min, max) of metric `metric` over hours
    /// `[h0, h1)`, pooled over all nodes.
    pub fn pooled(&self, metric: usize, h0: usize, h1: usize) -> (u64, u64, u32, u32) {
        let mut out = (0u64, 0u64, u32::MAX, 0u32);
        for node in 0..self.nodes {
            for h in h0..h1 {
                let c = self.hourly[(node * self.metrics + metric) * self.hours + h];
                out.0 += c.0;
                out.1 += c.1;
                out.2 = out.2.min(c.2);
                out.3 = out.3.max(c.3);
            }
        }
        out
    }

    /// Sum of one node's metric over hours `[h0, h1)`.
    pub fn node_sum(&self, node: usize, metric: usize, h0: usize, h1: usize) -> u64 {
        (h0..h1)
            .map(|h| self.hourly[(node * self.metrics + metric) * self.hours + h].1)
            .sum()
    }

    /// The exact pooled order statistic at rank `round(q · (n − 1))`,
    /// the rank the fleet percentile documents its error bound against.
    pub fn quantile(&self, metric: usize, h0: usize, h1: usize, q: f64) -> f64 {
        let n = self.pooled(metric, h0, h1).0;
        let rank = (q * (n as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for v in 0..VALUE_LEVELS {
            for h in h0..h1 {
                seen += self.hist[(metric * self.hours + h) * VALUE_LEVELS + v] as u64;
            }
            if seen > rank {
                return v as f64;
            }
        }
        unreachable!("rank {rank} beyond {n} samples")
    }
}

/// The trailing window `(now - window, now]` that covers exactly the
/// hours `[h0, h1)`, i.e. the milliseconds `[h0 h, h1 h)`.
pub fn hour_window(h0: usize, h1: usize) -> (SimTime, SimDuration) {
    let end_ms = h1 as u64 * HOUR_S * 1000;
    (
        SimTime(end_ms - 1),
        SimDuration((h1 - h0) as u64 * HOUR_S * 1000),
    )
}

/// Metric name of the `m`-th metric on every node (the logical axis).
pub fn metric_name(m: usize) -> String {
    format!("m{m:02}")
}

/// A node store with sketched standard rollups and room for `days` of
/// 1 Hz raw history per metric.
pub fn node_store(shape: Shape, metrics: usize, days: u64) -> (Tsdb, Vec<MetricId>) {
    let mut db = Tsdb::with_retention((days * DAY_S) as usize + 1);
    let rollups = RollupConfig::standard().with_sketches();
    let ids = (0..metrics)
        .map(|m| {
            let id = db.register(MetricMeta::gauge(
                metric_name(m),
                shape.unit(),
                shape.domain(),
            ));
            db.enable_rollups(id, &rollups);
            id
        })
        .collect();
    (db, ids)
}

/// Insert seconds `[from_s, to_s)` of every metric into `db`,
/// recording each value in `reference` (when given) under `node`.
/// Returns the samples inserted and the wall time spent inside
/// `Tsdb::insert` (measured only when `timed`).
pub fn fill(
    db: &mut Tsdb,
    ids: &[MetricId],
    series: &mut [Series],
    from_s: u64,
    to_s: u64,
    mut reference: Option<(&mut Reference, usize)>,
    timed: bool,
) -> (u64, Duration) {
    let mut sweep = vec![0u32; ids.len()];
    let mut busy = Duration::ZERO;
    for t_s in from_s..to_s {
        for (m, (v, s)) in sweep.iter_mut().zip(series.iter_mut()).enumerate() {
            *v = s.next();
            if let Some((r, node)) = reference.as_mut() {
                r.record(*node, m, t_s, *v);
            }
        }
        let started = timed.then(Instant::now);
        insert_sweep(db, ids, SimTime::from_secs(t_s), &sweep);
        if let Some(t) = started {
            busy += t.elapsed();
        }
    }
    ((to_s - from_s) * ids.len() as u64, busy)
}

/// Insert one sample per metric at `t`.
pub fn insert_sweep(db: &mut Tsdb, ids: &[MetricId], t: SimTime, values: &[u32]) {
    for (&id, &v) in ids.iter().zip(values) {
        let accepted = db.insert(id, t, v as f64);
        assert!(accepted, "node store refused a monotonic sample");
    }
}

/// The property the two workloads sit on either side of: how many
/// distinct values a stream takes per minute, and how well its sealed
/// raw chunks compress.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub distinct_per_min: f64,
    pub chunk_bytes_per_sample: f64,
}

/// Measure per-minute value lists (one list per stream and minute):
/// chunk payload bytes as `chunk::compress` encodes 1 Hz samples in
/// blocks of 512, the size the raw tail seals at.
fn stream_shape(streams: &[Vec<Vec<u32>>]) -> StreamShape {
    let (mut minutes, mut distinct, mut samples, mut bytes) = (0usize, 0usize, 0usize, 0usize);
    for stream in streams {
        let vals: Vec<f64> = stream.iter().flatten().map(|&x| x as f64).collect();
        let ts: Vec<u64> = (1..=vals.len() as u64).map(|s| s * 1000).collect();
        for (t, v) in ts.chunks(512).zip(vals.chunks(512)) {
            samples += v.len();
            bytes += chunk::compress(t, v, 0).bytes().len();
        }
        for minute in stream {
            let mut v = minute.clone();
            v.sort_unstable();
            v.dedup();
            minutes += 1;
            distinct += v.len();
        }
    }
    StreamShape {
        distinct_per_min: distinct as f64 / minutes.max(1) as f64,
        chunk_bytes_per_sample: bytes as f64 / samples.max(1) as f64,
    }
}

/// The shape of `streams` generated series over `hours`.
pub fn generated_shape(shape: Shape, seed: u64, streams: usize, hours: u64) -> StreamShape {
    let lists: Vec<Vec<Vec<u32>>> = (0..streams)
        .map(|i| {
            let mut s = Series::new(shape, seed, i, streams);
            (0..hours * 60)
                .map(|_| (0..60).map(|_| s.next()).collect())
                .collect()
        })
        .collect();
    stream_shape(&lists)
}

/// The same measurement on the program's own stream of that kind: an
/// 8-node `World` running the default workload with its power sensors
/// sampled at 1 Hz, read back from the world's store over its last
/// hour, rounded as the generator rounds (`node.<i>.power_w` for
/// `Sensors`, `facility.power_kw` × 100 for `Meters`).
pub fn world_shape(shape: Shape, seed: u64) -> StreamShape {
    use moda_hpc::workload::{generate, WorkloadConfig};
    use moda_hpc::{World, WorldConfig};
    let mut world = World::new(WorldConfig {
        nodes: WORLD_NODES,
        seed,
        power_period: Some(SimDuration::from_secs(1)),
        ..WorldConfig::default()
    });
    world.submit_campaign(generate(
        &WorkloadConfig {
            n_jobs: 200,
            ..WorkloadConfig::default()
        },
        &moda_sim::rng::RngStreams::new(seed),
        0,
    ));
    let end = SimTime::from_hours(3);
    world.run_until(end);
    let (names, scale): (Vec<String>, f64) = match shape {
        Shape::Sensors => (
            (0..WORLD_NODES)
                .map(|i| format!("node.{i}.power_w"))
                .collect(),
            1.0,
        ),
        Shape::Meters => (vec!["facility.power_kw".to_string()], 100.0),
    };
    let lists: Vec<Vec<Vec<u32>>> = names
        .iter()
        .map(|name| {
            let id = world.tsdb.lookup(name).expect("world power stream");
            let mut minutes = std::collections::BTreeMap::<u64, Vec<u32>>::new();
            for s in world.tsdb.window(id, end, SimDuration::from_hours(1)) {
                minutes
                    .entry(s.t.0 / 60_000)
                    .or_default()
                    .push((s.value * scale).round() as u32);
            }
            // Whole minutes only: the window's ragged ends are dropped.
            minutes.into_values().filter(|m| m.len() == 60).collect()
        })
        .collect();
    stream_shape(&lists)
}
