//! Live phase: the operator's steady state. A fleet seeded with a day
//! of history; one node session inserting and draining sweeps at a
//! fixed wall-clock cadence (waiting for each acknowledgement), and one
//! query session sending a fixed mix at a fixed rate, each query timed
//! from when it was due (open loop).

use crate::gen::{self, Reference, Series, Shape, DAY_S, HOUR_S};
use crate::stats::{self, ms, us};
use crate::trace::{self, TimedSink};
use crate::{Ops, Phase, ROUNDS};
use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetClient, FleetListener, NodeId, QueryRequest,
    QueryResponse, Rank, SocketSink,
};
use moda_obs::Obs;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, Sink};
use moda_telemetry::{Exporter, MetricId, Tsdb, WindowAgg};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NODES: usize = 8;
pub const METRICS: usize = 16;
/// Wall-clock period between two sweeps of the live node.
pub const DRAIN_PERIOD: Duration = Duration::from_micros(500);
/// Queries per second of the query session.
pub const QUERY_RATE: u64 = 400;

const TOKEN: &str = "bench-live";
const STALE_AFTER: SimDuration = SimDuration::from_mins(5);
/// Reference hours: the seeded day plus room for the live sweeps.
const HOURS: usize = 26;

/// A [`Sink`] that ingests straight into a durable fleet (set-up only).
struct FleetSink<'a> {
    fleet: &'a mut DurableFleet,
    node: NodeId,
}

impl Sink for FleetSink<'_> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        self.fleet.ingest(self.node, batch).map(|_| ())
    }
}

pub struct Setup {
    listener: FleetListener,
    /// The live node: its store, metric ids, value streams, exporter.
    db: Tsdb,
    ids: Vec<MetricId>,
    series: Vec<Series>,
    exporter: Exporter,
    reference: Reference,
    seeded_samples: u64,
    insert_ns_per_sample: f64,
}

/// Seed a durable fleet with a day of history for every node, take a
/// snapshot (so the timed window starts on an empty log), and serve it.
pub fn setup(shape: Shape, seed: u64, dir: &Path, obs: &Obs) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let mut fleet = DurableFleet::open(dir, DurabilityConfig::default()).expect("open state");
    let mut reference = Reference::new(NODES, METRICS, HOURS);
    let mut live = None;
    let mut seeded_samples = 0;
    let mut insert_busy = Duration::ZERO;
    for node in 0..NODES {
        let (mut db, ids) = gen::node_store(shape, METRICS, 1);
        let mut series: Vec<Series> = (0..METRICS)
            .map(|m| Series::new(shape, seed ^ 0x11FE, node * METRICS + m, NODES * METRICS))
            .collect();
        let (n, busy) = gen::fill(
            &mut db,
            &ids,
            &mut series,
            0,
            DAY_S,
            Some((&mut reference, node)),
            obs.is_enabled(),
        );
        seeded_samples += n;
        insert_busy += busy;
        let id = fleet
            .add_node(&format!("node{node:02}"))
            .expect("register node");
        let mut exporter = Exporter::new();
        let mut sink = FleetSink {
            fleet: &mut fleet,
            node: id,
        };
        let drained = exporter.drain(&db, &mut sink).expect("seed the fleet");
        fleet.report_drain(id, &drained).expect("seed drain report");
        if node == 0 {
            live = Some((db, ids, series, exporter));
        }
    }
    fleet.snapshot().expect("snapshot after seeding");
    fleet.set_obs(obs.clone());
    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN)
        .expect("bind fleet listener");
    let (db, ids, series, exporter) = live.expect("node00 seeded");
    Setup {
        listener,
        db,
        ids,
        series,
        exporter,
        reference,
        seeded_samples,
        insert_ns_per_sample: insert_busy.as_nanos() as f64 / seeded_samples as f64,
    }
}

/// The `i`-th query of the fixed mix, at fleet time `now_s`.
fn query(i: u64, now_s: u64) -> QueryRequest {
    let metric = gen::metric_name((i / 5) as usize % METRICS);
    let now = SimTime::from_secs(now_s);
    match i % 5 {
        // Sketch-served fleet p99 over a wide sealed window.
        0 => {
            let (now, window) = gen::hour_window(1, 23);
            QueryRequest::WindowAgg {
                metric,
                now,
                window,
                agg: WindowAgg::Percentile(0.99),
            }
        }
        // Short-window mean over the live node's raw tail.
        1 => QueryRequest::WindowAgg {
            metric,
            now,
            window: SimDuration::from_secs(30),
            agg: WindowAgg::Mean,
        },
        2 => QueryRequest::TopNodes {
            metric,
            now,
            window: SimDuration::from_hours(1),
            agg: WindowAgg::Max,
            k: 3,
            rank: Rank::Highest,
        },
        3 => QueryRequest::CoveredWindowAgg {
            metric,
            now,
            window: SimDuration::from_mins(10),
            agg: WindowAgg::Mean,
            stale_after: STALE_AFTER,
        },
        _ => QueryRequest::Health {
            now,
            stale_after: STALE_AFTER,
        },
    }
}

/// What the query session measured.
#[derive(Default)]
struct QueryLog {
    latency_us: Vec<f64>,
    send_late_us: Vec<f64>,
    rtt_us: Vec<f64>,
    /// Queries refused or lost, with what went wrong. They count as
    /// failed operations, fail the run, and stay out of the latencies.
    errors: Vec<String>,
}

fn run_queries(
    addr: &str,
    ids: std::ops::Range<u64>,
    start: Instant,
    newest_s: &AtomicU64,
) -> QueryLog {
    let mut log = QueryLog::default();
    let mut client = FleetClient::connect(addr, TOKEN).expect("query session");
    // Warm the session and the planner's lazily built scratch state
    // with one query of each kind before the first one is due.
    for i in 0..5 {
        let _ = client.request(&query(i, newest_s.load(Ordering::Acquire)));
    }
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE as f64);
    for (j, i) in ids.enumerate() {
        let due = start + period * j as u32;
        stats::wait_until(due);
        let req = query(i, newest_s.load(Ordering::Acquire));
        let sent = Instant::now();
        let answer = client.send(&req).and_then(|_| client.recv());
        let done = Instant::now();
        match answer {
            Ok((_, QueryResponse::Error(e))) => {
                log.errors
                    .push(format!("query {i} ({req:?}) refused: {e:?}"));
                continue;
            }
            Err(e) => {
                log.errors.push(format!("query {i} ({req:?}): {e}"));
                continue;
            }
            Ok(_) => {}
        }
        log.latency_us.push(us(done - due));
        log.send_late_us
            .push(us(sent.saturating_duration_since(due)));
        log.rtt_us.push(us(done - sent));
    }
    log
}

/// The live phase across its rounds: each `round` runs one freshly
/// seeded fleet under paced ingest and queries, checks it and tears it
/// down; `finish` pools the rounds into metrics.
pub struct Run {
    obs: Obs,
    phase: Phase,
    rounds: u64,
    per_round: u64,
    queries_per_round: u64,
    q: QueryLog,
    ttq_ms: Vec<f64>,
    late_ms: Vec<f64>,
    drain_self_ms: Vec<f64>,
    send_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    insert_ns_per_sample: Vec<f64>,
    raw_values_read: u64,
    sketch_hits: u64,
    /// The last round's snapshot size and the samples it holds.
    snapshot: (u64, u64),
}

impl Run {
    /// `seconds` of timed window, split over [`ROUNDS`] rounds.
    pub fn new(seconds: u64, traced: bool) -> Self {
        let per_round = seconds * 1_000_000 / DRAIN_PERIOD.as_micros() as u64 / ROUNDS;
        assert!(
            per_round < 2 * HOUR_S,
            "the live tail must stay inside hours 24 and 25"
        );
        Run {
            obs: if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            phase: Phase::default(),
            rounds: 0,
            per_round,
            queries_per_round: seconds * QUERY_RATE / ROUNDS,
            q: QueryLog::default(),
            ttq_ms: Vec::new(),
            late_ms: Vec::new(),
            drain_self_ms: Vec::new(),
            send_ms: Vec::new(),
            ack_ms: Vec::new(),
            insert_ns_per_sample: Vec::new(),
            raw_values_read: 0,
            sketch_hits: 0,
            snapshot: (0, 0),
        }
    }

    /// The handle the round's fleet reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// One round on the fleet `s`, with fresh node and query sessions.
    pub fn round(&mut self, mut s: Setup, ops: &mut Ops) {
        let Run {
            phase,
            rounds,
            per_round,
            queries_per_round,
            q,
            ttq_ms,
            late_ms,
            drain_self_ms,
            send_ms,
            ack_ms,
            insert_ns_per_sample,
            raw_values_read,
            sketch_hits,
            snapshot,
            ..
        } = self;
        let (round, per_round, queries_per_round) = (*rounds, *per_round, *queries_per_round);
        *rounds += 1;
        insert_ns_per_sample.push(s.insert_ns_per_sample);
        let addr = s.listener.local_addr().to_string();
        let fleet = s.listener.fleet();
        let stats0 = fleet.lock().unwrap().store().stats();
        let newest_s = Arc::new(AtomicU64::new(DAY_S - 1));
        let mut live_samples = 0;
        let mut sweep = vec![0u32; METRICS];
        let sink = SocketSink::connect(&addr, "node00", TOKEN).expect("node session");
        let mut sink = TimedSink::new(sink);
        let start = Instant::now() + Duration::from_millis(100);
        let query_thread = {
            let addr = addr.clone();
            let newest_s = Arc::clone(&newest_s);
            let ids = round * queries_per_round..(round + 1) * queries_per_round;
            std::thread::spawn(move || run_queries(&addr, ids, start, &newest_s))
        };
        for k in 0..per_round {
            let due = start + DRAIN_PERIOD * k as u32;
            stats::wait_until(due);
            let t_s = DAY_S + k;
            for (m, (v, series)) in sweep.iter_mut().zip(s.series.iter_mut()).enumerate() {
                *v = series.next();
                s.reference.record(0, m, t_s, *v);
            }
            let inserting = Instant::now();
            late_ms.push(ms(inserting.saturating_duration_since(due)));
            gen::insert_sweep(&mut s.db, &s.ids, SimTime::from_secs(t_s), &sweep);
            let inserted = Instant::now();
            let busy0 = sink.busy;
            ops.drains.attempted += 1;
            let drained = match s.exporter.drain(&s.db, &mut sink) {
                Ok(d) => d,
                Err(e) => {
                    ops.drains.failed += 1;
                    phase.errors.push(format!("live drain {k}: {e}"));
                    continue;
                }
            };
            let drain_done = Instant::now();
            ops.batches.attempted += drained.batches;
            if let Err(e) = sink.inner.wait_idle() {
                ops.batches.failed += drained.batches;
                phase.errors.push(format!("live ack {k}: {e}"));
                continue;
            }
            let acked = Instant::now();
            newest_s.store(t_s, Ordering::Release);
            live_samples += drained.samples;
            ttq_ms.push(ms(acked - inserted));
            let in_sink = sink.busy - busy0;
            send_ms.push(ms(in_sink));
            drain_self_ms.push(ms((drain_done - inserted).saturating_sub(in_sink)));
            ack_ms.push(ms(acked - drain_done));
        }
        drop(sink);
        let mut log = query_thread.join().expect("query thread");
        ops.queries.attempted += queries_per_round;
        ops.queries.failed += log.errors.len() as u64;
        q.latency_us.append(&mut log.latency_us);
        q.send_late_us.append(&mut log.send_late_us);
        q.rtt_us.append(&mut log.rtt_us);
        q.errors.append(&mut log.errors);

        // ---- checks: every inserted sample is queryable, nothing dropped --
        let newest = DAY_S + per_round - 1;
        let mut client = FleetClient::connect(&addr, TOKEN).expect("check session");
        let (lo_h, hi_h) = (23, HOURS);
        let now = SimTime::from_secs(newest);
        let window = SimDuration(now.0 + 1 - lo_h as u64 * HOUR_S * 1000);
        for m in 0..METRICS {
            let (count, sum, _, _) = s.reference.pooled(m, lo_h, hi_h);
            for (agg, want) in [(WindowAgg::Count, count), (WindowAgg::Sum, sum)] {
                ops.queries.attempted += 1;
                match client.window_agg(&gen::metric_name(m), now, window, agg) {
                    Ok(a) if a.value == Some(want as f64) => {}
                    Ok(a) => phase.errors.push(format!(
                        "live m{m:02} {agg:?} since hour {lo_h}: got {:?}, want {want}",
                        a.value
                    )),
                    Err(e) => {
                        ops.queries.failed += 1;
                        phase.errors.push(format!("live check query: {e}"));
                    }
                }
            }
            let (now, window) = gen::hour_window(1, 23);
            let exact = s.reference.quantile(m, 1, 23, 0.99);
            ops.queries.attempted += 1;
            match client.window_agg(
                &gen::metric_name(m),
                now,
                window,
                WindowAgg::Percentile(0.99),
            ) {
                Ok(a) if a.value.is_some_and(|v| (v - exact).abs() <= 0.01 * exact) => {}
                Ok(a) => phase.errors.push(format!(
                    "live m{m:02} fleet p99: got {:?}, exact {exact}",
                    a.value
                )),
                Err(e) => {
                    ops.queries.failed += 1;
                    phase.errors.push(format!("live check query: {e}"));
                }
            }
        }
        drop(client);
        let fleet_guard = fleet.lock().unwrap();
        let st = fleet_guard.store().stats();
        if st.rejected_samples != 0 || st.corrupt_chunks != 0 {
            phase.errors.push(format!("live store counters: {st:?}"));
        }
        let c = fleet_guard.aggregator().counters(NodeId(0));
        let want = s.seeded_samples / NODES as u64 + per_round * METRICS as u64;
        if c.samples != want || live_samples != per_round * METRICS as u64 {
            phase.errors.push(format!(
                "live node00 samples: fleet {} (want {want}), acknowledged {live_samples}",
                c.samples
            ));
        }
        *raw_values_read += st.raw_values_read - stats0.raw_values_read;
        *sketch_hits += st.sketch_hits - stats0.sketch_hits;
        let snapshot_bytes = std::fs::metadata(fleet_guard.dir().join("snapshot.bin"))
            .map(|m| m.len())
            .unwrap_or(0);
        *snapshot = (
            snapshot_bytes,
            s.seeded_samples + per_round * METRICS as u64,
        );
        let dir = fleet_guard.dir().to_path_buf();
        drop(fleet_guard);
        drop(fleet);
        drop(s.listener.shutdown());
        let _ = std::fs::remove_dir_all(dir);
    }

    pub fn finish(self) -> Phase {
        let Run {
            obs,
            mut phase,
            rounds,
            per_round,
            queries_per_round,
            q,
            mut ttq_ms,
            mut late_ms,
            mut drain_self_ms,
            mut send_ms,
            mut ack_ms,
            mut insert_ns_per_sample,
            raw_values_read,
            sketch_hits,
            snapshot,
        } = self;
        let sweeps = per_round * rounds;
        let queries = queries_per_round * rounds;
        for e in q.errors.iter().take(5) {
            phase.errors.push(format!("live {e}"));
        }
        if q.errors.len() > 5 {
            phase
                .errors
                .push(format!("live: {} more failed queries", q.errors.len() - 5));
        }

        // Reported, not gated: the p50 is mostly thread wake-ups, the p99
        // lies in the stalls of the 16 snapshot rotations, and on the
        // shared host both moved between runs of identical code by more
        // than any bound allows.
        let mut lat = q.latency_us;
        phase.notes.push(format!(
            "query latency from due time p50 {:.1} us p99 {:.1} us over {} queries",
            stats::median(&mut lat),
            stats::percentile(&mut lat, 0.99),
            lat.len()
        ));
        phase.e2e("ttq_p50_ms", stats::median(&mut ttq_ms), "ms");
        // Reported, not gated: the ack tail moves with scheduling noise
        // on the shared host far more than any bound allows.
        phase.notes.push(format!(
            "time to queryable p99 {:.3} ms over {} drains",
            stats::percentile(&mut ttq_ms, 0.99),
            ttq_ms.len()
        ));
        phase.notes.push(format!(
            "{ROUNDS} rounds, {sweeps} sweeps every {DRAIN_PERIOD:?}, {queries} queries at \
             {QUERY_RATE}/s; \
             generator lateness p50 {:.3} ms p99 {:.3} ms max {:.3} ms",
            stats::median(&mut late_ms),
            stats::percentile(&mut late_ms, 0.99),
            stats::percentile(&mut late_ms, 1.0),
        ));

        if obs.is_enabled() {
            let per_drain = |v: &[f64]| v.iter().sum::<f64>() / sweeps as f64;
            let service =
                |name: &str| obs.latency(name).snapshot().sum_ns as f64 * 1e-6 / sweeps as f64;
            let ttq = per_drain(&ttq_ms);
            let share = |v: f64| 100.0 * v / ttq;
            let (export, send, ack) = (
                per_drain(&drain_self_ms),
                per_drain(&send_ms),
                per_drain(&ack_ms),
            );
            let (apply, flush, snap) = (
                service("fleet.ingest_ns"),
                service("wal.fsync_ns"),
                service("snapshot.write_ns"),
            );
            phase.notes.push(format!(
                "stages per drain, of {ttq:.3} ms mean time to queryable: node export {export:.3} \
                 ms ({:.0} %), socket send {send:.3} ms ({:.0} %), ack wait {ack:.3} ms ({:.0} %); \
                 service apply {apply:.3} ms ({:.0} %), log flush {flush:.3} ms ({:.0} %), \
                 snapshot {snap:.3} ms ({:.0} %)",
                share(export),
                share(send),
                share(ack),
                share(apply),
                share(flush),
                share(snap),
            ));
            let serve = obs.latency("query.serve_ns").snapshot();
            let rtt_mean = q.rtt_us.iter().sum::<f64>() / q.rtt_us.len() as f64;
            let serve_mean = serve.sum_ns as f64 * 1e-3 / serve.count.max(1) as f64;
            phase.notes.push(format!(
                "queries: mean round trip {rtt_mean:.1} us, of which the service's decode, \
                 plan under the fleet lock and respond {serve_mean:.1} us ({:.0} %); the rest is \
                 client codec, socket and scheduling",
                100.0 * serve_mean / rtt_mean
            ));
        }
        let l = &mut phase.layer;
        trace::put(
            l,
            "live.tsdb.insert_ns_per_sample",
            stats::median(&mut insert_ns_per_sample),
            "ns",
        );
        trace::put(
            l,
            "live.export.drain_self_ms.p50",
            stats::median(&mut drain_self_ms),
            "ms",
        );
        trace::put(
            l,
            "live.socket.send_blocked_ms.p50",
            stats::median(&mut send_ms),
            "ms",
        );
        trace::put(
            l,
            "live.socket.ack_wait_ms.p50",
            stats::median(&mut ack_ms),
            "ms",
        );
        trace::put(
            l,
            "live.socket.ack_wait_ms.p99",
            stats::percentile(&mut ack_ms, 0.99),
            "ms",
        );
        let mut rtt = q.rtt_us;
        let mut late = q.send_late_us;
        trace::put(l, "live.client.rtt_us.p50", stats::median(&mut rtt), "us");
        trace::put(
            l,
            "live.client.rtt_us.p99",
            stats::percentile(&mut rtt, 0.99),
            "us",
        );
        trace::put(
            l,
            "live.query.send_late_us.p99",
            stats::percentile(&mut late, 0.99),
            "us",
        );
        for kind in ["window_agg", "top_nodes", "covered_window_agg", "health"] {
            let name = format!("query.serve.{kind}_ns");
            let v = trace::obs_quantile(&obs, &name, 0.5, 1e-3);
            trace::put(l, &format!("live.query.serve_us.{kind}.p50"), v, "us");
        }
        trace::put(
            l,
            "live.store.raw_values_read",
            raw_values_read as f64 / rounds as f64,
            "count",
        );
        trace::put(
            l,
            "live.store.sketch_hits",
            sketch_hits as f64 / rounds as f64,
            "count",
        );
        trace::fleet_layers(l, "live", &obs, sweeps * METRICS as u64, snapshot, rounds);
        phase
    }
}
