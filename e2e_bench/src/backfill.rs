//! Backfill phase: node stores full of history drained over sockets
//! into a durable fleet service at full speed (closed loop, no pacing),
//! then the service abandoned the way `kill -9` leaves it and reopened
//! from its state directory up to its first answered remote query.

use crate::gen::{self, Reference, Series, Shape};
use crate::stats::{self, dir_bytes, ms};
use crate::trace::{self, TimedSink};
use crate::{Ops, Phase};
use moda_fleet::{DurabilityConfig, DurableFleet, FleetClient, FleetListener, SocketSink};
use moda_obs::Obs;
use moda_telemetry::chunk::{decoded_chunks, encoded_chunks};
use moda_telemetry::{DrainStats, Exporter, MetricId, Tsdb, WindowAgg};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const NODES: usize = 2;
pub const METRICS: usize = 64;
pub const DAYS: u64 = 2;
const TOKEN: &str = "bench-backfill";
/// Records per exported batch. With the default 4096, a cycle ships
/// about 560 batches of sensor streams and about 200 of meter streams,
/// short of the 1024 batches after which the fleet rotates its snapshot
/// by default; at 512 both workloads cross a rotation and leave a log
/// tail at the kill.
const BATCH_RECORDS: usize = 512;
/// Times each abandoned state directory is reopened. Recovery leaves a
/// clean directory as it found it, so every reopen replays the same log
/// tail; one reopen's time moves by ±15 % on the shared host.
const REOPENS: usize = 3;

/// Metrics the correctness queries cover, and their hour windows.
const CHECK_METRICS: [usize; 3] = [0, 21, 63];
const CHECK_WINDOWS: [(usize, usize); 2] = [(1, 47), (20, 29)];

pub struct Setup {
    stores: Vec<(Tsdb, Vec<MetricId>)>,
    reference: Reference,
    samples: u64,
    insert_ns_per_sample: f64,
}

/// Fill the node stores with `DAYS` of 1 Hz history.
pub fn setup(shape: Shape, seed: u64, traced: bool) -> Setup {
    let hours = (DAYS * 24) as usize;
    let mut reference = Reference::new(NODES, METRICS, hours);
    let mut samples = 0;
    let mut busy = std::time::Duration::ZERO;
    let stores = (0..NODES)
        .map(|node| {
            let (mut db, ids) = gen::node_store(shape, METRICS, DAYS);
            let mut series: Vec<Series> = (0..METRICS)
                .map(|m| Series::new(shape, seed, node * METRICS + m, NODES * METRICS))
                .collect();
            let (n, b) = gen::fill(
                &mut db,
                &ids,
                &mut series,
                0,
                DAYS * gen::DAY_S,
                Some((&mut reference, node)),
                traced,
            );
            samples += n;
            busy += b;
            (db, ids)
        })
        .collect();
    Setup {
        stores,
        reference,
        samples,
        insert_ns_per_sample: busy.as_nanos() as f64 / samples as f64,
    }
}

/// The correctness query set, as comparable bit patterns.
fn check_queries(client: &mut FleetClient) -> std::io::Result<Vec<Option<u64>>> {
    let mut out = Vec::new();
    for &m in &CHECK_METRICS {
        for &(h0, h1) in &CHECK_WINDOWS {
            let (now, window) = gen::hour_window(h0, h1);
            for agg in [
                WindowAgg::Count,
                WindowAgg::Sum,
                WindowAgg::Min,
                WindowAgg::Max,
                WindowAgg::Percentile(0.99),
            ] {
                let a = client.window_agg(&gen::metric_name(m), now, window, agg)?;
                out.push(a.value.map(f64::to_bits));
            }
            let top = client.top_nodes(
                &gen::metric_name(m),
                now,
                window,
                WindowAgg::Sum,
                NODES as u32,
                moda_fleet::Rank::Highest,
            )?;
            for e in top {
                out.push(Some(e.node.0 as u64));
                out.push(Some(e.value.to_bits()));
            }
        }
    }
    Ok(out)
}

/// Compare the answers of [`check_queries`] against the reference.
fn verify(answers: &[Option<u64>], r: &Reference, errors: &mut Vec<String>) {
    let mut it = answers.iter();
    let mut next = || it.next().copied().flatten().map(f64::from_bits);
    for &m in &CHECK_METRICS {
        for &(h0, h1) in &CHECK_WINDOWS {
            let (count, sum, min, max) = r.pooled(m, h0, h1);
            for (what, want) in [
                ("count", count as f64),
                ("sum", sum as f64),
                ("min", min as f64),
                ("max", max as f64),
            ] {
                let got = next();
                if got.map(f64::to_bits) != Some(want.to_bits()) {
                    errors.push(format!(
                        "backfill m{m:02} [{h0}h,{h1}h) {what}: got {got:?}, want {want}"
                    ));
                }
            }
            let exact = r.quantile(m, h0, h1, 0.99);
            match next() {
                Some(p99) if (p99 - exact).abs() <= 0.01 * exact.abs() + 1e-9 => {}
                got => errors.push(format!(
                    "backfill m{m:02} [{h0}h,{h1}h) p99: got {got:?}, exact {exact}"
                )),
            }
            let mut want: Vec<(usize, u64)> =
                (0..NODES).map(|n| (n, r.node_sum(n, m, h0, h1))).collect();
            want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (node, sum) in want {
                let got_node = next().map(|v| v.to_bits());
                let got_sum = next();
                if got_node != Some(node as u64) || got_sum != Some(sum as f64) {
                    errors.push(format!(
                        "backfill m{m:02} [{h0}h,{h1}h) top-k: got node {got_node:?} sum \
                         {got_sum:?}, want node {node} sum {sum}"
                    ));
                }
            }
        }
    }
}

/// Per-cycle measurements.
struct Cycle {
    ingest_s: f64,
    acked_samples: u64,
    /// One sample per reopen.
    recover_s: Vec<f64>,
    stored_bytes: u64,
}

/// The backfill phase across its cycles: `cycle` runs one drain →
/// kill → recover cycle, `finish` turns the cycles into metrics.
pub struct Run {
    phase: Phase,
    cycles: Vec<Cycle>,
    obs: Obs,
    traced: bool,
    // Traced-run accumulators.
    drain_self_ms: Vec<f64>,
    send_blocked_ms: Vec<f64>,
    ack_wait_ms: Vec<f64>,
    open_ms: Vec<f64>,
    first_query_ms: Vec<f64>,
    replayed: Vec<f64>,
    insert_ns_per_sample: Vec<f64>,
    totals: DrainStats,
    decoded: u64,
    encoded: u64,
    /// The last cycle's snapshot size and the samples it was taken of.
    snapshot: (u64, u64),
}

impl Run {
    pub fn new(traced: bool) -> Self {
        Run {
            phase: Phase::default(),
            cycles: Vec::new(),
            obs: if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            traced,
            drain_self_ms: Vec::new(),
            send_blocked_ms: Vec::new(),
            ack_wait_ms: Vec::new(),
            open_ms: Vec::new(),
            first_query_ms: Vec::new(),
            replayed: Vec::new(),
            insert_ns_per_sample: Vec::new(),
            totals: DrainStats::default(),
            decoded: 0,
            encoded: 0,
            snapshot: (0, 0),
        }
    }

    /// One cycle on the freshly filled node stores of `setup`.
    pub fn cycle(&mut self, setup: Setup, scratch: &Path, ops: &mut Ops) {
        let Run {
            phase,
            cycles,
            obs,
            drain_self_ms,
            send_blocked_ms,
            ack_wait_ms,
            open_ms,
            first_query_ms,
            replayed,
            insert_ns_per_sample,
            totals,
            decoded,
            encoded,
            snapshot,
            ..
        } = self;
        insert_ns_per_sample.push(setup.insert_ns_per_sample);
        let cycle = cycles.len();
        let dir = scratch.join(format!("backfill-{cycle}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).expect("open state");
        fleet.set_obs(obs.clone());
        let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN)
            .expect("bind fleet listener");
        let addr = listener.local_addr().to_string();

        // ---- timed: drain every store over its own session ----------
        let (dec0, enc0) = (decoded_chunks(), encoded_chunks());
        let started = Instant::now();
        let mut acked_samples = 0;
        for (node, (db, _)) in setup.stores.iter().enumerate() {
            let sink =
                SocketSink::connect(&addr, &format!("node{node:02}"), TOKEN).expect("node session");
            let mut sink = TimedSink::new(sink);
            let mut exporter = Exporter::new().with_batch_records(BATCH_RECORDS);
            let t = Instant::now();
            ops.drains.attempted += 1;
            let stats = match exporter.drain(db, &mut sink) {
                Ok(s) => s,
                Err(e) => {
                    ops.drains.failed += 1;
                    phase
                        .errors
                        .push(format!("backfill drain node{node:02}: {e}"));
                    continue;
                }
            };
            let drain_time = t.elapsed();
            ops.batches.attempted += stats.batches;
            let busy = sink.busy;
            let mut sink = sink.inner;
            let t = Instant::now();
            if let Err(e) = sink.send_drain(&stats).and_then(|()| sink.wait_idle()) {
                ops.batches.failed += stats.batches;
                phase
                    .errors
                    .push(format!("backfill ack node{node:02}: {e}"));
                continue;
            }
            ack_wait_ms.push(ms(t.elapsed()));
            drain_self_ms.push(ms(drain_time - busy));
            send_blocked_ms.push(ms(busy));
            acked_samples += stats.samples;
            totals.merge(&stats);
        }
        let ingest_s = started.elapsed().as_secs_f64();
        *decoded += decoded_chunks() - dec0;
        *encoded += encoded_chunks() - enc0;

        let mut client = FleetClient::connect(&addr, TOKEN).expect("query session");
        let before = count_queries(ops, check_queries(&mut client));
        drop(client);
        let shared = listener.shutdown();
        {
            let fleet = shared.lock().unwrap();
            let st = fleet.store().stats();
            if st.rejected_samples != 0 || st.corrupt_chunks != 0 {
                phase
                    .errors
                    .push(format!("backfill store counters: {st:?}"));
            }
        }
        // The kill: the in-memory service is dropped without its
        // clean-shutdown snapshot; only the state directory survives.
        drop(shared);
        let stored_bytes = dir_bytes(&dir);
        let snapshot_bytes = std::fs::metadata(dir.join("snapshot.bin"))
            .map(|m| m.len())
            .unwrap_or(0);
        *snapshot = (snapshot_bytes, setup.samples);

        // ---- timed: reopen → first answered remote query ------------
        let want = setup
            .reference
            .pooled(CHECK_METRICS[0], CHECK_WINDOWS[0].0, CHECK_WINDOWS[0].1)
            .0;
        let mut recover_s = Vec::new();
        let mut replays = Vec::new();
        let (listener, mut client) = loop {
            let t = Instant::now();
            let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).expect("recover");
            let opened = t.elapsed();
            let rec = *fleet.recovery();
            let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN)
                .expect("rebind");
            let t_bind = Instant::now();
            let mut client = FleetClient::connect(&listener.local_addr().to_string(), TOKEN)
                .expect("query session after recovery");
            ops.queries.attempted += 1;
            let (now, window) = gen::hour_window(CHECK_WINDOWS[0].0, CHECK_WINDOWS[0].1);
            let first = client.window_agg(
                &gen::metric_name(CHECK_METRICS[0]),
                now,
                window,
                WindowAgg::Count,
            );
            recover_s.push(t.elapsed().as_secs_f64());
            match first {
                Ok(a) if a.value == Some(want as f64) => {}
                Ok(a) => phase.errors.push(format!(
                    "backfill: first query after recovery: got {:?}, want {want}",
                    a.value
                )),
                Err(e) => {
                    ops.queries.failed += 1;
                    phase
                        .errors
                        .push(format!("backfill: first query after recovery: {e}"));
                }
            }
            open_ms.push(ms(opened));
            first_query_ms.push(ms(t_bind.elapsed()));
            replayed.push(rec.replayed_batches as f64);
            replays.push((rec.epoch, rec.replayed_batches, rec.replayed_drains));
            if replays.len() == REOPENS {
                break (listener, client);
            }
            // Abandoned again, as after the first kill.
            drop(client);
            drop(listener.shutdown());
        };
        let (epoch, batches, drains) = replays[0];
        if batches + drains == 0 {
            phase
                .errors
                .push("backfill: the kill left an empty log tail".to_string());
        }
        if epoch == 0 {
            phase
                .errors
                .push("backfill: no snapshot rotation during the drain".to_string());
        }
        if replays.iter().any(|r| *r != replays[0]) {
            phase.errors.push(format!(
                "backfill: reopens recovered differently: {replays:?}"
            ));
        }

        let after = count_queries(ops, check_queries(&mut client));
        drop(client);
        drop(listener.shutdown());
        match (&before, &after) {
            (Some(b), Some(a)) => {
                if b != a {
                    phase
                        .errors
                        .push("backfill: answers after recovery differ from before".into());
                }
                verify(a, &setup.reference, &mut phase.errors);
            }
            (b, a) => phase.errors.push(format!(
                "backfill: check queries failed (before the kill: {}, after recovery: {})",
                if b.is_some() { "answered" } else { "failed" },
                if a.is_some() { "answered" } else { "failed" },
            )),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if acked_samples != setup.samples {
            phase.errors.push(format!(
                "backfill: {acked_samples} samples acknowledged, {} generated",
                setup.samples
            ));
        }
        cycles.push(Cycle {
            ingest_s,
            acked_samples,
            recover_s,
            stored_bytes,
        });
    }

    pub fn finish(self) -> Phase {
        let Run {
            mut phase,
            cycles,
            obs,
            traced,
            mut drain_self_ms,
            mut send_blocked_ms,
            mut ack_wait_ms,
            mut open_ms,
            mut first_query_ms,
            mut replayed,
            mut insert_ns_per_sample,
            totals,
            decoded,
            encoded,
            snapshot,
        } = self;
        let n = cycles.len() as f64;
        let mut v: Vec<f64> = cycles
            .iter()
            .map(|c| c.acked_samples as f64 / c.ingest_s)
            .collect();
        phase.e2e("ingest_samples_per_s", stats::median(&mut v), "1/s");
        let mut v: Vec<f64> = cycles.iter().flat_map(|c| c.recover_s.clone()).collect();
        phase.e2e("recover_s", stats::median(&mut v), "s");
        let mut v: Vec<f64> = cycles
            .iter()
            .map(|c| c.stored_bytes as f64 / c.acked_samples.max(1) as f64)
            .collect();
        phase.e2e("stored_bytes_per_sample", stats::median(&mut v), "B");

        if traced {
            let wall: f64 = cycles.iter().map(|c| c.ingest_s * 1e3).sum::<f64>() / n;
            let per_cycle = |v: &[f64]| v.iter().sum::<f64>() / n;
            let service = |name: &str| obs.latency(name).snapshot().sum_ns as f64 * 1e-6 / n;
            let share = |v: f64| 100.0 * v / wall;
            let (export, send, ack) = (
                per_cycle(&drain_self_ms),
                per_cycle(&send_blocked_ms),
                per_cycle(&ack_wait_ms),
            );
            let (apply, flush, snap) = (
                service("fleet.ingest_ns"),
                service("wal.fsync_ns"),
                service("snapshot.write_ns"),
            );
            phase.notes.push(format!(
                "stages per cycle, of {wall:.0} ms ingest wall: node export {export:.0} ms \
                 ({:.0} %), socket send incl. window wait {send:.0} ms ({:.0} %), final ack \
                 wait {ack:.0} ms ({:.0} %); service apply {apply:.0} ms ({:.0} %), log flush \
                 {flush:.0} ms ({:.0} %), snapshot {snap:.0} ms ({:.0} %)",
                share(export),
                share(send),
                share(ack),
                share(apply),
                share(flush),
                share(snap),
            ));
        }
        let l = &mut phase.layer;
        trace::put(
            l,
            "backfill.tsdb.insert_ns_per_sample",
            stats::median(&mut insert_ns_per_sample),
            "ns",
        );
        trace::put(
            l,
            "backfill.export.drain_self_ms",
            stats::median(&mut drain_self_ms),
            "ms",
        );
        trace::put(
            l,
            "backfill.export.batches",
            totals.batches as f64 / n,
            "count",
        );
        trace::put(
            l,
            "backfill.export.records",
            totals.records as f64 / n,
            "count",
        );
        trace::put(
            l,
            "backfill.export.chunks",
            totals.chunks as f64 / n,
            "count",
        );
        trace::put(
            l,
            "backfill.socket.send_blocked_ms",
            stats::median(&mut send_blocked_ms),
            "ms",
        );
        trace::put(
            l,
            "backfill.socket.ack_wait_ms.p50",
            stats::median(&mut ack_wait_ms),
            "ms",
        );
        let shipped = totals.chunks.max(1) as f64;
        trace::put(
            l,
            "backfill.chunk.decoded_per_shipped",
            decoded as f64 / shipped,
            "ratio",
        );
        trace::put(
            l,
            "backfill.chunk.encoded_per_shipped",
            encoded as f64 / shipped,
            "ratio",
        );
        trace::put(
            l,
            "backfill.recover.open_ms",
            stats::median(&mut open_ms),
            "ms",
        );
        trace::put(
            l,
            "backfill.recover.replayed_batches",
            stats::median(&mut replayed),
            "count",
        );
        trace::put(
            l,
            "backfill.recover.first_query_ms",
            stats::median(&mut first_query_ms),
            "ms",
        );
        trace::fleet_layers(
            l,
            "backfill",
            &obs,
            cycles.iter().map(|c| c.acked_samples).sum(),
            snapshot,
            cycles.len() as u64,
        );
        phase
    }
}

fn count_queries(ops: &mut Ops, r: std::io::Result<Vec<Option<u64>>>) -> Option<Vec<Option<u64>>> {
    let n = (CHECK_METRICS.len() * CHECK_WINDOWS.len() * 6) as u64;
    ops.queries.attempted += n;
    match r {
        Ok(v) => Some(v),
        Err(_) => {
            ops.queries.failed += n;
            None
        }
    }
}
