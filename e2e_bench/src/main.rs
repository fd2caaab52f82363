//! End-to-end benchmark of the moda stack, driven from outside through
//! its public functions. See `README.md` next to this crate.
//!
//! ```text
//! e2e_bench --workload <sensors|meters> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes three phases in order — `backfill` (durable
//! socket ingest at full speed, `kill -9`, recovery), `live` (paced
//! ingest with remote queries at a fixed rate), and `control` (the
//! center-level responder over an `hpc::Cluster` and the node-level
//! Scheduler loop over a `World`) — checks every output, and prints one
//! JSON line last: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

mod backfill;
mod control;
mod gen;
mod live;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Rounds per run. A round is one backfill set-up and cycle, one live
/// set-up and round, and two turns of control repetitions, interleaved.
pub const ROUNDS: u64 = 4;

/// Attempted/failed operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Count {
    pub attempted: u64,
    pub failed: u64,
}

/// Operation counts by kind, printed on every run.
#[derive(Debug, Default)]
pub struct Ops {
    pub batches: Count,
    pub drains: Count,
    pub queries: Count,
    pub ticks: Count,
}

/// What one phase measured and found wrong.
#[derive(Debug, Default)]
pub struct Phase {
    pub e2e: BTreeMap<String, (f64, &'static str)>,
    pub layer: trace::Layer,
    pub errors: Vec<String>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Phase {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.insert(name.to_string(), (value, unit));
    }
}

struct Args {
    shape: gen::Shape,
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => traced = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = gen::Shape::parse(&workload)
        .ok_or(format!("unknown workload {workload:?} (sensors|meters)"))?;
    Ok(Args {
        shape,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        traced,
    })
}

fn json_metrics(metrics: &BTreeMap<String, (f64, &'static str)>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".bench_state").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create the state directory");
    let mut ops = Ops::default();
    let wall = Instant::now();

    // Every round sets up its own backfill stores and live fleet, so
    // that set-up time is a median over rounds too. The phases take
    // turns, round by round, so that each metric's median samples the
    // whole run rather than one stretch of it.
    let mut backfill = backfill::Run::new(args.traced);
    let mut live = live::Run::new(args.seconds, args.traced);
    let mut control = control::Run::new(args.seed, args.traced);
    let mut setup_s = Vec::new();
    for round in 0..ROUNDS {
        let (bf_setup, bf_t) = stats::timed(|| backfill::setup(args.shape, args.seed, args.traced));
        backfill.cycle(bf_setup, &scratch, &mut ops);
        control.turn(&mut ops);
        let dir = scratch.join(format!("live-{round}"));
        let (live_setup, live_t) =
            stats::timed(|| live::setup(args.shape, args.seed, &dir, live.obs()));
        live.round(live_setup, &mut ops);
        control.turn(&mut ops);
        setup_s.push((bf_t + live_t).as_secs_f64());
    }
    let backfill = backfill.finish();
    let live = live.finish();
    let (control, control_setup_s) = control.finish();

    let mut phases = [("backfill", backfill), ("live", live), ("control", control)];
    let _ = std::fs::remove_dir_all(&scratch);
    // Removes the parent only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_state");

    let mut e2e = BTreeMap::new();
    e2e.insert(
        "setup_s".to_string(),
        (stats::median(&mut setup_s) + control_setup_s, "s"),
    );
    let mut layer = trace::Layer::new();
    let mut errors = Vec::new();
    for (name, p) in phases.iter_mut() {
        for (k, v) in &p.e2e {
            e2e.insert(k.clone(), *v);
        }
        for (k, v) in &p.layer {
            layer.insert(k.clone(), *v);
        }
        for e in p.errors.drain(..) {
            errors.push(format!("[{name}] {e}"));
        }
        for n in &p.notes {
            println!("{name}: {n}");
        }
    }
    e2e.insert("peak_rss_mb".to_string(), (stats::peak_rss_mb(), "MB"));
    if args.traced {
        // The input property the workloads differ in, next to the same
        // figures for the program's own stream of that kind.
        let generated = gen::generated_shape(args.shape, args.seed, 64, 3);
        let world = gen::world_shape(args.shape, args.seed);
        for (name, s) in [("gen", generated), ("world", world)] {
            trace::put(
                &mut layer,
                &format!("{name}.distinct_per_min"),
                s.distinct_per_min,
                "count",
            );
            trace::put(
                &mut layer,
                &format!("{name}.chunk_bytes_per_sample"),
                s.chunk_bytes_per_sample,
                "B",
            );
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {} wall {:.2}s",
        args.workload,
        args.seed,
        args.seconds,
        args.traced as u8,
        wall.elapsed().as_secs_f64()
    );
    for (kind, c) in [
        ("batches", ops.batches),
        ("drains", ops.drains),
        ("queries", ops.queries),
        ("ticks", ops.ticks),
    ] {
        println!(
            "ops {kind:<8} attempted {:>8} failed {}",
            c.attempted, c.failed
        );
    }
    for (k, (v, unit)) in &e2e {
        println!("e2e   {k:<28} {v:>14.4} {unit}");
    }
    if args.traced {
        for (k, (v, unit)) in &layer {
            println!("layer {k:<28} {v:>14.4} {unit}");
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let attempted =
        ops.batches.attempted + ops.drains.attempted + ops.queries.attempted + ops.ticks.attempted;
    let failed = ops.batches.failed + ops.drains.failed + ops.queries.failed + ops.ticks.failed;
    let metrics = if args.traced { &layer } else { &e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        attempted.max(1),
        failed,
        json_metrics(metrics)
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
