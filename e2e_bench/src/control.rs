//! Control phase: both of the paper's loop levels, deterministic and
//! single-threaded, with no socket and no disk.
//!
//! * Center level: a `FleetResponder` with threshold, forecast and
//!   anomaly monitors over an `hpc::Cluster` that carries a power
//!   emergency, a partition of two worlds, and a failure cascade, one
//!   after the other, driven by the program's own
//!   `usecases::fleet_control::ClusterControlDriver` one drain period at
//!   a time: `Cluster::run_until` advances the simulation (timed as
//!   `hpc.advance_ms`), then `ClusterControlDriver::run` makes the tick
//!   (health tracking, coverage, the responder, audit mirroring). Its own
//!   `run_until` is then an empty drain at the same instant.
//! * Node level: the Scheduler MAPE-K loop (`scheduler_case::build_loop`)
//!   over a `World` campaign with underestimated walltimes, ticked every
//!   30 simulated seconds for 8 simulated hours.

use crate::stats::{self, ms};
use crate::trace::{self, TimedMonitor};
use crate::{Ops, Phase};
use moda_fleet::control::{
    Bound, ControlConfig, ControlEventKind, FleetMonitor, FleetResponder, RateLimit, ResponseRule,
    ThresholdMonitor,
};
use moda_fleet::HealthPolicy;
use moda_hpc::workload::{generate, WalltimeErrorModel, WorkloadConfig};
use moda_hpc::{
    Cluster, ClusterAction, ClusterConfig, FailureConfig, FaultKind, NodeFault, World, WorldConfig,
};
use moda_obs::Obs;
use moda_scheduler::JobState;
use moda_sim::rng::RngStreams;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::WindowAgg;
use moda_usecases::fleet_control::{
    ClusterControlDriver, FleetAnomalyMonitor, ForecastBreachMonitor,
};
use moda_usecases::harness::{shared, SharedWorld};
use moda_usecases::scheduler_case::{build_loop, SchedulerDomain, SchedulerLoopConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Cluster drain period and controller tick.
const TICK: SimDuration = SimDuration::from_mins(5);
const STALE_AFTER: SimDuration = SimDuration::from_mins(15);
const WORLDS: usize = 4;
/// Warm-up (set-up) end: the uncapped draw is measured here.
const T0: SimTime = SimTime::from_hours(1);
/// Two worlds are partitioned away over `[PARTITION.0, PARTITION.1)`.
const PARTITION: (SimTime, SimTime) = (SimTime::from_hours(6), SimTime::from_hours(8));
const DARK: [usize; 2] = [1, 2];
/// World `SICK` starts failing hard at `CASCADE_AT`.
const CASCADE_AT: SimTime = SimTime::from_hours(10);
const SICK: usize = 3;
const HORIZON: SimTime = SimTime::from_hours(24);

const NODE_TICK: SimDuration = SimDuration::from_secs(30);
/// The node loop ticks a fixed 8 simulated hours (960 ticks) of a
/// campaign that keeps the world busy past its end.
const NODE_HORIZON: SimTime = SimTime::from_hours(8);
const NODE_JOBS: usize = 600;

/// Repetitions per turn; the phase takes two turns a round. One
/// repetition's wall time moves by ±15 % on the shared host, so the
/// median needs many of them.
pub const REPS_PER_TURN: usize = 2;

pub struct Setup {
    cluster: Cluster,
    driver: ClusterControlDriver,
    limit_kw: f64,
    observe_ms: Vec<(String, Rc<RefCell<Vec<f64>>>)>,
    world: SharedWorld,
    sched_loop: moda_core::MapeLoop<SchedulerDomain>,
    loop_cfg: SchedulerLoopConfig,
}

fn policy() -> HealthPolicy {
    HealthPolicy {
        stale_after: STALE_AFTER,
        silent_after: Some(SimDuration::from_mins(45)),
    }
}

/// Build both loops and warm the cluster up to `T0`.
pub fn setup(seed: u64, obs: &Obs) -> Setup {
    let traced = obs.is_enabled();
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: WORLDS,
        world: WorldConfig {
            nodes: 8,
            seed,
            power_period: Some(SimDuration::from_secs(60)),
            ..WorldConfig::default()
        },
        drain_period: TICK,
    });
    for k in 0..WORLDS {
        let jobs = generate(
            &WorkloadConfig {
                n_jobs: 600,
                mean_interarrival_s: 300.0,
                ..WorkloadConfig::default()
            },
            &RngStreams::new(seed.wrapping_add(1000 + k as u64)),
            0,
        );
        cluster.world_mut(k).submit_campaign(jobs);
    }
    for node in DARK {
        cluster.schedule_fault(NodeFault {
            node,
            kind: FaultKind::Partition,
            from: PARTITION.0,
            until: PARTITION.1,
        });
    }
    cluster.run_until(T0);
    let uncapped = cluster
        .fleet_window_agg(
            "facility.power_kw",
            SimDuration::from_mins(30),
            WindowAgg::Mean,
        )
        .expect("warm fleet reports power");
    let limit_kw = uncapped * 0.9;

    let mut responder: FleetResponder<ClusterAction> =
        FleetResponder::new(ControlConfig::default());
    let monitors: Vec<Box<dyn FleetMonitor>> = vec![
        Box::new(ThresholdMonitor {
            name: "fleet-power".into(),
            subsystem: "power".into(),
            metric: "facility.power_kw".into(),
            window: SimDuration::from_mins(30),
            agg: WindowAgg::Mean,
            bound: Bound::Above(limit_kw),
            stale_after: STALE_AFTER,
            base_confidence: 0.95,
        }),
        Box::new(ForecastBreachMonitor {
            name: "queue-forecast".into(),
            subsystem: "sched".into(),
            metric: "sched.queue_len".into(),
            window: SimDuration::from_mins(20),
            agg: WindowAgg::Mean,
            bound: Bound::Above(60.0),
            horizon: SimDuration::from_hours(2),
            min_points: 4,
            stale_after: STALE_AFTER,
            base_confidence: 0.9,
            history: Vec::new(),
        }),
        Box::new(FleetAnomalyMonitor {
            name: "failure-anomaly".into(),
            subsystem: "resilience".into(),
            metric: "sched.failures".into(),
            window: SimDuration::from_mins(30),
            agg: WindowAgg::Sum,
            threshold: 3.0,
            min_deviation: 5.0,
            min_nodes: 4,
            stale_after: STALE_AFTER,
            base_confidence: 0.9,
        }),
    ];
    let mut observe_ms = Vec::new();
    for m in monitors {
        if traced {
            let times = Rc::new(RefCell::new(Vec::new()));
            observe_ms.push((m.name().to_string(), Rc::clone(&times)));
            responder.add_monitor(Box::new(TimedMonitor {
                inner: m,
                times_ms: times,
            }));
        } else {
            responder.add_monitor(m);
        }
    }
    let mut cap = ResponseRule::new(
        "power-cap",
        "fleet-power",
        "power",
        ClusterAction::PowerCap { kw: uncapped * 0.7 },
    );
    cap.escalation_gate = 2;
    cap.cooldown = SimDuration::from_mins(20);
    cap.rate_limit = RateLimit {
        window: SimDuration::from_hours(2),
        max: 4,
    };
    cap.settle = SimDuration::from_mins(10);
    cap.validation_deadline = SimDuration::from_mins(40);
    responder.add_rule(cap);
    let mut repair = ResponseRule::new(
        "repair-world",
        "failure-anomaly",
        "resilience",
        ClusterAction::RepairAndDrain {
            outage: SimDuration::from_mins(10),
        },
    );
    repair.escalation_gate = 2;
    repair.cooldown = SimDuration::from_mins(30);
    repair.rate_limit = RateLimit {
        window: SimDuration::from_hours(2),
        max: 2,
    };
    repair.settle = SimDuration::from_mins(20);
    repair.validation_deadline = SimDuration::from_mins(100);
    responder.add_rule(repair);
    responder.set_obs(obs);

    let world = shared(World::new(WorldConfig {
        nodes: 32,
        seed,
        power_period: None,
        ..WorldConfig::default()
    }));
    world.borrow_mut().submit_campaign(generate(
        &WorkloadConfig {
            n_jobs: NODE_JOBS,
            mean_interarrival_s: 60.0,
            walltime_error: WalltimeErrorModel {
                underestimate_frac: 0.3,
                ..WalltimeErrorModel::default()
            },
            ..WorkloadConfig::default()
        },
        &RngStreams::new(seed ^ 0xC0FFEE),
        0,
    ));
    let loop_cfg = SchedulerLoopConfig::default();
    let sched_loop = build_loop(world.clone(), loop_cfg.clone());
    Setup {
        cluster,
        driver: ClusterControlDriver::new(responder, TICK, policy(), "facility.power_kw", T0),
        limit_kw,
        observe_ms,
        world,
        sched_loop,
        loop_cfg,
    }
}

/// Timings pooled over the repetitions.
#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    loop_wall_s: Vec<f64>,
    advance_ms: Vec<f64>,
    fleet_tick_ms: Vec<f64>,
    node_tick_ms: Vec<f64>,
    observe_ms: std::collections::BTreeMap<String, Vec<f64>>,
    applied: usize,
    held: usize,
    blocked: usize,
}

/// The control phase across its repetitions: each `rep` sets up and
/// runs both loops on a fresh scenario from its own sub-seed, `finish`
/// pools the timings.
pub struct Run {
    seed: u64,
    obs: Obs,
    pool: Pool,
    phase: Phase,
}

impl Run {
    pub fn new(seed: u64, traced: bool) -> Self {
        Run {
            seed,
            obs: if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            pool: Pool::default(),
            phase: Phase::default(),
        }
    }

    /// [`REPS_PER_TURN`] repetitions.
    pub fn turn(&mut self, ops: &mut Ops) {
        for _ in 0..REPS_PER_TURN {
            self.rep(ops);
        }
    }

    fn rep(&mut self, ops: &mut Ops) {
        let r = self.pool.setup_s.len() as u64;
        let sub_seed = self.seed.wrapping_mul(1 << 8).wrapping_add(r);
        let (s, t) = stats::timed(|| setup(sub_seed, &self.obs));
        self.pool.setup_s.push(t.as_secs_f64());
        run_once(s, &mut self.pool, &mut self.phase, ops);
    }

    /// The phase, and the median set-up time of one repetition.
    pub fn finish(self) -> (Phase, f64) {
        let Run {
            obs,
            mut pool,
            mut phase,
            ..
        } = self;
        let reps = pool.loop_wall_s.len();
        let p = |v: &mut Vec<f64>| stats::median(v);
        let advance_total: f64 = pool.advance_ms.iter().sum();
        let fleet_total: f64 = pool.fleet_tick_ms.iter().sum();
        let node_total: f64 = pool.node_tick_ms.iter().sum();
        let wall_total: f64 = pool.loop_wall_s.iter().sum::<f64>() * 1e3;
        let staged = advance_total + fleet_total + node_total;
        phase.notes.push(format!(
            "{reps} repetitions, {} center ticks and {} node ticks in all; stages (hpc advance \
             {advance_total:.1} ms + fleet ticks {fleet_total:.1} ms + node ticks \
             {node_total:.1} ms) = {staged:.1} ms of {wall_total:.1} ms summed loop_wall_s \
             ({:.1} %)",
            pool.fleet_tick_ms.len(),
            pool.node_tick_ms.len(),
            100.0 * staged / wall_total
        ));
        if (staged / wall_total - 1.0).abs() > 0.02 {
            phase.errors.push(format!(
                "control: stage times cover {:.1} % of loop_wall_s (tolerance 2 %)",
                100.0 * staged / wall_total
            ));
        }
        // Reported, not gated: a ~20 µs tick right after the simulation
        // step runs cache-cold and moves with the host by 30–50 %.
        phase.notes.push(format!(
            "center tick p50 {:.4} ms over {} ticks",
            p(&mut pool.fleet_tick_ms),
            pool.fleet_tick_ms.len()
        ));
        let walls: Vec<String> = pool.loop_wall_s.iter().map(|w| format!("{w:.3}")).collect();
        phase
            .notes
            .push(format!("loop wall per repetition, s: {}", walls.join(" ")));
        phase.e2e("node_tick_p50_ms", p(&mut pool.node_tick_ms), "ms");
        phase.e2e("loop_wall_s", p(&mut pool.loop_wall_s), "s");

        let l = &mut phase.layer;
        let tick_p50 = trace::obs_quantile(&obs, "control.tick_ns", 0.5, 1e-6);
        trace::put(l, "control.tick_ms.p50", tick_p50, "ms");
        // The driver's tick beyond the responder's own: health tracking,
        // the coverage query, audit mirroring and the empty drain.
        let responder_ms = obs.latency("control.tick_ns").snapshot().sum_ns as f64 * 1e-6;
        trace::put(
            l,
            "control.driver_rest_ms",
            (fleet_total - responder_ms) / reps as f64,
            "ms",
        );
        for (name, times) in pool.observe_ms.iter_mut() {
            trace::put(l, &format!("control.observe_ms.{name}.p50"), p(times), "ms");
        }
        let reps = reps as f64;
        trace::put(l, "control.applied", pool.applied as f64 / reps, "count");
        trace::put(l, "control.held", pool.held as f64 / reps, "count");
        trace::put(l, "control.blocked", pool.blocked as f64 / reps, "count");
        trace::put(l, "hpc.advance_ms", advance_total / reps, "ms");
        trace::put(l, "control.fleet_ticks_ms", fleet_total / reps, "ms");
        trace::put(l, "mape.ticks_ms", node_total / reps, "ms");
        trace::put(
            l,
            "control.stage_share_of_loop_wall",
            staged / wall_total,
            "ratio",
        );
        (phase, p(&mut pool.setup_s))
    }
}

fn run_once(mut s: Setup, pool: &mut Pool, phase: &mut Phase, ops: &mut Ops) {
    let mut repaired_at = None;
    let started = Instant::now();

    // ---- center level ------------------------------------------------
    let c = &mut s.cluster;
    let mut t = T0;
    let mut seen = 0;
    while t.0 < HORIZON.0 {
        t += TICK;
        if t == CASCADE_AT {
            c.world_mut(SICK)
                .set_failure(Some(FailureConfig { node_mtbf_s: 400.0 }));
        }
        let a = Instant::now();
        c.run_until(t);
        pool.advance_ms.push(ms(a.elapsed()));
        ops.ticks.attempted += 1;
        let tick = Instant::now();
        s.driver.run(c, t);
        pool.fleet_tick_ms.push(ms(tick.elapsed()));
        // A tick fails when the actuator failed one of its actions.
        let log = s.driver.responder.log();
        if log
            .events()
            .filter(|e| e.seq >= seen)
            .any(|e| matches!(e.kind, ControlEventKind::ActionFailed))
        {
            ops.ticks.failed += 1;
        }
        seen = log.total();
        if repaired_at.is_none() && c.world(SICK).config().failure.is_none() && t > CASCADE_AT {
            repaired_at = Some(t);
        }
    }

    // ---- node level --------------------------------------------------
    let mut t = SimTime::ZERO;
    while t.0 < NODE_HORIZON.0 {
        t += NODE_TICK;
        let a = Instant::now();
        s.world.borrow_mut().run_until(t);
        pool.advance_ms.push(ms(a.elapsed()));
        ops.ticks.attempted += 1;
        let tick = Instant::now();
        s.sched_loop.tick(t);
        pool.node_tick_ms.push(ms(tick.elapsed()));
    }
    pool.loop_wall_s.push(started.elapsed().as_secs_f64());
    for (name, times) in &s.observe_ms {
        pool.observe_ms
            .entry(name.clone())
            .or_default()
            .extend(times.borrow().iter());
    }

    // ---- checks --------------------------------------------------------
    let errors = &mut phase.errors;
    if s.world.borrow().drained() {
        errors.push("control: the campaign drained before the node horizon".into());
    }
    if !s.driver.responder.promoted("power-cap") {
        errors.push("control: the power cap was never promoted".into());
    }
    match s.driver.finish(&s.cluster) {
        Ok(trace) => {
            let summary = trace.summary;
            // Fleet-wide actions are not required: when the canaries
            // alone bring the fleet under budget, the responder rightly
            // stops there. `verify_audit` certifies that any fleet-wide
            // action came after a validated canary.
            if summary.canary == 0 {
                errors.push(format!("control: no canary actuation: {summary:?}"));
            }
            pool.applied += summary.applied as usize;
            pool.held += summary.held as usize;
            pool.blocked += summary.blocked as usize;
            let partial: Vec<_> = trace.ticks.iter().filter(|k| k.coverage < 1.0).collect();
            let applied_on_partial: usize = partial.iter().map(|k| k.applied).sum();
            if applied_on_partial > 0 {
                errors.push(format!(
                    "control: {applied_on_partial} actions applied on a partial view"
                ));
            }
            if partial.is_empty() {
                errors.push("control: the partition never degraded coverage".into());
            }
        }
        Err(violations) => errors.push(format!("control audit: {violations:?}")),
    }
    let final_kw = s
        .cluster
        .fleet_window_agg(
            "facility.power_kw",
            SimDuration::from_mins(30),
            WindowAgg::Mean,
        )
        .unwrap_or(f64::INFINITY);
    if final_kw > s.limit_kw {
        errors.push(format!(
            "control: fleet draw {final_kw:.1} kW stays above the {:.1} kW budget",
            s.limit_kw
        ));
    }
    if repaired_at.is_none() {
        errors.push("control: the failure cascade was never repaired".into());
    }
    let w = s.world.borrow();
    let max_ext = s.loop_cfg.max_extensions_per_job;
    let acct = w.sched.accounting();
    let mut by_state = [0u64; 7];
    for job in w.sched.jobs() {
        if job.extensions > max_ext {
            errors.push(format!(
                "control: job {:?} got {} extensions (max {max_ext})",
                job.req.id, job.extensions
            ));
        }
        let i = match job.state {
            JobState::Pending => 0,
            JobState::Running => 1,
            JobState::Completed => 2,
            JobState::TimedOut => 3,
            JobState::MaintenanceKilled => 4,
            JobState::Failed => 5,
            JobState::Cancelled => 6,
        };
        by_state[i] += 1;
    }
    let balance = [
        ("completed", by_state[2], acct.completed),
        ("timed out", by_state[3], acct.timed_out),
        ("maintenance killed", by_state[4], acct.maintenance_killed),
        ("failed", by_state[5], acct.failed),
        ("cancelled", by_state[6], acct.cancelled),
        ("completed attempts", acct.completed, w.metrics.completed),
    ];
    for (what, jobs, counted) in balance {
        if jobs != counted {
            errors.push(format!(
                "control: campaign accounting: {what}: {jobs} jobs vs {counted} counted"
            ));
        }
    }
    let submitted = w.metrics.roots_total;
    if submitted == 0 || submitted > NODE_JOBS as u64 || w.metrics.roots_completed > submitted {
        errors.push(format!(
            "control: campaign roots: {submitted} submitted, {} completed, {NODE_JOBS} generated",
            w.metrics.roots_completed
        ));
    }
}
