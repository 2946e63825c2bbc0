//! `chaos_mix`: `accl-chaos` experiments on 8 nodes over TCP. Seeds rotate
//! through the default transient mix (drop / corrupt / duplicate /
//! degrade) and the overload mix; every experiment is a fresh cluster and
//! one allreduce with every invariant checked.
//!
//! `chaos_membership` runs the membership mix (crash / restart /
//! partition, then rejoin) the same way. It is kept out of `chaos_mix`
//! because some of its schedules fail on 8 nodes (see `README.md`).
//!
//! The harness reports invariants and counts but no latencies, so the
//! benchmark replays each of the leading experiments on a cluster it
//! builds the same way and reads the driver records there. The replay
//! must reproduce the harness's per-rank outcomes (and, outside the
//! membership mix, its exact event count); any difference fails the run.

use std::time::Instant;

use accl_chaos::{workload, CollKind, SweepConfig, WorkloadSpec};
use accl_core::{
    AcclCluster, AlgoConfig, BufLoc, CclError, ClusterConfig, CollOp, CollSpec, DType, DriverDone,
    HostOp, ReduceFn, RetryPolicy, Transport,
};
use accl_net::{ChaosProfile, FaultEvent, FaultPlan};
use accl_sim::prelude::*;

use crate::layers::Counters;
use crate::report::Outcome;
use crate::util::{first_mismatch, i32_sum, median, peak_rss_mib, quantile, secs, timed, SeedRng};
use crate::RunArgs;

const NODES: usize = 8;
/// Elements (i32) per rank: the harness's overload and membership sweep
/// size, used for all three mixes so latencies share one scale.
const COUNT: u64 = 16_384;
/// The harness's engine watchdog and driver retry budget
/// (`accl_chaos::workload`), mirrored by the replay.
const WATCHDOG_US: u64 = 30_000;
const RETRIES: u32 = 4;
/// Experiments generated per run; runs longer than this cycle the pool.
const POOL: usize = 1024;
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Transient,
    Overload,
    Membership,
}

impl Mix {
    fn sweep(self) -> SweepConfig {
        let base = SweepConfig {
            nodes: NODES,
            count: COUNT,
            transport: Transport::Tcp,
            ..SweepConfig::new(1)
        };
        let n = NODES as u32;
        match self {
            Mix::Transient => SweepConfig {
                profile: ChaosProfile::default_profile(n),
                ..base
            },
            Mix::Overload => SweepConfig {
                overload: true,
                profile: ChaosProfile::overload_profile(n),
                ..base
            },
            Mix::Membership => SweepConfig {
                membership: true,
                profile: ChaosProfile::membership_profile(n),
                ..base
            },
        }
    }
}

/// One generated experiment: the workload and its explicit fault schedule.
struct Experiment {
    mix: Mix,
    spec: WorkloadSpec,
    events: Vec<FaultEvent>,
}

/// The mixes `chaos_mix` rotates through.
pub const CHAOS_MIX: &[Mix] = &[Mix::Transient, Mix::Overload];
/// The mix of `chaos_membership`.
pub const MEMBERSHIP_MIX: &[Mix] = &[Mix::Membership];

/// Generates the run's experiments from `seed`: experiment `i` runs mix
/// `i mod mixes.len()` under a chaos seed drawn from the run seed.
fn plans(seed: u64, n: usize, mixes: &[Mix]) -> Vec<Experiment> {
    let mut rng = SeedRng::new(seed).fork(7);
    (0..n)
        .map(|i| {
            let mix = mixes[i % mixes.len()];
            let sweep = mix.sweep();
            let chaos_seed = rng.next_u64() >> 16;
            let mut spec = sweep.spec(chaos_seed);
            spec.kind = CollKind::AllReduce;
            Experiment {
                mix,
                spec,
                events: sweep.plan(chaos_seed).to_events(),
            }
        })
        .collect()
}

/// What the replay of one experiment observed.
#[derive(Default)]
struct Replay {
    /// Per-rank driver records (empty if the replay wedged).
    records: Vec<DriverDone>,
    counts: Counters,
    build_s: f64,
    write_s: f64,
    run_s: f64,
    read_s: f64,
    queue_depth_max: usize,
    problem: Option<String>,
}

impl Replay {
    fn results(&self) -> Vec<Result<(), CclError>> {
        self.records.iter().map(|d| d.result).collect()
    }

    /// The slowest rank's `DriverDone::total`.
    fn latency(&self) -> Dur {
        self.records
            .iter()
            .map(|d| d.total)
            .max()
            .unwrap_or(Dur::ZERO)
    }
}

/// Rebuilds the harness's cluster for `x` and reruns its first phase,
/// checking every completed rank against the golden sum.
fn replay(x: &Experiment, data: &mut SeedRng) -> Replay {
    let spec = &x.spec;
    let mut cfg = ClusterConfig::coyote_rdma(spec.nodes);
    cfg.transport = spec.transport;
    cfg.seed = spec.seed;
    cfg.cclo.collective_timeout_us = Some(WATCHDOG_US);
    cfg.tcp.verify_fcs = spec.verify_fcs;
    if spec.overload {
        cfg = cfg.with_overload_limits();
    }
    let (mut c, build_s) = timed(|| AcclCluster::build(cfg));
    let mut r = Replay {
        build_s,
        ..Replay::default()
    };
    c.set_retry_policy(RetryPolicy::retries(RETRIES));
    c.set_algo_config(AlgoConfig {
        allreduce_ring_min_bytes: 1,
        ..AlgoConfig::default()
    });
    c.set_fault_plan(FaultPlan::from_events(&x.events));
    let mut inputs = Vec::new();
    let mut programs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..spec.nodes {
        let dst = c.alloc(rank, BufLoc::Device, spec.count * 4);
        let src = c.alloc(rank, BufLoc::Device, spec.count * 4);
        let input = data.bytes(spec.count as usize * 4);
        r.write_s += timed(|| c.write(&src, &input)).1;
        inputs.push(input);
        programs.push(vec![HostOp::Coll(
            CollSpec::new(CollOp::AllReduce, spec.count, DType::I32)
                .src(src)
                .dst(dst)
                .func(ReduceFn::Sum),
        )]);
        dsts.push(dst);
    }
    let (records, run_s) = timed(|| c.try_run_host_programs(programs));
    r.run_s = run_s;
    r.queue_depth_max = c.sim.last_run_summary().map_or(0, |s| s.max_queue_depth);
    r.counts = Counters::read(&c);
    let records = match records {
        Ok(records) => records,
        Err(why) => {
            r.problem = Some(format!("replay wedged: {why}"));
            return r;
        }
    };
    let golden = i32_sum(&inputs);
    for (rank, rec) in records.iter().enumerate() {
        let done = rec[0].breakdown.expect("collective record");
        r.records.push(done);
        if done.result.is_ok() {
            let (got, read_s) = timed(|| c.read(&dsts[rank]));
            r.read_s += read_s;
            if let Some(byte) = first_mismatch(&got, &golden) {
                r.problem = Some(format!(
                    "replay rank {rank} completed with byte {byte} wrong"
                ));
            }
        }
    }
    r
}

/// Runs `f`, turning a panic inside the program into an error message, so
/// one defective schedule is reported as a wrong output instead of ending
/// the run without a result.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string())
    })
}

pub fn run(mixes: &[Mix], args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let (sim_experiments, setups) = if args.tiny { (3, 1) } else { (24, 3) };
    let mut times = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..setups {
        let (p, s) = timed(|| plans(args.seed, POOL, mixes));
        times.push(s);
        pool = p;
    }

    let mut data = SeedRng::new(args.seed).fork(8);
    let mut walls = vec![Vec::new(); mixes.len()];
    let mut lat = Vec::new();
    let mut goodput = Vec::new();
    let mut rss = f64::NAN;
    let mut counts = Counters::default();
    let mut replays: Vec<Replay> = Vec::new();
    let mut rank_calls = 0u64;
    let mut rank_failed = 0u64;
    let (mut dropped, mut corrupted, mut retries, mut violations) = (0u64, 0u64, 0u64, 0u64);
    let mut i = 0usize;
    while i < sim_experiments || (!args.trace && secs(start) < args.seconds) {
        // Set-up is a millisecond of allocation, which a short stall on
        // the host can double; one sample per experiment spreads the
        // samples over the whole run.
        if i > 0 {
            let (p, s) = timed(|| plans(args.seed, POOL, mixes));
            times.push(s);
            pool = p;
        }
        let x = &pool[i % POOL];
        let stratum = i % mixes.len();
        let what = format!(
            "experiment {i} ({:?} mix, chaos seed {})",
            x.mix, x.spec.seed
        );
        i += 1;
        let (report, wall) =
            timed(|| guarded(|| workload::run(&x.spec, FaultPlan::from_events(&x.events))));
        walls[stratum].push(wall);
        out.attempted += 1;
        let report = match report {
            Ok(r) => r,
            Err(why) => {
                out.failed += 1;
                violations += 1;
                out.problem(format!(
                    "{what}: the program panicked: {why}; events {:?}",
                    x.events
                ));
                continue;
            }
        };
        if let Some(v) = &report.violation {
            out.failed += 1;
            violations += 1;
            out.problem(format!("{what}: {v}; events {:?}", x.events));
        }
        if replays.len() >= sim_experiments {
            continue;
        }
        rank_calls += NODES as u64;
        rank_failed += if report.results.is_empty() {
            NODES as u64
        } else {
            report.results.iter().filter(|r| r.is_err()).count() as u64
        };
        dropped += report.frames_dropped;
        corrupted += report.corrupted_drops;
        retries += report.retries;
        let Ok(r) = guarded(|| replay(x, &mut data)) else {
            out.problem(format!("{what}: the replay panicked"));
            continue;
        };
        if let Some(p) = &r.problem {
            out.problem(format!("{what}: {p}"));
        }
        if r.results() != report.results
            || (x.mix != Mix::Membership && r.counts.events != report.events_executed)
        {
            out.problem(format!(
                "{what}: replay diverged from the harness ({} vs {} events)",
                r.counts.events, report.events_executed
            ));
        }
        let latency = r.latency().as_us_f64();
        lat.push(latency);
        let ok = r.records.iter().all(|d| d.result.is_ok());
        goodput.push(if ok {
            (COUNT * 4 * 8) as f64 / (latency * 1e3)
        } else {
            0.0
        });
        counts += r.counts;
        replays.push(r);
        if replays.len() == sim_experiments {
            rss = peak_rss_mib();
        }
    }
    if lat.is_empty() {
        out.problem("no experiment could be replayed");
        lat.push(f64::NAN);
        goodput.push(f64::NAN);
    }
    out.set("setup_s", median(&times));
    out.meta("setup_samples", times.len());
    // The mixes differ in cost; the mean of the per-mix medians weighs
    // them the same whatever the seed draws.
    let per_mix: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    out.set(
        "host_wall_s",
        per_mix.iter().sum::<f64>() / per_mix.len() as f64,
    );
    out.set(
        "host_peak_rss_mib",
        if rss.is_nan() { peak_rss_mib() } else { rss },
    );
    out.set_latencies(&lat);
    // Latency under injected faults is heavy-tailed (an engine watchdog
    // firing costs 30 ms against a 70 µs collective), so the rates are
    // those of the median experiment rather than sums over a few dozen.
    out.set("sim_goodput_gbps", median(&goodput));
    out.set("sim_throughput_per_s", 1e6 / median(&lat));
    for (mix, (w, m)) in mixes.iter().zip(walls.iter().zip(&per_mix)) {
        out.meta(
            &format!("host_wall_{mix:?}"),
            format!("median {m:.6} s of {} experiments", w.len()),
        );
    }
    out.meta(
        "typed_errors",
        format!("{rank_failed} of {rank_calls} rank-calls ended in a typed error"),
    );
    counts.report(out);
    out.set("chaos.frames_dropped", dropped as f64);
    out.set("chaos.corrupted_drops", corrupted as f64);
    out.set("chaos.retries", retries as f64);
    out.set("chaos.violations", violations as f64);
    let col = |f: fn(&Replay) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
    let run_s: f64 = col(|r| r.run_s).iter().sum();
    out.set("core.build_s", median(&col(|r| r.build_s)));
    out.set("mem.write_s", median(&col(|r| r.write_s)));
    out.set("mem.read_s", median(&col(|r| r.read_s)));
    out.set(
        "sim.host_ns_per_event",
        run_s / counts.events.max(1) as f64 * 1e9,
    );
    out.set(
        "sim.queue_depth_max",
        replays.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
    );
    let phase = |f: fn(&DriverDone) -> Dur| {
        let v: Vec<f64> = replays
            .iter()
            .flat_map(|r| r.records.iter().map(|d| f(d).as_us_f64()))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            quantile(&v, 0.5)
        }
    };
    out.set("core.invoke_us", phase(|d| d.invoke));
    out.set("core.collective_us", phase(|d| d.collective));
}
