//! `coll_small` and `coll_large`: an 8-rank Coyote + RDMA cluster with
//! device buffers (the F2F setting of Fig. 10), where every rank runs a
//! host program of back-to-back collectives, one call in flight per rank.
//!
//! One *pass* writes every call's inputs, runs the program on all ranks
//! and reads every output back; each pass is checked against a CPU golden
//! result. Simulated metrics come from a fixed number of leading passes,
//! so they are a pure function of the seed; host times come from every
//! pass the run had time for.

use std::time::Instant;

use accl_core::driver::ports as driver_ports;
use accl_core::host::ports as host_ports;
use accl_core::{
    AcclCluster, BufLoc, BufferHandle, ClusterConfig, CollOp, CollSpec, DType, DriverDone, HostOp,
    HostProc, ReduceFn,
};
use accl_sim::prelude::*;

use crate::layers::{breakdowns, kernel_ns_per_event, Counters, HostSplit};
use crate::report::Outcome;
use crate::util::{first_mismatch, i32_sum, median, peak_rss_mib, secs, timed, SeedRng};
use crate::RunArgs;

const RANKS: usize = 8;
const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
/// The six collectives of Fig. 10, in program order.
const OPS: [CollOp; 6] = [
    CollOp::Bcast,
    CollOp::Scatter,
    CollOp::Gather,
    CollOp::Reduce,
    CollOp::AllReduce,
    CollOp::AllToAll,
];

/// One workload's call list and run lengths.
pub struct Shape {
    /// `(op, bytes per rank block)` in program order.
    pub calls: Vec<(CollOp, u64)>,
    /// Leading passes the simulated metrics and per-layer counts cover.
    pub sim_passes: usize,
    /// Passes timed on one cluster before the loop moves to a fresh one.
    /// Every `try_run_host_programs` call adds components to the cluster
    /// and later passes run slower for it, so without a fixed epoch the
    /// median pass would depend on how many passes the host managed.
    pub epoch_passes: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

impl Shape {
    /// Latency-bound traffic: the six collectives at 1, 4 and 16 KiB.
    pub fn small(tiny: bool) -> Shape {
        let sizes: &[u64] = if tiny {
            &[KIB]
        } else {
            &[KIB, 4 * KIB, 16 * KIB]
        };
        Shape {
            calls: sizes.iter().flat_map(|&b| OPS.map(|op| (op, b))).collect(),
            // 60 passes x 18 calls: over 1000 latency samples, so more
            // than ten lie beyond the p99.
            sim_passes: if tiny { 1 } else { 60 },
            epoch_passes: if tiny { 1 } else { 120 },
            setups: if tiny { 1 } else { 3 },
        }
    }

    /// Bandwidth-bound traffic: the six collectives at 256 KiB and 1 MiB,
    /// plus allreduce at 4 MiB.
    pub fn large(tiny: bool) -> Shape {
        let sizes: &[u64] = if tiny { &[64 * KIB] } else { &[256 * KIB, MIB] };
        let mut calls: Vec<(CollOp, u64)> =
            sizes.iter().flat_map(|&b| OPS.map(|op| (op, b))).collect();
        if !tiny {
            calls.push((CollOp::AllReduce, 4 * MIB));
        }
        Shape {
            calls,
            // Roots move from pass to pass; 16 passes average the seed's
            // root choices out of the tail.
            sim_passes: if tiny { 1 } else { 16 },
            epoch_passes: if tiny { 1 } else { 32 },
            setups: if tiny { 1 } else { 3 },
        }
    }
}

/// `(source, destination)` bytes one rank allocates for `op` at `bytes`
/// per block. Rooted calls allocate the root-sized buffers on every rank,
/// since the root moves from pass to pass.
fn buffer_lens(op: CollOp, bytes: u64) -> (u64, u64) {
    let n = RANKS as u64;
    match op {
        CollOp::Bcast => (0, bytes),
        CollOp::Scatter => (n * bytes, bytes),
        CollOp::Gather => (bytes, n * bytes),
        CollOp::AllToAll => (n * bytes, n * bytes),
        _ => (bytes, bytes),
    }
}

/// Whether `op` takes one input at the root rather than one per rank.
fn rooted_input(op: CollOp) -> bool {
    matches!(op, CollOp::Bcast | CollOp::Scatter)
}

/// Whether `rank` holds an output of `op` rooted at `root`.
fn has_output(op: CollOp, rank: usize, root: usize) -> bool {
    match op {
        CollOp::Bcast => rank != root,
        CollOp::Gather | CollOp::Reduce => rank == root,
        _ => true,
    }
}

/// One call slot of the program: its buffers on every rank, its inputs
/// (one per rank, or one at the root) and, for reductions, the golden sum.
struct Call {
    op: CollOp,
    bytes: u64,
    src: Vec<BufferHandle>,
    dst: Vec<BufferHandle>,
    inputs: Vec<Vec<u8>>,
    sum: Option<Vec<u8>>,
}

impl Call {
    /// Checks rank `rank`'s read-back `got` against the golden result.
    fn check(&self, rank: usize, root: usize, got: &[u8]) -> Result<(), String> {
        let b = self.bytes as usize;
        fn block(v: &[u8], b: usize, i: usize) -> &[u8] {
            &v[i * b..(i + 1) * b]
        }
        // The golden result, as consecutive pieces of the inputs.
        let want: Vec<&[u8]> = match self.op {
            CollOp::Bcast => vec![&self.inputs[0]],
            CollOp::Scatter => vec![block(&self.inputs[0], b, rank)],
            CollOp::Gather => self.inputs.iter().map(Vec::as_slice).collect(),
            CollOp::Reduce | CollOp::AllReduce => {
                vec![self.sum.as_deref().expect("reduction golden")]
            }
            CollOp::AllToAll => (0..RANKS)
                .map(|from| block(&self.inputs[from], b, rank))
                .collect(),
            other => unreachable!("no golden for {other:?}"),
        };
        let mut offset = 0;
        for piece in want {
            if let Some(i) = first_mismatch(&got[offset.min(got.len())..], piece) {
                return Err(format!(
                    "{:?} {} B rooted at {root}: rank {rank} byte {} differs from the golden result",
                    self.op,
                    self.bytes,
                    offset + i
                ));
            }
            offset += piece.len();
        }
        Ok(())
    }

    fn spec(&self, rank: usize, root: usize) -> CollSpec {
        let mut s = CollSpec::new(self.op, self.bytes / 4, DType::I32)
            .dst(self.dst[rank])
            .root(root as u32)
            .func(ReduceFn::Sum);
        if self.op != CollOp::Bcast {
            s = s.src(self.src[rank]);
        }
        s
    }
}

/// A built cluster with its call slots, ready to run passes.
pub struct Bench {
    pub cluster: AcclCluster,
    /// Host seconds `AcclCluster::build` took.
    build_s: f64,
    calls: Vec<Call>,
    rng: SeedRng,
    passes: usize,
}

/// What one pass observed.
#[derive(Default)]
pub struct Pass {
    pub write_s: f64,
    pub run_s: f64,
    pub read_s: f64,
    /// Per call: (bytes, slowest rank's `DriverDone::total`).
    pub latencies: Vec<(u64, Dur)>,
    /// Every rank-call's driver record.
    pub records: Vec<DriverDone>,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.write_s + self.run_s + self.read_s
    }
}

/// How a pass drives the simulator.
pub enum Drive<'a> {
    /// Through `AcclCluster::try_run_host_programs`, as applications do.
    Run,
    /// The benchmark posts the host programs itself and steps the kernel,
    /// charging each step's host time to a crate.
    Step(&'a mut HostSplit, f64),
}

impl Bench {
    /// Builds the cluster, allocates every call's buffers and generates
    /// the inputs from `seed`.
    pub fn setup(shape: &Shape, seed: u64) -> Bench {
        let mut cfg = ClusterConfig::coyote_rdma(RANKS);
        cfg.seed = seed;
        let (mut cluster, build_s) = timed(|| AcclCluster::build(cfg));
        let rng = SeedRng::new(seed);
        let mut data = rng.fork(1);
        let calls = shape
            .calls
            .iter()
            .map(|&(op, bytes)| {
                let (src_len, dst_len) = buffer_lens(op, bytes);
                let src = (0..RANKS)
                    .map(|r| cluster.alloc(r, BufLoc::Device, src_len.max(4)))
                    .collect();
                let dst = (0..RANKS)
                    .map(|r| cluster.alloc(r, BufLoc::Device, dst_len))
                    .collect();
                let (count, len) = if rooted_input(op) {
                    (1, src_len.max(dst_len))
                } else {
                    (RANKS, src_len)
                };
                let inputs = (0..count).map(|_| data.bytes(len as usize)).collect();
                Call {
                    op,
                    bytes,
                    src,
                    dst,
                    inputs,
                    sum: None,
                }
            })
            .collect();
        Bench {
            cluster,
            build_s,
            calls,
            rng,
            passes: 0,
        }
    }

    /// Computes the reduction goldens (the benchmark's own work, kept out
    /// of every timed phase).
    pub fn prepare_goldens(&mut self) {
        for call in &mut self.calls {
            if matches!(call.op, CollOp::Reduce | CollOp::AllReduce) {
                call.sum = Some(i32_sum(&call.inputs));
            }
        }
    }

    /// The root of each call in pass `p`, drawn from the seed.
    fn roots(&self, p: usize) -> Vec<usize> {
        let mut r = self.rng.fork(1000 + p as u64);
        self.calls
            .iter()
            .map(|c| match c.op {
                CollOp::AllReduce | CollOp::AllToAll => 0,
                _ => (r.next_u64() % RANKS as u64) as usize,
            })
            .collect()
    }

    /// Runs one pass: poison the outputs (untimed), write inputs, run the
    /// program on every rank, read back and check every output.
    pub fn pass(&mut self, drive: Drive<'_>) -> Pass {
        let p = self.passes;
        self.passes += 1;
        let roots = self.roots(p);
        let mut out = Pass::default();
        // Outputs start from a known-wrong pattern, so a call that wrote
        // nothing cannot pass on the previous pass's results.
        let longest = self.calls.iter().map(|c| c.dst[0].len).max().unwrap_or(0);
        let poison = vec![0xa5u8; longest as usize];
        for (call, &root) in self.calls.iter().zip(&roots) {
            for r in (0..RANKS).filter(|&r| has_output(call.op, r, root)) {
                self.cluster
                    .write(&call.dst[r], &poison[..call.dst[r].len as usize]);
            }
        }
        let ((), write_s) = timed(|| {
            for (call, &root) in self.calls.iter().zip(&roots) {
                match call.op {
                    CollOp::Bcast => self.cluster.write(&call.dst[root], &call.inputs[0]),
                    CollOp::Scatter => self.cluster.write(&call.src[root], &call.inputs[0]),
                    _ => {
                        for r in 0..RANKS {
                            self.cluster.write(&call.src[r], &call.inputs[r]);
                        }
                    }
                }
            }
        });
        out.write_s = write_s;
        let programs: Vec<Vec<HostOp>> = (0..RANKS)
            .map(|r| {
                self.calls
                    .iter()
                    .zip(&roots)
                    .map(|(call, &root)| HostOp::Coll(call.spec(r, root)))
                    .collect()
            })
            .collect();
        let t = Instant::now();
        let records = match drive {
            Drive::Run => self.cluster.try_run_host_programs(programs),
            Drive::Step(split, kernel_ns) => self.step_programs(programs, split, kernel_ns),
        };
        out.run_s = secs(t);
        let records = match records {
            Ok(r) => r,
            Err(why) => {
                out.failed = (RANKS * self.calls.len()) as u64;
                out.problems
                    .push(format!("pass {p} did not complete: {why}"));
                return out;
            }
        };
        for (i, call) in self.calls.iter().enumerate() {
            let mut slowest = Dur::ZERO;
            for rank_records in &records {
                let done = rank_records[i].breakdown.expect("collective record");
                slowest = slowest.max(done.total);
                if done.result.is_err() {
                    out.failed += 1;
                }
                out.records.push(done);
            }
            out.latencies.push((call.bytes, slowest));
        }
        // Each output is checked as soon as it is read, so at most one
        // read-back buffer is alive; only the reads are timed.
        for (call, &root) in self.calls.iter().zip(&roots) {
            for r in (0..RANKS).filter(|&r| has_output(call.op, r, root)) {
                let (got, read_s) = timed(|| self.cluster.read(&call.dst[r]));
                out.read_s += read_s;
                if let Err(e) = call.check(r, root, &got) {
                    out.problems.push(format!("pass {p}: {e}"));
                }
            }
        }
        out
    }

    /// Posts one [`HostProc`] per rank and drains the simulator step by
    /// step through `split`.
    fn step_programs(
        &mut self,
        programs: Vec<Vec<HostOp>>,
        split: &mut HostSplit,
        kernel_ns: f64,
    ) -> Result<Vec<Vec<accl_core::host::OpRecord>>, String> {
        let drivers: Vec<ComponentId> = (0..RANKS).map(|i| self.cluster.node(i).driver).collect();
        let sim = &mut self.cluster.sim;
        let start = sim.now();
        let mut procs = Vec::new();
        for (i, ops) in programs.into_iter().enumerate() {
            let driver = Endpoint::new(drivers[i], driver_ports::CALL);
            let id = sim.add(
                format!("n{i}.hostproc.{}", start.as_ps()),
                HostProc::new(driver, ops),
            );
            sim.post(Endpoint::new(id, host_ports::START), start, ());
            procs.push(id);
        }
        split.drain(sim, kernel_ns);
        procs
            .iter()
            .map(|&id| {
                let proc = sim.component::<HostProc>(id);
                proc.finished_at()
                    .map(|_| proc.records().to_vec())
                    .ok_or_else(|| "a host program did not finish".to_string())
            })
            .collect()
    }
}

/// Sets up `shape.setups` times and keeps the last cluster; returns it
/// with the set-up seconds and the cluster-build seconds of every set-up.
fn setup_median(shape: &Shape, seed: u64) -> (Bench, Vec<f64>, Vec<f64>) {
    let mut times = Vec::new();
    let mut builds = Vec::new();
    let mut bench = None;
    for _ in 0..shape.setups {
        drop(bench.take());
        let (b, s) = timed(|| Bench::setup(shape, seed));
        times.push(s);
        builds.push(b.build_s);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    bench.prepare_goldens();
    (bench, times, builds)
}

/// Accumulates passes into the run's outcome.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    run_s: Vec<f64>,
    write_s: Vec<f64>,
    read_s: Vec<f64>,
    latencies: Vec<(u64, Dur)>,
    records: Vec<DriverDone>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, pass: &Pass, calls: usize, keep_sim: bool, out: &mut Outcome) {
        self.walls.push(pass.wall_s());
        self.run_s.push(pass.run_s);
        self.write_s.push(pass.write_s);
        self.read_s.push(pass.read_s);
        self.attempted += (calls * RANKS) as u64;
        self.failed += pass.failed;
        if keep_sim {
            self.latencies.extend_from_slice(&pass.latencies);
            self.records.extend_from_slice(&pass.records);
        }
        for p in &pass.problems {
            out.problem(p.clone());
        }
    }
}

fn us(d: Dur) -> f64 {
    d.as_us_f64()
}

/// Runs `coll_small` or `coll_large`.
pub fn run(shape: &Shape, args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let (mut bench, setups, builds) = setup_median(shape, args.seed);
    out.set("core.build_s", median(&builds));
    if args.trace {
        out.set("setup_s", median(&setups));
        out.meta("setup_samples", setups.len());
        bench.cluster.sim.enable_digest();
    }
    let ncalls = shape.calls.len();
    let mut tally = Tally::default();
    let base = Counters::read(&bench.cluster);
    let sim_start = bench.cluster.sim.now();
    for _ in 0..shape.sim_passes {
        let pass = bench.pass(Drive::Run);
        tally.add(&pass, ncalls, true, out);
    }
    let sim_span = bench.cluster.sim.now().since(sim_start);
    // Peak memory of set-up plus the fixed leading work: every later pass
    // adds host-program components to the cluster, so a longer run would
    // otherwise read higher.
    out.set("host_peak_rss_mib", peak_rss_mib());
    let counts = Counters::read(&bench.cluster) - base;
    if let Some(d) = bench.cluster.sim.timeline_digest() {
        out.meta("timeline_digest", format!("{d:#018x}"));
    }
    // Queue depth of the last leading pass (a `run` summary is per call).
    let depth = bench
        .cluster
        .sim
        .last_run_summary()
        .map_or(0, |s| s.max_queue_depth);

    if !args.trace {
        let mut setups = setups;
        while secs(start) < args.seconds {
            if bench.passes == shape.epoch_passes {
                drop(bench);
                let (b, s) = timed(|| Bench::setup(shape, args.seed));
                setups.push(s);
                bench = b;
                bench.prepare_goldens();
            }
            let pass = bench.pass(Drive::Run);
            tally.add(&pass, ncalls, false, out);
        }
        out.set("setup_s", median(&setups));
        out.meta("setup_samples", setups.len());
    }
    let lat: Vec<f64> = tally.latencies.iter().map(|&(_, d)| us(d)).collect();
    let bytes: u64 = tally.latencies.iter().map(|&(b, _)| b).sum();
    let lat_sum: Dur = tally.latencies.iter().fold(Dur::ZERO, |a, &(_, d)| a + d);
    out.set("host_wall_s", median(&tally.walls));
    out.set_latencies(&lat);
    out.set("sim_goodput_gbps", lat_sum.goodput_gbps(bytes));
    out.set(
        "sim_throughput_per_s",
        lat.len() as f64 / sim_span.as_secs_f64(),
    );
    out.meta("host_wall_samples", tally.walls.len());
    out.meta("calls_per_pass", ncalls * RANKS);

    let events_per_pass = counts.events as f64 / shape.sim_passes as f64;
    counts.report(out);
    out.set("sim.queue_depth_max", depth as f64);
    out.set("mem.write_s", median(&tally.write_s));
    out.set("mem.read_s", median(&tally.read_s));
    let invoke: Vec<f64> = tally.records.iter().map(|d| us(d.invoke)).collect();
    let coll: Vec<f64> = tally.records.iter().map(|d| us(d.collective)).collect();
    out.set("core.invoke_us", median(&invoke));
    out.set("core.collective_us", median(&coll));

    if args.trace {
        traced(shape, args, &mut bench, &tally, events_per_pass, start, out);
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
}

/// The traced half of a `--trace 1` run: host time per crate from stepped
/// passes, then simulated time per layer from a span-recording cluster.
fn traced(
    shape: &Shape,
    args: &RunArgs,
    bench: &mut Bench,
    untraced: &Tally,
    events_per_pass: f64,
    start: Instant,
    out: &mut Outcome,
) {
    let plain_wall = median(&untraced.walls);
    out.set(
        "sim.host_ns_per_event",
        median(&untraced.run_s) / events_per_pass * 1e9,
    );
    let kernel_ns = kernel_ns_per_event(200_000);
    out.meta("kernel_ns_per_event_calibrated", format!("{kernel_ns:.2}"));
    bench.cluster.sim.enable_trace(1);
    let mut split = HostSplit::default();
    let mut stepped = 0usize;
    let budget = args.seconds * 0.6;
    while stepped < 1 || secs(start) < budget {
        let pass = bench.pass(Drive::Step(&mut split, kernel_ns));
        for p in &pass.problems {
            out.problem(p.clone());
        }
        stepped += 1;
    }
    split.report(out, stepped as f64);
    out.meta("stepped_passes", stepped);

    // Span recording on a fresh cluster, so the ring holds exactly the
    // traced passes.
    let mut spans = Bench::setup(shape, args.seed);
    spans.prepare_goldens();
    spans.cluster.enable_tracing(1 << 24);
    let pass = spans.pass(Drive::Run);
    for p in &pass.problems {
        out.problem(p.clone());
    }
    let (breakdowns, breakdown_s) =
        timed(|| breakdowns(&spans.cluster.trace_events(), |e| e.name == "driver.coll"));
    out.meta("spans_dropped", spans.cluster.sim.spans_dropped());
    out.meta("breakdown_s", format!("{breakdown_s:.3}"));
    out.set_spans(&breakdowns);
    let traced_wall = pass.wall_s();
    out.set("trace.host_wall_s", traced_wall);
    out.set("trace.overhead_ratio", traced_wall / plain_wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> Bench {
        let mut b = Bench::setup(&Shape::small(true), 5);
        b.prepare_goldens();
        b
    }

    /// Every read-back passes the golden check, and the same buffer with
    /// one byte flipped fails it.
    #[test]
    fn a_planted_wrong_byte_fails_the_golden_check() {
        let mut b = tiny_bench();
        let pass = b.pass(Drive::Run);
        assert!(pass.problems.is_empty(), "{:?}", pass.problems);
        let roots = b.roots(0);
        for (call, &root) in b.calls.iter().zip(&roots) {
            for r in (0..RANKS).filter(|&r| has_output(call.op, r, root)) {
                let mut got = b.cluster.read(&call.dst[r]);
                assert!(call.check(r, root, &got).is_ok(), "{:?} rank {r}", call.op);
                let mid = got.len() / 2;
                got[mid] ^= 0x40;
                assert!(call.check(r, root, &got).is_err(), "{:?} rank {r}", call.op);
            }
        }
    }

    /// A pass whose program never ran leaves the poisoned outputs, which
    /// the check rejects: correctness cannot come from a previous pass.
    #[test]
    fn stale_outputs_fail_the_golden_check() {
        let mut b = tiny_bench();
        assert!(b.pass(Drive::Run).problems.is_empty());
        let roots = b.roots(1);
        let poison = vec![0xa5u8; b.calls[0].dst[1].len as usize];
        let call = &b.calls[0];
        let r = (0..RANKS)
            .find(|&r| has_output(call.op, r, roots[0]))
            .expect("an output rank");
        assert!(call
            .check(r, roots[0], &poison[..call.dst[r].len as usize])
            .is_err());
    }

    /// The root-partitioned breakdown is the library's breakdown.
    #[cfg(feature = "trace")]
    #[test]
    fn partitioned_breakdowns_match_the_library() {
        let mut b = tiny_bench();
        b.cluster.enable_tracing(1 << 20);
        assert!(b.pass(Drive::Run).problems.is_empty());
        let fast = breakdowns(&b.cluster.trace_events(), |e| e.name == "driver.coll");
        assert!(!fast.is_empty());
        assert_eq!(fast, b.cluster.latency_breakdowns());
    }

    /// Stepping the kernel from outside reproduces the simulated outcome
    /// of `try_run_host_programs`.
    #[test]
    fn stepped_passes_match_run_passes() {
        let mut a = tiny_bench();
        let mut b = tiny_bench();
        b.cluster.sim.enable_trace(1);
        let run = a.pass(Drive::Run);
        let mut split = HostSplit::default();
        let step = b.pass(Drive::Step(&mut split, 0.0));
        assert!(step.problems.is_empty(), "{:?}", step.problems);
        assert_eq!(run.latencies, step.latencies);
        assert_eq!(split.events, b.cluster.sim.events_executed());
    }
}
