//! `dlrm_stream`: the Fig. 17 pipeline — `run_pipeline` on the 10-node
//! XRT + TCP cluster, Table 2 dimensions with scaled table contents, the
//! kernels streaming send/recv back to back.
//!
//! One *iteration* runs a stream of inferences through a fresh pipeline.
//! The library checks every hop against its reference trace; the benchmark
//! also recomputes each inference's final layer from the FC2 vector that
//! crossed the simulated network and compares it with the monolithic model.

use std::time::Instant;

use accl_core::{AcclCluster, ClusterConfig, KernelProc};
use accl_dlrm::{
    run_pipeline_observed, DlrmConfig, DlrmModel, DlrmTiming, PipelineObserve, PipelineResult,
};
use accl_sim::prelude::*;

use crate::layers::{breakdowns, Counters};
use crate::report::Outcome;
use crate::util::{median, peak_rss_mib, secs, timed, SeedRng};
use crate::RunArgs;

/// Messages the pipeline verifies per inference: an embedding slice and an
/// FC1 partial on each of the 4 columns, 3 chain hops, the chain's last
/// hop to FC2 and FC2's output to FC3.
const MESSAGES_PER_INFERENCE: usize = 4 * 2 + 3 + 1 + 1;
/// Nodes of the Fig. 15 mapping: 4 embedding, 4 combine, FC2 and FC3.
const NODES: usize = 10;
/// Operations each embedding node's kernel runs per inference (lookup,
/// send, push, GEMV, send, push).
const EMBED_OPS_PER_INFERENCE: usize = 6;

struct Params {
    /// Inferences per stream; iteration `i` runs stream `i mod len`.
    lengths: Vec<usize>,
    setups: usize,
    /// Leading iterations the simulated metrics and counts cover.
    sim_iters: usize,
    /// Inferences in the span-recording stream (breakdown cost grows with
    /// roots x spans).
    traced_inferences: usize,
}

/// Draws the stream lengths from `seed`: 29 to 31 inferences, around the
/// workload's nominal 30. Queueing behind earlier inferences makes the
/// latency percentiles depend on the length, so they move with the seed.
fn params(tiny: bool, seed: u64) -> Params {
    if tiny {
        return Params {
            lengths: vec![2],
            setups: 1,
            sim_iters: 1,
            traced_inferences: 2,
        };
    }
    let mut rng = SeedRng::new(seed).fork(9);
    let lengths: Vec<usize> = (0..4).map(|_| 29 + (rng.next_u64() % 3) as usize).collect();
    Params {
        sim_iters: lengths.len(),
        lengths,
        setups: 3,
        traced_inferences: 4,
    }
}

/// Payload bytes one inference moves between FPGAs: per column an
/// embedding slice, an FC1 partial and a chain hop (the last one into
/// FC2), then FC2's output to FC3.
fn payload_bytes(m: &DlrmModel) -> usize {
    let cfg = m.cfg;
    let cols = cfg.fc1_col_groups;
    cols * (cfg.partial_embed_bytes() + cfg.partial_result_bytes() + cfg.fc1_bytes())
        + cfg.fc_dims[1] * 4
}

fn model(seed: u64) -> DlrmModel {
    let cfg = DlrmConfig {
        rows_per_table: 64,
        ..DlrmConfig::default()
    };
    DlrmModel::generate(cfg, seed)
}

/// The kernel registered as `n{node}.kernel.0` (the pipeline starts at
/// simulated time zero).
fn kernel(c: &AcclCluster, node: usize) -> Option<&KernelProc> {
    let name = format!("n{node}.kernel.0");
    (0..c.sim.component_count())
        .map(ComponentId::from_index)
        .find(|&id| c.sim.name(id) == name)
        .map(|id| c.kernel(id))
}

/// Checks the stream's outputs; returns per-inference latencies in µs
/// (from the inference's first embedding lookup on node 0 to its FC3
/// completion).
fn check(
    m: &DlrmModel,
    n: usize,
    r: &PipelineResult,
    c: &AcclCluster,
    out: &mut Outcome,
) -> Vec<f64> {
    if r.verified_messages != n * MESSAGES_PER_INFERENCE {
        out.problem(format!(
            "{} of {} pipeline messages verified",
            r.verified_messages,
            n * MESSAGES_PER_INFERENCE
        ));
    }
    if r.done_at.len() != n || r.done_at.windows(2).any(|w| w[0] >= w[1]) {
        out.problem(format!(
            "{} inference completions, not {n} in order",
            r.done_at.len()
        ));
        return Vec::new();
    }
    let cols = m.cfg.fc1_col_groups;
    let (Some(embed), Some(fc3)) = (kernel(c, 0), kernel(c, 2 * cols + 1)) else {
        out.problem("pipeline kernels not found");
        return Vec::new();
    };
    // Golden: FC3 applied to the FC2 vector that crossed the network
    // must equal the monolithic model's output.
    for (k, msg) in fc3.received_msgs().iter().enumerate() {
        let fc2: Vec<i32> = msg
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let mut act = fc2;
        accl_linalg::dense::fx::relu(&mut act);
        if m.fc[2].gemv(&act) != m.infer(k as u64) {
            out.problem(format!(
                "inference {k}: output differs from the monolithic model"
            ));
        }
    }
    let starts: Vec<Time> = (0..n)
        .map(|k| {
            let prev = k * EMBED_OPS_PER_INFERENCE;
            if prev == 0 {
                return Some(Time::ZERO);
            }
            embed
                .op_times()
                .iter()
                .find(|(i, _)| *i == prev - 1)
                .map(|&(_, t)| t)
        })
        .collect::<Option<_>>()
        .unwrap_or_default();
    if starts.len() != n {
        out.problem("embedding kernel op log does not match the pipeline layout");
        return Vec::new();
    }
    r.done_at
        .iter()
        .zip(&starts)
        .map(|(&done, &start)| done.since(start).as_us_f64())
        .collect()
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let start = Instant::now();
    let p = params(args.tiny, args.seed);
    let mut setups = Vec::new();
    let mut m = None;
    for _ in 0..p.setups {
        drop(m.take());
        let (model, s) = timed(|| model(args.seed));
        setups.push(s);
        m = Some(model);
    }
    let mut m = m.expect("at least one set-up");

    let timing = DlrmTiming::default();
    let observe = PipelineObserve::default();
    let mut walls = Vec::new();
    let mut lat = Vec::new();
    let mut first = Vec::new();
    let mut lead_wall = 0.0;
    let mut throughput = Vec::new();
    let mut bytes_per_s = Vec::new();
    let mut counts = Counters::default();
    let mut verified = 0usize;
    let mut depth = 0usize;
    let mut iters = 0usize;
    while iters < p.sim_iters || (!args.trace && secs(start) < args.seconds) {
        // A fresh set-up at every turn of the stream-length cycle spreads
        // the set-up samples over the whole run.
        if iters > 0 && iters % p.lengths.len() == 0 {
            drop(m);
            let (model, s) = timed(|| model(args.seed));
            setups.push(s);
            m = model;
        }
        let n = p.lengths[iters % p.lengths.len()];
        let ((r, c), wall) = timed(|| run_pipeline_observed(&m, timing, n, 1, &observe));
        // Per inference, so the seed's stream lengths do not move it.
        walls.push(wall / n as f64);
        out.attempted += n as u64;
        let l = check(&m, n, &r, &c, out);
        out.failed += (n - r.done_at.len().min(n)) as u64;
        if iters < p.sim_iters && !l.is_empty() {
            lead_wall += wall;
            lat.extend_from_slice(&l);
            first.push(r.latency_us());
            throughput.push(r.throughput());
            let last = r.done_at.last().expect("completions").as_secs_f64();
            bytes_per_s.push((payload_bytes(&m) * n) as f64 * 8.0 / last / 1e9);
            counts += Counters::read(&c);
            depth = depth.max(c.sim.last_run_summary().map_or(0, |s| s.max_queue_depth));
            verified += r.verified_messages;
        }
        iters += 1;
        if iters == p.sim_iters {
            out.set("host_peak_rss_mib", peak_rss_mib());
        }
    }
    out.set("setup_s", median(&setups));
    out.meta("setup_samples", setups.len());
    out.set("host_wall_s", median(&walls));
    if lat.is_empty() {
        out.problem("no inference latencies measured");
        lat.push(f64::NAN);
        throughput.push(f64::NAN);
        bytes_per_s.push(f64::NAN);
    }
    out.set_latencies(&lat);
    if !first.is_empty() {
        out.set("dlrm.first_inference_us", median(&first));
    }
    out.set("sim_throughput_per_s", median(&throughput));
    out.set("sim_goodput_gbps", median(&bytes_per_s));
    out.meta("host_wall_samples", walls.len());
    out.meta("inferences_per_stream", format!("{:?}", p.lengths));
    counts.report(out);
    out.set("dlrm.verified_messages", verified as f64);
    out.set("sim.queue_depth_max", depth as f64);

    if args.trace {
        // The reference trace, timed from outside: the share of an
        // iteration the library spends computing what the hops must carry.
        let lead = &p.lengths[..p.sim_iters];
        let ((), reference_s) = timed(|| {
            for &n in lead {
                for k in 0..n as u64 {
                    std::hint::black_box(m.pipeline_trace(k));
                }
            }
        });
        out.set("dlrm.reference_s", reference_s / lead.len() as f64);
        // The leading streams' wall time less their reference trace, per
        // event.
        out.set(
            "sim.host_ns_per_event",
            (lead_wall - reference_s).max(0.0) / counts.events.max(1) as f64 * 1e9,
        );
        let builds: Vec<f64> = (0..3)
            .map(|_| timed(|| AcclCluster::build(ClusterConfig::xrt_tcp(NODES))).1)
            .collect();
        out.set("core.build_s", median(&builds));
        traced(&m, timing, p.traced_inferences, out);
    }
}

/// Span-recording stream: simulated time per layer over every kernel-issued
/// call (`uc.call` roots; kernels bypass the host driver).
fn traced(m: &DlrmModel, timing: DlrmTiming, n: usize, out: &mut Outcome) {
    let (_, plain) = timed(|| run_pipeline_observed(m, timing, n, 1, &PipelineObserve::default()));
    let observe = PipelineObserve {
        span_capacity: 1 << 22,
        ..PipelineObserve::default()
    };
    let ((r, c), wall) = timed(|| run_pipeline_observed(m, timing, n, 1, &observe));
    check(m, n, &r, &c, out);
    // Kernels bypass the host driver, so each engine's `uc.call` is the
    // root of a call's causal tree.
    out.set_spans(&breakdowns(&c.trace_events(), |e| e.name == "uc.call"));
    out.set("trace.host_wall_s", wall);
    out.set("trace.overhead_ratio", wall / plain);
}
