//! Golden-digest gate: absolute timeline and state digests of fixed runs.
//!
//! The determinism tests elsewhere compare two executions of the *same*
//! build (calendar against heap queue, tie-permuted shadow runs), so a
//! change applied to both sides passes them unnoticed. This gate pins the
//! absolute values instead:
//!
//! - the event-timeline digest (`Simulator::timeline_digest`), which folds
//!   `(time, seq, dst, payload type)` of every delivery;
//! - a fold of every component's `state_digest`, which covers wire
//!   counters, egress reservations, protocol cursors and credit windows;
//! - checked results, so a digest collision over garbage cannot pass.
//!
//! A refactor that claims to leave the simulated schedule untouched must
//! leave every constant here untouched. One constant per case serves the
//! default build, `--features trace` (recording compiled in but off) and
//! `--features accl-sim/race-detect` (shadow runs only when asked for).
//! A change that moves the schedule on purpose re-pins the constants and
//! says why in CHANGES.md.

use acclplus::dlrm::{run_pipeline, DlrmConfig, DlrmModel, DlrmTiming};
use acclplus::net::FaultPlan;
use acclplus::{AcclCluster, BufLoc, ClusterConfig, CollOp, CollSpec, DType};

fn i32s(vals: impl Iterator<Item = i32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

fn pattern(rank: usize, count: u64) -> Vec<u8> {
    i32s((0..count as i32).map(|i| i.wrapping_mul(7) + rank as i32 * 131))
}

fn summed(n: usize, count: u64) -> Vec<u8> {
    i32s((0..count as i32).map(|i| (0..n as i32).map(|r| i.wrapping_mul(7) + r * 131).sum()))
}

/// FNV-1a over every `(component, state digest)` pair, in component order.
fn state_fold(c: &AcclCluster) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, d) in c.sim.state_digests() {
        for b in (id.index() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(d.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests of one run: `(timeline, state fold, finish time in ps)`.
type Golden = (u64, u64, u64);

/// Runs a 4-node device-buffer `i32` allreduce of `count` elements under
/// `plan`, checks every rank's result and returns the run's digests.
fn allreduce(cfg: ClusterConfig, count: u64, plan: Option<FaultPlan>) -> (AcclCluster, Golden) {
    let n = cfg.nodes;
    let mut c = AcclCluster::build(cfg);
    c.sim.enable_digest();
    if let Some(plan) = plan {
        c.set_fault_plan(plan);
    }
    let mut specs = Vec::new();
    let mut dsts = Vec::new();
    for rank in 0..n {
        let src = c.alloc(rank, BufLoc::Device, count * 4);
        let dst = c.alloc(rank, BufLoc::Device, count * 4);
        c.write(&src, &pattern(rank, count));
        specs.push(
            CollSpec::new(CollOp::AllReduce, count, DType::I32)
                .src(src)
                .dst(dst),
        );
        dsts.push(dst);
    }
    c.host_collective(specs);
    let expect = summed(n, count);
    for (rank, dst) in dsts.iter().enumerate() {
        assert_eq!(c.read(dst), expect, "rank {rank}");
    }
    let timeline = c
        .sim
        .timeline_digest()
        .expect("digest was enabled before the run");
    let golden = (timeline, state_fold(&c), c.sim.now().as_ps());
    (c, golden)
}

/// Checks the fault-free 1 Ki and 64 Ki element allreduces on `cfg`.
fn pin(cfg: fn(usize) -> ClusterConfig, want: [Golden; 2]) {
    for (count, want) in [1024, 64 * 1024].into_iter().zip(want) {
        let (c, got) = allreduce(cfg(4), count, None);
        let transport = c.config().transport;
        assert_eq!(got, want, "{transport:?}, {count} elements");
    }
}

#[test]
fn allreduce_rdma_is_pinned() {
    pin(
        ClusterConfig::coyote_rdma,
        [
            (11979126009430007113, 11598978586632427713, 112409800),
            (12586986631183173149, 410998421169146879, 190715906),
        ],
    );
}

#[test]
fn allreduce_tcp_is_pinned() {
    pin(
        ClusterConfig::xrt_tcp,
        [
            (14985457110335967382, 1317662426960863279, 228069160),
            (15556083914727083391, 5257591468005389644, 238369808),
        ],
    );
}

#[test]
fn allreduce_udp_is_pinned() {
    pin(
        ClusterConfig::xrt_udp,
        [
            (18353983122944933589, 16588782271363373423, 136168040),
            (933669749292266597, 3278134535058159166, 212959856),
        ],
    );
}

/// Seeded 5% loss on RDMA: NAK-triggered go-back-N rounds, RTO expiry
/// when a NAK or a burst tail is lost, and duplicate-PSN re-acks.
#[test]
fn lossy_rdma_recovery_is_pinned() {
    let plan = FaultPlan::random_loss(0.05);
    let (c, golden) = allreduce(ClusterConfig::coyote_rdma(4), 64 * 1024, Some(plan));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("net.switch.drops"), 31);
    assert_eq!(stats.counter("poe.rdma.rx_gap_naks"), 90);
    assert_eq!(stats.counter("poe.rdma.rto_fired"), 3);
    assert_eq!(stats.counter("poe.rdma.retransmissions"), 115);
    assert_eq!(
        golden,
        (6572834704751979370, 4494053207020423784, 509438660),
        "coyote_rdma 64 Ki, 5% loss"
    );
}

/// Seeded 2% loss on TCP: 13 retransmissions, 12 of them fast
/// retransmits on three duplicate ACKs and one after an RTO expiry.
#[test]
fn lossy_tcp_recovery_is_pinned() {
    let plan = FaultPlan::random_loss(0.02);
    let (c, golden) = allreduce(ClusterConfig::xrt_tcp(4), 64 * 1024, Some(plan));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("net.switch.drops"), 16);
    assert_eq!(stats.counter("poe.tcp.retransmits"), 13);
    assert_eq!(
        golden,
        (10365613661552668029, 2269861242654394472, 287798312),
        "xrt_tcp 64 Ki, 2% loss"
    );
}

#[test]
fn dlrm_pipeline_completions_are_pinned() {
    let model = DlrmModel::generate(
        DlrmConfig {
            tables: 16,
            embed_dim: 8,
            rows_per_table: 64,
            fc_dims: [64, 32, 16],
            fc1_row_groups: 2,
            fc1_col_groups: 4,
        },
        11,
    );
    let r = run_pipeline(&model, DlrmTiming::default(), 4);
    let done_ps: Vec<u64> = r.done_at.iter().map(|t| t.as_ps()).collect();
    assert_eq!(
        done_ps,
        vec![28627366, 40103536, 51579706, 63055876],
        "dlrm done_at"
    );
}
