//! Tier-1 checks of the chaos harness itself: a clean sweep at the
//! default profile, the planted-bug self-test (the sweep must *catch* a
//! disabled FCS check and shrink it to a tiny repro), replay determinism,
//! the checked-in minimal-repro regression, and the overload battery:
//! 64-seed resource-pressure sweeps per transport plus the planted
//! credit-leak repro the deadlock detector must name exactly.

use accl_chaos::{run_sweep, Repro, SweepConfig, Violation};
use accl_core::{AcclCluster, BufLoc, ClusterConfig, CollOp, CollSpec, DType, HostOp, Transport};
use accl_net::{ChaosProfile, FaultEvent, FaultPlan, NodeAddr};
use accl_sim::time::Time;

/// Debug-friendly sweep parameters: the default profile against a
/// workload small enough that a test-profile sweep stays fast, but large
/// enough that sampled frame faults actually land on traffic.
fn test_config(seeds: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(seeds);
    cfg.count = 16384;
    cfg
}

/// At the default fault profile every seed must hold every invariant:
/// transient drops, corruption, duplicates, delays, flaps and degraded
/// links are all repaired (or surfaced typed) by the stack under test.
#[test]
fn default_profile_sweep_is_clean() {
    let stats = run_sweep(&test_config(8), |_, _| {}).unwrap_or_else(|failure| {
        panic!(
            "seed {} violated an invariant ({}) — shrunk repro:\n{}",
            failure.repro.seed,
            failure.violation,
            failure.repro.to_json()
        )
    });
    assert_eq!(stats.seeds_run, 8);
    // The profile schedules its full budget at every seed...
    let budget = ChaosProfile::default_profile(3).budget() as u64;
    assert_eq!(stats.faults_scheduled, 8 * budget);
    // ...and at least some of those faults must land on live traffic —
    // a sweep that never injects anything proves nothing.
    assert!(
        stats.frames_dropped + stats.corrupted_drops > 0,
        "no scheduled fault ever hit a frame"
    );
}

/// Replaying a seed is bit-identical: same event count, same results,
/// same fault counters. This is the property that makes schedule
/// shrinking sound (ddmin replays subsets assuming determinism).
#[test]
fn replaying_a_seed_is_bit_identical() {
    let cfg = test_config(1);
    for seed in [0u64, 1] {
        let a = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        let b = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        assert_eq!(a.events_executed, b.events_executed, "seed {seed}");
        assert_eq!(a.results, b.results, "seed {seed}");
        assert_eq!(a.frames_dropped, b.frames_dropped, "seed {seed}");
        assert_eq!(a.corrupted_drops, b.corrupted_drops, "seed {seed}");
    }
}

/// The harness self-test: plant a real integrity bug (disable the TCP
/// FCS check, so corrupted frames are *delivered* instead of discarded
/// and retransmitted), and demand that the sweep (a) catches it as a
/// data-integrity violation and (b) shrinks the schedule to at most 3
/// fault events — in practice the single corrupt that hit a payload
/// frame.
#[test]
fn planted_fcs_bug_is_caught_and_shrunk() {
    let mut cfg = test_config(16);
    cfg.verify_fcs = false;
    // Concentrate sampled frame indices on live traffic so the bug is
    // found within a few seeds even at the small test workload.
    cfg.profile.horizon_frames = 256;

    let failure = match run_sweep(&cfg, |_, _| {}) {
        Ok(stats) => panic!("sweep missed the planted FCS bug: {stats:?}"),
        Err(failure) => failure,
    };
    assert!(
        matches!(failure.violation, Violation::DataMismatch { .. }),
        "expected a data mismatch, got: {}",
        failure.violation
    );
    assert!(
        failure.repro.events.len() <= 3,
        "repro not minimal: {} events\n{}",
        failure.repro.events.len(),
        failure.repro.to_json()
    );
    assert!(failure.repro.events.len() < failure.original_events);
    assert!(
        failure
            .repro
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Corrupt { .. })),
        "a corruption bug must shrink to a schedule containing a Corrupt event"
    );

    // The shrunk repro round-trips through JSON and still reproduces.
    let repro = Repro::from_json(&failure.repro.to_json()).unwrap();
    assert_eq!(repro, failure.repro);
    let report = repro.replay();
    assert!(
        matches!(report.violation, Some(Violation::DataMismatch { .. })),
        "shrunk repro no longer reproduces: {:?}",
        report.violation
    );

    // And with the bug fixed (FCS verification back on), the very same
    // schedule is repaired by retransmission: no violation, and the
    // corrupted frame shows up in the discard counters instead.
    let mut fixed = repro.clone();
    fixed.spec.verify_fcs = true;
    let report = fixed.replay();
    assert!(
        report.passed(),
        "repro should pass once FCS verification is restored: {}",
        report.violation.unwrap()
    );
    assert!(report.corrupted_drops > 0);
}

/// One 64-seed overload sweep: bounded clusters, resource-pressure fault
/// mix (credit leaks, pause storms, buffer shrinks, mild delays). Every
/// invariant must hold at every seed — collectives either complete with
/// golden data or surface a typed error; nothing wedges.
fn overload_sweep(transport: Transport) {
    let mut cfg = SweepConfig::overload(64);
    cfg.transport = transport;
    let stats = run_sweep(&cfg, |_, _| {}).unwrap_or_else(|failure| {
        panic!(
            "{transport:?} seed {} violated an invariant ({}) — shrunk repro:\n{}",
            failure.repro.seed,
            failure.violation,
            failure.repro.to_json()
        )
    });
    assert_eq!(stats.seeds_run, 64, "{transport:?}");
    assert!(stats.faults_scheduled > 0, "{transport:?}: empty profile");
}

#[test]
fn overload_sweep_is_clean_on_tcp() {
    overload_sweep(Transport::Tcp);
}

#[test]
fn overload_sweep_is_clean_on_udp() {
    overload_sweep(Transport::Udp);
}

#[test]
fn overload_sweep_is_clean_on_rdma() {
    overload_sweep(Transport::Rdma);
}

/// Replay determinism holds under the overload profile too: the ddmin
/// soundness argument extends to credit-leak/pause-storm/buf-shrink
/// schedules against bounded clusters.
#[test]
fn overload_replay_is_bit_identical() {
    let cfg = SweepConfig::overload(1);
    for seed in [0u64, 1] {
        let a = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        let b = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        assert_eq!(a.events_executed, b.events_executed, "seed {seed}");
        assert_eq!(a.results, b.results, "seed {seed}");
        assert_eq!(a.frames_dropped, b.frames_dropped, "seed {seed}");
        assert_eq!(a.retries, b.retries, "seed {seed}");
    }
}

/// The checked-in 1-event credit-leak repro: leaking rank 0's entire tx
/// credit window strands its POE's queued frames forever — an
/// unrecoverable wedge no retry budget can mask. The harness must (a)
/// catch it as a wedge and (b) hand back the deadlock detector's
/// diagnosis naming the exact leaked resource.
#[test]
fn checked_in_credit_leak_repro_is_caught_and_named() {
    let repro = Repro::from_json(include_str!("data/credit_leak_repro.json")).unwrap();
    assert_eq!(repro.events.len(), 1, "the checked-in repro is minimal");
    assert!(repro.spec.overload, "the leak needs a finite credit window");
    assert!(
        matches!(
            repro.events[0],
            FaultEvent::CreditLeak {
                node: NodeAddr(0),
                credits: 32,
                ..
            }
        ),
        "expected a full-window leak on rank 0: {:?}",
        repro.events[0]
    );

    let report = repro.replay();
    let why = match &report.violation {
        Some(Violation::Wedged(why)) => why,
        other => panic!("a full-window credit leak must wedge the run, got: {other:?}"),
    };
    assert!(
        why.contains("net.txcredit(n0)"),
        "wedge diagnosis does not name the leaked credit window:\n{why}"
    );
    assert!(
        why.contains("orphaned wait"),
        "the leak should diagnose as an orphaned wait:\n{why}"
    );

    // The identical schedule against an *unbounded* cluster is harmless:
    // with no finite window there is nothing to leak dry.
    let mut unbounded = repro.clone();
    unbounded.spec.overload = false;
    let report = unbounded.replay();
    assert!(
        report.passed(),
        "the same leak without capacity limits must be inert: {}",
        report.violation.unwrap()
    );
    assert!(report.results.iter().all(|r| r.is_ok()));
}

/// The same planted leak with the watchdog disarmed stalls the simulation
/// — and the deadlock detector must name the exact leaked resource: rank
/// 0's tx credit window, held by no live component (an orphaned wait, not
/// a cycle).
#[test]
fn credit_leak_wait_is_named_by_the_deadlock_detector() {
    let mut cfg = ClusterConfig::xrt_tcp(3).with_overload_limits();
    cfg.cclo.collective_timeout_us = None;
    let mut c = AcclCluster::build(cfg);
    c.set_fault_plan(FaultPlan::none().with_credit_leak(NodeAddr(0), Time::from_us(5), 32));

    let count = 1024u64;
    let mut programs = Vec::new();
    for node in 0..3 {
        let src = c.alloc(node, BufLoc::Host, count * 4);
        let dst = c.alloc(node, BufLoc::Host, count * 4);
        c.write(&src, &vec![node as u8 + 1; (count * 4) as usize]);
        let spec = CollSpec::new(CollOp::AllReduce, count, DType::I32)
            .src(src)
            .dst(dst);
        programs.push(vec![HostOp::Coll(spec)]);
    }
    let why = c
        .try_run_host_programs(programs)
        .expect_err("an unwatched full credit leak must stall the run");
    assert!(
        why.contains("net.txcredit(n0)"),
        "stall diagnosis does not name the leaked credit window:\n{why}"
    );
    assert!(
        why.contains("orphaned wait"),
        "the leak should diagnose as an orphaned wait, not a cycle:\n{why}"
    );
}

/// Membership-mode sweep: crash/restart pairs and partition windows play
/// out against the collective, then the harness demands the cluster
/// *self-heals* — restarted nodes are reinstated, the surviving group
/// shrinks and re-expands, and the reissued collective must complete
/// with golden data. A crash seed costs real simulated time (watchdog
/// timeouts and retries), so the PR gate runs a small seed count; the
/// 64-seed battery lives in the nightly CI sweep.
fn membership_sweep(transport: Transport) {
    let mut cfg = SweepConfig::membership(6);
    cfg.transport = transport;
    let stats = run_sweep(&cfg, |_, _| {}).unwrap_or_else(|failure| {
        panic!(
            "{transport:?} seed {} violated an invariant ({}) — shrunk repro:\n{}",
            failure.repro.seed,
            failure.violation,
            failure.repro.to_json()
        )
    });
    assert_eq!(stats.seeds_run, 6, "{transport:?}");
    assert!(stats.faults_scheduled > 0, "{transport:?}: empty profile");
}

#[test]
fn membership_sweep_is_clean_on_tcp() {
    membership_sweep(Transport::Tcp);
}

#[test]
fn membership_sweep_is_clean_on_udp() {
    membership_sweep(Transport::Udp);
}

#[test]
fn membership_sweep_is_clean_on_rdma() {
    membership_sweep(Transport::Rdma);
}

/// Replay determinism extends to membership schedules: crash, restart
/// and partition events — plus the shrink/expand recovery pass the
/// harness drives afterwards — replay bit-identically, so ddmin stays
/// sound for the new fault kinds.
#[test]
fn membership_replay_is_bit_identical() {
    let cfg = SweepConfig::membership(1);
    for seed in [0u64, 1] {
        let a = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        let b = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
        assert_eq!(a.events_executed, b.events_executed, "seed {seed}");
        assert_eq!(a.results, b.results, "seed {seed}");
        assert_eq!(a.frames_dropped, b.frames_dropped, "seed {seed}");
        assert_eq!(a.retries, b.retries, "seed {seed}");
    }
}

/// Rejoin must not leave the survivors' Rx state keyed by the dead
/// sessions. On this 8-node TCP schedule node 3 still buffers unmatched
/// eager messages from node 2's first life when node 2 rejoins; the
/// reinstated session restarts message ids at 0, and before the CCLO's
/// per-session Rx state was cleared with it, the reissued collective's
/// messages collided with the stale ones under the same (session,
/// message id) keys and the RBM panicked on a reassembly gap.
#[test]
fn rejoin_clears_survivor_rx_state_of_the_dead_session() {
    let mut cfg = SweepConfig::membership(1);
    cfg.nodes = 8;
    cfg.profile = ChaosProfile::membership_profile(8);
    let seed = 73_497_379_176_572;
    let report = accl_chaos::workload::run(&cfg.spec(seed), cfg.plan(seed));
    assert!(
        report.passed(),
        "seed {seed} must heal: {}",
        report.violation.unwrap()
    );
}

/// The checked-in rejoin canary: a crash with *no* matching restart can
/// never heal, so membership mode must flag it (`MembershipUnhealed`).
/// CI replays this file with an inverted gate — if the replay ever comes
/// back clean, the self-healing checker itself has gone blind. Appending
/// the missing restart to the very same schedule must heal it: the node
/// is reinstated, readmitted via expand, and the reissued collective
/// completes with golden data.
#[test]
fn checked_in_rejoin_canary_fails_until_the_restart_heals_it() {
    let repro = Repro::from_json(include_str!("data/rejoin_canary.json")).unwrap();
    assert!(repro.spec.membership, "the canary runs in membership mode");
    assert_eq!(repro.events.len(), 1, "the checked-in canary is minimal");
    assert!(
        matches!(
            repro.events[0],
            FaultEvent::Crash {
                node: NodeAddr(2),
                ..
            }
        ),
        "expected a lone crash of node 2: {:?}",
        repro.events[0]
    );

    let report = repro.replay();
    match &report.violation {
        Some(Violation::MembershipUnhealed(why)) => assert!(
            why.contains("never restarts"),
            "diagnosis should say the node never restarts:\n{why}"
        ),
        other => panic!("a restart-less crash must be flagged unhealed, got: {other:?}"),
    }

    // The same schedule with the missing restart appended self-heals.
    let mut healed = repro.clone();
    healed.events.push(FaultEvent::Restart {
        node: NodeAddr(2),
        at: Time::from_us(400),
    });
    let report = healed.replay();
    assert!(
        report.passed(),
        "crash + restart must heal via rejoin/expand: {}",
        report.violation.unwrap()
    );
}

/// Pre-membership repro files (checked in by earlier PRs, before the
/// `membership` field and the restart/partition event kinds existed)
/// still parse — the new field defaults off and absent kinds are simply
/// never present. Guards backward compatibility of the repro format.
#[test]
fn pre_membership_repros_parse_with_membership_off() {
    for (name, text) in [
        ("minimal_repro", include_str!("data/minimal_repro.json")),
        (
            "credit_leak_repro",
            include_str!("data/credit_leak_repro.json"),
        ),
    ] {
        let repro = Repro::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !repro.spec.membership,
            "{name}: membership must default off"
        );
    }
}

/// The checked-in minimal repro (emitted by a real `--break-fcs` sweep)
/// keeps reproducing: guards both the repro format and the harness's
/// detection power against regressions.
#[test]
fn checked_in_minimal_repro_still_reproduces() {
    let repro = Repro::from_json(include_str!("data/minimal_repro.json")).unwrap();
    assert_eq!(repro.events.len(), 1, "the checked-in repro is minimal");

    let report = repro.replay();
    assert!(
        matches!(report.violation, Some(Violation::DataMismatch { .. })),
        "checked-in repro stopped reproducing: {:?}",
        report.violation
    );

    let mut fixed = repro;
    fixed.spec.verify_fcs = true;
    let report = fixed.replay();
    assert!(
        report.passed(),
        "same schedule with FCS verification on must pass: {}",
        report.violation.unwrap()
    );
    assert!(report.corrupted_drops > 0);
}
