//! Per-layer observation from outside the program: counter snapshots read
//! through each crate's public accessors, and host-time attribution of
//! single simulator steps to the crate that handled them.

use std::ops::{AddAssign, Sub};
use std::time::Instant;

use accl_core::{AcclCluster, HostDriver, Transport};
use accl_net::Switch;
use accl_poe::{RdmaPoe, TcpPoe, UdpPoe};
use accl_sim::prelude::*;
use accl_sim::trace::{span_breakdown, Breakdown, SpanEventKind, ACCL_BREAKDOWN};

use crate::report::Outcome;

/// Declares [`Counters`] with element-wise `-` and `+=`.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters of one cluster, summed over nodes.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Sub for Counters {
            type Output = Counters;

            fn sub(self, o: Counters) -> Counters {
                Counters { $($field: self.$field - o.$field,)* }
            }
        }

        impl AddAssign for Counters {
            fn add_assign(&mut self, o: Counters) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counters!(
    events,
    mem_bus_bytes,
    net_frames,
    net_wire_bytes,
    net_frames_dropped,
    net_pauses,
    poe_frames_sent,
    poe_retransmissions,
    poe_corrupted,
    uc_calls,
    dmp_instrs,
    tx_jobs,
    rx_messages,
    rbm_exhaustions,
    calls_aborted,
    busy_rejections,
    driver_retries,
    driver_failed,
    calls_shed,
);

impl Counters {
    pub fn read(c: &AcclCluster) -> Counters {
        let sim = &c.sim;
        let sw = sim.component::<Switch>(c.network().switch_id());
        let mut k = Counters {
            events: sim.events_executed(),
            net_frames_dropped: sw.frames_dropped() + sw.frames_overflow_dropped(),
            net_pauses: sw.pauses_sent(),
            ..Counters::default()
        };
        for i in 0..c.len() {
            let n = c.node(i);
            let port = c.network().port_counters(sim, i);
            k.net_frames += port.frames_out;
            k.net_wire_bytes += port.bytes_out;
            let bus = sim.component::<accl_mem::MemoryBus>(n.bus);
            k.mem_bus_bytes += bus.bytes_read() + bus.bytes_written();
            let (sent, retx) = match c.config().transport {
                Transport::Tcp => {
                    let p = sim.component::<TcpPoe>(n.poe);
                    (p.segments_sent(), p.retransmissions())
                }
                Transport::Rdma => {
                    let p = sim.component::<RdmaPoe>(n.poe);
                    (p.frames_sent(), p.retransmissions())
                }
                Transport::Udp => (sim.component::<UdpPoe>(n.poe).dgrams_sent(), 0),
            };
            let (fb_sent, fb_retx) = n.fallback_poe.map_or((0, 0), |fb| {
                let p = sim.component::<TcpPoe>(fb);
                (p.segments_sent(), p.retransmissions())
            });
            k.poe_frames_sent += sent + fb_sent;
            k.poe_retransmissions += retx + fb_retx;
            k.poe_corrupted += c.corrupted_drops(i);
            let s = c.node_stats(i);
            k.uc_calls += s.collectives_completed;
            k.dmp_instrs += s.dmp_instructions;
            k.tx_jobs += s.tx_jobs;
            k.rx_messages += s.rx_messages;
            k.rbm_exhaustions += s.rx_pool_exhaustions;
            k.calls_aborted += s.collectives_aborted;
            k.busy_rejections += s.engine_busy_rejections;
            k.driver_retries +=
                sim.component::<HostDriver>(n.driver).retries_attempted() + s.driver_busy_retries;
            k.driver_failed += s.driver_calls_failed;
            k.calls_shed += s.driver_calls_shed;
        }
        k
    }

    /// Reports the counters as per-layer metrics (`poe.useful_ratio` is
    /// first transmissions over all transmissions; 1 when nothing was sent).
    pub fn report(&self, out: &mut Outcome) {
        out.set("mem.bus_bytes", self.mem_bus_bytes as f64);
        out.set("net.frames", self.net_frames as f64);
        out.set("net.wire_bytes", self.net_wire_bytes as f64);
        out.set("net.frames_dropped", self.net_frames_dropped as f64);
        out.set("net.pauses", self.net_pauses as f64);
        out.set("poe.frames_sent", self.poe_frames_sent as f64);
        out.set("poe.retransmissions", self.poe_retransmissions as f64);
        out.set("poe.corrupted_discarded", self.poe_corrupted as f64);
        let useful = if self.poe_frames_sent == 0 {
            1.0
        } else {
            self.poe_frames_sent
                .saturating_sub(self.poe_retransmissions) as f64
                / self.poe_frames_sent as f64
        };
        out.set("poe.useful_ratio", useful);
        out.set("cclo.uc_calls", self.uc_calls as f64);
        out.set("cclo.dmp_instrs", self.dmp_instrs as f64);
        out.set("cclo.tx_jobs", self.tx_jobs as f64);
        out.set("cclo.rx_messages", self.rx_messages as f64);
        out.set("cclo.rbm_exhaustions", self.rbm_exhaustions as f64);
        out.set("cclo.calls_aborted", self.calls_aborted as f64);
        out.set("cclo.busy_rejections", self.busy_rejections as f64);
        out.set("core.driver_retries", self.driver_retries as f64);
        out.set("core.driver_failed", self.driver_failed as f64);
        out.set("core.calls_shed", self.calls_shed as f64);
        out.set("sim.events", self.events as f64);
    }
}

/// The crates host time is attributed to, in `host.*` metric order.
pub const HOST_LAYERS: &[&str] = &[
    "host.sim_s",
    "host.net_s",
    "host.mem_s",
    "host.poe_s",
    "host.cclo.uc_s",
    "host.cclo.dmp_s",
    "host.cclo.rbm_s",
    "host.cclo.tx_s",
    "host.cclo.rx_s",
    "host.core_s",
];

/// Index into [`HOST_LAYERS`] of the crate whose component a registered
/// name belongs to.
pub fn layer_of(name: &str) -> usize {
    if name.starts_with("net.") {
        return 1;
    }
    // Node-local components are registered as `n{i}.<block>...`.
    let block = name.split_once('.').map_or(name, |(_, rest)| rest);
    match block {
        b if b.starts_with("bus") || b.starts_with("xdma") => 2,
        b if b.starts_with("poe") || b.starts_with("rxmux") => 3,
        b if b.starts_with("cclo.uc") => 4,
        b if b.starts_with("cclo.dmp") => 5,
        b if b.starts_with("cclo.rbm") => 6,
        b if b.starts_with("cclo.txsys") => 7,
        b if b.starts_with("cclo.rxsys") => 8,
        _ => 9,
    }
}

/// Host time split by crate, accumulated over stepped runs.
#[derive(Debug, Clone, Default)]
pub struct HostSplit {
    pub secs: [f64; 10],
    pub events: u64,
}

impl HostSplit {
    /// Drains `sim`'s queue one event at a time, timing each step and
    /// charging it to the destination component's crate (read back from a
    /// one-record delivery trace). The kernel's own per-event cost,
    /// `kernel_ns`, is charged to `host.sim_s` and subtracted from the
    /// handler's crate. Returns the wall seconds of the whole drain.
    pub fn drain(&mut self, sim: &mut Simulator, kernel_ns: f64) -> f64 {
        let start = Instant::now();
        let kernel_s = kernel_ns * 1e-9;
        loop {
            let t = Instant::now();
            if !sim.step() {
                break;
            }
            let dt = t.elapsed().as_secs_f64();
            let dst = sim
                .trace()
                .last()
                .map(|r| r.comp)
                .expect("delivery trace is on");
            let layer = layer_of(sim.name(dst));
            self.secs[layer] += (dt - kernel_s).max(0.0);
            self.secs[0] += dt.min(kernel_s);
            self.events += 1;
        }
        start.elapsed().as_secs_f64()
    }

    pub fn report(&self, out: &mut Outcome, per: f64) {
        for (name, s) in HOST_LAYERS.iter().zip(self.secs) {
            out.set(name, s / per);
        }
    }
}

/// Host cost of one kernel event with a trivial handler, in ns: a chain
/// of self-posted events through the same step-and-trace loop
/// [`HostSplit::drain`] uses. Subtracting it from each timed step leaves
/// the handler's own cost.
pub fn kernel_ns_per_event(events: u64) -> f64 {
    struct Chain(u64);
    impl Component for Chain {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _port: PortId, payload: Payload) {
            payload.downcast::<()>();
            if self.0 > 0 {
                self.0 -= 1;
                ctx.send_self(PortId::DEFAULT, Dur::from_ns(1), ());
            }
        }
    }
    let mut sim = Simulator::new(0);
    sim.enable_trace(1);
    let id = sim.add("chain", Chain(events));
    sim.post(Endpoint::of(id), Time::ZERO, ());
    let mut total = 0.0;
    let mut n = 0u64;
    loop {
        let t = Instant::now();
        if !sim.step() {
            break;
        }
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(sim.trace().last().map(|r| r.comp));
        total += dt;
        n += 1;
    }
    total / n.max(1) as f64 * 1e9
}

/// [`ACCL_BREAKDOWN`] attribution of every root span `is_root` selects.
///
/// `span_breakdown` rescans the whole event list for each root, which is
/// quadratic over a pass of large collectives. This first partitions the
/// begin/end events by the root of their causal tree, then hands each
/// root only its own subtree — the same events `span_breakdown` would
/// select, so the result is identical (the self-test checks it against
/// `AcclCluster::latency_breakdowns`).
pub fn breakdowns(events: &[SpanEvent], is_root: impl Fn(&SpanEvent) -> bool) -> Vec<Breakdown> {
    use std::collections::HashMap;
    let parent: HashMap<SpanId, SpanId> = events
        .iter()
        .filter(|e| e.kind == SpanEventKind::Begin)
        .map(|e| (e.id, e.parent))
        .collect();
    let mut root_of: HashMap<SpanId, SpanId> = HashMap::new();
    let mut chain = Vec::new();
    for &id in parent.keys() {
        let mut cur = id;
        // Walk up to the first span whose root is known, or to the top.
        let root = loop {
            if let Some(&r) = root_of.get(&cur) {
                break r;
            }
            chain.push(cur);
            match parent.get(&cur) {
                Some(&p) if !p.is_none() && chain.len() <= parent.len() => cur = p,
                _ => break cur,
            }
        };
        for c in chain.drain(..) {
            root_of.insert(c, root);
        }
    }
    let roots: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.kind == SpanEventKind::Begin && e.parent.is_none() && is_root(e))
        .collect();
    let mut trees: HashMap<SpanId, Vec<SpanEvent>> =
        roots.iter().map(|e| (e.id, Vec::new())).collect();
    for e in events {
        if !matches!(e.kind, SpanEventKind::Begin | SpanEventKind::End) {
            continue;
        }
        if let Some(tree) = root_of.get(&e.id).and_then(|r| trees.get_mut(r)) {
            tree.push(e.clone());
        }
    }
    roots
        .iter()
        .filter_map(|r| span_breakdown(&trees[&r.id], r.id, ACCL_BREAKDOWN))
        .collect()
}
