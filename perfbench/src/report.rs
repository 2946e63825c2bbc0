//! The metric registry and the result line.
//!
//! Every workload reports every metric below, so runs of different
//! workloads line up. A per-layer metric a workload leaves idle reads 0;
//! `README.md` lists which layer is live on which workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Simulated quantities carry a
/// `sim_` unit or prefix, host quantities a plain unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_wall_s", "s"),
    ("host_peak_rss_mib", "MiB"),
    ("sim_latency_p50_us", "sim_us"),
    ("sim_latency_tail_us", "sim_us"),
    ("sim_goodput_gbps", "Gb/s"),
    ("sim_throughput_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_s", "s"),
    ("core.invoke_us", "sim_us"),
    ("core.collective_us", "sim_us"),
    ("core.driver_retries", "count"),
    ("core.driver_failed", "count"),
    ("core.calls_shed", "count"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.queue_depth_max", "count"),
    ("mem.write_s", "s"),
    ("mem.read_s", "s"),
    ("mem.bus_bytes", "B"),
    ("net.frames", "count"),
    ("net.wire_bytes", "B"),
    ("net.frames_dropped", "count"),
    ("net.pauses", "count"),
    ("poe.frames_sent", "count"),
    ("poe.retransmissions", "count"),
    ("poe.corrupted_discarded", "count"),
    ("poe.useful_ratio", "ratio"),
    ("cclo.uc_calls", "count"),
    ("cclo.dmp_instrs", "count"),
    ("cclo.tx_jobs", "count"),
    ("cclo.rx_messages", "count"),
    ("cclo.rbm_exhaustions", "count"),
    ("cclo.calls_aborted", "count"),
    ("cclo.busy_rejections", "count"),
    ("dlrm.reference_s", "s"),
    ("dlrm.verified_messages", "count"),
    ("dlrm.first_inference_us", "sim_us"),
    ("chaos.frames_dropped", "count"),
    ("chaos.corrupted_drops", "count"),
    ("chaos.retries", "count"),
    ("chaos.violations", "count"),
    ("span.wire_us", "sim_us"),
    ("span.switch_queue_us", "sim_us"),
    ("span.pcie_us", "sim_us"),
    ("span.uc_us", "sim_us"),
    ("span.datapath_us", "sim_us"),
    ("span.other_us", "sim_us"),
    ("host.sim_s", "s"),
    ("host.net_s", "s"),
    ("host.mem_s", "s"),
    ("host.poe_s", "s"),
    ("host.cclo.uc_s", "s"),
    ("host.cclo.dmp_s", "s"),
    ("host.cclo.rbm_s", "s"),
    ("host.cclo.tx_s", "s"),
    ("host.cclo.rx_s", "s"),
    ("host.core_s", "s"),
    ("trace.host_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rank-calls (or inferences) the run issued.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Output checks that did not hold; empty means every output was right.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Run metadata (sample counts, digests, notes), printed before the
    /// result line.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn meta(&mut self, key: impl Into<String>, value: impl ToString) {
        self.meta.push((key.into(), value.to_string()));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into().replace('\n', " "));
    }

    /// Reports simulated time per layer: the mean, over root spans, of
    /// each `ACCL_BREAKDOWN` category's share.
    pub fn set_spans(&mut self, breakdowns: &[accl_sim::trace::Breakdown]) {
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        for b in breakdowns {
            for (cat, d) in &b.shares {
                *sums.entry(cat).or_default() += d.as_us_f64();
            }
        }
        let roots = breakdowns.len().max(1) as f64;
        for (cat, name) in [
            ("wire", "span.wire_us"),
            ("switch-queue", "span.switch_queue_us"),
            ("pcie", "span.pcie_us"),
            ("uc", "span.uc_us"),
            ("datapath", "span.datapath_us"),
            ("other", "span.other_us"),
        ] {
            self.set(name, sums.get(cat).copied().unwrap_or(0.0) / roots);
        }
        self.meta("span_roots", breakdowns.len());
    }

    /// Reports a latency sample: its median, and its tail — the p99 when
    /// at least ten samples lie beyond it, otherwise the highest
    /// percentile that has ten samples beyond it (never below the median).
    pub fn set_latencies(&mut self, lat: &[f64]) {
        let n = lat.len();
        let q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
        let tail = crate::util::quantile(lat, q);
        self.set("sim_latency_p50_us", crate::util::median(lat));
        self.set("sim_latency_tail_us", tail);
        self.meta("latency_samples", n);
        self.meta("latency_tail_percentile", format!("{:.1}", q * 100.0));
        self.meta(
            "latency_samples_beyond_tail",
            lat.iter().filter(|&&l| l > tail).count(),
        );
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics this run reports: every end-to-end metric, or with
    /// `trace` every per-layer one. Per-layer metrics the workload left
    /// unset read 0 (layer idle or not observable on this workload).
    pub fn selected(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => f64::NAN,
                };
                (name, value, unit)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.selected(trace).into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values become `null` (and fail the self-test).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
