//! The JSON repro format: a failing chaos run, pinned.
//!
//! A repro is the complete recipe for re-running one chaos failure: the
//! exact seed, the workload specification, and the (shrunk) fault-event
//! schedule. It is deliberately tiny and human-readable — the point of
//! shrinking is that the file a CI job uploads, or a developer checks in
//! as a regression, names *the* one or two faults that matter:
//!
//! ```json
//! {
//!   "format": 1,
//!   "seed": 17,
//!   "workload": {
//!     "op": "allreduce", "nodes": 3, "count": 2048,
//!     "transport": "tcp", "verify_fcs": false
//!   },
//!   "events": [
//!     {"kind": "corrupt", "index": 9}
//!   ]
//! }
//! ```

use crate::workload::{self, CollKind, RunReport, WorkloadSpec};
use accl_core::Transport;
use accl_net::{Degradation, FaultEvent, FaultPlan, NodeAddr};
use accl_sim::json::{self, Json};
use accl_sim::time::{Dur, Time};

/// Repro file format version; bumped on schema changes.
const FORMAT: u64 = 1;

/// A serializable chaos failure: seed + workload + minimal schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The chaos seed the failure was found at.
    pub seed: u64,
    /// The workload that exposed it.
    pub spec: WorkloadSpec,
    /// The (typically shrunk) fault schedule.
    pub events: Vec<FaultEvent>,
}

impl Repro {
    /// Rebuilds the fault plan from the event list.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::from_events(&self.events)
    }

    /// Re-runs the workload under the repro's schedule.
    pub fn replay(&self) -> RunReport {
        workload::run(&self.spec, self.plan())
    }

    /// Serializes to the pretty JSON repro format.
    pub fn to_json(&self) -> String {
        let op = match self.spec.kind {
            CollKind::AllReduce => "allreduce",
            CollKind::Bcast => "bcast",
        };
        let transport = match self.spec.transport {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
            Transport::Rdma => "rdma",
        };
        let spec = Json::Obj(vec![
            ("op".into(), Json::Str(op.into())),
            ("nodes".into(), Json::Num(self.spec.nodes as u64)),
            ("count".into(), Json::Num(self.spec.count)),
            ("transport".into(), Json::Str(transport.into())),
            ("verify_fcs".into(), Json::Bool(self.spec.verify_fcs)),
            ("overload".into(), Json::Bool(self.spec.overload)),
            ("membership".into(), Json::Bool(self.spec.membership)),
        ]);
        Json::Obj(vec![
            ("format".into(), Json::Num(FORMAT)),
            ("seed".into(), Json::Num(self.seed)),
            ("workload".into(), spec),
            (
                "events".into(),
                Json::Arr(self.events.iter().map(event_to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Parses a repro file.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let doc = json::parse(text)?;
        let format: u64 = doc.uint_field("format")?;
        if format != FORMAT {
            return Err(format!(
                "unsupported repro format {format} (expected {FORMAT})"
            ));
        }
        let seed = doc.uint_field("seed")?;
        let w = doc.field("workload")?;
        let kind = match w.str_field("op")? {
            "allreduce" => CollKind::AllReduce,
            "bcast" => CollKind::Bcast,
            other => return Err(format!("unknown op `{other}`")),
        };
        let transport = match w.str_field("transport")? {
            "tcp" => Transport::Tcp,
            "udp" => Transport::Udp,
            "rdma" => Transport::Rdma,
            other => return Err(format!("unknown transport `{other}`")),
        };
        let spec = WorkloadSpec {
            kind,
            nodes: w.uint_field("nodes")?,
            count: w.uint_field("count")?,
            transport,
            verify_fcs: w.bool_field("verify_fcs")?,
            // Absent in pre-overload repros: default to the unbounded
            // cluster those files were recorded against.
            overload: w.get("overload").and_then(Json::as_bool).unwrap_or(false),
            seed,
            // Repros written while the simulator had a parallel engine
            // also carry a `workers` count; outcomes never depended on
            // it, so it is ignored.
            // Absent in pre-membership repros: those did not run the
            // self-healing recovery loop.
            membership: w.get("membership").and_then(Json::as_bool).unwrap_or(false),
        };
        let events = doc
            .arr_field("events")?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Repro { seed, spec, events })
    }
}

fn event_to_json(ev: &FaultEvent) -> Json {
    let (kind, fields): (&str, &[(&str, u64)]) = match *ev {
        FaultEvent::Drop { index } => ("drop", &[("index", index)]),
        FaultEvent::Corrupt { index } => ("corrupt", &[("index", index)]),
        FaultEvent::Duplicate { index } => ("duplicate", &[("index", index)]),
        FaultEvent::Delay { index, by } => ("delay", &[("index", index), ("by_ps", by.as_ps())]),
        FaultEvent::LinkDown { node, from, until } => (
            "link_down",
            &[
                ("node", node.0.into()),
                ("from_ps", from.as_ps()),
                ("until_ps", until.as_ps()),
            ],
        ),
        FaultEvent::Degrade { node, window } => (
            "degrade",
            &[
                ("node", node.0.into()),
                ("from_ps", window.from.as_ps()),
                ("until_ps", window.until.as_ps()),
                ("loss_ppm", window.loss_ppm.into()),
                ("throttle_gbps_x100", window.throttle_gbps_x100.into()),
            ],
        ),
        FaultEvent::Crash { node, at } => {
            ("crash", &[("node", node.0.into()), ("at_ps", at.as_ps())])
        }
        FaultEvent::CreditLeak { node, at, credits } => (
            "credit_leak",
            &[
                ("node", node.0.into()),
                ("at_ps", at.as_ps()),
                ("credits", credits.into()),
            ],
        ),
        FaultEvent::PauseStorm { node, at, hold } => (
            "pause_storm",
            &[
                ("node", node.0.into()),
                ("at_ps", at.as_ps()),
                ("hold_ps", hold.as_ps()),
            ],
        ),
        FaultEvent::BufShrink { node, at, bufs } => (
            "buf_shrink",
            &[
                ("node", node.0.into()),
                ("at_ps", at.as_ps()),
                ("bufs", bufs.into()),
            ],
        ),
        FaultEvent::Restart { node, at } => {
            ("restart", &[("node", node.0.into()), ("at_ps", at.as_ps())])
        }
        FaultEvent::Partition { mask, from, until } => (
            "partition",
            &[
                ("mask", mask),
                ("from_ps", from.as_ps()),
                ("until_ps", until.as_ps()),
            ],
        ),
    };
    let mut pairs = vec![("kind".to_string(), Json::Str(kind.into()))];
    pairs.extend(fields.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))));
    Json::Obj(pairs)
}

fn event_from_json(v: &Json) -> Result<FaultEvent, String> {
    let index = || v.uint_field("index");
    let node = || v.uint_field("node").map(NodeAddr);
    let at = |key: &str| v.uint_field(key).map(Time::from_ps);
    let dur = |key: &str| v.uint_field(key).map(Dur::from_ps);
    Ok(match v.str_field("kind")? {
        "drop" => FaultEvent::Drop { index: index()? },
        "corrupt" => FaultEvent::Corrupt { index: index()? },
        "duplicate" => FaultEvent::Duplicate { index: index()? },
        "delay" => FaultEvent::Delay {
            index: index()?,
            by: dur("by_ps")?,
        },
        "link_down" => FaultEvent::LinkDown {
            node: node()?,
            from: at("from_ps")?,
            until: at("until_ps")?,
        },
        "degrade" => FaultEvent::Degrade {
            node: node()?,
            window: Degradation {
                from: at("from_ps")?,
                until: at("until_ps")?,
                loss_ppm: v.uint_field("loss_ppm")?,
                throttle_gbps_x100: v.uint_field("throttle_gbps_x100")?,
            },
        },
        "crash" => FaultEvent::Crash {
            node: node()?,
            at: at("at_ps")?,
        },
        "credit_leak" => FaultEvent::CreditLeak {
            node: node()?,
            at: at("at_ps")?,
            credits: v.uint_field("credits")?,
        },
        "pause_storm" => FaultEvent::PauseStorm {
            node: node()?,
            at: at("at_ps")?,
            hold: dur("hold_ps")?,
        },
        "buf_shrink" => FaultEvent::BufShrink {
            node: node()?,
            at: at("at_ps")?,
            bufs: v.uint_field("bufs")?,
        },
        "restart" => FaultEvent::Restart {
            node: node()?,
            at: at("at_ps")?,
        },
        "partition" => FaultEvent::Partition {
            mask: v.uint_field("mask")?,
            from: at("from_ps")?,
            until: at("until_ps")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_round_trips() {
        let repro = Repro {
            seed: 99,
            spec: WorkloadSpec {
                kind: CollKind::Bcast,
                nodes: 4,
                count: 512,
                transport: Transport::Udp,
                verify_fcs: true,
                overload: true,
                seed: 99,
                membership: true,
            },
            events: vec![
                FaultEvent::Drop { index: 3 },
                FaultEvent::Corrupt { index: 7 },
                FaultEvent::Duplicate { index: 11 },
                FaultEvent::Delay {
                    index: 13,
                    by: Dur::from_us(40),
                },
                FaultEvent::LinkDown {
                    node: NodeAddr(1),
                    from: Time::from_ps(500),
                    until: Time::from_ps(900),
                },
                FaultEvent::Degrade {
                    node: NodeAddr(2),
                    window: Degradation {
                        from: Time::from_ps(100),
                        until: Time::from_ps(200),
                        loss_ppm: 10_000,
                        throttle_gbps_x100: 2_500,
                    },
                },
                FaultEvent::Crash {
                    node: NodeAddr(3),
                    at: Time::from_ps(1234),
                },
                FaultEvent::CreditLeak {
                    node: NodeAddr(0),
                    at: Time::from_ps(2000),
                    credits: 3,
                },
                FaultEvent::PauseStorm {
                    node: NodeAddr(1),
                    at: Time::from_ps(3000),
                    hold: Dur::from_us(150),
                },
                FaultEvent::BufShrink {
                    node: NodeAddr(2),
                    at: Time::from_ps(4000),
                    bufs: 2,
                },
                FaultEvent::Crash {
                    node: NodeAddr(1),
                    at: Time::from_ps(5000),
                },
                FaultEvent::Restart {
                    node: NodeAddr(1),
                    at: Time::from_ps(6000),
                },
                FaultEvent::Partition {
                    mask: 0b10,
                    from: Time::from_ps(7000),
                    until: Time::from_ps(8000),
                },
            ],
        };
        let text = repro.to_json();
        assert_eq!(Repro::from_json(&text).unwrap(), repro);
        // The plan the events rebuild is itself explicit, so the event
        // decomposition round-trips through FaultPlan too.
        let plan = repro.plan();
        assert!(plan.is_explicit());
        let canonical = plan.to_events();
        assert_eq!(FaultPlan::from_events(&canonical).to_events(), canonical);
    }

    /// Repro files written before the overload flag existed must keep
    /// parsing, defaulting to the unbounded cluster. So must files that
    /// still carry the `workers` count of the retired parallel engine:
    /// the key is ignored, and the schedule replays sequentially.
    #[test]
    fn missing_overload_field_defaults_to_false() {
        let pre_overload = "{\"format\": 1, \"seed\": 5, \"workload\": {\"op\": \"allreduce\", \
                            \"nodes\": 3, \"count\": 64, \"transport\": \"tcp\", \
                            \"verify_fcs\": true}, \"events\": []}";
        let legacy_workers = "{\"format\": 1, \"seed\": 5, \"workload\": {\"op\": \"allreduce\", \
                            \"nodes\": 3, \"count\": 64, \"transport\": \"tcp\", \
                            \"verify_fcs\": true, \"overload\": false, \"workers\": 2, \
                            \"membership\": false}, \"events\": [{\"kind\": \"drop\", \"index\": 3}]}";
        for old in [pre_overload, legacy_workers] {
            let repro = Repro::from_json(old).unwrap();
            assert!(!repro.spec.overload);
            assert!(!repro.spec.membership);
            let report = repro.replay();
            assert!(report.passed(), "{old}: {:?}", report.violation);
        }
    }

    #[test]
    fn rejects_unknown_formats_and_kinds() {
        assert!(Repro::from_json("{\"format\": 2}").is_err());
        let bad = "{\"format\": 1, \"seed\": 0, \"workload\": {\"op\": \"gather\", \
                   \"nodes\": 2, \"count\": 1, \"transport\": \"tcp\", \
                   \"verify_fcs\": true}, \"events\": []}";
        assert!(Repro::from_json(bad).is_err());
        // Out-of-range integers are errors naming the field, not silent
        // truncations: `node` 2^32 must not load as node 0.
        let with_event = |ev: &str| {
            bad.replace("gather", "allreduce")
                .replace("[]", &format!("[{ev}]"))
        };
        for (ev, field) in [
            (
                "{\"kind\": \"crash\", \"node\": 4294967296, \"at_ps\": 5}",
                "`node`",
            ),
            (
                "{\"kind\": \"degrade\", \"node\": 1, \"from_ps\": 0, \"until_ps\": 9, \
                 \"loss_ppm\": 4294967296, \"throttle_gbps_x100\": 0}",
                "`loss_ppm`",
            ),
        ] {
            let err = Repro::from_json(&with_event(ev)).unwrap_err();
            assert!(err.contains(field) && err.contains("out of range"), "{err}");
            let fits = with_event(&ev.replace("4294967296", "4294967295"));
            assert!(Repro::from_json(&fits).is_ok(), "{fits}");
        }
    }
}
