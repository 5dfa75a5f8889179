//! The contract: workloads and metrics by name. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, on every workload. An *op* is the
/// workload's unit of work: a checkpoint round (`live_*`), a recovery from
/// SIGKILL to byte-exact custody (`recovery_4m`), one `ShardedCluster::run`
/// (`sim_*`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms.p50", "ms", Better::Lower, 0.25),
    e2e("op_ms.p90", "ms", Better::Lower, 0.25),
    e2e("protect_mib_s_per_node", "MiB/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// Single layers, on every workload; the layer is the module the name
/// starts with. The sixteen `*_gb_s` come from the isolated layer pass at
/// the workload's image length, the rest from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("transport.frame.encode_gb_s", "GB/s", Better::Higher),
    layer("transport.frame.decode_gb_s", "GB/s", Better::Higher),
    layer("transport.wire.encode_gb_s", "GB/s", Better::Higher),
    layer("transport.wire.decode_gb_s", "GB/s", Better::Higher),
    layer("transport.wire.fetchblocks_gb_s", "GB/s", Better::Higher),
    layer("parity.xor.encode_gb_s", "GB/s", Better::Higher),
    layer("parity.xor.reconstruct_gb_s", "GB/s", Better::Higher),
    layer("parity.xor.apply_delta_gb_s", "GB/s", Better::Higher),
    layer("parity.rs.encode_gb_s", "GB/s", Better::Higher),
    layer("parity.rs.reconstruct_gb_s", "GB/s", Better::Higher),
    layer("core.node_core.fnv64_gb_s", "GB/s", Better::Higher),
    layer("checkpoint.integrity.checksum_gb_s", "GB/s", Better::Higher),
    layer("checkpoint.delta.xor_runs_gb_s", "GB/s", Better::Higher),
    layer("checkpoint.store.apply_gb_s", "GB/s", Better::Higher),
    layer("os.memcpy_gb_s", "GB/s", Better::Higher),
    layer("os.loopback_copy_gb_s", "GB/s", Better::Higher),
    layer("op_ms.p95", "ms", Better::Lower),
    layer("proc.cpu_ms_per_op", "ms", Better::Lower),
    layer(
        "observe.registry.trace_overhead_frac",
        "ratio",
        Better::Lower,
    ),
    layer("transport.runtime.frames_per_op", "count", Better::Lower),
    layer(
        "transport.runtime.wire_bytes_per_image_byte",
        "ratio",
        Better::Lower,
    ),
    layer("transport.runtime.errors", "count", Better::Lower),
    layer("transport.runtime.retries", "count", Better::Lower),
    layer("core.node_core.rounds_aborted", "count", Better::Lower),
    layer("core.node_core.payloads_dropped", "count", Better::Lower),
    layer("simcore.events_per_op", "count", Better::Lower),
    layer("core.shard.sim_time", "sim_s", Better::Lower),
    layer("core.shard.recovered_vms", "count", Better::Higher),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `k + m` in-process `NodeRuntime`s over loopback TCP.
    Live {
        k: usize,
        m: usize,
        image_len: usize,
    },
    /// `k + m` real `dvdc-node` OS processes, one of them SIGKILLed per op.
    Daemons {
        k: usize,
        m: usize,
        image_len: usize,
    },
    /// `ShardedCluster` of `nodes` nodes, `rounds` rounds per shard and op.
    Sim {
        nodes: usize,
        rounds: usize,
        pages: usize,
        page_size: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
}

impl Workload {
    /// Bytes of one checkpoint image.
    pub fn image_len(&self) -> usize {
        match self.shape {
            Shape::Live { image_len, .. } | Shape::Daemons { image_len, .. } => image_len,
            Shape::Sim {
                pages, page_size, ..
            } => pages * page_size,
        }
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "live_xor_4m",
        why: "4 MiB images, k=4 m=1 XOR in-process: bytes dominate, so checksum, copies, channel hop, syscalls and fold do the work",
        shape: Shape::Live { k: 4, m: 1, image_len: 4 << 20 },
    },
    Workload {
        name: "live_rs_1m",
        why: "1 MiB images, k=4 m=2 Reed-Solomon: each image fans out to two holders and the GF(256) kernel is on the critical path",
        shape: Shape::Live { k: 4, m: 2, image_len: 1 << 20 },
    },
    Workload {
        name: "live_ctl_4k",
        why: "4 KiB images: bytes are negligible, the round is timers and message hops, so data-path work must predict no change",
        shape: Shape::Live { k: 4, m: 1, image_len: 4 << 10 },
    },
    Workload {
        name: "recovery_4m",
        why: "five dvdc-node processes, one SIGKILLed per op: FetchBlocks, reconstruct, ResyncState and the detector, which rounds never touch",
        shape: Shape::Daemons { k: 4, m: 1, image_len: 4 << 20 },
    },
    Workload {
        name: "sim_sharded",
        why: "1000-node sharded sim with 2 KiB images: engine- and bookkeeping-bound, the events/s the protocol unification must keep",
        shape: Shape::Sim {
            nodes: 1000,
            rounds: 20,
            pages: 8,
            page_size: 256,
        },
    },
    Workload {
        name: "sim_bulk_256k",
        why: "200-node sim with 256 KiB images: checkpoint integrity, delta, store and parity apply_delta do the work, simcore almost none",
        shape: Shape::Sim {
            nodes: 200,
            rounds: 2,
            pages: 64,
            page_size: 4096,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|item| {
                item.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    }

    /// The driver reads names, units, directions and bounds from
    /// `BENCHMARK.json`; the program prints the ones in this file.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let text = include_str!("../../BENCHMARK.json");
        let manifest = Json::parse(text).expect("BENCHMARK.json parses");
        let workloads = manifest.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (item, w) in workloads.as_arr().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(item.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let list = manifest.get(key).expect(key);
            assert_eq!(names(list), defs.iter().map(|d| d.name).collect::<Vec<_>>());
            for (item, def) in list.as_arr().unwrap().iter().zip(defs) {
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    item.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                assert_eq!(item.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
    }
}
