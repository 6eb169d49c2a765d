//! The benchmark's metric and workload tables. `BENCHMARK.json` at the repo
//! root repeats them for the driver; a test keeps the two identical.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "update_2pct",
        why: "Paper Experiment 1: read-modify-reflect of 2% of a random page on a raw PDL \
              store; core and flash do all the work (differentials, Cases 1-3, GC), storage none",
    },
    Workload {
        name: "tpcc_cold",
        why: "TPC-C with a buffer of about 1% of the data (paper Figure 18): larger than the \
              cache, so pool misses and PageStore reads of base + differential dominate",
    },
    Workload {
        name: "tpcc_hot",
        why: "TPC-C that fits the cache, durable commits: B+-tree/heap/MVCC host work and the \
              commit path (stage, commit record, flush) do the work; pool misses are near 0",
    },
    Workload {
        name: "writers2",
        why: "Two writer threads committing 8-insert batches into their own B+-trees over a \
              2-shard store: the only workload where locks, latches and the commit protocol \
              are contended",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Every workload reports all of these, from the untraced run.
/// `failed_op_share`, the eleventh number, travels as `failed` / `attempted`
/// in the result line: it is 0 on a healthy run and its bound is 0 absolute.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "op/s", Better::Higher, 0.25),
    e2e("host_p50_us", "us", Better::Lower, 0.25),
    e2e("host_p99_us", "us", Better::Lower, 0.25),
    e2e("flash_us_per_op", "sim_us", Better::Lower, 0.05),
    e2e("flash_p99_us", "sim_us", Better::Lower, 0.15),
    e2e("erases_per_kop", "count", Better::Lower, 0.10),
    e2e("space_amp", "ratio", Better::Lower, 0.03),
    e2e("recover_flash_ms", "sim_ms", Better::Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher }
}

/// Per-layer metrics of the traced run. A metric that a workload does not
/// measure (the README's table says which do) prints as 0 there, because
/// the driver wants every name on every traced run.
pub const PER_LAYER: [Layer; 57] = [
    // flash: stats deltas over the measured phase, all four workloads.
    lo("flash.reads_per_op", "count"),
    lo("flash.writes_per_op", "count"),
    lo("flash.user_us_per_op", "sim_us"),
    lo("flash.gc_us_per_op", "sim_us"),
    lo("flash.gc_migrated_per_kop", "count"),
    lo("flash.write_amp", "ratio"),
    // flash: host cost of the chip emulator, probed on a scratch chip.
    lo("flash.program_page.host_ns", "ns"),
    lo("flash.read_data.host_ns", "ns"),
    lo("flash.erase_block.host_ns", "ns"),
    // core: spans around the PageStore calls of update_2pct.
    lo("core.read_page.host_ns_p50", "ns"),
    lo("core.read_page.host_ns_p99", "ns"),
    lo("core.read_page.flash_us", "sim_us"),
    lo("core.read_page.flash_reads", "count"),
    lo("core.apply_update.host_ns_p50", "ns"),
    lo("core.evict_page.host_ns_p50", "ns"),
    lo("core.evict_page.host_ns_p99", "ns"),
    lo("core.evict_page.flash_us", "sim_us"),
    lo("core.evict_page.gc_stall_share", "ratio"),
    // core: PDL's own counters, all four workloads.
    hi("core.pdl.case1_share", "ratio"),
    lo("core.pdl.case2_share", "ratio"),
    lo("core.pdl.case3_share", "ratio"),
    lo("core.pdl.dwb_flushes_per_kop", "count"),
    lo("core.pdl.gc_runs_per_kop", "count"),
    // core: host cost of the differential codec, probed.
    lo("core.diff.compute.host_ns", "ns"),
    lo("core.diff.encode.host_ns", "ns"),
    lo("core.diff.apply.host_ns", "ns"),
    // core: recovery of the chips taken after the run.
    lo("core.recover.host_ms", "ms"),
    lo("core.recover.flash_reads", "count"),
    // storage: buffer pool, the three Database workloads.
    hi("storage.pool.hit_rate", "ratio"),
    lo("storage.pool.misses_per_op", "count"),
    lo("storage.pool.evictions_per_op", "count"),
    lo("storage.pool.dirty_writebacks_per_op", "count"),
    // storage: spans around the transaction calls of writers2.
    lo("storage.begin.host_ns_p50", "ns"),
    lo("storage.btree.insert.host_us_p50", "us"),
    lo("storage.btree.insert.host_us_p99", "us"),
    lo("storage.commit.host_us_p50", "us"),
    lo("storage.commit.host_us_p99", "us"),
    lo("storage.commit.time_share", "ratio"),
    lo("storage.txn.conflict_retries_per_kop", "count"),
    // tpcc: spans around run_transaction, by kind.
    lo("tpcc.new_order.host_us_p50", "us"),
    lo("tpcc.new_order.host_us_p99", "us"),
    lo("tpcc.new_order.flash_us", "sim_us"),
    lo("tpcc.payment.host_us_p50", "us"),
    lo("tpcc.payment.host_us_p99", "us"),
    lo("tpcc.payment.flash_us", "sim_us"),
    lo("tpcc.order_status.host_us_p50", "us"),
    lo("tpcc.order_status.host_us_p99", "us"),
    lo("tpcc.order_status.flash_us", "sim_us"),
    lo("tpcc.delivery.host_us_p50", "us"),
    lo("tpcc.delivery.host_us_p99", "us"),
    lo("tpcc.delivery.flash_us", "sim_us"),
    lo("tpcc.stock_level.host_us_p50", "us"),
    lo("tpcc.stock_level.host_us_p99", "us"),
    lo("tpcc.stock_level.flash_us", "sim_us"),
    lo("tpcc.rollback_share", "ratio"),
    // bench: how far the per-layer numbers can be trusted.
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.driver_self_ns", "ns"),
];

/// Which way a metric of either table is better.
pub fn better_of(name: &str) -> Option<Better> {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.better);
    e2e.or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, Json};

    /// `BENCHMARK.json` is the driver's copy of the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(String::from);

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (have, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name));
            let why: String = want.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(field(have, "why"), Some(why.clone()), "{}", want.name);
            assert!(why.len() <= 200, "{}: why is {} characters", want.name, why.len());
        }

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name));
            assert_eq!(field(have, "unit").as_deref(), Some(want.unit), "{}", want.name);
            assert_eq!(field(have, "better").as_deref(), Some(want.better.as_str()));
            assert_eq!(have.get("bound").and_then(Json::as_f64), Some(want.bound), "{}", want.name);
            assert!(want.bound > 0.0 && want.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(have, "name").as_deref(), Some(want.name));
            assert_eq!(field(have, "unit").as_deref(), Some(want.unit), "{}", want.name);
            assert_eq!(field(have, "better").as_deref(), Some(want.better.as_str()));
        }

        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }
}
