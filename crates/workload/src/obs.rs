//! Registry naming: the one place that maps every subsystem's counters
//! and gauges — the flash ledger ([`FlashStats`]), integrity gauges,
//! wear summaries, buffer-pool statistics — and the
//! recorder's latency histograms into the `pdl-metrics-v1` schema that
//! every emitted `BENCH_*.json` shares.
//!
//! Naming convention: dotted paths, the producing layer owns its prefix.
//!
//! * `flash.<ctx>.{reads,writes,erases,read_us,write_us,erase_us}` for
//!   `ctx` in `user` / `gc` / `recovery`, plus `flash.total.*` and the
//!   derived `flash.write_amplification`.
//! * `integrity.{detected_corruptions,repaired_pages}`.
//! * `wear.{num_blocks,min_erases,avg_erases,max_erases,total_erases}`.
//! * `buffer.{hits,misses,evictions,dirty_writebacks,version_reads,
//!   active_views,leaked_pids}`.
//! * `<class>.{count,sum_us,mean_us,p50_us,p90_us,p99_us,max_us}` for
//!   every recorded [`LatencyClass`] (e.g. `commit.group.p99_us`,
//!   `read.user.p50_us`), plus `spans.{recorded,dropped}`.

use pdl_flash::{FlashStats, IntegrityCounts, OpCounts, WearSummary};
use pdl_obs::{LatencyClass, MetricsRegistry, RecorderSnapshot};
use pdl_storage::BufferStats;

/// Start a registry for one bench run: the `bench` label and the
/// experiment scale come first so every document self-describes.
pub fn bench_registry(bench: &str, scale: &str) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_str("bench", bench);
    reg.set_str("scale", scale);
    reg
}

fn put_op_counts(reg: &mut MetricsRegistry, prefix: &str, c: &OpCounts) {
    reg.set_u64(&format!("{prefix}.reads"), c.reads);
    reg.set_u64(&format!("{prefix}.writes"), c.writes);
    reg.set_u64(&format!("{prefix}.erases"), c.erases);
    reg.set_u64(&format!("{prefix}.read_us"), c.read_us);
    reg.set_u64(&format!("{prefix}.write_us"), c.write_us);
    reg.set_u64(&format!("{prefix}.erase_us"), c.erase_us);
}

/// The full flash ledger under `<prefix>.flash.*` (pass `""` for the
/// bare `flash.*` names), including the integrity gauges it carries.
pub fn put_flash_stats(reg: &mut MetricsRegistry, prefix: &str, s: &FlashStats) {
    let p = |tail: &str| {
        if prefix.is_empty() {
            tail.to_string()
        } else {
            format!("{prefix}.{tail}")
        }
    };
    put_op_counts(reg, &p("flash.user"), &s.user);
    put_op_counts(reg, &p("flash.gc"), &s.gc);
    put_op_counts(reg, &p("flash.recovery"), &s.recovery);
    put_op_counts(reg, &p("flash.total"), &s.total());
    reg.set_f64(&p("flash.write_amplification"), s.write_amplification());
    put_integrity_counts(reg, &p("integrity"), &s.integrity);
}

pub fn put_integrity_counts(reg: &mut MetricsRegistry, prefix: &str, c: &IntegrityCounts) {
    reg.set_u64(&format!("{prefix}.detected_corruptions"), c.detected_corruptions);
    reg.set_u64(&format!("{prefix}.repaired_pages"), c.repaired_pages);
}

pub fn put_wear_summary(reg: &mut MetricsRegistry, prefix: &str, w: &WearSummary) {
    reg.set_u64(&format!("{prefix}.num_blocks"), w.num_blocks as u64);
    reg.set_u64(&format!("{prefix}.min_erases"), w.min_erases);
    reg.set_f64(&format!("{prefix}.avg_erases"), w.avg_erases());
    reg.set_u64(&format!("{prefix}.max_erases"), w.max_erases);
    reg.set_u64(&format!("{prefix}.total_erases"), w.total_erases);
}

pub fn put_buffer_stats(reg: &mut MetricsRegistry, prefix: &str, b: &BufferStats) {
    reg.set_u64(&format!("{prefix}.hits"), b.hits);
    reg.set_u64(&format!("{prefix}.misses"), b.misses);
    reg.set_u64(&format!("{prefix}.evictions"), b.evictions);
    reg.set_u64(&format!("{prefix}.dirty_writebacks"), b.dirty_writebacks);
    reg.set_u64(&format!("{prefix}.version_reads"), b.version_reads);
    reg.set_u64(&format!("{prefix}.active_views"), b.active_views);
    reg.set_u64(&format!("{prefix}.leaked_pids"), b.leaked_pids);
}

/// The store counters that say what `space_amp` pays for beyond the base
/// pages: live differential pages by valid count, then the commit proofs
/// carried forward and the record pages that released — and, on the
/// read side of staging, the base pages a held image spared.
const SPACE_COUNTERS: [&str; 6] = [
    "diff_pages_vdct_1",
    "diff_pages_vdct_2_4",
    "diff_pages_vdct_5_plus",
    "proofs_carried",
    "proof_pages_released",
    "base_reads_skipped",
];

/// `SPACE_COUNTERS` picked out of a store's
/// [`pdl_core::PageStore::counters`] and set under `<prefix>.space.*`;
/// returns the values in that order (0 where the method has none).
pub fn put_space_counters(
    reg: &mut MetricsRegistry,
    prefix: &str,
    counters: &[(&'static str, u64)],
) -> [u64; 6] {
    SPACE_COUNTERS.map(|name| {
        let v = counters.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v);
        reg.set_u64(&format!("{prefix}.space.{name}"), v);
        v
    })
}

/// Every latency class the recorder sampled, each under its snake-case
/// name turned dotted (`commit_group` → `commit.group`), plus the span
/// ring's occupancy. Classes with no samples are skipped, so a
/// recorder-off snapshot contributes nothing but the span gauges.
pub fn put_recorder_snapshot(reg: &mut MetricsRegistry, prefix: &str, snap: &RecorderSnapshot) {
    let p = |tail: String| {
        if prefix.is_empty() {
            tail
        } else {
            format!("{prefix}.{tail}")
        }
    };
    for class in LatencyClass::ALL {
        let h = snap.hist(class);
        if h.count() > 0 {
            reg.set_hist(&p(class.name().replace('_', ".")), h);
        }
    }
    reg.set_u64(&p("spans.recorded".to_string()), snap.spans.len() as u64);
    reg.set_u64(&p("spans.dropped".to_string()), snap.dropped_spans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_obs::json;

    #[test]
    fn registry_names_every_subsystem_and_validates() {
        let mut reg = bench_registry("unit", "quick");
        let stats = FlashStats {
            user: OpCounts {
                reads: 3,
                writes: 2,
                erases: 0,
                read_us: 330,
                write_us: 2020,
                erase_us: 0,
            },
            ..FlashStats::default()
        };
        put_flash_stats(&mut reg, "", &stats);
        put_wear_summary(&mut reg, "wear", &WearSummary::default());
        put_buffer_stats(&mut reg, "buffer", &BufferStats { leaked_pids: 0, ..Default::default() });
        let mut rec = pdl_obs::Recorder::disabled();
        rec.enable(64);
        rec.record(LatencyClass::CommitGroup, 1010);
        put_recorder_snapshot(&mut reg, "", &rec.snapshot());

        assert_eq!(reg.get_u64("flash.user.reads"), Some(3));
        assert_eq!(reg.get_u64("flash.total.write_us"), Some(2020));
        assert_eq!(reg.get_u64("integrity.detected_corruptions"), Some(0));
        assert_eq!(reg.get_u64("buffer.leaked_pids"), Some(0));
        assert_eq!(reg.get_u64("commit.group.count"), Some(1));
        assert!(reg.get_u64("commit.group.p99_us").unwrap() >= 1010);
        assert_eq!(reg.get_u64("read.user.count"), None, "unsampled classes are skipped");

        let doc = reg.to_json();
        let v = json::parse(&doc).expect("valid JSON");
        json::validate_metrics(&v).expect("valid pdl-metrics-v1");
    }

    #[test]
    fn delta_via_registry_replaces_hand_threaded_stats_deltas() {
        let mut before = MetricsRegistry::new();
        let mut after = MetricsRegistry::new();
        let s0 = FlashStats {
            user: OpCounts { reads: 10, read_us: 1100, ..Default::default() },
            ..Default::default()
        };
        let mut s1 = s0;
        s1.user.reads += 5;
        s1.user.read_us += 550;
        put_flash_stats(&mut before, "", &s0);
        put_flash_stats(&mut after, "", &s1);
        let d = after.delta_since(&before);
        assert_eq!(d.get_u64("flash.user.reads"), Some(5));
        assert_eq!(d.get_u64("flash.user.read_us"), Some(550));
    }
}
