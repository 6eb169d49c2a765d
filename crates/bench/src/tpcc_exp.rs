//! Experiment 7 / Figure 18: TPC-C I/O time per transaction as the DBMS
//! buffer size varies from 0.1% to 10% of the database size, for the five
//! methods of the paper's figure.

use pdl_core::{build_store, CoreError, MethodKind, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::Database;
use pdl_tpcc::{load, run_mix, TpccDb, TpccRand, TpccScale};
use pdl_workload::{Scale, Table};

/// Buffer sizes as percentages of the loaded database (the paper's x-axis:
/// 0.1% — 10%).
pub const BUFFER_PCTS: [f64; 7] = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];

/// TPC-C sizing per experiment scale.
pub fn tpcc_scale_for(scale: Scale) -> TpccScale {
    match scale {
        Scale::Quick => TpccScale::scaled(1),
        Scale::Default => TpccScale::scaled(2),
        // The paper's 1-Gbyte database: 10 warehouses at spec cardinality.
        Scale::Paper => TpccScale::full(10),
    }
}

/// Measured transactions per point.
pub fn txns_for(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 400,
        Scale::Default => 1_500,
        Scale::Paper => 20_000,
    }
}

/// One Experiment-7 point: load TPC-C, warm the buffer, measure I/O time
/// per transaction. Returns `(io_us_per_txn, loaded_pages)`.
pub fn run_tpcc_point(
    scale: Scale,
    kind: MethodKind,
    buffer_pct: f64,
    seed: u64,
) -> Result<(f64, u64), CoreError> {
    let tpcc_scale = tpcc_scale_for(scale);
    let txns = txns_for(scale);
    let warmup = txns / 4;

    // Size the store: loaded pages + growth room, at the synthetic
    // experiments' ~25% space utilisation (DESIGN.md §2).
    let est = tpcc_scale.estimated_loaded_pages(2048);
    let num_pages = est * 2 + (txns + warmup) + 128;
    let blocks = ((num_pages * 4).div_ceil(64) + 16) as u32;
    let chip = FlashChip::new(FlashConfig::scaled(blocks));
    let store = build_store(chip, kind, StoreOptions::new(num_pages))?;

    // Load with a tiny provisional buffer, then resize it to the
    // experiment's share of the loaded database.
    let db = Database::new(store, 256);
    let mut t: TpccDb =
        load(db, tpcc_scale, seed).map_err(|e| CoreError::BadConfig(e.to_string()))?;
    let loaded = t.db.allocated_pages();
    let buffer_pages = ((loaded as f64 * buffer_pct / 100.0).round() as usize).max(2);
    t.db.set_buffer_pages(buffer_pages).map_err(|e| CoreError::BadConfig(e.to_string()))?;

    let mut r = TpccRand::new(seed ^ 0xABCD);
    run_mix(&mut t, &mut r, warmup).map_err(|e| CoreError::BadConfig(e.to_string()))?;
    t.db.reset_io_stats();
    run_mix(&mut t, &mut r, txns).map_err(|e| CoreError::BadConfig(e.to_string()))?;
    let io_us = t.db.io_stats().total().total_us();
    Ok((io_us as f64 / txns as f64, loaded))
}

/// The erase-heavy TPC-C point ([`run_tpcc_gc_point`]).
#[derive(Clone, Copy, Debug)]
pub struct GcPoint {
    /// Serial (Table-1 sum) flash time of the measured phase, µs.
    pub serial_us: u64,
    pub write_amp: f64,
    pub gc_erases: u64,
    /// Checksum mismatches detected / pages repaired during the measured
    /// phase (0/0 on a healthy chip — nonzero means the run served from
    /// self-repair, which distorts the timing).
    pub integrity: pdl_flash::IntegrityCounts,
}

/// Observability capture of the measured phase of [`run_tpcc_gc_point`].
#[derive(Clone, Debug)]
pub struct GcObs {
    /// The chip recorder after the measured phase (warm-up is cleared by
    /// the statistics reset): per-class latency histograms plus the
    /// attributed span ring.
    pub snapshot: pdl_obs::RecorderSnapshot,
    /// Chrome trace-event JSON of the measured phase.
    pub trace_json: String,
}

/// TPC-C on an **erase-heavy** PDL store, with the recorder on. The
/// physical space barely exceeds the logical footprint (vs Figure 18's
/// 4x headroom) and the buffer is flushed on a short group-commit
/// cadence, so garbage collection runs during the measured phase and
/// every flash command class — user and GC reads, programs, erases —
/// shows up in the capture. Same load/warmup/measure protocol as
/// [`run_tpcc_point`].
pub fn run_tpcc_gc_point(scale: Scale, seed: u64) -> Result<(GcPoint, GcObs), CoreError> {
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let tpcc_scale = tpcc_scale_for(scale);
    let txns = txns_for(scale);
    // A long warmup: it must push the append cursor into the reclamation
    // regime, so the *measured* phase is GC-pressured from its first
    // transaction.
    let warmup = txns * 2;
    // Group-commit cadence: flush the buffer every K transactions, like
    // a durability checkpoint. Each flush is a burst of programs.
    const FLUSH_EVERY: u64 = 5;

    // A tight store: the logical space is just the loaded footprint plus
    // growth room, and the physical space barely exceeds it (vs Figure
    // 18's 4x headroom) — the store reclaims constantly, so GC
    // migrations and erases dominate the command stream.
    let est = tpcc_scale.estimated_loaded_pages(2048);
    let num_pages = est + txns + 128;
    let blocks = (num_pages.div_ceil(64) + 10) as u32;
    let chip = FlashChip::new(FlashConfig::scaled(blocks));
    let store = build_store(chip, kind, StoreOptions::new(num_pages).with_obs(true))?;

    let db = Database::new(store, 256);
    let mut t: TpccDb =
        load(db, tpcc_scale, seed).map_err(|e| CoreError::BadConfig(e.to_string()))?;
    let loaded = t.db.allocated_pages();

    // A generous buffer (30% of the loaded footprint): most re-reads hit
    // DRAM, while the periodic commit flushes and GC still reach flash —
    // so the command stream is dominated by program/erase bursts.
    let buffer_pages = ((loaded as f64 * 30.0 / 100.0).round() as usize).max(2);
    t.db.set_buffer_pages(buffer_pages).map_err(|e| CoreError::BadConfig(e.to_string()))?;

    let mut r = TpccRand::new(seed ^ 0xABCD);
    let run_chunked = |t: &mut TpccDb, r: &mut TpccRand, total: u64| -> Result<(), CoreError> {
        let mut done = 0;
        while done < total {
            let n = FLUSH_EVERY.min(total - done);
            run_mix(t, r, n).map_err(|e| CoreError::BadConfig(e.to_string()))?;
            t.db.flush().map_err(|e| CoreError::BadConfig(e.to_string()))?;
            done += n;
        }
        Ok(())
    };
    run_chunked(&mut t, &mut r, warmup)?;
    t.db.reset_io_stats();
    run_chunked(&mut t, &mut r, txns)?;

    let stats = t.db.io_stats();
    let capture = GcObs { snapshot: t.db.obs_snapshot(), trace_json: t.db.obs_trace_json() };
    let point = GcPoint {
        serial_us: stats.total().total_us(),
        write_amp: stats.write_amplification(),
        gc_erases: stats.gc_erases(),
        integrity: stats.integrity,
    };
    Ok((point, capture))
}

/// Experiment 7 / Figure 18 sweep: the table, and each cell where a PDL
/// variant does not take less I/O time than OPU or an IPL variant (the
/// paper's result; empty when it holds).
pub fn exp7(scale: Scale) -> Result<(Table, Vec<String>), CoreError> {
    let kinds = MethodKind::paper_five();
    let mut specs = Vec::new();
    for kind in &kinds {
        for pct in BUFFER_PCTS {
            specs.push((*kind, pct));
        }
    }
    // Run points in parallel (each loads its own database).
    let max_workers = match scale {
        Scale::Paper => 2,
        _ => 12,
    };
    let workers = specs.len().clamp(1, max_workers);
    let next = std::sync::atomic::AtomicUsize::new(0);
    type PointResult = Result<(f64, u64), CoreError>;
    let results: Vec<parking_lot::Mutex<Option<PointResult>>> =
        specs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let (kind, pct) = specs[i];
                *results[i].lock() = Some(run_tpcc_point(scale, kind, pct, 0x7C0C));
            });
        }
    });
    let results: Vec<(f64, u64)> = results
        .into_iter()
        .map(|m| m.into_inner().expect("worker filled every slot"))
        .collect::<Result<_, _>>()?;

    let mut header: Vec<String> = vec!["method".into()];
    header.extend(BUFFER_PCTS.iter().map(|p| format!("{p}%buf")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let loaded = results.first().map(|(_, l)| *l).unwrap_or(0);
    let mut t = Table::new(
        format!(
            "Figure 18: TPC-C I/O time per transaction (us) vs DBMS buffer size \
             (database = {loaded} pages)"
        ),
        &header_refs,
    );
    let us = |i: usize, j: usize| results[i * BUFFER_PCTS.len() + j].0;
    for (i, kind) in kinds.iter().enumerate() {
        let mut row = vec![kind.label()];
        row.extend((0..BUFFER_PCTS.len()).map(|j| format!("{:.0}", us(i, j))));
        t.row(row);
    }
    // The paper's result: both PDL variants take less I/O time than OPU
    // and both IPL variants at every buffer size.
    let mut broken = Vec::new();
    let is_pdl = |i: usize| matches!(kinds[i], MethodKind::Pdl { .. });
    for (j, pct) in BUFFER_PCTS.iter().enumerate() {
        for pdl in (0..kinds.len()).filter(|&i| is_pdl(i)) {
            for other in (0..kinds.len()).filter(|&i| !is_pdl(i)) {
                if us(pdl, j) >= us(other, j) {
                    broken.push(format!(
                        "{pct}% buffer: {} takes {:.0} us, not less than {}'s {:.0} us",
                        kinds[pdl].label(),
                        us(pdl, j),
                        kinds[other].label(),
                        us(other, j)
                    ));
                }
            }
        }
    }
    Ok((t, broken))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 18 shape at quick scale: PDL beats OPU and IPL, and bigger
    /// buffers reduce I/O time for every method.
    #[test]
    fn exp7_shapes_match_figure18() {
        let pdl = MethodKind::Pdl { max_diff_size: 256 };
        let opu = MethodKind::Opu;
        let ipl = MethodKind::Ipl { log_bytes_per_block: 64 * 1024 };
        let (pdl_small, _) = run_tpcc_point(Scale::Quick, pdl, 1.0, 7).unwrap();
        let (opu_small, _) = run_tpcc_point(Scale::Quick, opu, 1.0, 7).unwrap();
        let (ipl_small, _) = run_tpcc_point(Scale::Quick, ipl, 1.0, 7).unwrap();
        assert!(
            pdl_small < opu_small,
            "PDL(256B) must beat OPU on TPC-C: {pdl_small:.0} vs {opu_small:.0}"
        );
        assert!(
            pdl_small < ipl_small,
            "PDL(256B) must beat IPL(64KB) on TPC-C: {pdl_small:.0} vs {ipl_small:.0}"
        );
        let (pdl_big, _) = run_tpcc_point(Scale::Quick, pdl, 10.0, 7).unwrap();
        assert!(pdl_big < pdl_small, "a larger buffer absorbs I/O");
    }
}
