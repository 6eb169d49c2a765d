//! Probes: fixed loops over a lower layer's public functions, on page
//! images sampled from the workload. Nothing can be interposed below
//! `PageStore` from outside, so the host cost of the differential codec and
//! of the chip emulator is measured here, next to the run, instead.

use crate::run::Layers;
use pdl_core::diff::Differential;
use pdl_flash::{fnv1a32, BlockId, FlashChip, FlashConfig, PageKind, Ppn, SpareInfo};
use std::hint::black_box;
use std::time::Instant;

/// `coalesce_gap` of `StoreOptions::new`, which every workload's store uses.
const COALESCE_GAP: usize = 8;

/// Passes over the sampled pairs per probe.
const ROUNDS: usize = 4;

/// Up to `limit` `(base, new)` pairs of pages that differ between two
/// images of the same address space, spread evenly over it.
pub fn changed_pairs(
    base: &[u8],
    new: &[u8],
    page_size: usize,
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let changed: Vec<(&[u8], &[u8])> = base
        .chunks_exact(page_size)
        .zip(new.chunks_exact(page_size))
        .filter(|(b, n)| b != n)
        .collect();
    let step = (changed.len() / limit.max(1)).max(1);
    changed.iter().step_by(step).take(limit).map(|(b, n)| (b.to_vec(), n.to_vec())).collect()
}

/// Mean host ns per call of `Differential::{compute, encode, apply}`.
pub fn codec(pairs: &[(Vec<u8>, Vec<u8>)], out: &mut Layers) {
    if pairs.is_empty() {
        return;
    }
    let calls = (pairs.len() * ROUNDS) as f64;
    let mut diffs = Vec::with_capacity(pairs.len());

    let started = Instant::now();
    for round in 0..ROUNDS {
        for (pid, (base, new)) in pairs.iter().enumerate() {
            let d =
                Differential::compute(pid as u64, 1, black_box(base), black_box(new), COALESCE_GAP);
            if round == 0 {
                diffs.push(d);
            } else {
                black_box(d);
            }
        }
    }
    out.set("core.diff.compute.host_ns", started.elapsed().as_nanos() as f64 / calls);

    let mut buf = vec![0u8; 2 * 2048 + 64];
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for d in &diffs {
            let need = d.encoded_len();
            if need > buf.len() {
                buf.resize(need, 0);
            }
            black_box(black_box(d).encode(&mut buf).expect("buffer holds encoded_len bytes"));
        }
    }
    out.set("core.diff.encode.host_ns", started.elapsed().as_nanos() as f64 / calls);

    let mut page = pairs[0].0.clone();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (d, (base, _)) in diffs.iter().zip(pairs) {
            page.copy_from_slice(base);
            black_box(d).apply(&mut page);
            black_box(&page);
        }
    }
    out.set("core.diff.apply.host_ns", started.elapsed().as_nanos() as f64 / calls);
}

/// Mean host ns per `program_page`, `read_data` and `erase_block` on a
/// scratch chip, programming the sampled `new` images.
pub fn chip(pairs: &[(Vec<u8>, Vec<u8>)], out: &mut Layers) -> Result<(), String> {
    if pairs.is_empty() {
        return Ok(());
    }
    let mut chip = FlashChip::new(FlashConfig::scaled(32));
    let g = chip.geometry();
    let pages = (g.num_blocks * g.pages_per_block) as usize;
    let spares: Vec<Vec<u8>> = (0..pages)
        .map(|p| {
            let data = &pairs[p % pairs.len()].1;
            let mut spare = vec![0xFFu8; g.spare_size];
            SpareInfo::new(PageKind::Data, p as u64, p as u64, fnv1a32(data))
                .encode(&mut spare)
                .map_err(|e| e.to_string())?;
            Ok(spare)
        })
        .collect::<Result<_, String>>()?;
    let mut buf = vec![0u8; g.data_size];
    let (mut program_ns, mut read_ns, mut erase_ns) = (0u128, 0u128, 0u128);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for (p, spare) in spares.iter().enumerate() {
            chip.program_page(Ppn(p as u32), &pairs[p % pairs.len()].1, spare)
                .map_err(|e| format!("probe program_page: {e}"))?;
        }
        program_ns += started.elapsed().as_nanos();

        let started = Instant::now();
        for p in 0..pages {
            chip.read_data(Ppn(p as u32), &mut buf).map_err(|e| format!("probe read_data: {e}"))?;
            black_box(&buf);
        }
        read_ns += started.elapsed().as_nanos();

        let started = Instant::now();
        for b in 0..g.num_blocks {
            chip.erase_block(BlockId(b)).map_err(|e| format!("probe erase_block: {e}"))?;
        }
        erase_ns += started.elapsed().as_nanos();
    }
    let page_calls = (pages * ROUNDS) as f64;
    out.set("flash.program_page.host_ns", program_ns as f64 / page_calls);
    out.set("flash.read_data.host_ns", read_ns as f64 / page_calls);
    out.set("flash.erase_block.host_ns", erase_ns as f64 / (g.num_blocks as usize * ROUNDS) as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_pairs_skips_equal_pages_and_respects_the_limit() {
        let base = vec![0u8; 2048 * 10];
        let mut new = base.clone();
        for page in [1usize, 4, 5, 8] {
            new[page * 2048 + 7] = 1;
        }
        let all = changed_pairs(&base, &new, 2048, 100);
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|(b, n)| b != n && n[7] == 1));
        assert_eq!(changed_pairs(&base, &new, 2048, 2).len(), 2);
        assert!(changed_pairs(&base, &base, 2048, 2).is_empty());
    }

    #[test]
    fn probes_report_every_metric() {
        let base = vec![0u8; 2048];
        let mut new = base.clone();
        new[100..141].fill(9);
        let pairs = vec![(base, new)];
        let mut out = Layers::default();
        codec(&pairs, &mut out);
        chip(&pairs, &mut out).unwrap();
        for name in [
            "core.diff.compute.host_ns",
            "core.diff.encode.host_ns",
            "core.diff.apply.host_ns",
            "flash.program_page.host_ns",
            "flash.read_data.host_ns",
            "flash.erase_block.host_ns",
        ] {
            assert!(out.get(name).unwrap() > 0.0, "{name}");
        }
    }
}
