//! Update-command generation: "changing the data in the page".
//!
//! A single update command changes `%ChangedByOneU_Op` of the logical
//! page: a contiguous run of fresh random bytes (the paper's running
//! example `aaaaaa -> bbbbba -> bcccba` changes contiguous runs; "the
//! portion of data to be changed is randomly selected").
//!
//! Successive update commands against the *same* page advance through the
//! page from a random starting offset (one record after another, as a
//! DBMS updating rows in a slotted page does). This placement makes a
//! PDL differential grow linearly with the page's update count, matching
//! the paper's steady-state model ("the size of a differential changes
//! from 0 to 1 page size and back to 0 ... approximately half a page on
//! the average", footnote 16). Two other placements are available for the
//! ablation bench: independently uniform offsets (whose coverage union
//! grows concavely, inflating differentials) and scattered multi-run
//! updates.

use pdl_core::ChangeRange;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// Where successive update commands land within a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Random start per page, then sequential slots (default; see module
    /// docs).
    #[default]
    RoundRobin,
    /// Independently uniform random offset per update command.
    Uniform,
    /// Four scattered runs per update command.
    Scattered,
}

/// Generates update commands over logical pages.
pub struct UpdateGen {
    rng: StdRng,
    page_size: usize,
    /// Bytes changed by one update command.
    change_len: usize,
    placement: Placement,
    /// Per-page next-offset cursor for round-robin placement.
    cursors: HashMap<u64, usize>,
}

impl UpdateGen {
    /// `pct_changed` is `%ChangedByOneU_Op` (0.1 means 0.1%, 100 means the
    /// whole page). At least one byte always changes.
    pub fn new(seed: u64, page_size: usize, pct_changed: f64) -> UpdateGen {
        let change_len =
            (((page_size as f64) * pct_changed / 100.0).round() as usize).clamp(1, page_size);
        UpdateGen {
            rng: StdRng::seed_from_u64(seed),
            page_size,
            change_len,
            placement: Placement::default(),
            cursors: HashMap::new(),
        }
    }

    /// Override the placement policy (ablation).
    pub fn with_placement(mut self, placement: Placement) -> UpdateGen {
        self.placement = placement;
        self
    }

    /// Bytes changed per update command.
    pub fn change_len(&self) -> usize {
        self.change_len
    }

    /// Pick a uniformly random logical page.
    pub fn pick_page(&mut self, num_pages: u64) -> u64 {
        self.rng.gen_range(0..num_pages)
    }

    /// Decide whether the next operation of a mix is an update
    /// (`pct_update_ops` percent of operations are updates).
    pub fn next_is_update(&mut self, pct_update_ops: f64) -> bool {
        self.rng.gen_range(0.0..100.0) < pct_update_ops
    }

    /// Apply one update command of page `pid` to `page`, returning the
    /// changed ranges.
    pub fn apply(&mut self, pid: u64, page: &mut [u8]) -> Vec<ChangeRange> {
        debug_assert_eq!(page.len(), self.page_size);
        match self.placement {
            Placement::RoundRobin => {
                let len = self.change_len;
                let span = self.page_size - len; // last valid run offset
                let cursor = match self.cursors.get(&pid) {
                    Some(c) => *c,
                    None => {
                        let start = if span == 0 { 0 } else { self.rng.gen_range(0..=span) };
                        self.cursors.insert(pid, start);
                        start
                    }
                };
                let at = cursor.min(span);
                self.rng.fill_bytes(&mut page[at..at + len]);
                // Advance; the final run of a pass lands exactly at `span`
                // so the page tail is covered before wrapping to 0.
                let next = if at >= span { 0 } else { (at + len).min(span) };
                self.cursors.insert(pid, next);
                vec![ChangeRange::new(at, len)]
            }
            Placement::Uniform => {
                let at = self.rng.gen_range(0..=self.page_size - self.change_len);
                self.rng.fill_bytes(&mut page[at..at + self.change_len]);
                vec![ChangeRange::new(at, self.change_len)]
            }
            Placement::Scattered => {
                let runs = 4usize;
                let per = (self.change_len / runs).max(1);
                let mut out = Vec::with_capacity(runs);
                for _ in 0..runs {
                    let at = self.rng.gen_range(0..=self.page_size - per);
                    self.rng.fill_bytes(&mut page[at..at + per]);
                    out.push(ChangeRange::new(at, per));
                }
                out
            }
        }
    }

    /// Fill a page with the initial database content for `pid`
    /// (deterministic pseudo-random bytes).
    pub fn fill_initial(pid: u64, page: &mut [u8]) {
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15 ^ pid);
        rng.fill_bytes(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_len_follows_percentage() {
        assert_eq!(UpdateGen::new(1, 2048, 2.0).change_len(), 41);
        assert_eq!(UpdateGen::new(1, 2048, 100.0).change_len(), 2048);
        assert_eq!(UpdateGen::new(1, 2048, 0.1).change_len(), 2);
        // Never zero.
        assert_eq!(UpdateGen::new(1, 2048, 0.0001).change_len(), 1);
    }

    #[test]
    fn apply_changes_exactly_the_reported_range() {
        for placement in [Placement::RoundRobin, Placement::Uniform] {
            let mut g = UpdateGen::new(7, 512, 10.0).with_placement(placement);
            let mut page = vec![0u8; 512];
            let before = page.clone();
            let ranges = g.apply(3, &mut page);
            assert_eq!(ranges.len(), 1);
            let r = ranges[0];
            assert_eq!(r.len as usize, g.change_len());
            for (i, (a, b)) in before.iter().zip(page.iter()).enumerate() {
                if i < r.offset as usize || i >= r.end() {
                    assert_eq!(a, b, "byte {i} outside the range changed");
                }
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = UpdateGen::new(42, 256, 5.0);
        let mut b = UpdateGen::new(42, 256, 5.0);
        let mut pa = vec![0u8; 256];
        let mut pb = vec![0u8; 256];
        assert_eq!(a.pick_page(100), b.pick_page(100));
        assert_eq!(a.apply(9, &mut pa), b.apply(9, &mut pb));
        assert_eq!(pa, pb);
    }

    #[test]
    fn round_robin_covers_the_page_linearly() {
        // 10% updates: eleven successive updates of one page fully cover
        // it, adding the whole run as fresh bytes on all but the one
        // clamped step at the end of a pass.
        let mut g = UpdateGen::new(3, 500, 10.0);
        let mut page = vec![0u8; 500];
        let mut covered = vec![false; 500];
        let mut new_bytes_per_step = Vec::new();
        for _ in 0..11 {
            let ranges = g.apply(0, &mut page);
            let mut fresh = 0;
            for r in ranges {
                for i in r.offset as usize..r.end() {
                    if !covered[i] {
                        fresh += 1;
                    }
                    covered[i] = true;
                }
            }
            new_bytes_per_step.push(fresh);
        }
        assert!(covered.iter().all(|&c| c), "one pass covers the whole page");
        assert_eq!(new_bytes_per_step.iter().sum::<usize>(), 500);
        let full_steps = new_bytes_per_step.iter().filter(|&&f| f == 50).count();
        assert!(full_steps >= 9, "{new_bytes_per_step:?}");
    }

    #[test]
    fn uniform_mode_is_independent_of_pid() {
        let mut g = UpdateGen::new(5, 256, 5.0).with_placement(Placement::Uniform);
        let mut page = vec![0u8; 256];
        // No cursor state: two pages interleave freely without panic.
        for pid in [1u64, 2, 1, 2] {
            g.apply(pid, &mut page);
        }
    }

    #[test]
    fn scattered_mode_reports_multiple_runs() {
        let mut g = UpdateGen::new(3, 1024, 10.0).with_placement(Placement::Scattered);
        let mut page = vec![0u8; 1024];
        let ranges = g.apply(0, &mut page);
        assert_eq!(ranges.len(), 4);
    }

    #[test]
    fn initial_fill_is_deterministic_and_distinct() {
        let mut a = vec![0u8; 128];
        let mut b = vec![0u8; 128];
        let mut a2 = vec![0u8; 128];
        UpdateGen::fill_initial(1, &mut a);
        UpdateGen::fill_initial(2, &mut b);
        UpdateGen::fill_initial(1, &mut a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_probability_is_roughly_respected() {
        let mut g = UpdateGen::new(11, 128, 1.0);
        let updates = (0..10_000).filter(|_| g.next_is_update(30.0)).count();
        assert!((2_500..3_500).contains(&updates), "{updates}");
    }
}
