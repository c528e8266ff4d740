//! Local Schema-Agnostic PSN (LS-PSN), §5.1.1, Algorithms 1–2.
//!
//! LS-PSN trades a higher initialization cost for a much better comparison
//! order: instead of emitting window-`w` pairs in list order (SA-PSN), it
//! *weights* every comparison of the current window with the RCF scheme and
//! emits them in non-increasing weight. When the Comparison List of the
//! current window runs dry, the window is incremented and the weighting
//! pass repeats (a *local* execution order per window size — hence the
//! name; the same pair can resurface at a later window).
//!
//! Data structures: the Neighbor List array `NL` and the Position Index
//! `PI` (profile id → positions), both flat arrays as prescribed by the
//! paper ("a hash index … would increase both the space and the time
//! complexity").

use crate::emitter::ComparisonList;
use crate::rcf::NeighborWeighting;
use crate::scratch::CooccurrenceScratch;
use crate::{Comparison, ProgressiveEr};
use sper_blocking::neighbor_list::NeighborList;
use sper_blocking::Parallelism;
use sper_model::{Pair, ProfileCollection, ProfileId};

/// One weighting pass over `range` at window size `w` (Algorithm 1 lines
/// 5–20) — the unit of work of every window fill, on a dense scratch (one
/// per worker, touched-list reset).
fn weight_window_range(
    profiles: &ProfileCollection,
    nl: &NeighborList,
    weighting: NeighborWeighting,
    w: isize,
    range: std::ops::Range<u32>,
    scratch: &mut CooccurrenceScratch,
) -> Vec<Comparison> {
    let pi = nl.position_index();
    let mut batch: Vec<Comparison> = Vec::new();
    for i in range {
        let i = ProfileId(i);
        for &pos in pi.positions_of(i) {
            for probe in [pos as isize + w, pos as isize - w] {
                let Some(j) = nl.get(probe) else {
                    continue;
                };
                if j != i && crate::is_valid_similarity_neighbor(profiles, i, j) {
                    scratch.bump(j);
                }
            }
        }
        scratch.drain(|j, f| {
            let weight = weighting.weight(f, pi.num_positions(i), pi.num_positions(j));
            batch.push(Comparison::new(Pair::new(i, j), weight));
        });
    }
    batch
}

/// The advanced similarity-based method with per-window (local) ordering.
#[derive(Debug)]
pub struct LsPsn<'a> {
    profiles: &'a ProfileCollection,
    nl: NeighborList,
    weighting: NeighborWeighting,
    window: usize,
    list: ComparisonList,
    /// Worker count of every window fill.
    par: Parallelism,
}

impl<'a> LsPsn<'a> {
    /// Initialization phase (Algorithm 1): builds `NL` and `PI`, weights the
    /// window-1 comparisons and sorts them into the Comparison List.
    ///
    /// ```
    /// use sper_core::ls_psn::LsPsn;
    /// use sper_model::ProfileCollectionBuilder;
    ///
    /// let mut b = ProfileCollectionBuilder::dirty();
    /// b.add_profile([("name", "carl white ny tailor")]);
    /// b.add_profile([("name", "karl white ny tailor")]);
    /// let profiles = b.build();
    /// let best = LsPsn::new(&profiles, 42).next().expect("one pair exists");
    /// assert!(best.weight > 0.0);
    /// ```
    pub fn new(profiles: &'a ProfileCollection, seed: u64) -> Self {
        Self::with_weighting(profiles, seed, NeighborWeighting::default())
    }

    /// Like [`Self::new`] with an explicit window weighting scheme.
    pub fn with_weighting(
        profiles: &'a ProfileCollection,
        seed: u64,
        weighting: NeighborWeighting,
    ) -> Self {
        Self::from_neighbor_list(profiles, NeighborList::build(profiles, seed), weighting)
    }

    /// Builds LS-PSN over an externally maintained Neighbor List — the
    /// streaming path (`sper-stream`), where the list is kept up to date
    /// incrementally instead of being rebuilt per run. The list must index
    /// exactly `profiles` (same profile count).
    pub fn from_neighbor_list(
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        weighting: NeighborWeighting,
    ) -> Self {
        Self::from_neighbor_list_par(profiles, nl, weighting, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::from_neighbor_list`], weighting each window's
    /// comparisons on `par` worker threads (work-stealing profile chunks,
    /// per-worker scratch). Emission order is identical at every worker
    /// count.
    pub fn from_neighbor_list_par(
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        weighting: NeighborWeighting,
        par: Parallelism,
    ) -> Self {
        assert_eq!(
            nl.position_index().n_profiles(),
            profiles.len(),
            "Neighbor List indexes a different profile count"
        );
        let mut this = Self {
            profiles,
            nl,
            weighting,
            window: 1,
            list: ComparisonList::new(),
            par,
        };
        this.fill_window();
        this
    }

    /// Current window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// One weighting pass over the current window (Algorithm 1 lines 5–20),
    /// fanned out over the configured workers.
    fn fill_window(&mut self) {
        let w = self.window as isize;
        let iterated = crate::iterated_profile_range(self.profiles);
        // One fill per window growth: below the spawn break-even, keep the
        // pass on the calling thread.
        let par = if iterated.len() < sper_blocking::MIN_PARALLEL_BATCH {
            Parallelism::SEQUENTIAL
        } else {
            self.par
        };
        let (profiles, nl, weighting) = (self.profiles, &self.nl, self.weighting);
        // Each chunk's batch is a pure function of its profile range, so
        // the chunk-order concatenation is the same at every worker count.
        let batch: Vec<Comparison> = par
            .steal_chunks(
                iterated.len(),
                sper_blocking::STEAL_MIN_CHUNK,
                || CooccurrenceScratch::new(profiles.len()),
                |scratch, range, _chunk| {
                    weight_window_range(
                        profiles,
                        nl,
                        weighting,
                        w,
                        range.start as u32..range.end as u32,
                        scratch,
                    )
                },
            )
            .concat();
        self.list.refill(batch);
    }
}

impl Iterator for LsPsn<'_> {
    type Item = Comparison;

    /// Emission phase (Algorithm 2): pop the best comparison; when the list
    /// for the current window is exhausted, grow the window and re-weight.
    fn next(&mut self) -> Option<Comparison> {
        loop {
            if let Some(c) = self.list.remove_first() {
                return Some(c);
            }
            self.window += 1;
            if self.window >= self.nl.len() {
                return None;
            }
            self.fill_window();
        }
    }
}

impl ProgressiveEr for LsPsn<'_> {
    fn method_name(&self) -> &'static str {
        "LS-PSN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_model::ProfileCollectionBuilder;
    use std::collections::HashSet;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn fig6_early_emissions_are_match_heavy() {
        // Example 4 / Fig. 6: at window 1 the top-weighted comparisons are
        // dominated by the duplicate pairs. With only six profiles the exact
        // ranks depend on the coincidental run order (our seeded shuffle vs.
        // the paper's illustration), so we assert the robust property: at
        // least two distinct true matches appear within the first five
        // emissions.
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let hits: HashSet<Pair> = LsPsn::new(&profiles, 7)
            .take(5)
            .map(|c| c.pair)
            .filter(|p| truth.is_match_pair(*p))
            .collect();
        assert!(hits.len() >= 2, "got {hits:?}");
    }

    #[test]
    fn window1_weights_non_increasing() {
        let profiles = fig3_profiles();
        let mut ls = LsPsn::new(&profiles, 7);
        let mut prev = f64::INFINITY;
        while ls.window() == 1 {
            let Some(c) = ls.next() else { break };
            if ls.window() > 1 {
                break;
            }
            assert!(c.weight <= prev + 1e-12);
            prev = c.weight;
        }
    }

    #[test]
    fn no_repeats_within_a_window() {
        let profiles = fig3_profiles();
        let mut ls = LsPsn::new(&profiles, 3);
        let mut seen: HashSet<Pair> = HashSet::new();
        loop {
            if ls.window() > 1 {
                break;
            }
            let Some(c) = ls.next() else { break };
            if ls.window() > 1 {
                break;
            }
            assert!(seen.insert(c.pair), "repeat within window: {c:?}");
        }
    }

    #[test]
    fn rcf_weight_values() {
        // Two profiles sharing both their tokens co-occur twice at w=1 when
        // their tokens are adjacent in the sorted key list.
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "aa ab")]);
        b.add_profile([("t", "aa ab")]);
        let coll = b.build();
        let mut ls = LsPsn::new(&coll, 0);
        let c = ls.next().unwrap();
        // NL is some interleaving of {p0, p1} runs for keys aa, ab; at w=1
        // freq ∈ {1, 2, 3} (a neighbor can be hit from both directions), so
        // RCF = f / max(2 + 2 − f, 1) is positive.
        assert!(c.weight > 0.0);
        assert_eq!(c.pair, Pair::new(pid(0), pid(1)));
    }

    #[test]
    fn clean_clean_emits_cross_source_only() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("t", "alpha beta gamma")]);
        b.add_profile([("t", "alpha delta")]);
        b.start_second_source();
        b.add_profile([("t", "alpha beta")]);
        let coll = b.build();
        let ls = LsPsn::new(&coll, 0);
        let pairs: Vec<Pair> = ls.take(50).map(|c| c.pair).collect();
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert!(coll.is_valid_comparison(p.first, p.second));
        }
    }

    #[test]
    fn terminates_on_exhaustion() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "x y")]);
        b.add_profile([("t", "y z")]);
        let coll = b.build();
        let count = LsPsn::new(&coll, 0).count();
        assert!(count > 0, "must emit something");
        // Termination is the assertion: count() returned.
    }

    #[test]
    fn repeats_possible_across_windows() {
        // LS-PSN "is likely to emit the same comparison multiple times, for
        // two or more different window sizes" (§5.1.2).
        let profiles = fig3_profiles();
        let pairs: Vec<Pair> = LsPsn::new(&profiles, 7).map(|c| c.pair).collect();
        let distinct: HashSet<Pair> = pairs.iter().copied().collect();
        assert!(pairs.len() > distinct.len());
    }

    #[test]
    fn eventual_quality_all_nearby_pairs_covered() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let found: HashSet<Pair> = LsPsn::new(&profiles, 5)
            .map(|c| c.pair)
            .filter(|p| truth.is_match_pair(*p))
            .collect();
        assert_eq!(found.len(), truth.num_matches());
    }

    #[test]
    fn frequency_weighting_variant() {
        let profiles = fig3_profiles();
        let ls = LsPsn::with_weighting(&profiles, 7, NeighborWeighting::Frequency);
        for c in ls.take(10) {
            assert!(c.weight >= 1.0, "raw counts are ≥ 1");
        }
    }
}
