//! Schema-Agnostic Progressive Suffix Arrays Blocking (SA-PSAB), §4.2.
//!
//! The naïve block-based method: every attribute-value token contributes all
//! suffixes of at least `lmin` characters; the resulting suffix forest is
//! processed *leaves first, root last* (longest suffixes first; within a
//! layer, smallest blocks first), emitting every comparison of each block in
//! turn. It is the easiest-to-configure hierarchy method (`lmin` is the only
//! parameter) and the schema-agnostic analogue of the hierarchical method
//! of \[9\], but the huge root blocks make it unscalable — the finding of
//! §7.2.

use crate::{Comparison, ProgressiveEr};
use sper_blocking::suffix_forest::SuffixForest;
use sper_model::{ErKind, Pair, ProfileCollection};

/// The naïve hierarchy-based method.
///
/// Emission walks the forest's CSR rows in place: the cursor `(a, b)`
/// names the next pair `(members[a], members[b])` of the loaded node, in
/// the order [`BlockRef::comparisons`](sper_blocking::BlockRef::comparisons)
/// lists them, so no per-node pair buffer is built.
#[derive(Debug)]
pub struct SaPsab {
    forest: SuffixForest,
    kind: ErKind,
    /// The next node to load.
    next_node: usize,
    /// Cursor into the forest's packed member array.
    a: usize,
    b: usize,
    /// One past the last `a` of the loaded node that has a partner.
    a_end: usize,
    /// End of the loaded node's row.
    end: usize,
    /// Start of the loaded node's `P2` partition.
    second: usize,
    /// Weight of the loaded node's comparisons.
    weight: f64,
}

impl SaPsab {
    /// Default minimum suffix length (characters).
    pub const DEFAULT_LMIN: usize = 3;

    /// Initialization phase: extracts every suffix of length ≥ `lmin` from
    /// every attribute-value token and schedules the suffix forest.
    ///
    /// ```
    /// use sper_core::sa_psab::SaPsab;
    /// use sper_model::{Pair, ProfileCollectionBuilder, ProfileId};
    ///
    /// let mut b = ProfileCollectionBuilder::dirty();
    /// b.add_profile([("name", "montgomery")]);
    /// b.add_profile([("name", "montgomery")]);
    /// b.add_profile([("name", "unrelated")]);
    /// let profiles = b.build();
    /// // The long shared suffix puts the duplicate pair first.
    /// let first = SaPsab::new(&profiles, 3).next().unwrap();
    /// assert_eq!(first.pair, Pair::new(ProfileId(0), ProfileId(1)));
    /// ```
    pub fn new(profiles: &ProfileCollection, lmin: usize) -> Self {
        Self {
            forest: SuffixForest::build(profiles, lmin),
            kind: profiles.kind(),
            next_node: 0,
            a: 0,
            b: 0,
            a_end: 0,
            end: 0,
            second: 0,
            weight: 0.0,
        }
    }

    /// The scheduled suffix forest.
    pub fn forest(&self) -> &SuffixForest {
        &self.forest
    }
}

impl Iterator for SaPsab {
    type Item = Comparison;

    fn next(&mut self) -> Option<Comparison> {
        loop {
            let members = self.forest.blocks().raw_parts().members;
            if let Some(&other) = members[..self.end].get(self.b) {
                self.b += 1;
                let pair = Pair::new(members[self.a], other);
                return Some(Comparison::new(pair, self.weight));
            }
            // `a` has no partner left: advance it, loading the next node
            // when the row is done.
            self.a += 1;
            if self.a >= self.a_end {
                if self.next_node == self.forest.len() {
                    return None;
                }
                let node = self.forest.node(self.next_node);
                let start = self.forest.blocks().raw_parts().offsets[self.next_node] as usize;
                self.next_node += 1;
                self.a = start;
                self.end = start + node.block.size();
                self.second = start + node.block.first_source().len();
                self.a_end = match self.kind {
                    ErKind::Dirty => self.end - 1,
                    ErKind::CleanClean => self.second,
                };
                // All comparisons of one block share the same (implicit)
                // likelihood; the suffix length is a natural proxy.
                self.weight = f64::from(node.suffix_len);
            }
            // Dirty ER pairs `a` with every later member, Clean-clean ER
            // each P1 member with every P2 member.
            self.b = match self.kind {
                ErKind::Dirty => self.a + 1,
                ErKind::CleanClean => self.second,
            };
        }
    }
}

impl ProgressiveEr for SaPsab {
    fn method_name(&self) -> &'static str {
        "SA-PSAB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::{ProfileCollectionBuilder, ProfileId};
    use std::collections::HashSet;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn leaves_before_roots() {
        // gain/pain share "ain"; join/coin share "oin"; all share "in".
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        b.add_profile([("w", "join")]);
        b.add_profile([("w", "coin")]);
        let coll = b.build();
        let emissions: Vec<Comparison> = SaPsab::new(&coll, 2).collect();
        // Layer-3 blocks (ain, oin) first: 1 + 1 comparisons; then the
        // 4-profile root "in": 6 comparisons.
        assert_eq!(emissions.len(), 8);
        let first_two: HashSet<Pair> = emissions[..2].iter().map(|c| c.pair).collect();
        assert!(first_two.contains(&Pair::new(pid(0), pid(1))));
        assert!(first_two.contains(&Pair::new(pid(2), pid(3))));
        // Depth proxy non-increasing.
        let depths: Vec<f64> = emissions.iter().map(|c| c.weight).collect();
        assert!(depths.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn repeats_across_layers() {
        // The "ain" pair repeats inside "in": naïve methods do not dedup.
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        let coll = b.build();
        let pairs: Vec<Pair> = SaPsab::new(&coll, 2).map(|c| c.pair).collect();
        assert_eq!(pairs.len(), 2); // once in "ain", again in "in".
        assert!(pairs.iter().all(|&p| p == Pair::new(pid(0), pid(1))));
    }

    #[test]
    fn matches_surface_before_unrelated_pairs() {
        // A duplicate pair sharing a long token is emitted before pairs
        // that only share a short suffix.
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("name", "montgomery")]);
        b.add_profile([("name", "montgomery")]);
        b.add_profile([("name", "zontgomery")]); // shares suffix only
        let coll = b.build();
        let first = SaPsab::new(&coll, 3).next().unwrap();
        assert_eq!(first.pair, Pair::new(pid(0), pid(1)));
    }

    #[test]
    fn empty_collection_terminates() {
        let coll = ProfileCollectionBuilder::dirty().build();
        assert!(SaPsab::new(&coll, 3).next().is_none());
    }

    #[test]
    fn lmin_controls_forest_size() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "abcdef")]);
        b.add_profile([("w", "abcdef")]);
        let coll = b.build();
        let deep = SaPsab::new(&coll, 2);
        let shallow = SaPsab::new(&coll, 5);
        assert!(deep.forest().len() > shallow.forest().len());
    }

    #[test]
    fn method_name() {
        let coll = ProfileCollectionBuilder::dirty().build();
        assert_eq!(SaPsab::new(&coll, 3).method_name(), "SA-PSAB");
    }
}
