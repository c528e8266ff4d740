//! The Comparison List (§5): a batch of comparisons sorted in non-increasing
//! matching likelihood, consumed from the front during the emission phase
//! and refilled by the owning method when it runs dry.
//!
//! [`ComparisonList`] is the one emission engine of every advanced method
//! (LS-PSN, GS-PSN, PBS, PPS): one sorted run drained by cursor, at any
//! thread count. Methods fan their weighting passes out over
//! [`sper_blocking::Parallelism::steal_chunks`] and hand the chunk-order
//! concatenation to [`ComparisonList::refill`], which sorts it on the
//! calling thread by [`emission_order`] — a total order, so the emitted
//! sequence is a pure function of the batch's contents.

use crate::Comparison;
use std::cmp::Ordering;

/// The canonical emission order of every best-first engine: non-increasing
/// weight, ties broken by ascending pair id — fully deterministic.
///
/// Weights compare by [`f64::total_cmp`], so the order is total even when
/// a weight is NaN: a positive NaN emits before every number (including
/// `+∞`), a negative NaN after every number. Method weights are
/// non-negative, where `total_cmp` agrees with the numeric order.
///
/// Returns [`Ordering::Less`] when `a` must be emitted before `b`.
#[inline]
pub fn emission_order(a: &Comparison, b: &Comparison) -> Ordering {
    b.weight
        .total_cmp(&a.weight)
        .then_with(|| a.pair.cmp(&b.pair))
}

/// A drainable list of comparisons kept in non-increasing weight order.
///
/// Refill–sort–drain is the shared emission machinery of all advanced
/// methods (LS-PSN, GS-PSN, PBS, PPS). Draining is O(1) per emission: the
/// list is sorted once per refill and consumed via a cursor.
#[derive(Debug, Clone, Default)]
pub struct ComparisonList {
    items: Vec<Comparison>,
    cursor: usize,
}

impl ComparisonList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no comparison is left to emit.
    pub fn is_empty(&self) -> bool {
        self.cursor >= self.items.len()
    }

    /// Number of comparisons left to emit.
    pub fn remaining(&self) -> usize {
        self.items.len() - self.cursor
    }

    /// Adds a comparison to the pending batch (call [`Self::sort_descending`]
    /// before draining).
    pub fn push(&mut self, c: Comparison) {
        self.items.push(c);
    }

    /// Replaces the contents with `batch`, resetting the cursor. The batch
    /// is sorted in non-increasing weight (ties broken by pair id so that
    /// emission order is fully deterministic).
    pub fn refill(&mut self, batch: Vec<Comparison>) {
        // Per-batch (never per-pop) accounting keeps the drain loop clean.
        sper_obs::count!("emitter.refills");
        sper_obs::count!("emitter.refill_comparisons", batch.len() as u64);
        self.items = batch;
        self.cursor = 0;
        self.sort_descending();
    }

    /// Sorts the pending comparisons in non-increasing weight, ties by pair.
    pub fn sort_descending(&mut self) {
        self.items[self.cursor..].sort_by(emission_order);
    }

    /// Removes and returns the best remaining comparison.
    pub fn remove_first(&mut self) -> Option<Comparison> {
        if self.is_empty() {
            // Release memory of fully drained batches.
            if !self.items.is_empty() {
                self.items.clear();
                self.cursor = 0;
            }
            return None;
        }
        let c = self.items[self.cursor];
        self.cursor += 1;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::{Pair, ProfileId};

    fn cmp(a: u32, b: u32, w: f64) -> Comparison {
        Comparison::new(Pair::new(ProfileId(a), ProfileId(b)), w)
    }

    #[test]
    fn drains_in_descending_weight() {
        let mut list = ComparisonList::new();
        list.refill(vec![cmp(0, 1, 0.2), cmp(2, 3, 0.9), cmp(4, 5, 0.5)]);
        let weights: Vec<f64> = std::iter::from_fn(|| list.remove_first())
            .map(|c| c.weight)
            .collect();
        assert_eq!(weights, vec![0.9, 0.5, 0.2]);
        assert!(list.is_empty());
    }

    #[test]
    fn ties_broken_by_pair_id() {
        let mut list = ComparisonList::new();
        list.refill(vec![cmp(4, 5, 1.0), cmp(0, 1, 1.0), cmp(2, 3, 1.0)]);
        let pairs: Vec<Pair> = std::iter::from_fn(|| list.remove_first())
            .map(|c| c.pair)
            .collect();
        assert_eq!(
            pairs,
            vec![
                Pair::new(ProfileId(0), ProfileId(1)),
                Pair::new(ProfileId(2), ProfileId(3)),
                Pair::new(ProfileId(4), ProfileId(5)),
            ]
        );
    }

    #[test]
    fn refill_resets_cursor() {
        let mut list = ComparisonList::new();
        list.refill(vec![cmp(0, 1, 1.0)]);
        assert!(list.remove_first().is_some());
        assert!(list.remove_first().is_none());
        list.refill(vec![cmp(2, 3, 0.5)]);
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().weight, 0.5);
    }

    #[test]
    fn push_then_sort() {
        let mut list = ComparisonList::new();
        list.push(cmp(0, 1, 0.1));
        list.push(cmp(0, 2, 0.7));
        list.sort_descending();
        assert_eq!(list.remove_first().unwrap().weight, 0.7);
    }

    #[test]
    fn nan_weights_sort_at_the_ends_of_a_total_order() {
        // Large enough to leave the small-sort path, where the standard
        // library's sorts check their comparator for consistency.
        let mut batch: Vec<Comparison> = (0..1000u32)
            .map(|i| cmp(i, i + 1000, f64::from(i % 17)))
            .collect();
        for i in (0..1000).step_by(7) {
            batch[i].weight = f64::NAN;
        }
        for i in (3..1000).step_by(11) {
            batch[i].weight = -f64::NAN;
        }
        let nan_signed = |c: &Comparison, positive: bool| {
            c.weight.is_nan() && c.weight.is_sign_positive() == positive
        };
        let n_pos = batch.iter().filter(|c| nan_signed(c, true)).count();
        let n_neg = batch.iter().filter(|c| nan_signed(c, false)).count();
        let mut list = ComparisonList::new();
        list.refill(batch);
        let drained: Vec<Comparison> = std::iter::from_fn(|| list.remove_first()).collect();
        assert_eq!(drained.len(), 1000);
        let (head, rest) = drained.split_at(n_pos);
        let (numbers, tail) = rest.split_at(rest.len() - n_neg);
        // Positive NaN first, then the numbers in non-increasing order,
        // then negative NaN; pair id breaks ties inside each group.
        assert!(head.iter().all(|c| nan_signed(c, true)));
        assert!(tail.iter().all(|c| nan_signed(c, false)));
        assert!(numbers.iter().all(|c| !c.weight.is_nan()));
        assert!(numbers.windows(2).all(|w| w[0].weight >= w[1].weight));
        for group in [head, tail] {
            assert!(group.windows(2).all(|w| w[0].pair < w[1].pair));
        }
    }
}
