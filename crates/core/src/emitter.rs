//! The Comparison List (§5): a batch of comparisons drained in
//! non-increasing matching likelihood, refilled by the owning method when
//! it runs dry.
//!
//! [`ComparisonList`] is the one emission engine of every advanced method
//! (LS-PSN, GS-PSN, PBS, PPS), at any thread count. Methods fan their
//! weighting passes out over [`sper_blocking::Parallelism::steal_chunks`]
//! and hand the per-chunk batches straight to [`ComparisonList::refill`];
//! methods that build one batch hand over that batch.
//!
//! The list sorts lazily, in the sense of incremental sorting (Paredes &
//! Navarro, "Optimal Incremental Sorting", ALENEX 2006). Each weight maps
//! to a `u64` key that is monotone in [`emission_order`]. A refill of
//! many chunks partitions the batch once into key-range buckets: a
//! sampled key range, a counting pass, then a scatter of the chunks into
//! one bucketed buffer, which replaces their concatenation. Draining
//! sorts a bucket only when the cursor reaches it; a bucket too large to
//! sort whole, such as a single batch or the crowded bucket of a skewed
//! weight distribution, is first partitioned in place the same way. A
//! budgeted run that pops `k` of `n` comparisons so pays O(n + k log k)
//! rather than O(n log n), and a full drain sorts every bucket once.
//! Batches of a few thousand comparisons or fewer are a single bucket,
//! sorted whole on the first pop.
//!
//! Bucket index is monotone in the key, so the concatenation of the sorted
//! buckets is the fully sorted batch; [`emission_order`] is total and
//! calls two comparisons equal only when they are bitwise equal, so the
//! emitted sequence is a pure function of the batch's contents, whatever
//! its chunking and whichever sort algorithm runs inside a bucket.

use crate::Comparison;
use sper_model::{Pair, ProfileId};
use std::cmp::Ordering;

/// Batches up to this size are one bucket: one sort on the first pop,
/// exactly as an eager list would do, with no partition passes.
const SINGLE_BUCKET_MAX: usize = 4096;

/// Mean bucket size a partitioned batch aims for.
const BUCKET_TARGET: usize = 1024;

/// Most buckets a batch is partitioned into (bounds the counting array).
const MAX_BUCKETS: usize = 1 << 16;

/// One comparison in this many is sampled to fit the bucket key range.
const SAMPLE_STRIDE: usize = 64;

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

/// The bucket key of a weight: ascending key is non-increasing
/// [`f64::total_cmp`] order, so `emission_key(a.weight) <
/// emission_key(b.weight)` implies `emission_order(a, b) == Less`.
///
/// `total_cmp` orders the bits as a signed integer after flipping the
/// magnitude bits of negative weights. Inverting that for descending order
/// and reading it unsigned leaves negative weights' bits as they are and
/// flips the magnitude bits of non-negative ones.
#[inline]
fn emission_key(weight: f64) -> u64 {
    let bits = weight.to_bits();
    if bits >> 63 == 0 {
        bits ^ (u64::MAX >> 1)
    } else {
        bits
    }
}

/// The Debug-level span over one partition (range, counting and placement
/// passes) of `n` comparisons.
fn partition_span(n: usize) -> sper_obs::trace::SpanGuard {
    sper_obs::trace::SpanGuard::enter(sper_obs::trace::Level::Debug, "emitter.partition", || {
        vec![("comparisons", sper_obs::FieldValue::from(n))]
    })
}

/// Counts one refill of `n` comparisons — per batch, never per pop, which
/// keeps the drain loop clean.
fn count_refill(n: usize) {
    sper_obs::count!("emitter.refills");
    sper_obs::count!("emitter.refill_comparisons", n as u64);
}

/// A monotone map from comparisons to key-range buckets: bucket `b` holds
/// the keys in `[lo + b·2^shift, lo + (b+1)·2^shift)`, the first and last
/// bucket also every key below and above that range.
struct Buckets {
    lo: u64,
    shift: u32,
    last: u64,
}

impl Buckets {
    /// Fits buckets to the key range of a sample of `parts` (every
    /// [`SAMPLE_STRIDE`]-th comparison of each part) and counts all of
    /// them: returns the map and the bucket starts (`starts[b]` is the
    /// first slot of bucket `b`, the last entry the number of
    /// comparisons). `None` when every sampled key is equal.
    ///
    /// The sample's least and greatest keys fall in the first and the last
    /// bucket, so a fit always splits its input into two or more buckets.
    fn fit<'a>(
        parts: impl Iterator<Item = &'a [Comparison]> + Clone,
    ) -> Option<(Self, Vec<usize>)> {
        let (mut n, mut lo, mut hi) = (0, u64::MAX, u64::MIN);
        for part in parts.clone() {
            n += part.len();
            for c in part.iter().step_by(SAMPLE_STRIDE) {
                let k = emission_key(c.weight);
                (lo, hi) = (lo.min(k), hi.max(k));
            }
        }
        let range = hi.checked_sub(lo).filter(|&r| r > 0)?;
        // Drop low key bits until the key range fits the bucket budget, a
        // power of two.
        let budget = (n / BUCKET_TARGET).next_power_of_two().min(MAX_BUCKETS);
        let shift = (u64::BITS - range.leading_zeros()).saturating_sub(budget.ilog2());
        let buckets = Self {
            lo,
            shift,
            last: range >> shift,
        };
        let mut starts = vec![0usize; buckets.last as usize + 2];
        for c in parts.flatten() {
            starts[buckets.of(c) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        Some((buckets, starts))
    }

    /// The bucket of `c`.
    #[inline]
    fn of(&self, c: &Comparison) -> usize {
        let offset = emission_key(c.weight).saturating_sub(self.lo) >> self.shift;
        offset.min(self.last) as usize
    }
}

/// Partitions `items` in place into key-range buckets with an
/// American-flag permutation (every swap settles one comparison in its
/// bucket; no second buffer). Returns the bucket starts, or `None` —
/// leaving `items` as it is — when they are better sorted whole.
fn partition_in_place(items: &mut [Comparison]) -> Option<Vec<usize>> {
    let n = items.len();
    if n <= SINGLE_BUCKET_MAX {
        return None;
    }
    let _span = partition_span(n);
    let (buckets, starts) = Buckets::fit(std::iter::once(&*items))?;
    let mut heads = starts[..starts.len() - 1].to_vec();
    for b in 0..heads.len() {
        while heads[b] < starts[b + 1] {
            let d = buckets.of(&items[heads[b]]);
            if d != b {
                items.swap(heads[b], heads[d]);
            }
            heads[d] += 1;
        }
    }
    Some(starts)
}

/// The comparisons of one refill: one batch, or the per-chunk batches of
/// a fanned-out weighting pass in chunk order.
#[derive(Debug, Clone)]
pub struct Chunks(Batch);

#[derive(Debug, Clone)]
enum Batch {
    One(Vec<Comparison>),
    Many(Vec<Vec<Comparison>>),
}

impl From<Vec<Comparison>> for Chunks {
    fn from(batch: Vec<Comparison>) -> Self {
        Self(Batch::One(batch))
    }
}

impl From<Vec<Vec<Comparison>>> for Chunks {
    fn from(chunks: Vec<Vec<Comparison>>) -> Self {
        Self(Batch::Many(chunks))
    }
}

/// A drainable list of comparisons emitted in [`emission_order`].
///
/// Refill–partition–drain is the shared emission machinery of all
/// advanced methods (LS-PSN, GS-PSN, PBS, PPS). Draining is O(1) per
/// emission plus, when the cursor enters a new bucket, that bucket's sort.
#[derive(Debug, Clone, Default)]
pub struct ComparisonList {
    /// The batch, grouped into buckets in emission order; sorted up to
    /// `sorted_end`.
    items: Vec<Comparison>,
    /// End offsets of the buckets not yet sorted, last bucket first (so
    /// the next bucket to sort is popped off the back).
    pending_ends: Vec<usize>,
    /// End of the sorted prefix of `items`.
    sorted_end: usize,
    /// Next comparison to emit.
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

    /// Replaces the contents with the comparisons of `chunks`, resetting
    /// the cursor. How the batch is split into chunks does not affect the
    /// emitted sequence. A large multi-chunk batch is scattered into
    /// buckets here; no bucket is sorted until draining reaches it.
    pub fn refill(&mut self, chunks: impl Into<Chunks>) {
        self.cursor = 0;
        self.sorted_end = 0;
        self.pending_ends.clear();
        match chunks.into().0 {
            // One bucket for now; draining partitions it in place if large.
            Batch::One(batch) => {
                count_refill(batch.len());
                self.pending_ends.push(batch.len());
                self.items = batch;
            }
            Batch::Many(chunks) => self.gather(chunks),
        }
    }

    /// Loads the concatenation of `chunks` into `items`: scattered into
    /// buckets when large, copied in chunk order as one bucket otherwise.
    fn gather(&mut self, chunks: Vec<Vec<Comparison>>) {
        let n = chunks.iter().map(Vec::len).sum();
        count_refill(n);
        // Build the batch in the drained buffer of the previous one when
        // that is large enough; otherwise free it before allocating.
        let mut items = std::mem::take(&mut self.items);
        items.clear();
        if items.capacity() < n {
            items = Vec::with_capacity(n);
        }
        let large = n > SINGLE_BUCKET_MAX;
        let _span = large.then(|| partition_span(n));
        match large.then(|| Buckets::fit(chunks.iter().map(Vec::as_slice))) {
            // The scatter replaces a concatenation: one buffer, written
            // bucket by bucket in chunk order.
            Some(Some((buckets, starts))) => {
                // Every slot is overwritten by the scatter.
                let placeholder = Pair {
                    first: ProfileId(0),
                    second: ProfileId(0),
                };
                items.resize(n, Comparison::new(placeholder, 0.0));
                let mut heads = starts[..starts.len() - 1].to_vec();
                for c in chunks.into_iter().flatten() {
                    let b = buckets.of(&c);
                    items[heads[b]] = c;
                    heads[b] += 1;
                }
                self.pending_ends.extend(starts[1..].iter().rev());
            }
            _ => {
                for chunk in &chunks {
                    items.extend_from_slice(chunk);
                }
                self.pending_ends.push(n);
            }
        }
        self.items = items;
    }

    /// Sorts the next non-empty bucket, extending the sorted prefix; a
    /// bucket too large to sort whole is first partitioned in place into
    /// sub-buckets, the first of which is sorted. Returns false when every
    /// bucket is sorted.
    fn sort_next_bucket(&mut self) -> bool {
        while let Some(end) = self.pending_ends.pop() {
            let start = self.sorted_end;
            let bucket = &mut self.items[start..end];
            if bucket.is_empty() {
                continue;
            }
            if let Some(starts) = partition_in_place(bucket) {
                self.pending_ends
                    .extend(starts[1..].iter().rev().map(|&e| start + e));
                continue;
            }
            // Any sort yields the same sequence under a total order; the
            // stable one is measured faster on batches that arrive in
            // partly sorted runs, as PBS and PPS blocks do.
            bucket.sort_by(emission_order);
            sper_obs::count!("emitter.sorted_comparisons", bucket.len() as u64);
            self.sorted_end = end;
            return true;
        }
        false
    }

    /// Removes and returns the best remaining comparison.
    pub fn remove_first(&mut self) -> Option<Comparison> {
        if self.cursor == self.sorted_end && !self.sort_next_bucket() {
            // Reset a fully drained batch; a multi-chunk refill reuses its
            // buffer.
            if !self.items.is_empty() {
                self.items.clear();
                self.cursor = 0;
                self.sorted_end = 0;
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
    fn key_is_monotone_in_total_order() {
        let weights = [
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            0.0,
            -0.0,
            -f64::from_bits(1),
            -1.0,
            f64::MIN,
            f64::NEG_INFINITY,
            -f64::NAN,
        ];
        for w in weights.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Greater, "{w:?}");
            assert!(emission_key(w[0]) < emission_key(w[1]), "{w:?}");
        }
    }

    #[test]
    fn large_batches_sort_only_the_buckets_drained() {
        let batch: Vec<Comparison> = (0..100_000u32)
            .map(|i| {
                cmp(
                    i,
                    i + 100_000,
                    f64::from(i.wrapping_mul(2_654_435_761) % 9973),
                )
            })
            .collect();
        let mut list = ComparisonList::new();
        list.refill(batch.chunks(7_000).map(<[_]>::to_vec).collect::<Vec<_>>());
        for _ in 0..100 {
            list.remove_first();
        }
        assert!(list.sorted_end < batch.len() / 4, "{}", list.sorted_end);
        assert_eq!(list.remaining(), batch.len() - 100);
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
