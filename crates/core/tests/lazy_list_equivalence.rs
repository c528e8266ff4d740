//! The lazy Comparison List drains exactly what one full sort emits.
//!
//! Oracle: concatenate the chunks, then `sort_by(emission_order)`. The
//! lazy list partitions the batch into key-range buckets and sorts a
//! bucket only when the cursor reaches it; its drain must equal the
//! oracle bit for bit (pair and weight bits) for every chunking of every
//! batch — empty chunks and empty batches, heavy ties, one giant bucket
//! of equal weights, skewed distributions, the special floats (±0.0,
//! ±NaN, ±∞, subnormals), batch sizes on both sides of the single-bucket
//! cutoff, and a partial drain followed by a refill.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sper_core::{emission_order, Comparison, ComparisonList};
use sper_model::{Pair, ProfileId};

/// The weight distributions a batch draws from.
const SHAPES: u8 = 7;

/// Draws one weight of distribution `shape`.
fn weight(rng: &mut StdRng, shape: u8, ties: &[f64]) -> f64 {
    match shape {
        // Uniform in [0, 1).
        0 => rng.gen::<f64>(),
        // Heavy ties: a handful of distinct values.
        1 => ties[rng.gen_range(0..ties.len())],
        // One giant bucket: every weight equal.
        2 => ties[0],
        // Skewed: most mass near zero, a long thin tail, some exact zeros.
        3 => {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen::<f64>().powi(12) * 1e6
            }
        }
        // Integer co-occurrence counts with a geometric tail.
        4 => {
            let mut k = 1.0;
            while rng.gen_bool(0.7) {
                k += 1.0;
            }
            k
        }
        // Special floats mixed into ordinary ones.
        5 => {
            const SPECIAL: [f64; 12] = [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                1.0,
                -1.0,
                5e-324,
                -5e-324,
            ];
            match rng.gen_range(0..4u8) {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                // NaN of either sign with an arbitrary payload.
                1 => f64::from_bits(
                    (rng.gen::<u64>() & 1 << 63) | 0x7FF0_0000_0000_0001 | rng.gen::<u64>() >> 13,
                ),
                // A subnormal of either sign.
                2 => f64::from_bits(rng.gen::<u64>() & 0x800F_FFFF_FFFF_FFFF),
                _ => rng.gen::<f64>() * 10.0 - 5.0,
            }
        }
        // Any bit pattern at all.
        _ => f64::from_bits(rng.gen::<u64>()),
    }
}

/// A batch of `n` comparisons split into `n_chunks` chunks (some possibly
/// empty) at random cut points.
fn chunked_batch(seed: u64, shape: u8, n: usize, n_chunks: usize) -> Vec<Vec<Comparison>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ties: Vec<f64> = (0..rng.gen_range(1..5usize))
        .map(|_| rng.gen_range(0..4u32) as f64 * 0.25)
        .collect();
    // Few profiles, so pairs repeat and ties within a weight are common.
    let profiles = rng.gen_range(2..400u32);
    let batch: Vec<Comparison> = (0..n)
        .map(|_| {
            let a = rng.gen_range(0..profiles);
            let b = (a + rng.gen_range(1..profiles)) % profiles;
            Comparison::new(
                Pair::new(ProfileId(a), ProfileId(b)),
                weight(&mut rng, shape, &ties),
            )
        })
        .collect();
    let mut cuts: Vec<usize> = (1..n_chunks).map(|_| rng.gen_range(0..=n)).collect();
    cuts.sort_unstable();
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for cut in cuts.into_iter().chain([n]) {
        chunks.push(batch[start..cut].to_vec());
        start = cut;
    }
    chunks
}

/// The eager reference: one concatenation, one full sort.
fn oracle(chunks: &[Vec<Comparison>]) -> Vec<Comparison> {
    let mut all = chunks.concat();
    all.sort_by(emission_order);
    all
}

/// Comparisons as exact bits, so NaN payloads and signed zeros count.
fn bits(cs: &[Comparison]) -> Vec<(Pair, u64)> {
    cs.iter().map(|c| (c.pair, c.weight.to_bits())).collect()
}

/// Refills `list` from `chunks`, handing a lone chunk over as a single
/// batch (kept as one bucket and partitioned in place while draining).
fn refill(list: &mut ComparisonList, mut chunks: Vec<Vec<Comparison>>) {
    if chunks.len() == 1 {
        list.refill(chunks.pop().expect("one chunk"));
    } else {
        list.refill(chunks);
    }
}

/// Pops up to `k` comparisons, checking `remaining` along the way.
fn drain(list: &mut ComparisonList, k: usize) -> Vec<Comparison> {
    let mut out = Vec::new();
    while out.len() < k {
        let before = list.remaining();
        match list.remove_first() {
            Some(c) => {
                assert_eq!(list.remaining(), before - 1);
                out.push(c);
            }
            None => break,
        }
    }
    out
}

/// Batch sizes: empty, small, straddling the single-bucket cutoff of 4096,
/// and large enough for several bucket levels.
fn size(class: u8, rng_bits: u64) -> usize {
    let r = rng_bits as usize;
    match class {
        0 => 0,
        1 => 1 + r % 300,
        2 => 4090 + r % 14,
        _ => 4097 + r % 40_000,
    }
}

proptest! {
    #[test]
    fn lazy_drain_equals_concat_then_sort(
        seed in 0u64..u64::MAX,
        shape in 0u8..SHAPES,
        class in 0u8..4,
        n_chunks in 1usize..10,
    ) {
        let n = size(class, seed);
        let chunks = chunked_batch(seed, shape, n, n_chunks);
        let expected = oracle(&chunks);
        let mut list = ComparisonList::new();
        refill(&mut list, chunks);
        prop_assert_eq!(list.remaining(), n);
        let drained = drain(&mut list, usize::MAX);
        prop_assert!(list.is_empty());
        prop_assert!(list.remove_first().is_none());
        prop_assert!(bits(&drained) == bits(&expected), "shape {shape}, n {n}, {n_chunks} chunks");
    }

    #[test]
    fn partial_drain_then_refill_equals_two_sorts(
        seed in 0u64..u64::MAX,
        shapes in (0u8..SHAPES, 0u8..SHAPES),
        classes in (0u8..4, 0u8..4),
        n_chunks in (1usize..10, 1usize..10),
    ) {
        let (n1, n2) = (size(classes.0, seed), size(classes.1, seed.rotate_left(17)));
        let first = chunked_batch(seed, shapes.0, n1, n_chunks.0);
        let second = chunked_batch(seed ^ 0xA5A5, shapes.1, n2, n_chunks.1);
        let (expected1, expected2) = (oracle(&first), oracle(&second));

        let mut list = ComparisonList::new();
        refill(&mut list, first);
        let k = (seed >> 7) as usize % (n1 + 1);
        let head = drain(&mut list, k);
        prop_assert!(bits(&head) == bits(&expected1[..k]), "first batch prefix of {k}");
        prop_assert_eq!(list.remaining(), n1 - k);

        refill(&mut list, second);
        prop_assert_eq!(list.remaining(), n2);
        let drained = drain(&mut list, usize::MAX);
        prop_assert!(bits(&drained) == bits(&expected2), "second batch after {k} of {n1}");
    }
}

/// The emitted sequence is a pure function of the batch: every chunking of
/// one batch drains identically, whichever partition path it takes (a
/// single batch is partitioned in place while draining, chunks are
/// scattered at refill).
#[test]
fn chunking_never_changes_the_drain() {
    for shape in 0..SHAPES {
        let whole = chunked_batch(u64::from(shape), shape, 20_000, 1).remove(0);
        let expected = bits(&oracle(std::slice::from_ref(&whole)));
        let mut list = ComparisonList::new();
        list.refill(whole.clone());
        assert_eq!(
            bits(&drain(&mut list, usize::MAX)),
            expected,
            "shape {shape}, one batch"
        );
        for n_chunks in [1, 2, 8, 64] {
            let per = whole.len().div_ceil(n_chunks);
            let chunks: Vec<Vec<Comparison>> = whole.chunks(per).map(<[_]>::to_vec).collect();
            list.refill(chunks);
            let drained = drain(&mut list, usize::MAX);
            assert_eq!(bits(&drained), expected, "shape {shape}, {n_chunks} chunks");
        }
    }
}
