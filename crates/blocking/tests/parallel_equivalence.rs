//! Parallel-engine equivalence: the sharded execution paths are
//! observationally identical to the sequential paths — and, transitively,
//! to the string-keyed seed semantics preserved in
//! [`sper_blocking::legacy`] — at every thread count.
//!
//! What is pinned down:
//!
//! * **Weights** — the LeCoBI-sharded `parallel_blocking_graph` reproduces
//!   the naive string-keyed weight of every edge under all four weighting
//!   schemes at 1–8 threads, with the exact sequential edge order.
//! * **Neighbor List** — `par_build` is bit-identical to `build` for any
//!   seed and thread count (chunk-order concatenation + stable sort).
//! * **Degenerate inputs** — empty and single-profile collections take the
//!   parallel paths without panicking and produce the sequential results.

use proptest::prelude::*;
use sper_blocking::legacy::{string_block_lists, string_token_blocking, string_weight};
use sper_blocking::{
    parallel_blocking_graph, BlockingGraph, NeighborList, TokenBlocking, WeightingScheme,
};
use sper_model::{Pair, ProfileCollection, ProfileCollectionBuilder};

/// Random collections over a tiny alphabet — small vocabularies maximize
/// token collisions, which is where blocking behavior lives. Half the
/// cases are Dirty (both vecs in one source), half Clean-clean (P1 | P2).
fn any_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        0u8..2,
    )
        .prop_map(|(p1, p2, kind)| {
            let mut b = if kind == 0 {
                ProfileCollectionBuilder::dirty()
            } else {
                ProfileCollectionBuilder::clean_clean()
            };
            for v in p1 {
                b.add_profile([("t", v)]);
            }
            if kind != 0 {
                b.start_second_source();
            }
            for v in p2 {
                b.add_profile([("t", v)]);
            }
            b.build()
        })
}

proptest! {
    /// Parallel weight computation ≡ the string-keyed seed weights, for
    /// all four schemes at 1–8 threads: every edge of the sharded graph
    /// carries the weight the naive legacy intersection computes, and the
    /// edge sequence equals the sequential builder's.
    #[test]
    fn parallel_weights_match_legacy(coll in any_collection(), threads in 1usize..9) {
        let legacy = string_token_blocking(&coll);
        let lists = string_block_lists(&legacy, coll.len());
        // Key-sorted block order on both sides, so block ids line up.
        let blocks = TokenBlocking::default().build(&coll);
        for scheme in WeightingScheme::ALL {
            let sequential = BlockingGraph::build(&blocks, scheme);
            let parallel = parallel_blocking_graph(&blocks, scheme, threads)
                .expect("threads > 0");
            let seq_edges: Vec<(Pair, f64)> = sequential.edges().collect();
            let par_edges: Vec<(Pair, f64)> = parallel.edges().collect();
            prop_assert_eq!(par_edges.len(), seq_edges.len());
            for ((pp, pw), (sp, sw)) in par_edges.iter().zip(&seq_edges) {
                prop_assert_eq!(pp, sp, "edge order diverged under {}", scheme);
                prop_assert!((pw - sw).abs() < 1e-12);
                let expected = string_weight(
                    &legacy, &lists, coll.kind(), pp.first, pp.second, scheme,
                );
                prop_assert!(
                    (pw - expected).abs() < 1e-9,
                    "{scheme} weight of {:?} at {threads} threads: {pw} vs seed {expected}",
                    pp
                );
            }
        }
    }

    /// The parallel Neighbor List build is bit-identical to the sequential
    /// build for any seed and thread count.
    #[test]
    fn parallel_neighbor_list_matches_sequential(
        coll in any_collection(),
        seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let sequential = NeighborList::build(&coll, seed);
        let parallel = NeighborList::par_build(&coll, seed, threads).expect("threads > 0");
        prop_assert_eq!(parallel.as_slice(), sequential.as_slice());
    }
}

#[test]
fn empty_collection_under_parallel_paths() {
    let empty = ProfileCollectionBuilder::dirty().build();
    for threads in 1..=8 {
        let blocks = TokenBlocking::default().build(&empty);
        assert!(blocks.is_empty());
        let graph =
            parallel_blocking_graph(&blocks, WeightingScheme::Arcs, threads).expect("threads > 0");
        assert_eq!(graph.num_edges(), 0);
        assert_eq!(graph.num_nodes(), 0);
        let nl = NeighborList::par_build(&empty, 7, threads).expect("threads > 0");
        assert!(nl.is_empty());
    }
}

#[test]
fn single_profile_under_parallel_paths() {
    let mut b = ProfileCollectionBuilder::dirty();
    b.add_profile([("name", "solitary profile with several tokens")]);
    let one = b.build();
    let blocks = TokenBlocking::default().build(&one);
    let sequential_nl = NeighborList::build(&one, 7);
    for threads in 1..=8 {
        let graph =
            parallel_blocking_graph(&blocks, WeightingScheme::Ecbs, threads).expect("threads > 0");
        assert_eq!(graph.num_edges(), 0);
        let nl = NeighborList::par_build(&one, 7, threads).expect("threads > 0");
        assert_eq!(nl.as_slice(), sequential_nl.as_slice());
    }
}
