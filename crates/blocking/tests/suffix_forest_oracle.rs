//! Oracle property test for the SA-PSAB suffix forest (§4.2).
//!
//! The reference is deliberately naïve and string-keyed: every suffix of
//! every `Tokenizer::tokenize` token, taken with `suffixes_of`, goes into a
//! `BTreeMap<String, BTreeSet<ProfileId>>`. From that map alone it derives
//! the forest the paper describes — comparable nodes only, ordered leaves
//! first (suffix length descending), then by increasing cardinality, then
//! by suffix string — and the test asserts [`SuffixForest::build`] matches
//! it node for node: key string, `suffix_len`, members (P1 first), `n_first`
//! and cardinality. It covers Dirty and Clean-clean collections,
//! multi-byte UTF-8 values and every `lmin` from 1 to 5.

use proptest::prelude::*;
use sper_blocking::SuffixForest;
use sper_model::{ErKind, ProfileCollection, ProfileCollectionBuilder, ProfileId, SourceId};
use sper_text::{suffixes_of, Tokenizer};
use std::collections::{BTreeMap, BTreeSet};

/// One expected forest node.
#[derive(Debug, PartialEq, Eq)]
struct OracleNode {
    key: String,
    suffix_len: u32,
    members: Vec<ProfileId>,
    n_first: usize,
    cardinality: u64,
}

/// The string-keyed reference forest in SA-PSAB processing order.
fn oracle(coll: &ProfileCollection, lmin: usize) -> Vec<OracleNode> {
    let tokenizer = Tokenizer::default();
    let mut index: BTreeMap<String, BTreeSet<ProfileId>> = BTreeMap::new();
    for p in coll.iter() {
        for attr in &p.attributes {
            for token in tokenizer.tokenize(&attr.value) {
                for suffix in suffixes_of(&token, lmin) {
                    index.entry(suffix.to_string()).or_default().insert(p.id);
                }
            }
        }
    }
    let mut nodes: Vec<OracleNode> = index
        .into_iter()
        .map(|(key, ids)| {
            let (firsts, seconds): (Vec<ProfileId>, Vec<ProfileId>) = ids
                .into_iter()
                .partition(|&id| coll.source_of(id) == SourceId::FIRST);
            let n_first = firsts.len();
            let cardinality = match coll.kind() {
                ErKind::Dirty => {
                    let n = n_first as u64;
                    n * n.saturating_sub(1) / 2
                }
                ErKind::CleanClean => (n_first * seconds.len()) as u64,
            };
            let mut members = firsts;
            members.extend(seconds);
            OracleNode {
                suffix_len: key.chars().count() as u32,
                key,
                members,
                n_first,
                cardinality,
            }
        })
        .filter(|n| n.cardinality > 0)
        .collect();
    nodes.sort_by(|a, b| {
        b.suffix_len
            .cmp(&a.suffix_len)
            .then(a.cardinality.cmp(&b.cardinality))
            .then_with(|| a.key.cmp(&b.key))
    });
    nodes
}

/// The forest under test, flattened into the oracle's shape.
fn flatten(forest: &SuffixForest) -> Vec<OracleNode> {
    let kind = forest.kind();
    forest
        .nodes()
        .map(|node| OracleNode {
            key: node.block.key_str().to_string(),
            suffix_len: node.suffix_len,
            members: node.block.profiles().to_vec(),
            n_first: node.block.first_source().len(),
            cardinality: node.block.cardinality(kind),
        })
        .collect()
}

/// Attribute values over a tiny ASCII alphabet (so suffixes collide)
/// mixed with multi-byte characters and separators.
fn value() -> impl Strategy<Value = String> {
    "[abcdé日ß .,_-]{0,14}"
}

/// A profile: one to three attribute values.
fn profile() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(value(), 1..4)
}

/// Dirty collections (`kind == 0`) put both vectors in one source;
/// Clean-clean collections split them into P1 | P2.
fn any_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        proptest::collection::vec(profile(), 0..12),
        proptest::collection::vec(profile(), 0..12),
        0u8..2,
    )
        .prop_map(|(p1, p2, kind)| {
            let mut b = if kind == 0 {
                ProfileCollectionBuilder::dirty()
            } else {
                ProfileCollectionBuilder::clean_clean()
            };
            let add = |b: &mut ProfileCollectionBuilder, values: Vec<String>| {
                b.add_profile(values.into_iter().map(|v| ("a", v)));
            };
            for values in p1 {
                add(&mut b, values);
            }
            if kind != 0 {
                b.start_second_source();
            }
            for values in p2 {
                add(&mut b, values);
            }
            b.build()
        })
}

proptest! {
    /// Every `lmin` from 1 to 5 on each drawn collection.
    #[test]
    fn forest_matches_string_keyed_oracle(coll in any_collection()) {
        for lmin in 1..=5 {
            let forest = SuffixForest::build(&coll, lmin);
            let expected = oracle(&coll, lmin);
            prop_assert_eq!(forest.len(), expected.len());
            prop_assert_eq!(flatten(&forest), expected);
        }
    }
}

#[test]
fn multi_attribute_profiles_count_once_per_suffix() {
    // Profile 0 carries "main" and "gain" in two attributes: it joins the
    // "ain" block once. The accented "mañana" splits at the non-ASCII
    // character into "ma" and "ana", so profile 1 shares "ana" with
    // profile 2's "banana".
    let mut b = ProfileCollectionBuilder::clean_clean();
    b.add_profile([("x", "main"), ("y", "gain")]);
    b.add_profile([("x", "mañana")]);
    b.start_second_source();
    b.add_profile([("x", "pain banana")]);
    let coll = b.build();
    for lmin in 1..=5 {
        let forest = SuffixForest::build(&coll, lmin);
        assert_eq!(flatten(&forest), oracle(&coll, lmin), "lmin = {lmin}");
    }
    let forest = SuffixForest::build(&coll, 3);
    let ain = flatten(&forest)
        .into_iter()
        .find(|n| n.key == "ain")
        .expect("ain spans both sources");
    assert_eq!(ain.members, vec![ProfileId(0), ProfileId(2)]);
    assert_eq!(ain.n_first, 1);
    assert_eq!(ain.cardinality, 1);
    let ana = flatten(&forest)
        .into_iter()
        .find(|n| n.key == "ana")
        .expect("ana spans both sources");
    assert_eq!(ana.members, vec![ProfileId(1), ProfileId(2)]);
}
