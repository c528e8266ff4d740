//! The suffix forest of Suffix Arrays Blocking (§4.2, Fig. 5).
//!
//! Every attribute-value token is converted into all of its suffixes with at
//! least `lmin` characters. Each distinct suffix indexes a block; the
//! blocks form trees (a suffix is the parent of the one-character-longer
//! suffixes ending with it) — one tree per distinct `lmin`-length suffix.
//!
//! SA-PSAB processes the forest *leaves first, root last*: nodes are
//! scheduled by decreasing suffix length (layer) and, within a layer, by
//! increasing number of comparisons (§4.2).
//!
//! [`SuffixForest::build`] works in counting passes over dense local ids,
//! so a suffix is hashed once per distinct *word*, not once per profile
//! occurrence, and nothing is allocated per node:
//!
//! 1. tokens feed a local word map; each profile keeps a sorted,
//!    deduplicated list of word ids;
//! 2. each distinct word's suffixes ([`SuffixIter`], borrowed slices) are
//!    hashed once into a local suffix map giving a suffix id and length;
//! 3. each profile's suffix ids are unioned with a `u32` sort and dedup,
//!    and a count pass sizes every block and its `P1` share;
//! 4. only comparable nodes are kept, ordered, interned, and scattered
//!    into one CSR [`BlockCollection`] in processing order.
//!
//! SA-PSAB then emits straight from the CSR rows.

use crate::block::{
    cardinality_of, csr_offset, prefix_offsets, BlockCollection, BlockId, BlockRef,
};
use sper_model::{ErKind, ProfileCollection, ProfileId, SourceId};
use sper_text::{FxHashMap, SuffixIter, TokenId, TokenInterner, Tokenizer};
use std::sync::Arc;

/// One node of the suffix forest: a view of its block with its layer.
#[derive(Debug, Clone, Copy)]
pub struct SuffixNode<'a> {
    /// Suffix length in characters (= layer; larger is deeper).
    pub suffix_len: u32,
    /// The block of profiles containing a token with this suffix; its key
    /// is the interned suffix.
    pub block: BlockRef<'a>,
}

/// The suffix forest in SA-PSAB processing order: a CSR block collection
/// whose block `i` is the `i`-th node to process, plus each node's layer.
#[derive(Debug, Clone)]
pub struct SuffixForest {
    /// Nodes sorted by (suffix_len desc, cardinality asc, key string asc).
    blocks: BlockCollection,
    /// Suffix length per block id.
    suffix_lens: Vec<u32>,
}

/// Appends `ids` as one CSR row.
fn push_row(offsets: &mut Vec<u32>, values: &mut Vec<u32>, ids: &[u32]) {
    values.extend_from_slice(ids);
    offsets.push(csr_offset(values.len()));
}

/// Row `i` of a CSR array.
fn row<'v>(offsets: &[u32], values: &'v [u32], i: usize) -> &'v [u32] {
    &values[offsets[i] as usize..offsets[i + 1] as usize]
}

impl SuffixForest {
    /// Builds the forest with minimum suffix length `lmin` (SA-PSAB's only
    /// configuration parameter).
    pub fn build(profiles: &ProfileCollection, lmin: usize) -> Self {
        let mut span = sper_obs::trace::SpanGuard::enter(
            sper_obs::trace::Level::Debug,
            "blocking.suffix_forest",
            || vec![("profiles", sper_obs::FieldValue::from(profiles.len()))],
        );
        let kind = profiles.kind();
        let tokenizer = Tokenizer::default();

        // Pass 1: profile → sorted distinct word ids.
        let mut word_ids: FxHashMap<Box<str>, u32> = FxHashMap::default();
        let mut profile_word_offsets = vec![0u32];
        let mut profile_words: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for p in profiles.iter() {
            scratch.clear();
            for attr in &p.attributes {
                tokenizer.for_each_token(&attr.value, |tok| {
                    let next = word_ids.len() as u32;
                    // Look up first: only a new word allocates its key.
                    let id = match word_ids.get(tok) {
                        Some(&id) => id,
                        None => *word_ids.entry(tok.into()).or_insert(next),
                    };
                    scratch.push(id);
                });
            }
            scratch.sort_unstable();
            scratch.dedup();
            push_row(&mut profile_word_offsets, &mut profile_words, &scratch);
        }

        // Pass 2: word → its suffix ids, each suffix hashed once per word.
        let mut words: Vec<&str> = vec![""; word_ids.len()];
        for (w, &id) in &word_ids {
            words[id as usize] = w;
        }
        let mut suffix_ids: FxHashMap<&str, u32> = FxHashMap::default();
        let mut suffix_strs: Vec<&str> = Vec::new();
        let mut suffix_lens: Vec<u32> = Vec::new();
        let mut word_suffix_offsets = vec![0u32];
        let mut word_suffixes: Vec<u32> = Vec::new();
        for &w in &words {
            let n_chars = w.chars().count();
            for (depth, s) in SuffixIter::new(w, lmin).enumerate() {
                let id = *suffix_ids.entry(s).or_insert_with(|| {
                    suffix_strs.push(s);
                    suffix_lens.push((n_chars - depth) as u32);
                    suffix_strs.len() as u32 - 1
                });
                word_suffixes.push(id);
            }
            word_suffix_offsets.push(csr_offset(word_suffixes.len()));
        }
        // Each pass frees what later passes no longer read, which keeps the
        // build's peak heap near the old one.
        drop(suffix_ids);

        // Pass 3: profile → sorted distinct suffix ids; block sizes.
        let n_suffixes = suffix_strs.len();
        let mut sizes = vec![0u32; n_suffixes];
        let mut firsts = vec![0u32; n_suffixes];
        let mut profile_suffix_offsets = vec![0u32];
        let mut profile_suffixes: Vec<u32> = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            scratch.clear();
            let row_words = row(&profile_word_offsets, &profile_words, i);
            for &w in row_words {
                scratch.extend_from_slice(row(&word_suffix_offsets, &word_suffixes, w as usize));
            }
            // One word's suffixes are distinct already.
            if row_words.len() > 1 {
                scratch.sort_unstable();
                scratch.dedup();
            }
            let first = u32::from(p.source == SourceId::FIRST);
            for &s in &scratch {
                sizes[s as usize] += 1;
                firsts[s as usize] += first;
            }
            push_row(&mut profile_suffix_offsets, &mut profile_suffixes, &scratch);
        }
        drop((profile_words, word_suffixes));

        // Pass 4: keep comparable nodes in processing order — leaves first
        // (longest suffixes), then increasing comparisons inside each
        // layer, then the suffix string, so ids never decide the order.
        let cardinality =
            |s: u32| cardinality_of(kind, sizes[s as usize] as usize, firsts[s as usize]);
        let mut kept: Vec<u32> = (0..n_suffixes as u32)
            .filter(|&s| cardinality(s) > 0)
            .collect();
        kept.sort_unstable_by(|&a, &b| {
            suffix_lens[b as usize]
                .cmp(&suffix_lens[a as usize])
                .then_with(|| cardinality(a).cmp(&cardinality(b)))
                .then_with(|| suffix_strs[a as usize].cmp(suffix_strs[b as usize]))
        });
        const DROPPED: u32 = u32::MAX;
        let mut row_of = vec![DROPPED; n_suffixes];
        for (r, &s) in kept.iter().enumerate() {
            row_of[s as usize] = r as u32;
        }
        let kept_sizes: Vec<u32> = kept.iter().map(|&s| sizes[s as usize]).collect();
        let n_firsts: Vec<u32> = kept.iter().map(|&s| firsts[s as usize]).collect();
        let offsets = prefix_offsets(&kept_sizes);
        // Profiles are visited in id order and every P1 id precedes every
        // P2 id (the `ProfileCollection` invariant), so each row fills
        // ascending with its P1 members first — the layout `Block::new`
        // produces.
        let mut cursor: Vec<u32> = offsets[..kept.len()].to_vec();
        let mut members = vec![ProfileId(0); offsets[kept.len()] as usize];
        for (i, p) in profiles.iter().enumerate() {
            for &s in row(&profile_suffix_offsets, &profile_suffixes, i) {
                let r = row_of[s as usize];
                if r != DROPPED {
                    let slot = &mut cursor[r as usize];
                    members[*slot as usize] = p.id;
                    *slot += 1;
                }
            }
        }

        // Only the kept suffixes are interned, ids in processing order.
        let interner = TokenInterner::from_strings(kept.iter().map(|&s| suffix_strs[s as usize]))
            .expect("suffix map keys are distinct");
        let keys = (0..kept.len() as u32).map(TokenId).collect();
        let suffix_lens = kept.iter().map(|&s| suffix_lens[s as usize]).collect();
        let blocks = BlockCollection::from_raw_parts(
            kind,
            profiles.len(),
            Arc::new(interner),
            keys,
            offsets,
            members,
            n_firsts,
        );
        span.record("nodes", blocks.len());
        sper_obs::count!("blocking.suffix_nodes_kept", blocks.len() as u64);
        Self {
            blocks,
            suffix_lens,
        }
    }

    /// The task kind.
    pub fn kind(&self) -> ErKind {
        self.blocks.kind()
    }

    /// The interner resolving the suffix keys. It holds only the kept
    /// (comparable) suffixes, with ids in processing order.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        self.blocks.interner()
    }

    /// Number of nodes (suffix blocks) in processing order.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the forest has no comparable node.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The nodes as a CSR block collection: block `i` is node `i`.
    pub fn blocks(&self) -> &BlockCollection {
        &self.blocks
    }

    /// The `i`-th node in processing order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn node(&self, i: usize) -> SuffixNode<'_> {
        SuffixNode {
            suffix_len: self.suffix_lens[i],
            block: self.blocks.get(BlockId(i as u32)),
        }
    }

    /// The nodes in SA-PSAB processing order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = SuffixNode<'_>> + '_ {
        (0..self.len()).map(move |i| self.node(i))
    }

    /// Converts the forest into a plain block collection (processing order
    /// preserved), e.g. to feed block-based analyses.
    pub fn into_block_collection(self) -> BlockCollection {
        self.blocks
    }

    /// Total comparisons entailed by the forest (with cross-node repeats).
    pub fn total_comparisons(&self) -> u64 {
        self.blocks.total_comparisons()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::ProfileCollectionBuilder;

    /// Fig. 5 workload: tokens gain, pain, join, coin across 4 profiles.
    fn fig5_profiles() -> ProfileCollection {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        b.add_profile([("w", "join")]);
        b.add_profile([("w", "coin")]);
        b.build()
    }

    fn keys(forest: &SuffixForest) -> Vec<String> {
        forest
            .nodes()
            .map(|n| n.block.key_str().to_string())
            .collect()
    }

    #[test]
    fn fig5_suffix_tree_layers() {
        let forest = SuffixForest::build(&fig5_profiles(), 2);
        // Shared suffixes: ain{gain,pain}, oin{join,coin}, in{all 4}.
        // The 4-char suffixes are singletons → dropped.
        assert_eq!(keys(&forest), vec!["ain", "oin", "in"]);
        // Leaves (len 3) come before the root (len 2).
        let lens: Vec<u32> = forest.nodes().map(|n| n.suffix_len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
    }

    #[test]
    fn within_layer_smaller_blocks_first() {
        let mut b = ProfileCollectionBuilder::dirty();
        // "xain" for 3 profiles, "yoin" for 2 → layer-3 nodes: ain(3), oin(2).
        b.add_profile([("w", "xain")]);
        b.add_profile([("w", "zain")]);
        b.add_profile([("w", "qain")]);
        b.add_profile([("w", "yoin")]);
        b.add_profile([("w", "woin")]);
        let forest = SuffixForest::build(&b.build(), 3);
        let layer3: Vec<String> = forest
            .nodes()
            .filter(|n| n.suffix_len == 3)
            .map(|n| n.block.key_str().to_string())
            .collect();
        assert_eq!(layer3, vec!["oin", "ain"], "smaller node processed first");
    }

    #[test]
    fn whole_tokens_are_their_own_suffix() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "coin")]);
        b.add_profile([("w", "coin")]);
        let forest = SuffixForest::build(&b.build(), 2);
        // coin, oin, in all shared by both profiles.
        assert_eq!(forest.len(), 3);
        assert_eq!(&*forest.node(0).block.key_str(), "coin");
        assert_eq!(forest.total_comparisons(), 3);
    }

    #[test]
    fn clean_clean_cross_source_only() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        b.start_second_source();
        b.add_profile([("w", "rain")]);
        let coll = b.build();
        let forest = SuffixForest::build(&coll, 2);
        for node in forest.nodes() {
            assert!(node.block.cardinality(ErKind::CleanClean) > 0);
        }
        // "ain" spans sources; "in" too.
        assert!(keys(&forest).iter().any(|k| k == "ain"));
    }

    #[test]
    fn into_block_collection_preserves_order() {
        let forest = SuffixForest::build(&fig5_profiles(), 2);
        let expected = keys(&forest);
        let blocks = forest.into_block_collection();
        let got: Vec<String> = blocks.iter().map(|b| b.key_str().to_string()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn profile_once_per_suffix() {
        let mut b = ProfileCollectionBuilder::dirty();
        // "main" and "gain" share the suffixes ain/in; profile 0 has both
        // tokens but must appear once in each suffix block.
        b.add_profile([("w", "main gain")]);
        b.add_profile([("w", "pain")]);
        let forest = SuffixForest::build(&b.build(), 2);
        let ain = forest
            .nodes()
            .find(|n| &*n.block.key_str() == "ain")
            .unwrap();
        assert_eq!(ain.block.size(), 2);
    }
}
