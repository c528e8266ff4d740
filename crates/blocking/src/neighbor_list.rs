//! The schema-agnostic Neighbor List and Position Index (§3.2, §5.1).
//!
//! The Neighbor List is the sorted list of profiles produced by ordering all
//! schema-agnostic blocking keys (attribute-value tokens) alphabetically;
//! every profile typically occupies multiple positions, one per distinct
//! token (Fig. 3(d)–(e)).
//!
//! When several profiles share a key, their relative order inside the run is
//! *coincidental proximity* (§4.1) — "relatively random". We model this with
//! a seeded shuffle of every equal-key run, keeping experiments
//! deterministic while avoiding the systematic bias that insertion order
//! (generation order ≈ duplicate adjacency) would introduce.
//!
//! The Position Index is the inverted index from profile ids to Neighbor
//! List positions that powers the weighted similarity-based methods
//! (LS-PSN/GS-PSN, §5.1.1): `PI[i]` lists the positions of `p_i`, ascending.
//!
//! Construction is interned: placements are `(TokenId, ProfileId)` pairs,
//! and the global alphabetical sort compares one precomputed `u32`
//! lexicographic rank per token instead of strings — the dominant
//! `O(‖NL‖ log ‖NL‖)` sort runs on 8-byte records. The resulting list is
//! bit-identical to the historical string-sorted build (the rank order *is*
//! the string order, and the run shuffles consume the RNG identically).

use crate::parallel::{Parallelism, ZeroThreads, STEAL_MIN_CHUNK};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sper_model::{ProfileCollection, ProfileId};
use sper_text::{TokenId, TokenInterner, Tokenizer};
use std::sync::Arc;

/// Shuffles every equal-key run of rank-sorted placements with a seeded
/// RNG — the *coincidental proximity* of §4.1, shared verbatim by the
/// sequential and parallel builds so both consume the RNG identically.
fn shuffle_equal_runs(placements: &mut [(TokenId, ProfileId)], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut start = 0;
    while start < placements.len() {
        let mut end = start + 1;
        while end < placements.len() && placements[end].0 == placements[start].0 {
            end += 1;
        }
        if end - start > 1 {
            placements[start..end].shuffle(&mut rng);
        }
        start = end;
    }
}

/// Inverted index: profile id → ascending Neighbor List positions.
#[derive(Debug, Clone)]
pub struct PositionIndex {
    positions: Vec<Vec<u32>>,
}

impl PositionIndex {
    fn build(nl: &[ProfileId], n_profiles: usize) -> Self {
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); n_profiles];
        for (pos, &p) in nl.iter().enumerate() {
            positions[p.index()].push(pos as u32);
        }
        Self { positions }
    }

    /// The positions of profile `p`, ascending. Empty when the profile has
    /// no tokens.
    #[inline]
    pub fn positions_of(&self, p: ProfileId) -> &[u32] {
        &self.positions[p.index()]
    }

    /// Number of placements of `p` (its distinct-token count).
    #[inline]
    pub fn num_positions(&self, p: ProfileId) -> usize {
        self.positions[p.index()].len()
    }

    /// Number of profiles indexed.
    pub fn n_profiles(&self) -> usize {
        self.positions.len()
    }
}

/// The schema-agnostic Neighbor List plus its Position Index.
#[derive(Debug, Clone)]
pub struct NeighborList {
    nl: Vec<ProfileId>,
    position_index: PositionIndex,
    interner: Arc<TokenInterner>,
    /// Interned blocking key per position; retained only when built with
    /// [`NeighborList::build_with_keys`].
    keys: Option<Vec<TokenId>>,
}

impl NeighborList {
    /// Builds the Neighbor List for `profiles` with the default tokenizer.
    /// Equal-key runs are shuffled with `seed` (coincidental proximity).
    pub fn build(profiles: &ProfileCollection, seed: u64) -> Self {
        Self::build_on(profiles, seed, false, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::build`] but also retains the blocking key of every
    /// position, for inspection and tests.
    pub fn build_with_keys(profiles: &ProfileCollection, seed: u64) -> Self {
        Self::build_on(profiles, seed, true, Parallelism::SEQUENTIAL)
    }

    /// Builds the Neighbor List on `threads` worker threads, **bit-identical**
    /// to the sequential [`Self::build`] with the same `seed`.
    ///
    /// The requested count passes through the spawn break-even guard
    /// ([`Parallelism::break_even`]): collections smaller than
    /// [`crate::MIN_PARALLEL_BATCH`] profiles and hosts whose available
    /// parallelism is exhausted tokenize on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroThreads`] when `threads == 0`.
    pub fn par_build(
        profiles: &ProfileCollection,
        seed: u64,
        threads: usize,
    ) -> Result<Self, ZeroThreads> {
        let par = Parallelism::new(threads)?.break_even(profiles.len());
        Ok(Self::build_on(profiles, seed, false, par))
    }

    /// The one build body. Workers tokenize profile chunks through the
    /// shared interner ([`Parallelism::steal_chunks`]); the placement runs
    /// are concatenated in chunk order, which is global profile order, so
    /// the stable rank sort sees the same sequence at every worker count.
    /// Ranks are a pure function of the token *strings*, not of the
    /// concurrent id-assignment order, so the sorted list — and the RNG
    /// consumption of the run shuffle — is reproducible run to run. With
    /// one worker the chunks run inline and in order, so the interner also
    /// assigns ids in profile order.
    fn build_on(
        profiles: &ProfileCollection,
        seed: u64,
        keep_keys: bool,
        par: Parallelism,
    ) -> Self {
        let mut span = sper_obs::span!(
            "blocking.nl_build",
            profiles = profiles.len(),
            threads = par.get(),
        );
        let interner = TokenInterner::shared();
        let all: &[sper_model::Profile] = profiles.profiles();
        // (token, profile) placements: one per *distinct* token per profile.
        let mut placements: Vec<(TokenId, ProfileId)> = par
            .steal_chunks(
                all.len(),
                STEAL_MIN_CHUNK,
                || (Tokenizer::default(), Vec::<TokenId>::new()),
                |(tokenizer, ids), range, _chunk| {
                    let mut run: Vec<(TokenId, ProfileId)> = Vec::new();
                    for p in &all[range] {
                        ids.clear();
                        for attr in &p.attributes {
                            tokenizer.tokenize_ids_into(&attr.value, &interner, ids);
                        }
                        ids.sort_unstable();
                        ids.dedup();
                        run.extend(ids.iter().map(|&t| (t, p.id)));
                    }
                    run
                },
            )
            .concat();
        // Alphabetical order via the precomputed lexicographic rank: a
        // stable u32-keyed sort, so equal-key runs keep their profile-id
        // insertion order — exactly what the string sort produced.
        let rank = interner.rank();
        placements.sort_by_key(|&(t, _)| rank[t.index()]);

        shuffle_equal_runs(&mut placements, seed);
        span.record("placements", placements.len());
        Self::from_parts(placements, interner, profiles.len(), keep_keys)
    }

    /// Builds a Neighbor List from placements that are already in final
    /// order (key strings non-decreasing, equal-key runs already permuted)
    /// — the streaming path (`sper-stream`), whose incremental index
    /// maintains that order itself. `keep_keys` retains the key of every
    /// position.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when key strings are not non-decreasing.
    pub fn from_sorted_placements(
        placements: Vec<(TokenId, ProfileId)>,
        interner: Arc<TokenInterner>,
        n_profiles: usize,
        keep_keys: bool,
    ) -> Self {
        debug_assert!(
            placements
                .windows(2)
                .all(|w| interner.cmp_str(w[0].0, w[1].0) != std::cmp::Ordering::Greater),
            "placements must be sorted by key string"
        );
        Self::from_parts(placements, interner, n_profiles, keep_keys)
    }

    fn from_parts(
        placements: Vec<(TokenId, ProfileId)>,
        interner: Arc<TokenInterner>,
        n_profiles: usize,
        keep_keys: bool,
    ) -> Self {
        let nl: Vec<ProfileId> = placements.iter().map(|&(_, p)| p).collect();
        let position_index = PositionIndex::build(&nl, n_profiles);
        let keys = keep_keys.then(|| placements.into_iter().map(|(k, _)| k).collect());
        Self {
            nl,
            position_index,
            interner,
            keys,
        }
    }

    /// Length of the list (total placements, `|p̄|·|P|` on average).
    pub fn len(&self) -> usize {
        self.nl.len()
    }

    /// True when no profile produced any token.
    pub fn is_empty(&self) -> bool {
        self.nl.is_empty()
    }

    /// The profile at `position`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn profile_at(&self, position: usize) -> ProfileId {
        self.nl[position]
    }

    /// The profile at a possibly-out-of-range position (window probes walk
    /// off both ends).
    #[inline]
    pub fn get(&self, position: isize) -> Option<ProfileId> {
        if position < 0 {
            return None;
        }
        self.nl.get(position as usize).copied()
    }

    /// The underlying list.
    pub fn as_slice(&self) -> &[ProfileId] {
        &self.nl
    }

    /// The Position Index.
    pub fn position_index(&self) -> &PositionIndex {
        &self.position_index
    }

    /// The interner resolving this list's keys.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// The retained per-position keys (see [`Self::build_with_keys`]),
    /// when any.
    pub fn keys(&self) -> Option<&[TokenId]> {
        self.keys.as_deref()
    }

    /// Reassembles a list from its raw arrays — the inverse of
    /// [`as_slice`](Self::as_slice) + [`keys`](Self::keys), used by the
    /// persistence layer (`sper-store`). The Position Index is rebuilt
    /// deterministically from the list, so a round-trip is bit-identical.
    /// Callers must validate untrusted input first (every profile id `<
    /// n_profiles`, `keys` — when kept — as long as `nl`); invariants are
    /// only debug-asserted here.
    pub fn from_raw_parts(
        nl: Vec<ProfileId>,
        keys: Option<Vec<TokenId>>,
        interner: Arc<TokenInterner>,
        n_profiles: usize,
    ) -> Self {
        debug_assert!(nl.iter().all(|p| p.index() < n_profiles));
        debug_assert!(keys.as_ref().is_none_or(|k| k.len() == nl.len()));
        let position_index = PositionIndex::build(&nl, n_profiles);
        Self {
            nl,
            position_index,
            interner,
            keys,
        }
    }

    /// The interned blocking key at `position`, when keys were retained.
    pub fn key_id_at(&self, position: usize) -> Option<TokenId> {
        self.keys.as_ref().map(|k| k[position])
    }

    /// The blocking key string at `position`, when keys were retained.
    pub fn key_at(&self, position: usize) -> Option<Arc<str>> {
        self.keys
            .as_ref()
            .map(|k| self.interner.resolve(k[position]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn fig3_neighbor_list_shape() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build_with_keys(&profiles, 7);
        // Fig. 3(d): 11 distinct keys; Fig. 3(e): 24 placements.
        assert_eq!(nl.len(), 24);
        // Keys are sorted alphabetically.
        let keys: Vec<String> = (0..nl.len())
            .map(|i| nl.key_at(i).unwrap().to_string())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // The first run is "carl" = {p1, p2} in some order.
        let mut first_two = vec![nl.profile_at(0), nl.profile_at(1)];
        first_two.sort_unstable();
        assert_eq!(first_two, vec![pid(0), pid(1)]);
        // The last placement before "wi" is the 6-profile "white" run.
        assert_eq!(nl.key_at(23).as_deref(), Some("wi"));
        let mut white_run: Vec<ProfileId> = (17..23).map(|i| nl.profile_at(i)).collect();
        white_run.sort_unstable();
        assert_eq!(white_run, (0..6).map(pid).collect::<Vec<_>>());
    }

    #[test]
    fn position_index_inverts_neighbor_list() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 3);
        let pi = nl.position_index();
        for p in 0..6 {
            let p = pid(p);
            for &pos in pi.positions_of(p) {
                assert_eq!(nl.profile_at(pos as usize), p);
            }
            // Ascending.
            assert!(pi.positions_of(p).windows(2).all(|w| w[0] < w[1]));
        }
        // Every position is owned by exactly one profile.
        let total: usize = (0..6).map(|i| pi.num_positions(pid(i))).sum();
        assert_eq!(total, nl.len());
    }

    #[test]
    fn placements_equal_distinct_tokens() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 3);
        let pi = nl.position_index();
        // p1 (our p0): carl, white, ny, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(0)), 4);
        // p6 (our p5): emma, white, wi, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(5)), 4);
        // p2 (our p1): ny, carl, white, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(1)), 4);
    }

    #[test]
    fn different_seeds_permute_ties_only() {
        let profiles = fig3_profiles();
        let a = NeighborList::build_with_keys(&profiles, 1);
        let b = NeighborList::build_with_keys(&profiles, 2);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            // Same key sequence regardless of seed.
            assert_eq!(a.key_at(i), b.key_at(i));
        }
        // Same multiset of (key, profile) placements.
        let collect = |nl: &NeighborList| {
            let mut v: Vec<(String, ProfileId)> = (0..nl.len())
                .map(|i| (nl.key_at(i).unwrap().to_string(), nl.profile_at(i)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(collect(&a), collect(&b));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let profiles = fig3_profiles();
        let a = NeighborList::build(&profiles, 9);
        let b = NeighborList::build(&profiles, 9);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn out_of_range_probes() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 0);
        assert_eq!(nl.get(-1), None);
        assert_eq!(nl.get(nl.len() as isize), None);
        assert!(nl.get(0).is_some());
    }

    #[test]
    fn keys_not_retained_by_default() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 0);
        assert_eq!(nl.key_at(0), None);
        assert_eq!(nl.key_id_at(0), None);
    }

    #[test]
    fn par_build_is_bit_identical_to_sequential() {
        // Several STEAL_MIN_CHUNK chunks, so equal-key runs span chunk
        // boundaries.
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        for i in 0..1200u32 {
            let base = i % 310;
            b.add_profile([("t", format!("tok{} shared{} common", base, base % 5))]);
        }
        let profiles = b.build();
        for seed in [0u64, 7, 42] {
            let sequential = NeighborList::build_with_keys(&profiles, seed);
            for threads in [2usize, 3, 5, 8] {
                // Drive the fan-out directly: the public entry's
                // break-even guard would route this collection (or any
                // run on a 1-core host) to one worker.
                let par = Parallelism::new(threads).unwrap();
                let parallel = NeighborList::build_on(&profiles, seed, true, par);
                assert_eq!(
                    parallel.as_slice(),
                    sequential.as_slice(),
                    "seed {seed}, threads {threads}"
                );
                for i in 0..sequential.len() {
                    assert_eq!(parallel.key_at(i), sequential.key_at(i));
                }
                // The guarded public entry agrees (whatever path it takes).
                let guarded =
                    NeighborList::par_build(&profiles, seed, threads).expect("threads > 0");
                assert_eq!(guarded.as_slice(), sequential.as_slice());
            }
        }
    }

    #[test]
    fn par_build_break_even_guard_falls_back_to_sequential() {
        // Small inputs collapse to one worker before any spawn happens;
        // the guard also caps at the host's available parallelism, so the
        // request below never oversubscribes regardless of machine.
        let par = Parallelism::new(8).unwrap();
        assert!(par.break_even(10).is_sequential());
        assert!(par
            .break_even(crate::MIN_PARALLEL_BATCH - 1)
            .is_sequential());
        let big = par.break_even(crate::MIN_PARALLEL_BATCH);
        assert!(big.get() <= Parallelism::available().get());
    }

    #[test]
    fn par_build_edge_cases() {
        // Empty collection.
        let empty = sper_model::ProfileCollectionBuilder::dirty().build();
        let nl = NeighborList::par_build(&empty, 1, 4).unwrap();
        assert!(nl.is_empty());
        // Single profile.
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "lonely profile tokens")]);
        let one = b.build();
        let seq = NeighborList::build(&one, 3);
        let par = NeighborList::par_build(&one, 3, 8).unwrap();
        assert_eq!(par.as_slice(), seq.as_slice());
        // Zero threads: typed error, no panic.
        assert!(NeighborList::par_build(&one, 3, 0).is_err());
    }
}
