//! The dense co-occurrence scratch of the similarity-based methods — the
//! neighbor-list twin of the blocking layer's sparse-accumulator kernel
//! ([`sper_blocking::WeightAccumulator`]).
//!
//! LS-PSN and GS-PSN count how often each candidate neighbor co-occurs
//! with the current profile inside sliding windows of the Neighbor List.
//! Exactly like the block-side kernel, the counts live in one dense
//! reusable array indexed by profile id, with a touched list making resets
//! `O(degree)` — no `HashMap`, one allocation per worker per pass. The
//! scratch is transient by design: it is a pure function of the substrate
//! it scans, so it is never persisted (`sper-store` rebuilds it on rehydration).

use sper_model::ProfileId;

/// Dense per-neighbor co-occurrence counter with a touched list.
#[derive(Debug, Clone, Default)]
pub(crate) struct CooccurrenceScratch {
    /// Co-occurrence frequency per candidate neighbor id; `0` doubles as
    /// the "untouched" sentinel.
    freq: Vec<u32>,
    /// Neighbor ids with non-zero frequency, in first-touch order.
    touched: Vec<u32>,
}

impl CooccurrenceScratch {
    /// A zeroed scratch over `n_profiles` profiles.
    pub(crate) fn new(n_profiles: usize) -> Self {
        Self {
            freq: vec![0; n_profiles],
            touched: Vec::new(),
        }
    }

    /// Counts one co-occurrence of neighbor `j`.
    #[inline]
    pub(crate) fn bump(&mut self, j: ProfileId) {
        if self.freq[j.index()] == 0 {
            self.touched.push(j.0);
        }
        self.freq[j.index()] += 1;
    }

    /// Hands every `(neighbor, frequency)` of the current profile to `f`
    /// in first-touch order, zeroing the scratch as it goes — the
    /// `O(degree)` reset.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(ProfileId, u32)) {
        for t in 0..self.touched.len() {
            let j = ProfileId(self.touched[t]);
            f(j, std::mem::take(&mut self.freq[j.index()]));
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_drain_round_trip() {
        let mut s = CooccurrenceScratch::new(4);
        s.bump(ProfileId(2));
        s.bump(ProfileId(2));
        s.bump(ProfileId(0));
        let mut out = Vec::new();
        s.drain(|j, f| out.push((j.0, f)));
        // First-touch order, correct counts.
        assert_eq!(out, vec![(2, 2), (0, 1)]);
        // Drained scratch is fully reset.
        let mut empty = Vec::new();
        s.drain(|j, f| empty.push((j.0, f)));
        assert!(empty.is_empty());
        s.bump(ProfileId(2));
        let mut again = Vec::new();
        s.drain(|j, f| again.push((j.0, f)));
        assert_eq!(again, vec![(2, 1)]);
    }
}
