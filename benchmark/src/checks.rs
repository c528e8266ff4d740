//! Correctness checks. Every checked operation counts as attempted; a
//! failed check counts as a failed operation and never aborts the run.

use sper_core::Comparison;
use sper_model::Pair;

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Checks {
    /// Records one operation; an `Err` counts it failed and is reported
    /// on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {why}");
        }
    }
}

/// Order-sensitive FNV-1a digest of an emission sequence over each
/// comparison's pair and weight bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one comparison into the digest.
    #[inline]
    pub fn push(&mut self, c: &Comparison) {
        for word in [
            u64::from(c.pair.first.0),
            u64::from(c.pair.second.0),
            c.weight.to_bits(),
        ] {
            self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of a whole sequence.
    pub fn of<'a>(comparisons: impl IntoIterator<Item = &'a Comparison>) -> Self {
        let mut d = Self::default();
        for c in comparisons {
            d.push(c);
        }
        d
    }
}

/// A pair is valid when it is ordered (`first < second`) and both ids
/// name one of `n_profiles` profiles.
#[inline]
pub fn valid_pair(pair: Pair, n_profiles: usize) -> bool {
    pair.first < pair.second && pair.second.index() < n_profiles
}

/// `Err` naming the first invalid pair of `comparisons`.
pub fn check_pairs<'a>(
    comparisons: impl IntoIterator<Item = &'a Comparison>,
    n_profiles: usize,
) -> Result<(), String> {
    match comparisons
        .into_iter()
        .find(|c| !valid_pair(c.pair, n_profiles))
    {
        Some(c) => Err(format!(
            "pair ({}, {}) is not ordered or out of range for {n_profiles} profiles",
            c.pair.first.0, c.pair.second.0
        )),
        None => Ok(()),
    }
}

/// `Err` unless the two digests agree.
pub fn check_digest(expected: Digest, got: Digest) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "emission digest {:016x} differs from {:016x}",
            got.0, expected.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::ProfileId;

    fn cmp(a: u32, b: u32, w: f64) -> Comparison {
        Comparison::new(Pair::new(ProfileId(a), ProfileId(b)), w)
    }

    #[test]
    fn digest_sees_order_pairs_and_weight_bits() {
        let a = [cmp(0, 1, 0.5), cmp(1, 2, 0.25)];
        let swapped = [a[1], a[0]];
        let reweighted = [a[0], cmp(1, 2, 0.250_000_1)];
        assert_eq!(Digest::of(&a), Digest::of(&a.to_vec()));
        assert_ne!(Digest::of(&a), Digest::of(&swapped));
        assert_ne!(Digest::of(&a), Digest::of(&reweighted));
    }

    #[test]
    fn corrupted_digest_is_a_failed_operation() {
        let mut checks = Checks::default();
        let good = Digest::of(&[cmp(0, 1, 0.5)]);
        checks.record("same", check_digest(good, good));
        checks.record("corrupted", check_digest(good, Digest(good.0 ^ 1)));
        assert_eq!(
            checks,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn out_of_range_or_unordered_pairs_are_failed_operations() {
        let mut checks = Checks::default();
        checks.record("in range", check_pairs(&[cmp(0, 2, 1.0)], 3));
        checks.record("out of range", check_pairs(&[cmp(0, 3, 1.0)], 3));
        let unordered = Comparison::new(
            Pair {
                first: ProfileId(2),
                second: ProfileId(1),
            },
            1.0,
        );
        checks.record("unordered", check_pairs(&[unordered], 3));
        let self_pair = Comparison::new(
            Pair {
                first: ProfileId(1),
                second: ProfileId(1),
            },
            1.0,
        );
        checks.record("self pair", check_pairs(&[self_pair], 3));
        assert_eq!(checks.attempted, 4);
        assert_eq!(checks.failed, 3);
    }
}
