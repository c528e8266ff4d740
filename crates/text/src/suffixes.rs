//! Suffix extraction for Suffix Arrays Blocking (§4.2, \[19\], \[21\]).
//!
//! SAB converts every blocking key into all of its suffixes with at least
//! `lmin` characters; the hierarchy of suffixes (each suffix is the parent of
//! the one-character-longer suffixes that end with it) forms the *suffix
//! forest* that SA-PSAB processes leaves-first.

/// Iterator over the suffixes of a token with at least `min_len` characters,
/// from the **longest** (the token itself) to the shortest allowed.
///
/// Operates on character boundaries, so multi-byte UTF-8 input is safe. It
/// walks the token from the front — each step drops one leading character
/// — so it allocates nothing.
#[derive(Debug, Clone)]
pub struct SuffixIter<'a> {
    /// The next suffix to yield.
    rest: &'a str,
    /// How many suffixes remain, `rest` included.
    remaining: usize,
}

impl<'a> SuffixIter<'a> {
    /// Creates the iterator. `min_len` is measured in characters and clamped
    /// to at least 1.
    pub fn new(token: &'a str, min_len: usize) -> Self {
        let min_len = min_len.max(1);
        let n_chars = token.chars().count();
        Self {
            rest: token,
            remaining: (n_chars + 1).saturating_sub(min_len),
        }
    }
}

impl<'a> Iterator for SuffixIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let suffix = self.rest;
        let mut chars = suffix.chars();
        chars.next();
        self.rest = chars.as_str();
        Some(suffix)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SuffixIter<'_> {}

/// Collects the suffixes of `token` with at least `min_len` characters,
/// longest first.
///
/// # Examples
///
/// ```
/// use sper_text::suffixes_of;
/// assert_eq!(suffixes_of("coin", 2), vec!["coin", "oin", "in"]);
/// assert_eq!(suffixes_of("in", 3), Vec::<&str>::new());
/// ```
pub fn suffixes_of(token: &str, min_len: usize) -> Vec<&str> {
    SuffixIter::new(token, min_len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_fig5() {
        // Fig. 5 suffix tree: gain/pain/join/coin → ain/oin → in (lmin = 2).
        assert_eq!(suffixes_of("gain", 2), vec!["gain", "ain", "in"]);
        assert_eq!(suffixes_of("join", 2), vec!["join", "oin", "in"]);
        // Shared suffixes across keys land in the same blocks.
        assert!(suffixes_of("pain", 2).contains(&"ain"));
        assert!(suffixes_of("coin", 2).contains(&"oin"));
    }

    #[test]
    fn token_equal_to_min_len() {
        assert_eq!(suffixes_of("ab", 2), vec!["ab"]);
    }

    #[test]
    fn token_shorter_than_min_len() {
        assert!(suffixes_of("a", 2).is_empty());
    }

    #[test]
    fn min_len_clamped_to_one() {
        assert_eq!(suffixes_of("ab", 0), vec!["ab", "b"]);
    }

    #[test]
    fn utf8_boundaries() {
        assert_eq!(suffixes_of("café", 2), vec!["café", "afé", "fé"]);
    }

    #[test]
    fn exact_size() {
        let it = SuffixIter::new("abcdef", 3);
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every suffix really is a suffix, lengths strictly decrease, and
        /// the count is n − min_len + 1 (when n ≥ min_len).
        #[test]
        fn suffix_invariants(s in "[a-z]{0,12}", min_len in 1usize..5) {
            let sufs = suffixes_of(&s, min_len);
            let n = s.chars().count();
            if n < min_len {
                prop_assert!(sufs.is_empty());
            } else {
                prop_assert_eq!(sufs.len(), n - min_len + 1);
                prop_assert_eq!(sufs[0], s.as_str());
                for w in sufs.windows(2) {
                    prop_assert!(s.ends_with(w[0]));
                    prop_assert!(s.ends_with(w[1]));
                    prop_assert_eq!(w[0].chars().count(), w[1].chars().count() + 1);
                }
            }
        }
    }
}
