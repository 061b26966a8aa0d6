//! Mergeable per-stratum sufficient statistics — the commutative monoid
//! behind progressive snapshots and chunked ingest.
//!
//! The anytime executor labels its draws in budget chunks and must be able
//! to produce, after every chunk, the same per-stratum estimates
//! (`p̂_k, μ̂_k, σ̂_k`) and bootstrap inputs a one-shot run over the same
//! draws would produce — *bit for bit*, or snapshot boundaries would leak
//! into the final answer. Floating-point addition is commutative but not
//! associative, so "keep running sums" breaks bitwise equality the moment
//! two chunkings add values in different orders. [`StratumStats`] instead
//! stores the labeled draws themselves in a canonical order (sorted by
//! record id, with the full draw as tie-breaker) and derives every moment
//! by folding that canonical sequence. [`StratumStats::merge`] is then a
//! sorted multiset union: commutative, associative, with
//! [`StratumStats::empty`] as identity — a commutative monoid whose laws
//! the property tests in this module pin down exactly.
//!
//! Chunk boundaries therefore sit *outside* the statistics: however a
//! stratum's draws are partitioned (per labeling chunk, per data
//! partition, per thread), folding the partial states through `merge`
//! reaches the same canonical state as one-shot accumulation.

use crate::bootstrap::BootstrapStratum;
use crate::estimator::StratumEstimate;
use abae_data::Labeled;

/// One labeled draw tagged with the record id it came from. The id is what
/// lets two partial states interleave deterministically when merged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedDraw {
    /// Global record id of the drawn record.
    pub record: usize,
    /// The oracle's verdict for that record.
    pub label: Labeled,
}

impl TaggedDraw {
    /// Total order used for the canonical representation: record id first,
    /// then the label bits, so even pathological duplicate draws sort
    /// identically in every chunking.
    fn key(&self) -> (usize, bool, u64) {
        (self.record, self.label.matches, self.label.value.to_bits())
    }
}

/// Mergeable sufficient statistics for one stratum: the stratum's
/// population size plus every labeled draw seen so far, held in canonical
/// order. Count, positives, sum, and sum of squares are derived by folding
/// the canonical sequence, so they are identical for every chunking of the
/// same draws.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumStats {
    size: usize,
    /// Draws sorted by [`TaggedDraw::key`].
    draws: Vec<TaggedDraw>,
}

impl StratumStats {
    /// The monoid identity for a stratum of `size` records: no draws yet.
    pub fn empty(size: usize) -> Self {
        Self { size, draws: Vec::new() }
    }

    /// Builds a state from labeled draws in any order (the order is
    /// canonicalized internally).
    pub fn from_labeled(size: usize, draws: impl IntoIterator<Item = (usize, Labeled)>) -> Self {
        let mut draws: Vec<TaggedDraw> =
            draws.into_iter().map(|(record, label)| TaggedDraw { record, label }).collect();
        draws.sort_by_key(TaggedDraw::key);
        Self { size, draws }
    }

    /// Stratum population size `|S_k|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of labeled draws accumulated so far.
    pub fn count(&self) -> usize {
        self.draws.len()
    }

    /// True when no draws have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.draws.is_empty()
    }

    /// Number of draws matching the predicate.
    pub fn positives(&self) -> usize {
        self.draws.iter().filter(|d| d.label.matches).count()
    }

    /// Sum of the statistic over matching draws, folded in canonical order.
    pub fn sum(&self) -> f64 {
        self.draws.iter().filter(|d| d.label.matches).map(|d| d.label.value).sum()
    }

    /// Sum of squares of the statistic over matching draws, folded in
    /// canonical order.
    pub fn sum_squares(&self) -> f64 {
        self.draws
            .iter()
            .filter(|d| d.label.matches)
            .map(|d| d.label.value * d.label.value)
            .sum()
    }

    /// The bootstrap input of the accumulated draws: the draw count and
    /// the positive values in canonical order.
    pub(crate) fn bootstrap_stratum(&self) -> BootstrapStratum {
        BootstrapStratum::from_draws(self.size, self.draws.iter().map(|d| &d.label))
    }

    /// The accumulated draws with their record ids, in canonical order.
    pub fn draws(&self) -> &[TaggedDraw] {
        &self.draws
    }

    /// Derives the plug-in estimates (`p̂, μ̂, σ̂`) from the canonical
    /// sequence — bit-identical for every chunking of the same draws.
    pub fn estimate(&self) -> StratumEstimate {
        StratumEstimate::from_draws(self.size, self.draws.iter().map(|d| &d.label))
    }

    /// The monoid operation: sorted multiset union of two partial states
    /// over the same stratum. Commutative and associative bit-for-bit, with
    /// [`StratumStats::empty`] as identity.
    ///
    /// # Panics
    /// When the two states disagree on the stratum size — merging partial
    /// states of *different* strata is always a bug.
    pub fn merge(a: Self, b: Self) -> Self {
        assert_eq!(a.size, b.size, "cannot merge stats of different strata");
        let mut draws = Vec::with_capacity(a.draws.len() + b.draws.len());
        let (mut i, mut j) = (0, 0);
        while i < a.draws.len() && j < b.draws.len() {
            if a.draws[i].key() <= b.draws[j].key() {
                draws.push(a.draws[i]);
                i += 1;
            } else {
                draws.push(b.draws[j]);
                j += 1;
            }
        }
        draws.extend_from_slice(&a.draws[i..]);
        draws.extend_from_slice(&b.draws[j..]);
        Self { size: a.size, draws }
    }
}

/// Merges two per-stratum state vectors element-wise — the partition-level
/// monoid used by chunked ingest (`merge_states(a, b)[k] ==
/// StratumStats::merge(a[k], b[k])`).
///
/// # Panics
/// When the vectors cover different numbers of strata.
pub fn merge_states(a: Vec<StratumStats>, b: Vec<StratumStats>) -> Vec<StratumStats> {
    assert_eq!(a.len(), b.len(), "partial states must cover the same strata");
    a.into_iter().zip(b).map(|(x, y)| StratumStats::merge(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stats(size: usize, draws: &[(usize, bool, f64)]) -> StratumStats {
        StratumStats::from_labeled(
            size,
            draws.iter().map(|&(r, m, v)| (r, Labeled { matches: m, value: v })),
        )
    }

    #[test]
    fn derived_statistics_match_hand_computation() {
        let s = stats(100, &[(3, true, 2.0), (7, false, 99.0), (1, true, 4.0)]);
        assert_eq!(s.size(), 100);
        assert_eq!(s.count(), 3);
        assert_eq!(s.positives(), 2);
        assert_eq!(s.sum(), 6.0);
        assert_eq!(s.sum_squares(), 20.0);
        let e = s.estimate();
        assert_eq!(e.draws, 3);
        assert_eq!(e.positives, 2);
        assert!((e.mu_hat - 3.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_order_is_by_record_id() {
        let a = stats(10, &[(5, true, 1.0), (2, true, 2.0), (9, false, 3.0)]);
        let records: Vec<usize> = a.draws().iter().map(|d| d.record).collect();
        assert_eq!(records, vec![2, 5, 9]);
    }

    #[test]
    fn merge_panics_on_size_mismatch() {
        let a = StratumStats::empty(10);
        let b = StratumStats::empty(20);
        assert!(std::panic::catch_unwind(|| StratumStats::merge(a, b)).is_err());
    }

    #[test]
    fn merge_states_zips_per_stratum() {
        let a = vec![stats(10, &[(1, true, 1.0)]), StratumStats::empty(20)];
        let b = vec![stats(10, &[(2, true, 2.0)]), stats(20, &[(4, false, 0.0)])];
        let m = merge_states(a, b);
        assert_eq!(m[0].count(), 2);
        assert_eq!(m[1].count(), 1);
    }

    /// A stratum's worth of arbitrary draws. Record ids are kept in a small
    /// range so duplicates (the pathological case for the canonical order)
    /// actually occur.
    fn draws_strategy() -> impl Strategy<Value = Vec<(usize, bool, f64)>> {
        proptest::collection::vec((0usize..64, proptest::bool::ANY, -1e6f64..1e6), 0..48)
    }

    proptest! {
        #[test]
        fn merge_is_commutative(xs in draws_strategy(), ys in draws_strategy()) {
            let (a, b) = (stats(100, &xs), stats(100, &ys));
            let ab = StratumStats::merge(a.clone(), b.clone());
            let ba = StratumStats::merge(b, a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative(
            xs in draws_strategy(),
            ys in draws_strategy(),
            zs in draws_strategy(),
        ) {
            let (a, b, c) = (stats(100, &xs), stats(100, &ys), stats(100, &zs));
            let left = StratumStats::merge(StratumStats::merge(a.clone(), b.clone()), c.clone());
            let right = StratumStats::merge(a, StratumStats::merge(b, c));
            prop_assert_eq!(left, right);
        }

        #[test]
        fn empty_is_the_identity(xs in draws_strategy()) {
            let s = stats(100, &xs);
            prop_assert_eq!(StratumStats::merge(s.clone(), StratumStats::empty(100)), s.clone());
            prop_assert_eq!(StratumStats::merge(StratumStats::empty(100), s.clone()), s);
        }

        #[test]
        fn any_chunking_folds_to_the_one_shot_state(
            xs in draws_strategy(),
            boundaries in proptest::collection::vec(0usize..48, 0..6),
        ) {
            // One-shot accumulation over all draws at once…
            let one_shot = stats(100, &xs);
            // …versus folding arbitrary contiguous chunks through merge.
            let mut cuts: Vec<usize> =
                boundaries.into_iter().map(|b| b.min(xs.len())).collect();
            cuts.push(0);
            cuts.push(xs.len());
            cuts.sort_unstable();
            let mut folded = StratumStats::empty(100);
            for w in cuts.windows(2) {
                folded = StratumStats::merge(folded, stats(100, &xs[w[0]..w[1]]));
            }
            // Bit-for-bit: the states, every derived moment, and the
            // estimates must be exactly equal, not approximately.
            prop_assert_eq!(folded.clone(), one_shot.clone());
            prop_assert_eq!(folded.sum().to_bits(), one_shot.sum().to_bits());
            prop_assert_eq!(folded.sum_squares().to_bits(), one_shot.sum_squares().to_bits());
            prop_assert_eq!(folded.positives(), one_shot.positives());
            let (fe, oe) = (folded.estimate(), one_shot.estimate());
            prop_assert_eq!(fe.mu_hat.to_bits(), oe.mu_hat.to_bits());
            prop_assert_eq!(fe.sigma_hat.to_bits(), oe.sigma_hat.to_bits());
            prop_assert_eq!(fe.p_hat.to_bits(), oe.p_hat.to_bits());
        }
    }
}
