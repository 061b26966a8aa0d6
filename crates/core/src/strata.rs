//! Stratification by proxy-score quantile (`ABaeInit`).
//!
//! Algorithm 1 lines 1–4: sort the dataset by proxy score and split into
//! `K` strata by quantile. Under the paper's monotonicity assumption on the
//! proxy (§1), this groups records with similar predicate propensity, which
//! is what makes the per-stratum `p_k` meaningful.
//!
//! Ties are broken by record index so stratification is deterministic, and
//! sizes differ by at most one when `K ∤ n`.

/// A partition of record indices into proxy-quantile strata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    strata: Vec<Vec<usize>>,
}

impl Stratification {
    /// Stratifies records `0..scores.len()` into `k` quantile strata by
    /// ascending proxy score.
    ///
    /// Strata sizes are `⌈n/k⌉` for the first `n mod k` strata and `⌊n/k⌋`
    /// for the rest, so every record lands in exactly one stratum. When
    /// `k > n`, trailing strata are empty.
    ///
    /// ```
    /// use abae_core::Stratification;
    ///
    /// let scores = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
    /// let strat = Stratification::by_proxy_quantile(&scores, 3);
    /// assert_eq!(strat.len(), 3);
    /// assert_eq!(strat.total(), 6);
    /// // The lowest-score records land in stratum 0.
    /// assert_eq!(strat.stratum(0), &[1, 5]);
    /// ```
    ///
    /// # Panics
    /// Panics if `k == 0` — callers validate via [`crate::config`].
    pub fn by_proxy_quantile(scores: &[f64], k: usize) -> Self {
        assert!(k > 0, "stratification needs at least one stratum");
        let n = scores.len();
        // A stable sort on the integer key keeps ties in index order, so
        // the order is `total_cmp` then index. Keyword proxies have few
        // distinct scores, and a stable sort takes their ties as runs.
        let mut keyed: Vec<(i64, usize)> =
            scores.iter().enumerate().map(|(i, &x)| (total_order_key(x), i)).collect();
        keyed.sort_by_key(|&(key, _)| key);
        let order: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();

        let base = n / k;
        let extra = n % k;
        let mut strata = Vec::with_capacity(k);
        let mut cursor = 0usize;
        for i in 0..k {
            let size = base + usize::from(i < extra);
            strata.push(order[cursor..cursor + size].to_vec());
            cursor += size;
        }
        Self { strata }
    }

    /// Builds a single-stratum partition over `n` records (the degenerate
    /// `K = 1` case, equivalent to uniform sampling with a budget split).
    pub fn single(n: usize) -> Self {
        Self { strata: vec![(0..n).collect()] }
    }

    /// Number of strata `K`.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// True when there are no strata (not constructible via the public
    /// API).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Record indices of stratum `k` (ascending proxy order).
    pub fn stratum(&self, k: usize) -> &[usize] {
        &self.strata[k]
    }

    /// All strata.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }

    /// Sizes of all strata.
    pub fn sizes(&self) -> Vec<usize> {
        self.strata.iter().map(Vec::len).collect()
    }

    /// Total number of records.
    pub fn total(&self) -> usize {
        self.strata.iter().map(Vec::len).sum()
    }

    /// Exact per-stratum positive rates and conditional statistic moments
    /// against ground truth — used by tests and the Proposition 1/2
    /// verification experiment, never by the sampling algorithm itself.
    pub fn ground_truth(&self, labels: &[bool], values: &[f64]) -> Vec<GroundTruthStratum> {
        self.strata
            .iter()
            .map(|stratum| {
                let mut moments = abae_stats::StreamingMoments::new();
                let mut positives = 0usize;
                for &i in stratum {
                    if labels[i] {
                        positives += 1;
                        moments.push(values[i]);
                    }
                }
                GroundTruthStratum {
                    size: stratum.len(),
                    p: if stratum.is_empty() {
                        0.0
                    } else {
                        positives as f64 / stratum.len() as f64
                    },
                    mu: moments.mean_or_zero(),
                    sigma: moments.sample_std_dev_or_zero(),
                }
            })
            .collect()
    }
}

/// An integer whose order is [`f64::total_cmp`]'s: flipping the
/// magnitude bits of negative values makes the sign-magnitude encoding
/// order like two's complement, so −NaN < −∞ < … < −0 < +0 < … < +∞ < NaN.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// Exact per-stratum quantities (for analysis, not for query execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthStratum {
    /// Stratum size.
    pub size: usize,
    /// Exact predicate positive rate `p_k`.
    pub p: f64,
    /// Exact conditional mean `μ_k`.
    pub mu: f64,
    /// Exact conditional standard deviation `σ_k`.
    pub sigma: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partitions_every_record_exactly_once() {
        let scores: Vec<f64> = (0..103).map(|i| (i as f64 * 0.7).sin()).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.total(), 103);
        let mut seen = [false; 103];
        for stratum in s.strata() {
            for &i in stratum {
                assert!(!seen[i], "record {i} in two strata");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let scores: Vec<f64> = (0..103).map(|i| i as f64).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        let sizes = s.sizes();
        assert_eq!(sizes, vec![21, 21, 21, 20, 20]);
    }

    #[test]
    fn strata_are_ordered_by_score() {
        let scores = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
        let s = Stratification::by_proxy_quantile(&scores, 3);
        // Max score of each stratum ≤ min score of the next.
        for k in 0..s.len() - 1 {
            let max_here = s.stratum(k).iter().map(|&i| scores[i]).fold(f64::MIN, f64::max);
            let min_next = s.stratum(k + 1).iter().map(|&i| scores[i]).fold(f64::MAX, f64::min);
            assert!(max_here <= min_next);
        }
    }

    #[test]
    fn ties_are_deterministic() {
        let scores = [0.5; 10];
        let a = Stratification::by_proxy_quantile(&scores, 3);
        let b = Stratification::by_proxy_quantile(&scores, 3);
        assert_eq!(a, b);
        // With ties, index order decides.
        assert_eq!(a.stratum(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn more_strata_than_records_leaves_trailing_empties() {
        let scores = [0.1, 0.2];
        let s = Stratification::by_proxy_quantile(&scores, 5);
        assert_eq!(s.sizes(), vec![1, 1, 0, 0, 0]);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn single_covers_everything() {
        let s = Stratification::single(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum(0), &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one stratum")]
    fn zero_strata_panics() {
        let _ = Stratification::by_proxy_quantile(&[0.5], 0);
    }

    #[test]
    fn ground_truth_matches_hand_computation() {
        // Scores already sorted: strata {0,1}, {2,3}.
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, false, true, true];
        let values = [2.0, 99.0, 4.0, 6.0];
        let s = Stratification::by_proxy_quantile(&scores, 2);
        let gt = s.ground_truth(&labels, &values);
        assert_eq!(gt[0].p, 0.5);
        assert_eq!(gt[0].mu, 2.0);
        assert_eq!(gt[0].sigma, 0.0); // single positive
        assert_eq!(gt[1].p, 1.0);
        assert_eq!(gt[1].mu, 5.0);
        assert!((gt[1].sigma - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn perfect_proxy_concentrates_positives_in_top_stratum() {
        // Proxy equals the label: all positives must land in the top
        // stratum when rates allow.
        let labels: Vec<bool> = (0..100).map(|i| i >= 80).collect();
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        let values = vec![1.0; 100];
        let gt = s.ground_truth(&labels, &values);
        assert_eq!(gt[4].p, 1.0);
        for (k, stratum) in gt[..4].iter().enumerate() {
            assert_eq!(stratum.p, 0.0, "stratum {k}");
        }
    }

    /// The reference order: `total_cmp` on the score, then record index.
    fn comparator_order(scores: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        order
    }

    /// Maps a drawn `(pick, x, payload)` to a score from a small pool of
    /// awkward values — ties, both zeros, both infinities, NaNs of both
    /// signs and several payloads — or to an ordinary `x`.
    fn awkward_score((pick, x, payload): (usize, f64, u64)) -> f64 {
        const POOL: [f64; 10] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.5,
            -0.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        match pick {
            10 => -f64::NAN,
            11 => f64::from_bits(f64::NAN.to_bits() | payload),
            12 | 13 => x,
            i => POOL[i],
        }
    }

    #[test]
    fn keyed_order_matches_total_cmp_on_special_values() {
        let scores =
            [f64::NAN, 1.0, -0.0, 0.0, f64::NEG_INFINITY, -f64::NAN, f64::INFINITY, 1.0, -0.0];
        let s = Stratification::by_proxy_quantile(&scores, 1);
        assert_eq!(s.stratum(0), comparator_order(&scores).as_slice());
        assert_eq!(s.stratum(0), &[5, 4, 2, 8, 3, 1, 7, 6, 0]);
    }

    proptest! {
        #[test]
        fn keyed_sort_matches_the_comparator_sort(
            draws in proptest::collection::vec((0usize..14, -2.0f64..2.0, 0u64..4), 0..200),
            k in 1usize..8,
        ) {
            let scores: Vec<f64> = draws.into_iter().map(awkward_score).collect();
            let order = comparator_order(&scores);
            let s = Stratification::by_proxy_quantile(&scores, k);
            let flat: Vec<usize> = s.strata().iter().flatten().copied().collect();
            prop_assert_eq!(flat, order);
        }

        #[test]
        fn partition_invariants(
            scores in proptest::collection::vec(0.0f64..1.0, 0..300),
            k in 1usize..12,
        ) {
            let s = Stratification::by_proxy_quantile(&scores, k);
            prop_assert_eq!(s.len(), k);
            prop_assert_eq!(s.total(), scores.len());
            let sizes = s.sizes();
            let max = sizes.iter().max().copied().unwrap_or(0);
            let min = sizes.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1);
        }
    }
}
