//! Stratified bootstrap confidence intervals (Algorithm 2).
//!
//! Because the per-stratum samples from both stages are i.i.d. within the
//! stratum, Algorithm 2 resamples *within each stratum* — with replacement,
//! at the original sample size — recomputes `p̂*_k, μ̂*_k` and the combined
//! estimate, repeats `β` times, and reports the `[α/2, 1 − α/2]` percentile
//! interval.
//!
//! # Resampling from sufficient statistics
//!
//! [`combine_estimate`] reads only `|S_k|`, `p̂_k` and `μ̂_k` of each
//! stratum, and a with-replacement resample of stratum `k`'s `n_k` draws,
//! `m_k` of them positive, factorises exactly:
//!
//! * each of the `n_k` picks lands on a positive draw with probability
//!   `m_k / n_k`, independently, so the resample's positive count is
//!   `m* ~ Binomial(n_k, m_k / n_k)`;
//! * given `m*`, the positive picks are `m*` independent uniform picks
//!   among the `m_k` positive draws, so `μ̂*_k` is the mean of `m*`
//!   with-replacement draws from the stratum's positive values.
//!
//! Negative draws carry no value the estimator reads, and it ignores
//! `σ̂_k`. The kernel therefore builds, once per call, each stratum's
//! Binomial CDF table and its positive values (`BootstrapStratum`); a
//! replicate then costs one binary search on a uniform plus `m*` index
//! draws per stratum, instead of `n_k` record copies and a Welford update
//! per copy. The replicate distribution is the record-by-record
//! bootstrap's, not an approximation of it (the module's χ² test pins
//! this against the record-by-record reference); only the RNG stream
//! differs.
//!
//! The paper notes the bootstrap's CPU cost is negligible next to oracle
//! invocations (§3.1); the Criterion bench `bootstrap_1000_trials` in
//! `crates/bench/benches/microbench.rs` measures our implementation
//! against that claim.

use crate::config::{Aggregate, BootstrapConfig};
use crate::estimator::{combine_estimate, StratumEstimate};
use abae_data::Labeled;
use abae_stats::bootstrap::{percentile_ci, ConfidenceInterval};
use rand::Rng;

/// One stratum's bootstrap input: the sufficient statistics a
/// with-replacement resample of its draws can change.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BootstrapStratum {
    /// Stratum population size `|S_k|`.
    pub(crate) size: usize,
    /// Number of labeled draws `n_k`.
    pub(crate) draws: usize,
    /// Statistic values of the draws matching the predicate, in the
    /// order the replicates index them. Never longer than `draws`.
    pub(crate) positives: Vec<f64>,
}

impl BootstrapStratum {
    /// The bootstrap input of a stratum whose labeled draws are `draws`,
    /// keeping the positives in iteration order.
    pub(crate) fn from_draws<'a>(
        size: usize,
        draws: impl IntoIterator<Item = &'a Labeled>,
    ) -> Self {
        let mut count = 0;
        let positives = draws
            .into_iter()
            .inspect(|_| count += 1)
            .filter(|d| d.matches)
            .map(|d| d.value)
            .collect();
        Self { size, draws: count, positives }
    }
}

/// `P(X ≤ j)` for `X ~ Binomial(n, p)`, `j = 0..=n`, with `0 < p < 1`.
///
/// The log-pmf is filled by the ratio recursion outward from the mode,
/// where it is pinned at 0, so no term overflows and far tails underflow
/// to exactly 0 rather than to NaN. The table is normalised by its own
/// running total, so its last entry is exactly 1.
fn binomial_cdf(n: usize, p: f64) -> Vec<f64> {
    debug_assert!(p > 0.0 && p < 1.0, "degenerate rate {p}");
    let log_odds = (p / (1.0 - p)).ln();
    let mode = (((n + 1) as f64 * p).floor() as usize).min(n);
    let mut log_pmf = vec![0.0f64; n + 1];
    for j in mode + 1..=n {
        // pmf(j) / pmf(j − 1) = (n − j + 1) / j · p / (1 − p)
        log_pmf[j] = log_pmf[j - 1] + ((n - j + 1) as f64 / j as f64).ln() + log_odds;
    }
    for j in (0..mode).rev() {
        // pmf(j) / pmf(j + 1) = (j + 1) / (n − j) · (1 − p) / p
        log_pmf[j] = log_pmf[j + 1] + ((j + 1) as f64 / (n - j) as f64).ln() - log_odds;
    }
    let mut running = 0.0;
    let mut cdf: Vec<f64> = log_pmf
        .into_iter()
        .map(|lp| {
            running += lp.exp();
            running
        })
        .collect();
    for c in &mut cdf {
        *c /= running;
    }
    cdf
}

/// Per-call resampling state of one stratum.
struct Resampler<'a> {
    size: usize,
    draws: usize,
    positives: &'a [f64],
    /// Binomial CDF of `m*`; empty when `m*` is certain (no positives, or
    /// all draws positive).
    cdf: Vec<f64>,
}

impl<'a> Resampler<'a> {
    fn new(stratum: &'a BootstrapStratum) -> Self {
        let (n, m) = (stratum.draws, stratum.positives.len());
        assert!(m <= n, "a stratum cannot have more positives ({m}) than draws ({n})");
        let cdf = if m == 0 || m == n { Vec::new() } else { binomial_cdf(n, m as f64 / n as f64) };
        Self { size: stratum.size, draws: n, positives: &stratum.positives, cdf }
    }

    /// Draws the resample's positive count `m*`.
    fn positives_star<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.cdf.is_empty() {
            return self.positives.len();
        }
        let u: f64 = rng.gen();
        // The first j with P(X ≤ j) > u; the last entry is 1 > u.
        self.cdf.partition_point(|&c| c <= u)
    }

    /// One replicate of the stratum: `m*` and the sum of `m*` values drawn
    /// with replacement from the positives.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, f64) {
        let m_star = self.positives_star(rng);
        let m = self.positives.len();
        let mut sum = 0.0;
        for _ in 0..m_star {
            sum += self.positives[rng.gen_range(0..m)];
        }
        (m_star, sum)
    }

    /// One replicate as the estimator's input. `σ̂` is left at 0: no
    /// aggregate reads it.
    fn replicate<R: Rng + ?Sized>(&self, rng: &mut R) -> StratumEstimate {
        let (m_star, sum) = self.draw(rng);
        StratumEstimate {
            size: self.size,
            draws: self.draws,
            positives: m_star,
            p_hat: if self.draws == 0 { 0.0 } else { m_star as f64 / self.draws as f64 },
            mu_hat: if m_star == 0 { 0.0 } else { sum / m_star as f64 },
            sigma_hat: 0.0,
        }
    }
}

/// [`stratified_bootstrap_cis`] from per-stratum sufficient statistics.
///
/// # Panics
/// When a stratum lists more positives than draws.
pub(crate) fn bootstrap_cis<R: Rng + ?Sized>(
    strata: &[BootstrapStratum],
    aggs: &[Aggregate],
    config: &BootstrapConfig,
    rng: &mut R,
) -> Vec<Option<ConfidenceInterval>> {
    if strata.iter().all(|s| s.draws == 0) || config.trials == 0 {
        return vec![None; aggs.len()];
    }
    let resamplers: Vec<Resampler> = strata.iter().map(Resampler::new).collect();
    let mut replicate: Vec<StratumEstimate> = Vec::with_capacity(strata.len());
    let mut replicates: Vec<Vec<f64>> = vec![Vec::with_capacity(config.trials); aggs.len()];
    for _ in 0..config.trials {
        replicate.clear();
        replicate.extend(resamplers.iter().map(|r| r.replicate(rng)));
        for (reps, &agg) in replicates.iter_mut().zip(aggs) {
            reps.push(combine_estimate(agg, &replicate));
        }
    }
    replicates.into_iter().map(|mut reps| percentile_ci(&mut reps, config.alpha)).collect()
}

/// Algorithm 2: stratified percentile-bootstrap CI.
///
/// `samples[k]` holds stratum `k`'s labeled draws (both stages under sample
/// reuse); `sizes[k]` is the stratum's full population size. Returns `None`
/// when every stratum is empty (no draws at all — no CI is definable).
pub fn stratified_bootstrap_ci<R: Rng + ?Sized>(
    samples: &[Vec<Labeled>],
    sizes: &[usize],
    agg: Aggregate,
    config: &BootstrapConfig,
    rng: &mut R,
) -> Option<ConfidenceInterval> {
    stratified_bootstrap_cis(samples, sizes, std::slice::from_ref(&agg), config, rng)
        .pop()
        .flatten()
}

/// Algorithm 2 for several aggregates at once: each of the `β` replicates
/// resamples every stratum *once* and evaluates every requested aggregate
/// on the same resample, so a multi-aggregate query pays one bootstrap
/// instead of `|aggs|`.
///
/// `samples[k]` holds stratum `k`'s labeled draws and `sizes[k]` its
/// population size. Returns one `Option<ConfidenceInterval>` per entry of
/// `aggs`, in order (`None` for all of them when every stratum is empty
/// or `trials == 0`). The RNG stream does not depend on `aggs`, so each
/// aggregate's CI is the same alone and in a list, and a single aggregate
/// consumes exactly the stream of [`stratified_bootstrap_ci`].
pub fn stratified_bootstrap_cis<R: Rng + ?Sized>(
    samples: &[Vec<Labeled>],
    sizes: &[usize],
    aggs: &[Aggregate],
    config: &BootstrapConfig,
    rng: &mut R,
) -> Vec<Option<ConfidenceInterval>> {
    assert_eq!(samples.len(), sizes.len(), "samples/sizes must align");
    let strata: Vec<BootstrapStratum> = samples
        .iter()
        .zip(sizes)
        .map(|(draws, &size)| BootstrapStratum::from_draws(size, draws))
        .collect();
    bootstrap_cis(&strata, aggs, config, rng)
}

/// The record-by-record resampler: every replicate copies `n_k` draws per
/// stratum and refolds them. The reference the kernel's distribution is
/// tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// One with-replacement resample of a stratum's draws, refolded.
    pub(crate) fn resample_stratum<R: Rng + ?Sized>(
        size: usize,
        draws: &[Labeled],
        scratch: &mut Vec<Labeled>,
        rng: &mut R,
    ) -> StratumEstimate {
        scratch.clear();
        for _ in 0..draws.len() {
            scratch.push(draws[rng.gen_range(0..draws.len())]);
        }
        StratumEstimate::from_draws(size, scratch.iter())
    }

    /// Algorithm 2 by record-by-record resampling.
    pub(crate) fn stratified_bootstrap_cis<R: Rng + ?Sized>(
        samples: &[Vec<Labeled>],
        sizes: &[usize],
        aggs: &[Aggregate],
        config: &BootstrapConfig,
        rng: &mut R,
    ) -> Vec<Option<ConfidenceInterval>> {
        if samples.iter().all(Vec::is_empty) || config.trials == 0 {
            return vec![None; aggs.len()];
        }
        let mut scratch = Vec::new();
        let mut replicates: Vec<Vec<f64>> = vec![Vec::with_capacity(config.trials); aggs.len()];
        for _ in 0..config.trials {
            let strata: Vec<StratumEstimate> = samples
                .iter()
                .zip(sizes)
                .map(|(draws, &size)| resample_stratum(size, draws, &mut scratch, rng))
                .collect();
            for (reps, &agg) in replicates.iter_mut().zip(aggs) {
                reps.push(combine_estimate(agg, &strata));
            }
        }
        replicates.into_iter().map(|mut reps| percentile_ci(&mut reps, config.alpha)).collect()
    }

    /// Seeds per query shape in the full equivalence suite (run with
    /// `cargo test --release -p abae_core -- --ignored`).
    pub(crate) const FULL_SEEDS: u64 = 200;
    /// Seeds per query shape in the reduced suite of the default run.
    pub(crate) const REDUCED_SEEDS: u64 = 40;

    /// Coverage and mean width of the kernel's and the reference's CIs
    /// computed from the same samples, accumulated over seeds.
    #[derive(Debug, Default)]
    pub(crate) struct CiComparison {
        cis: usize,
        covered: [usize; 2],
        /// Samples whose truth only the kernel's / only the reference's
        /// CI covers.
        flips: [usize; 2],
        width: [f64; 2],
    }

    impl CiComparison {
        /// Records one sample's CI from each resampler against the truth.
        pub(crate) fn add(
            &mut self,
            truth: f64,
            kernel: Option<ConfidenceInterval>,
            reference: Option<ConfidenceInterval>,
        ) {
            let (Some(kernel), Some(reference)) = (kernel, reference) else {
                assert_eq!(kernel.is_none(), reference.is_none(), "one resampler gave no CI");
                return;
            };
            self.cis += 1;
            let hits = [kernel.contains(truth), reference.contains(truth)];
            for (i, ci) in [kernel, reference].iter().enumerate() {
                self.covered[i] += usize::from(hits[i]);
                self.width[i] += ci.width();
            }
            if hits[0] != hits[1] {
                self.flips[usize::from(hits[1])] += 1;
            }
        }

        /// Kernel coverage within 3 Monte-Carlo standard errors of the
        /// reference's, and mean width within 2%. Both CIs of a sample
        /// bracket the same truth, so coverage can differ only through
        /// samples one covers and the other misses; with `f` such flips
        /// the difference's standard error is `√f / n` (McNemar).
        pub(crate) fn assert_equivalent(&self, what: &str) {
            assert!(self.cis > 0, "{what}: no CIs compared");
            let n = self.cis as f64;
            let [cov, cov_ref] = self.covered.map(|c| c as f64 / n);
            let se = ((self.flips[0] + self.flips[1]) as f64).sqrt() / n;
            assert!(
                (cov - cov_ref).abs() <= 3.0 * se,
                "{what}: coverage {cov:.3} vs reference {cov_ref:.3} (SE {se:.4}, flips {:?}, {n} CIs)",
                self.flips
            );
            let ratio = self.width[0] / self.width[1];
            assert!(
                (ratio - 1.0).abs() <= 0.02,
                "{what}: mean width {ratio:.4}× the reference's over {n} CIs"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn labeled(matches: bool, value: f64) -> Labeled {
        Labeled { matches, value }
    }

    #[test]
    fn constant_samples_give_zero_width_interval() {
        let samples = vec![vec![labeled(true, 5.0); 20], vec![labeled(true, 5.0); 20]];
        let sizes = vec![100, 100];
        let mut rng = StdRng::seed_from_u64(1);
        let ci = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &BootstrapConfig { trials: 200, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    fn empty_samples_yield_no_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(stratified_bootstrap_ci(
            &[vec![], vec![]],
            &[10, 10],
            Aggregate::Avg,
            &BootstrapConfig::default(),
            &mut rng,
        )
        .is_none());
    }

    #[test]
    fn zero_trials_yield_no_interval() {
        let samples = vec![vec![labeled(true, 1.0)]];
        let mut rng = StdRng::seed_from_u64(3);
        assert!(stratified_bootstrap_ci(
            &samples,
            &[10],
            Aggregate::Avg,
            &BootstrapConfig { trials: 0, alpha: 0.05 },
            &mut rng,
        )
        .is_none());
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let samples = vec![
            (0..50).map(|i| labeled(i % 3 != 0, (i % 5) as f64)).collect::<Vec<_>>(),
            (0..50).map(|i| labeled(i % 2 == 0, (i % 7) as f64)).collect::<Vec<_>>(),
        ];
        let sizes = vec![500, 500];
        let point = combine_estimate(
            Aggregate::Avg,
            &[
                StratumEstimate::from_draws(500, &samples[0]),
                StratumEstimate::from_draws(500, &samples[1]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let ci = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &BootstrapConfig { trials: 500, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert!(ci.lo <= point && point <= ci.hi, "[{}, {}] vs {point}", ci.lo, ci.hi);
    }

    #[test]
    fn more_samples_narrow_the_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let gen_samples = |n: usize, rng: &mut StdRng| -> Vec<Vec<Labeled>> {
            vec![(0..n)
                .map(|_| labeled(rng.gen::<f64>() < 0.5, rng.gen::<f64>() * 10.0))
                .collect()]
        };
        let small = gen_samples(40, &mut rng);
        let large = gen_samples(4000, &mut rng);
        let cfg = BootstrapConfig { trials: 400, alpha: 0.05 };
        let ci_small =
            stratified_bootstrap_ci(&small, &[10_000], Aggregate::Avg, &cfg, &mut rng).unwrap();
        let ci_large =
            stratified_bootstrap_ci(&large, &[10_000], Aggregate::Avg, &cfg, &mut rng).unwrap();
        assert!(
            ci_large.width() < ci_small.width(),
            "large {} vs small {}",
            ci_large.width(),
            ci_small.width()
        );
    }

    #[test]
    fn lower_alpha_widens_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<Vec<Labeled>> = vec![(0..200)
            .map(|_| labeled(rng.gen::<f64>() < 0.4, rng.gen::<f64>() * 5.0))
            .collect()];
        let wide = stratified_bootstrap_ci(
            &samples,
            &[1000],
            Aggregate::Avg,
            &BootstrapConfig { trials: 800, alpha: 0.01 },
            &mut rng,
        )
        .unwrap();
        let narrow = stratified_bootstrap_ci(
            &samples,
            &[1000],
            Aggregate::Avg,
            &BootstrapConfig { trials: 800, alpha: 0.2 },
            &mut rng,
        )
        .unwrap();
        assert!(wide.width() >= narrow.width());
        assert_eq!(wide.confidence, 0.99);
        assert_eq!(narrow.confidence, 0.8);
    }

    #[test]
    fn multi_aggregate_cis_share_one_resampling_pass() {
        let samples: Vec<Vec<Labeled>> = vec![
            (0..80).map(|i| labeled(i % 3 != 0, (i % 5) as f64)).collect(),
            (0..80).map(|i| labeled(i % 2 == 0, (i % 7) as f64)).collect(),
        ];
        let sizes = vec![400, 400];
        let cfg = BootstrapConfig { trials: 300, alpha: 0.05 };
        // The resampling stream does not depend on which aggregates are
        // requested, so each aggregate's CI is identical whether computed
        // alone or as part of a multi-aggregate batch with the same seed.
        let all = stratified_bootstrap_cis(
            &samples,
            &sizes,
            &[Aggregate::Avg, Aggregate::Sum, Aggregate::Count],
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        let avg_alone = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        let count_alone = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Count,
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], avg_alone);
        assert_eq!(all[2], count_alone);
        // Every aggregate's CI brackets its own point estimate.
        let strata = [
            StratumEstimate::from_draws(400, &samples[0]),
            StratumEstimate::from_draws(400, &samples[1]),
        ];
        for (ci, agg) in all.iter().zip([Aggregate::Avg, Aggregate::Sum, Aggregate::Count]) {
            let ci = ci.expect("non-empty samples");
            let point = combine_estimate(agg, &strata);
            assert!(ci.lo <= point && point <= ci.hi, "{agg:?}: [{}, {}] vs {point}", ci.lo, ci.hi);
        }
    }

    #[test]
    fn multi_aggregate_cis_handle_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(10);
        let empty = stratified_bootstrap_cis(
            &[vec![], vec![]],
            &[10, 10],
            &[Aggregate::Avg, Aggregate::Sum],
            &BootstrapConfig::default(),
            &mut rng,
        );
        assert_eq!(empty, vec![None, None]);
        let no_aggs = stratified_bootstrap_cis(
            &[vec![labeled(true, 1.0)]],
            &[10],
            &[],
            &BootstrapConfig::default(),
            &mut rng,
        );
        assert!(no_aggs.is_empty());
    }

    #[test]
    fn count_bootstrap_scales_with_population() {
        // All samples positive; COUNT replicates are deterministic at the
        // population size regardless of resampling.
        let samples = vec![vec![labeled(true, 1.0); 30]];
        let mut rng = StdRng::seed_from_u64(7);
        let ci = stratified_bootstrap_ci(
            &samples,
            &[777],
            Aggregate::Count,
            &BootstrapConfig { trials: 100, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(ci.lo, 777.0);
        assert_eq!(ci.hi, 777.0);
    }

    #[test]
    fn degenerate_strata_resample_deterministically_where_they_must() {
        let mut rng = StdRng::seed_from_u64(11);
        let all_pos = BootstrapStratum { size: 50, draws: 4, positives: vec![1.0, 2.0, 3.0, 4.0] };
        let no_pos = BootstrapStratum { size: 50, draws: 4, positives: vec![] };
        let empty = BootstrapStratum { size: 50, draws: 0, positives: vec![] };
        let single = BootstrapStratum { size: 50, draws: 1, positives: vec![7.5] };
        for _ in 0..200 {
            let r = Resampler::new(&all_pos).replicate(&mut rng);
            assert_eq!((r.positives, r.p_hat), (4, 1.0));
            assert!((1.0..=4.0).contains(&r.mu_hat));
            let r = Resampler::new(&no_pos).replicate(&mut rng);
            assert_eq!((r.positives, r.p_hat, r.mu_hat), (0, 0.0, 0.0));
            let r = Resampler::new(&empty).replicate(&mut rng);
            assert_eq!((r.draws, r.positives, r.p_hat, r.mu_hat), (0, 0, 0.0, 0.0));
            let r = Resampler::new(&single).replicate(&mut rng);
            assert_eq!((r.positives, r.p_hat, r.mu_hat), (1, 1.0, 7.5));
        }
        // Empty and zero-positive strata next to a live one: the CI is
        // defined and comes from the live stratum alone.
        let strata = vec![empty, no_pos, single];
        let cis = bootstrap_cis(
            &strata,
            &[Aggregate::Avg, Aggregate::Count],
            &BootstrapConfig { trials: 50, alpha: 0.05 },
            &mut rng,
        );
        let avg = cis[0].expect("one stratum has draws");
        assert_eq!((avg.lo, avg.hi), (7.5, 7.5));
        let count = cis[1].expect("one stratum has draws");
        assert_eq!((count.lo, count.hi), (50.0, 50.0));
    }

    #[test]
    fn zero_trials_and_drawless_strata_yield_no_interval() {
        let mut rng = StdRng::seed_from_u64(12);
        let live = vec![BootstrapStratum { size: 10, draws: 3, positives: vec![1.0] }];
        let cfg0 = BootstrapConfig { trials: 0, alpha: 0.05 };
        assert_eq!(bootstrap_cis(&live, &[Aggregate::Avg], &cfg0, &mut rng), vec![None]);
        let drawless = vec![BootstrapStratum { size: 10, draws: 0, positives: vec![] }; 3];
        let cfg = BootstrapConfig::default();
        assert_eq!(bootstrap_cis(&drawless, &[Aggregate::Sum], &cfg, &mut rng), vec![None]);
        assert_eq!(bootstrap_cis(&[], &[Aggregate::Sum], &cfg, &mut rng), vec![None]);
    }

    #[test]
    #[should_panic(expected = "more positives")]
    fn more_positives_than_draws_is_rejected() {
        let bad = vec![BootstrapStratum { size: 10, draws: 1, positives: vec![1.0, 2.0] }];
        let mut rng = StdRng::seed_from_u64(13);
        bootstrap_cis(&bad, &[Aggregate::Avg], &BootstrapConfig::default(), &mut rng);
    }

    #[test]
    fn binomial_cdf_is_finite_monotone_and_ends_at_one_for_large_strata() {
        for &(n, p) in &[(50_000usize, 0.3), (80_000, 1e-4), (60_000, 1.0 - 1e-5), (2, 0.5)] {
            let cdf = binomial_cdf(n, p);
            assert_eq!(cdf.len(), n + 1);
            assert!(cdf.iter().all(|c| c.is_finite() && (0.0..=1.0).contains(c)), "n={n} p={p}");
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "n={n} p={p}: not monotone");
            assert_eq!(*cdf.last().unwrap(), 1.0, "n={n} p={p}");
            // The median sits next to n·p.
            let median = cdf.partition_point(|&c| c < 0.5);
            assert!((median as f64 - n as f64 * p).abs() <= 1.0 + 0.01 * n as f64 * p);
        }
        // Exact small case: Binomial(4, 1/2) has CDF 1, 5, 11, 15, 16 (/16).
        let cdf = binomial_cdf(4, 0.5);
        for (c, want) in cdf.iter().zip([1.0, 5.0, 11.0, 15.0, 16.0]) {
            assert!((c - want / 16.0).abs() < 1e-12, "{cdf:?}");
        }
    }

    #[test]
    fn large_stratum_replicates_match_binomial_moments() {
        let n = 50_000;
        let m = 15_000;
        let stratum = BootstrapStratum {
            size: 1_000_000,
            draws: n,
            positives: (0..m).map(|i| (i % 10) as f64).collect(),
        };
        let r = Resampler::new(&stratum);
        let mut rng = StdRng::seed_from_u64(14);
        let reps = 400;
        let mut total = 0.0;
        for _ in 0..reps {
            let (m_star, sum) = r.draw(&mut rng);
            assert!(m_star <= n && sum.is_finite());
            total += m_star as f64;
        }
        // Binomial(50 000, 0.3): sd ≈ 102.5, so the mean of 400 draws is
        // within 5 sd ≈ 26 of 15 000.
        assert!((total / reps as f64 - m as f64).abs() < 26.0, "mean m* {}", total / reps as f64);
    }

    /// χ² critical value at upper tail `a` for `df` degrees of freedom
    /// (Wilson–Hilferty).
    fn chi2_critical(df: usize, a: f64) -> f64 {
        let z = abae_stats::special::normal_quantile(1.0 - a);
        let k = df as f64;
        let h = 2.0 / (9.0 * k);
        k * (1.0 - h + z * h.sqrt()).powi(3)
    }

    #[test]
    fn kernel_distribution_matches_record_by_record_resampling() {
        // A tiny stratum: 7 draws, 3 positive with distinct values, so
        // every (m*, Σ values) pair is a distinct, exactly representable
        // outcome.
        let draws = vec![
            labeled(false, 0.0),
            labeled(true, 1.0),
            labeled(false, 9.0),
            labeled(true, 2.0),
            labeled(false, 0.0),
            labeled(true, 4.0),
            labeled(false, 5.0),
        ];
        let stratum = BootstrapStratum::from_draws(100, &draws);
        let kernel = Resampler::new(&stratum);
        let reps = 40_000;
        let key =
            |e: &StratumEstimate| (e.positives, (e.mu_hat * e.positives as f64).round() as i64);
        let mut counts: BTreeMap<(usize, i64), [u64; 2]> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..reps {
            counts.entry(key(&kernel.replicate(&mut rng))).or_default()[0] += 1;
        }
        let mut rng = StdRng::seed_from_u64(16);
        let mut scratch = Vec::new();
        for _ in 0..reps {
            let e = reference::resample_stratum(100, &draws, &mut scratch, &mut rng);
            counts.entry(key(&e)).or_default()[1] += 1;
        }
        // Two-sample χ² homogeneity test, pooling outcomes too rare for
        // the χ² approximation into one cell.
        let mut cells: Vec<[u64; 2]> = Vec::new();
        let mut rare = [0u64; 2];
        for c in counts.values() {
            if c[0] + c[1] >= 20 {
                cells.push(*c);
            } else {
                rare[0] += c[0];
                rare[1] += c[1];
            }
        }
        if rare[0] + rare[1] > 0 {
            cells.push(rare);
        }
        let stat: f64 = cells
            .iter()
            .map(|c| {
                let expected = (c[0] + c[1]) as f64 / 2.0;
                c.iter().map(|&o| (o as f64 - expected).powi(2) / expected).sum::<f64>()
            })
            .sum();
        let df = cells.len() - 1;
        assert!(df >= 20, "too few outcome cells ({df}) to test anything");
        let critical = chi2_critical(df, 1e-3);
        assert!(stat < critical, "χ²={stat:.1} ≥ {critical:.1} on {df} df");
    }
}
