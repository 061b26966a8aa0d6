//! Integration tests spanning the whole stack: emulators (abae-data) →
//! SQL frontend (abae-query) → core algorithms (abae-core) → statistics
//! (abae-stats).

use abae::core::config::{AbaeConfig, Aggregate};
use abae::core::two_stage::run_two_stage;
use abae::core::{run_uniform, Stratification};
use abae::data::emulators::{night_street, trec05p, EmulatorOptions};
use abae::data::PredicateOracle;
use abae::query::Engine;
use abae::stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn opts() -> EmulatorOptions {
    EmulatorOptions { scale: 0.03, seed: 42 }
}

#[test]
fn sql_query_over_emulated_dataset_converges() {
    let emails = trec05p(&opts());
    let exact = emails.exact_avg("is_spam").unwrap();
    let engine = Engine::builder().table(emails).bootstrap_trials(200).seed(1).build();
    let mut session = engine.session();

    let mut covered = 0;
    let trials = 20;
    let mut estimates = Vec::new();
    for _ in 0..trials {
        let r = session
            .execute(
                "SELECT AVG(nb_links) FROM trec05p WHERE is_spam \
                 ORACLE LIMIT 4000 WITH PROBABILITY 0.95",
            )
            .expect("query executes");
        assert!(r.oracle_calls <= 4000);
        estimates.push(r.estimate());
        if r.ci().expect("scalar query CI").contains(exact) {
            covered += 1;
        }
    }
    // Estimates are consistent and CIs cover the truth most of the time.
    assert!(rmse(&estimates, exact) / exact < 0.15, "rmse too high");
    assert!(covered >= 16, "coverage {covered}/{trials}");
}

/// ABae's pooled MSE beats uniform sampling's at the same budget over
/// paired runs: run `i` of each method draws from its own `StdRng` seeded
/// with `i`, so no run's RNG use can shift another's.
///
/// Power: at this budget ABae's MSE is 0.66–0.74× uniform's (RMSE ≈ 0.054
/// vs 0.067, measured over 30 disjoint sets of 1000 seeds). With
/// near-normal errors a pooled MSE over `n` runs has relative standard
/// deviation √(2/n), so the gap between the two is ≈ 0.19·√n standard
/// deviations of their difference: ≈ 5.9 at n = 1000. A failure means
/// ABae lost its edge, not an unlucky seed.
#[test]
fn abae_beats_uniform_on_an_emulated_dataset() {
    let video = night_street(&opts());
    let exact = video.exact_avg("has_car").unwrap();
    let scores = video.predicate("has_car").unwrap().proxy().to_vec();
    let cfg = AbaeConfig { budget: 2000, ..Default::default() };
    let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
    let runs = 1000;

    let (mut abae_se, mut uniform_se) = (0.0, 0.0);
    for seed in 0..runs {
        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let abae = run_two_stage(&strat, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        abae_se += (abae.estimate - exact).powi(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform = run_uniform(video.len(), &oracle, 2000, Aggregate::Avg, &mut rng);
        uniform_se += (uniform.estimate - exact).powi(2);
    }
    let (abae_mse, uniform_mse) = (abae_se / runs as f64, uniform_se / runs as f64);
    assert!(abae_mse < uniform_mse, "ABae MSE {abae_mse} should beat uniform {uniform_mse}");
}

#[test]
fn same_seed_same_answer_across_the_stack() {
    let run = |seed: u64| {
        let emails = trec05p(&opts());
        let engine = Engine::builder().table(emails).bootstrap_trials(50).seed(seed).build();
        engine
            .session()
            .execute("SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT 1000")
            .expect("query executes")
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a.estimate(), c.estimate(), "different seeds should differ");
}

#[test]
fn count_and_sum_aggregates_match_ground_truth_scale() {
    let video = night_street(&opts());
    let exact_count = video.exact_count("has_car").unwrap();
    let exact_sum = video.exact_sum("has_car").unwrap();
    let engine = Engine::builder().table(video).bootstrap_trials(100).seed(3).build();
    let mut session = engine.session();

    let count = session
        .execute("SELECT COUNT(*) FROM night-street WHERE has_car ORACLE LIMIT 5000")
        .expect("query executes");
    assert!(
        (count.estimate() - exact_count).abs() / exact_count < 0.1,
        "count {} vs {exact_count}",
        count.estimate()
    );

    let sum = session
        .execute("SELECT SUM(cars) FROM night-street WHERE has_car ORACLE LIMIT 5000")
        .expect("query executes");
    assert!(
        (sum.estimate() - exact_sum).abs() / exact_sum < 0.1,
        "sum {} vs {exact_sum}",
        sum.estimate()
    );
}
