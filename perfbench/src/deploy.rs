//! The deployment profile every workload shares: tables, engine options,
//! simulated oracle cost, and the statements with their ground truth.

use crate::trace;
use crate::Answer;
use abae_core::batcher::BatcherOptions;
use abae_core::pipeline::ExecOptions;
use abae_data::emulators::{celeba_groupby, trec05p, EmulatorOptions};
use abae_data::Table;
use abae_query::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

pub const TREC_SCALE: f64 = 1.0;
pub const CELEBA_SCALE: f64 = 0.25;
pub const STRATA: usize = 5;
pub const STAGE1_FRACTION: f64 = 0.5;
pub const BOOTSTRAP_TRIALS: usize = 1000;
pub const EXEC: ExecOptions = ExecOptions::new(1, 256);
/// Simulated device cost of one oracle invocation (a batch of up to
/// `EXEC.batch_size` records).
pub const ORACLE_OVERHEAD: Duration = Duration::from_millis(5);

/// SplitMix64 finalizer: derives independent seeds from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG of one traced statement the benchmark runs through the layer
/// functions itself (see `shadow`), seeded from a seed derived by [`mix`].
pub fn shadow_rng(seed: u64) -> StdRng {
    // abae-lint: allow(rng_discipline) -- the benchmark's own traced statements draw from the run seed, not from an engine session
    StdRng::seed_from_u64(seed)
}

/// The demo tables plus their exact answers.
pub struct Tables {
    pub trec: Table,
    pub celeba: Table,
    pub truth: Truth,
}

/// Exact answers from `Table::exact_*`.
#[derive(Debug, Clone)]
pub struct Truth {
    pub count: f64,
    pub sum: f64,
    pub avg: f64,
    /// Standard deviation of the statistic over the matching records.
    pub sd: f64,
    /// Per-group `AVG` in the table's group order.
    pub groups: Vec<f64>,
}

pub fn build_tables(seed: u64) -> Tables {
    trace::span("data.table.build", || {
        let trec = trec05p(&EmulatorOptions { scale: TREC_SCALE, seed: mix(seed, 1) });
        let celeba = celeba_groupby(&EmulatorOptions { scale: CELEBA_SCALE, seed: mix(seed, 2) });
        let groups = (0..celeba.group_key().expect("grouped table").num_groups())
            .map(|g| celeba.exact_group_avg(g as u16).expect("group"))
            .collect();
        let avg = trec.exact_avg("is_spam").expect("predicate");
        let labels = trec.predicate("is_spam").expect("predicate").labels_vec();
        let (mut ss, mut n) = (0.0, 0.0);
        for (&v, _) in trec.statistics().iter().zip(&labels).filter(|(_, &l)| l) {
            ss += (v - avg) * (v - avg);
            n += 1.0;
        }
        let truth = Truth {
            count: trec.exact_count("is_spam").expect("predicate"),
            sum: trec.exact_sum("is_spam").expect("predicate"),
            avg,
            sd: (ss / (n - 1.0)).sqrt(),
            groups,
        };
        Tables { trec, celeba, truth }
    })
}

/// An engine over the demo tables with every option set explicitly.
pub fn engine(tables: &Tables, seed: u64, label_store: bool, governor: bool) -> Engine {
    Engine::builder()
        .table(tables.trec.clone())
        .table(tables.celeba.clone())
        .bind_predicate("celeba-groupby", "HAIR_COLOR=gray", "is_gray")
        .bind_predicate("celeba-groupby", "HAIR_COLOR=blond", "is_blond")
        .label_cache(label_store)
        .strata(STRATA)
        .stage1_fraction(STAGE1_FRACTION)
        .bootstrap_trials(BOOTSTRAP_TRIALS)
        .exec(EXEC)
        .batcher(BatcherOptions {
            coalesce: governor,
            invocation_overhead: ORACLE_OVERHEAD,
            max_batch_records: 0,
            session_quota: 0,
        })
        .seed(seed)
        .build()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scalar,
    GroupBy,
    Until,
    /// A wire round trip (its server-side layers are not traced in place).
    Wire,
}

/// One workload statement: its class (for per-class percentiles and the
/// trace accounting), SQL, budget, and the exact answer of each row.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: &'static str,
    pub sql: String,
    pub kind: Kind,
    pub budget: u64,
    pub truth: Vec<f64>,
}

/// `SELECT <aggs> FROM trec05p WHERE is_spam ORACLE LIMIT <budget>
/// [USING <proxy>] WITH PROBABILITY <p>`; `aggs` name COUNT/SUM/AVG.
pub fn scalar(
    class: &'static str,
    aggs: &[&str],
    budget: u64,
    using: Option<&str>,
    probability: f64,
    truth: &Truth,
) -> Stmt {
    let list: Vec<String> = aggs
        .iter()
        .map(|a| if *a == "COUNT" { "COUNT(*)".to_string() } else { format!("{a}(links)") })
        .collect();
    let using = using.map(|p| format!(" USING {p}")).unwrap_or_default();
    Stmt {
        class,
        sql: format!(
            "SELECT {} FROM trec05p WHERE is_spam ORACLE LIMIT {budget}{using} \
             WITH PROBABILITY {probability}",
            list.join(", ")
        ),
        kind: Kind::Scalar,
        budget,
        truth: aggs.iter().map(|a| agg_truth(a, truth)).collect(),
    }
}

fn agg_truth(agg: &str, truth: &Truth) -> f64 {
    match agg {
        "COUNT" => truth.count,
        "SUM" => truth.sum,
        "AVG" => truth.avg,
        other => panic!("no ground truth for {other}"),
    }
}

/// Per-hair-colour smiling percentage, the paper's §5.2 group-by query.
pub fn groupby(class: &'static str, budget: u64, truth: &Truth) -> Stmt {
    Stmt {
        class,
        sql: format!(
            "SELECT AVG(is_smiling(image)) FROM celeba-groupby \
             WHERE HAIR_COLOR(image) = 'gray' OR HAIR_COLOR(image) = 'blond' \
             GROUP BY HAIR_COLOR(image) ORACLE LIMIT {budget} WITH PROBABILITY 0.95"
        ),
        kind: Kind::GroupBy,
        budget,
        truth: truth.groups.clone(),
    }
}

/// An anytime `AVG` that stops once its CI is narrower than `sd_width`
/// standard deviations of the statistic. The precision is asked in units
/// of the data's spread, so the stopping point does not drift with each
/// seed's heavy tail.
pub fn until(class: &'static str, sd_width: f64, max: u64, truth: &Truth) -> Stmt {
    let width = sd_width * truth.sd;
    Stmt {
        class,
        sql: format!(
            "SELECT AVG(links) FROM trec05p WHERE is_spam UNTIL CI WIDTH < {width} \
             MAX ORACLE LIMIT {max} WITH PROBABILITY 0.95"
        ),
        kind: Kind::Until,
        budget: max,
        truth: vec![truth.avg],
    }
}

/// Answers of a statement in row order: scalar aggregates, or group rows
/// (the group-by summary row carries no CI and is left out).
pub fn answers(result: &abae_query::QueryResult) -> Vec<Answer> {
    match &result.groups {
        Some(groups) => groups.iter().map(|g| Answer::new(g.estimate, g.ci)).collect(),
        None => result.rows.iter().map(|r| Answer::new(r.estimate, r.ci)).collect(),
    }
}
