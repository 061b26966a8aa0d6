//! The traced execution path: one statement run as the sequence of public
//! layer calls the engine's planner makes for it, with a span around each.
//!
//! `Session::execute` is a black box to the benchmark, so the traced run
//! re-executes each statement through the same public functions the
//! planner calls — `Stratification`, `run_two_stage`,
//! `stratified_bootstrap_cis`, `groupby_single_oracle_with_ci`,
//! `run_abae_multi_progressive` — over the same oracle stack (label store
//! outside the batcher's admission, admission outside the oracle), with the
//! same engine options. Its RNG stream is the benchmark's own, so a shadow
//! statement draws different records than the engine would; costs are
//! comparable, answers are not.

use crate::trace::{self, Timed};
use crate::Answer;
use abae_core::batcher::GovernedOracle;
use abae_core::bootstrap::stratified_bootstrap_cis;
use abae_core::config::{AbaeConfig, Aggregate, BootstrapConfig};
use abae_core::groupby::{groupby_single_oracle_with_ci, GroupByConfig};
use abae_core::multipred::{expression_oracle, table_combined_scores, PredExpr};
use abae_core::two_stage::{run_abae_multi_progressive, run_two_stage, ProgressiveOptions};
use abae_core::{combine_estimate, Stratification};
use abae_data::{CachedOracle, Oracle, SingleGroupOracle};
use abae_query::{parse_query, Engine};
use rand::rngs::StdRng;

/// A statement resolved against an engine's catalog the way the planner
/// resolves it: predicate expression, score source, aggregates, bindings.
pub struct ShadowStmt {
    table: String,
    budget: usize,
    probability: f64,
    width: Option<f64>,
    plan: ShadowPlan,
}

enum ShadowPlan {
    Scalar { expr: PredExpr, scores: Vec<f64>, aggs: Vec<Aggregate>, pred_key: String },
    GroupBy { columns: Vec<usize> },
}

/// What one shadow execution produced.
pub struct ShadowOutcome {
    pub rows: Vec<Answer>,
    pub labels: u64,
    pub snapshots: usize,
    /// Seconds from the start of execution to the first snapshot.
    pub first_snapshot_s: Option<f64>,
}

impl ShadowStmt {
    pub fn resolve(engine: &Engine, sql: &str) -> ShadowStmt {
        let query = parse_query(sql).expect("benchmark statements parse");
        let catalog = engine.catalog();
        let table = catalog.table(&query.table).expect("benchmark tables exist");
        let keys = query.predicate.atom_keys();
        let columns: Vec<usize> = keys
            .iter()
            .map(|k| {
                let col = catalog.resolve(&query.table, k).expect("atoms resolve");
                table.predicate_index(&col).expect("resolved column exists")
            })
            .collect();
        let plan = if query.group_by.is_some() {
            ShadowPlan::GroupBy { columns }
        } else {
            let index_of = |key: &str| columns[keys.iter().position(|k| k == key).expect("key")];
            let expr = query.predicate.to_pred_expr(&index_of);
            let scores = match query.proxy.as_deref() {
                Some(p) => match catalog.resolve(&query.table, p) {
                    Some(col) => table.predicate(&col).expect("column").proxy().to_vec(),
                    None => {
                        catalog.proxy_registry().get(&query.table, p).expect("proxy").scores.clone()
                    }
                },
                None => table_combined_scores(table, &expr).expect("scores"),
            };
            ShadowPlan::Scalar {
                pred_key: format!("{expr:?}"),
                aggs: query.aggs.iter().map(|a| a.func.to_core()).collect(),
                expr,
                scores,
            }
        };
        ShadowStmt {
            table: query.table.clone(),
            budget: query.oracle_limit,
            probability: query.probability,
            width: query.until_width,
            plan,
        }
    }

    /// Executes the statement under spans, as session `session` of
    /// `engine` (its batcher attributes the admissions to that session).
    pub fn run(&self, engine: &Engine, session: u64, rng: &mut StdRng) -> ShadowOutcome {
        let opts = engine.options();
        let table = engine.catalog().table(&self.table).expect("table");
        let bootstrap =
            BootstrapConfig { trials: opts.bootstrap_trials, alpha: 1.0 - self.probability };
        match &self.plan {
            ShadowPlan::Scalar { expr, scores, aggs, pred_key } => {
                let config = AbaeConfig {
                    strata: opts.strata,
                    budget: self.budget,
                    stage1_fraction: opts.stage1_fraction,
                    bootstrap,
                    exec: opts.exec,
                    ..Default::default()
                };
                let governed = Timed::new(
                    "core.batcher.admit",
                    GovernedOracle::new(
                        Timed::new(
                            "data.oracle.label",
                            expression_oracle(table, expr).expect("oracle"),
                        ),
                        Some(engine.batcher()),
                        format!("{}/{pred_key}", self.table),
                        session,
                    ),
                );
                match engine.label_store() {
                    Some(store) => {
                        let cached = Timed::new(
                            "data.label_store",
                            CachedOracle::new(governed, store, &self.table, pred_key),
                        );
                        let out = self.scalar(scores, &cached, &config, aggs, rng);
                        let hits = cached.inner().hits();
                        if hits > 0 {
                            engine.batcher().note_cache_served(hits);
                        }
                        out
                    }
                    None => self.scalar(scores, &governed, &config, aggs, rng),
                }
            }
            ShadowPlan::GroupBy { columns } => {
                let proxies: Vec<&[f64]> =
                    columns.iter().map(|&c| table.predicates()[c].proxy()).collect();
                let oracle = Timed::new(
                    "core.batcher.admit",
                    GovernedOracle::new(
                        Timed::new(
                            "data.oracle.label",
                            SingleGroupOracle::new(table).expect("grouped table"),
                        ),
                        Some(engine.batcher()),
                        format!("{}//group-oracle", self.table),
                        session,
                    ),
                );
                let cfg = GroupByConfig {
                    strata: opts.strata,
                    budget: self.budget,
                    stage1_fraction: opts.stage1_fraction,
                    exec: opts.exec,
                    ..Default::default()
                };
                let estimates = trace::span("core.groupby", || {
                    let start = trace::now();
                    let out = groupby_single_oracle_with_ci(&proxies, &oracle, &cfg, &bootstrap, rng)
                        .expect("group-by runs");
                    // The bootstrap runs after the last label: the tail is
                    // what the CI adds over the point estimates.
                    let tail_from = oracle.last_end().unwrap_or(start);
                    trace::record("core.groupby.ci", tail_from, trace::now());
                    out
                });
                ShadowOutcome {
                    rows: estimates.iter().map(|e| Answer::new(e.estimate, e.ci)).collect(),
                    labels: oracle.calls(),
                    snapshots: 0,
                    first_snapshot_s: None,
                }
            }
        }
    }

    fn scalar<O: Oracle>(
        &self,
        scores: &[f64],
        oracle: &Timed<O>,
        config: &AbaeConfig,
        aggs: &[Aggregate],
        rng: &mut StdRng,
    ) -> ShadowOutcome {
        let calls_before = oracle.calls();
        if let Some(width) = self.width {
            let start = trace::now();
            let mut snapshots = 0usize;
            let mut first = None;
            let progressive = ProgressiveOptions { chunk: None, target_ci_width: Some(width) };
            let result = trace::span("core.two_stage.progressive", || {
                run_abae_multi_progressive(scores, oracle, config, aggs, &progressive, rng, |_| {
                    let at = trace::now();
                    // Snapshot CIs are computed between the chunk's last
                    // label and this callback.
                    trace::record("core.two_stage.snapshot_ci", oracle.last_end().unwrap_or(at), at);
                    snapshots += 1;
                    first.get_or_insert(at - start);
                })
                .expect("progressive run")
            });
            return ShadowOutcome {
                rows: result.answers.iter().map(|a| Answer::new(a.estimate, a.ci)).collect(),
                labels: oracle.calls() - calls_before,
                snapshots,
                first_snapshot_s: first,
            };
        }
        let strat = trace::span("core.stratify", || {
            Stratification::by_proxy_quantile(scores, config.strata)
        });
        let primary = aggs.first().copied().unwrap_or(Aggregate::Avg);
        let run = trace::span("core.two_stage", || {
            run_two_stage(&strat, oracle, config, primary, rng).expect("two-stage run")
        });
        let sizes = strat.sizes();
        let cis = trace::span("core.bootstrap", || {
            stratified_bootstrap_cis(&run.samples, &sizes, aggs, &config.bootstrap, rng)
        });
        ShadowOutcome {
            rows: aggs
                .iter()
                .zip(cis)
                .map(|(&agg, ci)| Answer::new(combine_estimate(agg, &run.strata), ci))
                .collect(),
            labels: run.oracle_calls,
            snapshots: 0,
            first_snapshot_s: None,
        }
    }
}
