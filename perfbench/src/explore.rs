//! `explore_cold`: one analyst runs ad-hoc statements, each in a fresh
//! session, with the label store off (the `abae-server` default).
//!
//! Every label is an oracle invocation, so this workload measures the cold
//! path: parse, plan, sampling, oracle, bootstrap, and — for the anytime
//! `UNTIL` statements streamed through `execute_progressive` — one
//! snapshot CI per labeling chunk. The label store and cross-session
//! coalescing are bypassed: a cache or batcher change should not move it.

use crate::deploy::{self, Kind, Stmt};
use crate::layers::{StmtMeta, Traced};
use crate::shadow::ShadowStmt;
use crate::{repeated_setup, same_rows, trace, Accuracy, Answer, Outcome, Recorder};
use abae_query::{parse_statement, Engine};
use std::collections::BTreeMap;

/// CI width target of the `UNTIL` statements, in standard deviations of
/// the statistic; the stopping rule fires before the 4000-label cap in
/// most statements.
pub const UNTIL_SD_WIDTH: f64 = 0.128;

/// Statements whose answers feed the accuracy metrics: the first
/// `ACCURACY_STATEMENTS` of the fixed round-robin sequence, so those
/// metrics repeat exactly for a seed.
pub const ACCURACY_STATEMENTS: usize = 150;

/// `UNTIL` statements re-run blocking on a session with the same id to
/// check that the streamed final snapshot equals the blocking answer.
const REPLAY_CHECKS: usize = 3;

const PROXY_SQL: &str =
    "CREATE PROXY spamnet ON trec05p(is_spam) USING logistic TRAIN LIMIT 1000";

fn statements(t: &deploy::Truth) -> Vec<Stmt> {
    vec![
        deploy::scalar("count_avg_2000", &["COUNT", "AVG"], 2000, None, 0.95, t),
        deploy::scalar("sum_3000", &["SUM"], 3000, None, 0.95, t),
        deploy::scalar("avg_1000_proxy", &["AVG"], 1000, Some("spamnet"), 0.95, t),
        deploy::groupby("groupby_600", 600, t),
        deploy::until("until_4000", UNTIL_SD_WIDTH, 4000, t),
    ]
}

struct Explore {
    engine: Engine,
    stmts: Vec<Stmt>,
    truth_sd: f64,
}

fn setup(seed: u64) -> Explore {
    let tables = deploy::build_tables(seed);
    let engine = deploy::engine(&tables, deploy::mix(seed, 4), false, false);
    trace::span("ml.proxy.create", || {
        engine.session().run(PROXY_SQL).expect("proxy trains");
    });
    Explore { stmts: statements(&tables.truth), truth_sd: tables.truth.sd, engine }
}

/// One executed statement: answers, labels spent, and for `UNTIL` the
/// streamed final snapshot.
struct Ran {
    session: u64,
    rows: Vec<Answer>,
    labels: u64,
    final_snapshot: Option<Vec<Answer>>,
}

fn execute(engine: &Engine, stmt: &Stmt, rec: &mut Recorder) -> Option<Ran> {
    let before = engine.stats().batcher;
    let mut session = engine.session();
    let id = session.id();
    let t = trace::stopwatch();
    let mut last = None;
    let result = if stmt.kind == Kind::Until {
        session.execute_progressive(&stmt.sql, |snap| {
            if snap.done {
                last = Some(snap.rows.iter().map(|r| Answer::new(r.estimate, r.ci)).collect());
            }
        })
    } else {
        session.execute(&stmt.sql)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ran = match result {
        Ok(r) => {
            rec.ok(stmt.class, ms, r.oracle_calls);
            rec.hits += r.cache_hits;
            rec.misses += r.cache_misses;
            if r.oracle_calls > stmt.budget {
                rec.flag(format!("{}: spent {} > budget", stmt.sql, r.oracle_calls));
            }
            Some(Ran {
                session: id,
                rows: deploy::answers(&r),
                labels: r.oracle_calls,
                final_snapshot: last,
            })
        }
        Err(e) => {
            rec.fail(format!("{}: {e}", stmt.sql));
            None
        }
    };
    rec.add_batcher(&before, &engine.stats().batcher);
    ran
}

/// The closed loop: fresh session per statement, fixed round-robin mix.
/// Runs at least `ACCURACY_STATEMENTS`; returns what ran, in order.
fn measure(ex: &Explore, seconds: f64, rec: &mut Recorder) -> Vec<(usize, Ran)> {
    let start = trace::stopwatch();
    let mut ran = Vec::new();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < ACCURACY_STATEMENTS {
        let k = i % ex.stmts.len();
        i += 1;
        if let Some(r) = execute(&ex.engine, &ex.stmts[k], rec) {
            ran.push((k, r));
        }
    }
    rec.busy_s += start.elapsed().as_secs_f64();
    ran
}

fn outcome(ex: &Explore, setup_s: Vec<f64>, rec: Recorder, ran: &[(usize, Ran)]) -> Outcome {
    let mut accuracy = Accuracy::default();
    let mut violations = Vec::new();
    let mut replays = 0usize;
    let mut by_class: BTreeMap<&str, Accuracy> = BTreeMap::new();
    for (k, r) in ran.iter().take(ACCURACY_STATEMENTS) {
        let stmt = &ex.stmts[*k];
        accuracy.add(&stmt.truth, &r.rows);
        by_class.entry(stmt.class).or_default().add(&stmt.truth, &r.rows);
        if let Some(snapshot) = &r.final_snapshot {
            if !same_rows(snapshot, &r.rows) {
                violations.push(format!("{}: final snapshot differs from the result", stmt.sql));
            }
            if replays < REPLAY_CHECKS {
                replays += 1;
                let blocking = ex.engine.session_with_id(r.session).execute(&stmt.sql);
                match blocking {
                    Ok(b) if same_rows(&deploy::answers(&b), snapshot) => {}
                    Ok(_) => violations.push(format!(
                        "{}: final snapshot of session {} differs from the blocking answer",
                        stmt.sql, r.session
                    )),
                    Err(e) => violations.push(format!("{}: blocking replay failed: {e}", stmt.sql)),
                }
            }
        }
    }
    for (class, a) in &by_class {
        eprintln!(
            "# accuracy {class}: {} rows, rel_error {:.4}, ci_rel_width {:.4}, coverage {:.3}",
            a.rows(),
            a.rel_error(),
            a.ci_rel_width(),
            a.coverage()
        );
    }
    let until: Vec<u64> = ran
        .iter()
        .filter(|(k, _)| ex.stmts[*k].kind == Kind::Until)
        .map(|(_, r)| r.labels)
        .collect();
    let until_max = ex.stmts.iter().find(|s| s.kind == Kind::Until).map_or(0, |s| s.budget);
    let early = until.iter().filter(|&&l| l + deploy::EXEC.batch_size as u64 <= until_max).count();
    let early_stop_frac = early as f64 / until.len().max(1) as f64;
    let floor = accuracy.nominal() - 3.0 * accuracy.coverage_se();
    eprintln!(
        "# coverage {:.4}, nominal {:.4}, Monte-Carlo SE {:.4} (per-statement clusters), floor {floor:.4}",
        accuracy.coverage(),
        accuracy.nominal(),
        accuracy.coverage_se()
    );
    if accuracy.coverage() < floor {
        violations.push(format!(
            "CI coverage {:.3} below nominal {:.3} minus 3 Monte-Carlo SE ({floor:.3})",
            accuracy.coverage(),
            accuracy.nominal()
        ));
    }
    Outcome {
        setup_s,
        rec,
        accuracy,
        violations,
        info: vec![
            ("accuracy_statements".into(), ACCURACY_STATEMENTS.to_string()),
            ("until_sd_width".into(), UNTIL_SD_WIDTH.to_string()),
            ("truth_sd".into(), ex.truth_sd.to_string()),
            ("until_early_stop_frac".into(), early_stop_frac.to_string()),
        ],
    }
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (ex, setup_s) = repeated_setup(|| setup(seed));
    let mut rec = Recorder::default();
    let ran = measure(&ex, seconds, &mut rec);
    outcome(&ex, setup_s, rec, &ran)
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    trace::enable(true);
    let t = trace::stopwatch();
    let ex = setup(seed);
    let setup_s = vec![t.elapsed().as_secs_f64()];
    trace::enable(false);

    // Each step runs a statement untraced, then the same statement once
    // more traced, so host drift moves the untraced latencies and the
    // layer self times alike.
    let shadows: Vec<ShadowStmt> =
        ex.stmts.iter().map(|s| ShadowStmt::resolve(&ex.engine, &s.sql)).collect();
    let mut rec = Recorder::default();
    let mut ran = Vec::new();
    let mut meta = BTreeMap::new();
    let start = trace::stopwatch();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < ex.stmts.len() * 4 {
        let k = i % ex.stmts.len();
        let stmt = &ex.stmts[k];
        i += 1;
        if let Some(r) = execute(&ex.engine, stmt, &mut rec) {
            ran.push((k, r));
        }

        let id = i as u64;
        let mut session = ex.engine.session();
        let mut rng = deploy::shadow_rng(deploy::mix(seed, 5000 + id));
        trace::enable(true);
        let out = trace::statement(id, "statement", || {
            trace::span("query.parse", || parse_statement(&stmt.sql).expect("parses"));
            trace::span("query.prepare", || session.prepare(&stmt.sql).expect("prepares"));
            shadows[k].run(&ex.engine, session.id(), &mut rng)
        });
        trace::enable(false);
        if out.labels > stmt.budget {
            rec.flag(format!("{}: traced run spent {} > budget", stmt.sql, out.labels));
        }
        meta.insert(
            id,
            StmtMeta {
                class: stmt.class,
                kind: stmt.kind,
                snapshots: out.snapshots,
                first_snapshot_s: out.first_snapshot_s,
                accounted: true,
            },
        );
    }
    let spans = trace::take();
    Traced { outcome: outcome(&ex, setup_s, rec, &ran), spans, meta, wire_overhead_ms: Vec::new() }
}
