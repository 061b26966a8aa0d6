//! `dashboard_warm`: dashboard viewers re-run prepared statements over a
//! label store warmed during set-up.
//!
//! Each viewer is one in-process session holding the dashboard's five
//! prepared statements (four scalar, one GROUP BY). Set-up runs each once,
//! which fills the label store; the closed loop then re-runs them
//! round-robin from one client thread. A warm scalar re-run spends no
//! labels, so its latency is the bootstrap CI; the GROUP BY re-labels its
//! full budget because the group-by path does not consult the store.

use crate::deploy::{self, Kind, Stmt};
use crate::layers::{StmtMeta, Traced};
use crate::shadow::ShadowStmt;
use crate::{repeated_setup, same_rows, trace, Accuracy, Answer, Outcome, Recorder, COUNTED_STATEMENTS};
use abae_query::{Engine, Prepared};
use std::collections::BTreeMap;

/// Viewer sessions. More viewers give more independent answers (the
/// accuracy metrics average over every viewer's warm-up answers), at the
/// cost of a longer warm-up.
pub const VIEWERS: usize = 16;

fn statements(t: &deploy::Truth) -> Vec<Stmt> {
    vec![
        deploy::scalar("count_avg_2000", &["COUNT", "AVG"], 2000, None, 0.95, t),
        deploy::scalar("sum_3000_p90", &["SUM"], 3000, None, 0.9, t),
        deploy::scalar("avg_1000", &["AVG"], 1000, None, 0.95, t),
        deploy::scalar("count_avg_2000", &["COUNT", "AVG"], 2000, None, 0.95, t),
        deploy::groupby("groupby_800", 800, t),
    ]
}

struct Tile {
    viewer: u64,
    stmt: Stmt,
    prepared: Prepared,
    warm: Vec<Answer>,
}

struct Dashboard {
    engine: Engine,
    tiles: Vec<Tile>,
}

fn setup(seed: u64) -> Dashboard {
    let tables = deploy::build_tables(seed);
    let engine = deploy::engine(&tables, deploy::mix(seed, 3), true, false);
    let stmts = statements(&tables.truth);
    let mut tiles = Vec::new();
    trace::span("setup.warmup", || {
        for _ in 0..VIEWERS {
            let mut session = engine.session();
            for stmt in &stmts {
                let prepared = session.prepare(&stmt.sql).expect("dashboard statement prepares");
                let warm = deploy::answers(&prepared.run().expect("warm-up runs"));
                tiles.push(Tile { viewer: session.id(), stmt: stmt.clone(), prepared, warm });
            }
        }
    });
    Dashboard { engine, tiles }
}

/// The closed loop: re-run tiles round-robin for `seconds`.
fn measure(dash: &Dashboard, seconds: f64, rec: &mut Recorder) {
    let start = trace::stopwatch();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || rec.completed() < COUNTED_STATEMENTS {
        rerun(dash, &dash.tiles[i % dash.tiles.len()], rec);
        i += 1;
    }
    rec.busy_s += start.elapsed().as_secs_f64();
}

/// Re-runs one tile, timed and checked against its warm-up answer.
fn rerun(dash: &Dashboard, tile: &Tile, rec: &mut Recorder) {
    let before = dash.engine.stats().batcher;
    let t = trace::stopwatch();
    let result = tile.prepared.run();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) => {
            rec.ok(tile.stmt.class, ms, r.oracle_calls);
            rec.hits += r.cache_hits;
            rec.misses += r.cache_misses;
            if !same_rows(&deploy::answers(&r), &tile.warm) {
                rec.flag(format!("{}: warm re-run differs from its warm-up answer", tile.stmt.sql));
            }
            if tile.stmt.kind == Kind::Scalar && r.oracle_calls != 0 {
                rec.flag(format!("{}: warm scalar re-run spent {} labels", tile.stmt.sql, r.oracle_calls));
            }
            if r.oracle_calls > tile.stmt.budget {
                rec.flag(format!("{}: spent {} > budget", tile.stmt.sql, r.oracle_calls));
            }
        }
        Err(e) => rec.fail(format!("{}: {e}", tile.stmt.sql)),
    }
    rec.add_batcher(&before, &dash.engine.stats().batcher);
}

fn outcome(dash: &Dashboard, setup_s: Vec<f64>, rec: Recorder) -> Outcome {
    let mut accuracy = Accuracy::default();
    for tile in &dash.tiles {
        accuracy.add(&tile.stmt.truth, &tile.warm);
    }
    Outcome {
        setup_s,
        rec,
        accuracy,
        violations: Vec::new(),
        info: vec![("viewers".into(), VIEWERS.to_string())],
    }
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (dash, setup_s) = repeated_setup(|| setup(seed));
    let mut rec = Recorder::default();
    measure(&dash, seconds, &mut rec);
    outcome(&dash, setup_s, rec)
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    trace::enable(true);
    let t = trace::stopwatch();
    let dash = setup(seed);
    let setup_s = vec![t.elapsed().as_secs_f64()];
    trace::enable(false);

    // The shadow statements warm their own draws first (untraced), so the
    // traced re-runs are warm exactly like the engine's.
    let shadows: Vec<(ShadowStmt, u64)> = dash
        .tiles
        .iter()
        .enumerate()
        .map(|(i, tile)| (ShadowStmt::resolve(&dash.engine, &tile.stmt.sql), deploy::mix(seed, 1000 + i as u64)))
        .collect();
    let warm: Vec<Vec<Answer>> = shadows
        .iter()
        .zip(&dash.tiles)
        .map(|((s, rng_seed), tile)| {
            s.run(&dash.engine, tile.viewer, &mut deploy::shadow_rng(*rng_seed)).rows
        })
        .collect();

    // Each step re-runs a tile untraced, then its shadow traced, so host
    // drift moves the untraced latencies and the layer self times alike.
    let mut rec = Recorder::default();
    let mut meta = BTreeMap::new();
    let start = trace::stopwatch();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < 100 {
        let k = i % shadows.len();
        let (shadow, rng_seed) = &shadows[k];
        let tile = &dash.tiles[k];
        i += 1;
        rerun(&dash, tile, &mut rec);

        let id = i as u64;
        trace::enable(true);
        let out = trace::statement(id, "statement", || {
            shadow.run(&dash.engine, tile.viewer, &mut deploy::shadow_rng(*rng_seed))
        });
        trace::enable(false);
        if !same_rows(&out.rows, &warm[k]) {
            rec.flag(format!("{}: traced re-run differs from its own warm-up", tile.stmt.sql));
        }
        meta.insert(
            id,
            StmtMeta {
                class: tile.stmt.class,
                kind: tile.stmt.kind,
                snapshots: 0,
                first_snapshot_s: None,
                accounted: true,
            },
        );
    }
    let spans = trace::take();
    Traced {
        outcome: outcome(&dash, setup_s, rec),
        spans,
        meta,
        wire_overhead_ms: Vec::new(),
    }
}
