//! `wire_shared`: two pgwire connections, driven by two client threads of
//! the load process, issue scalar statements over the same
//! `(table, predicate)` against an in-process `abae_server` with the
//! governor (cross-session coalescing) and the label store on.
//!
//! The store fills as statements run, so the unit of work is a *round*: a
//! fresh engine and server (empty store), both connections' fixed
//! statement sequences run to completion, then the server shuts down.
//! Rounds repeat until the run's time is up; each round's engine seed is
//! derived from the run seed and the round number, so rounds give
//! independent answers.

use crate::deploy::{self, Kind, Stmt, Tables};
use crate::layers::{StmtMeta, Traced};
use crate::shadow::ShadowStmt;
use crate::{repeated_setup, same_rows, trace, Accuracy, Answer, Outcome, Recorder, COUNTED_STATEMENTS};
use abae_query::Engine;
use abae_server::{QueryOutcome, Server, ServerHandle, WireClient};
use std::collections::BTreeMap;

/// Concurrent connections (the host's vCPU count on the reference host).
pub const CONNECTIONS: usize = 2;

/// Rounds whose wire answers are checked against an in-process replay.
const REPLAY_ROUNDS: usize = 2;

/// Connection `c`'s statement sequence. Budgets run from 1000 to 2500;
/// latency follows the budget, so the class is the budget. Half the
/// statements spend 2000 (the median falls inside that class) and a fifth
/// spend 2500 (the p90 falls inside that one).
fn sequence(conn: usize, t: &deploy::Truth) -> Vec<Stmt> {
    let base = vec![
        deploy::scalar("budget_2000", &["COUNT", "AVG"], 2000, None, 0.95, t),
        deploy::scalar("budget_1000", &["AVG"], 1000, None, 0.95, t),
        deploy::scalar("budget_2000", &["SUM"], 2000, None, 0.95, t),
        deploy::scalar("budget_2500", &["COUNT", "AVG"], 2500, None, 0.95, t),
        deploy::scalar("budget_2000", &["AVG"], 2000, None, 0.95, t),
        deploy::scalar("budget_1500", &["COUNT", "AVG"], 1500, None, 0.95, t),
        deploy::scalar("budget_2000", &["COUNT", "AVG"], 2000, None, 0.95, t),
        deploy::scalar("budget_1000", &["SUM"], 1000, None, 0.95, t),
        deploy::scalar("budget_2000", &["AVG"], 2000, None, 0.95, t),
        deploy::scalar("budget_2500", &["AVG"], 2500, None, 0.95, t),
    ];
    let shift = conn * 3 % base.len();
    base[shift..].iter().chain(&base[..shift]).cloned().collect()
}

/// A served engine with its connected clients.
struct Round {
    engine: Engine,
    seed: u64,
    server: ServerHandle,
    clients: Vec<WireClient>,
}

fn start_round(tables: &Tables, seed: u64) -> Round {
    let engine = deploy::engine(tables, seed, true, true);
    let server = Server::bind(engine.clone(), "127.0.0.1:0")
        .and_then(Server::spawn)
        .expect("server starts on a loopback port");
    // Connect in order, so connection c is session c on the server.
    let clients = (0..CONNECTIONS)
        .map(|_| {
            trace::span("server.wire.connect", || {
                WireClient::connect(server.addr()).expect("client connects")
            })
        })
        .collect();
    Round { engine, seed, server, clients }
}

fn end_round(round: Round) {
    for client in round.clients {
        let _ = client.terminate();
    }
    round.server.shutdown();
}

/// One statement's wire answer.
struct WireAnswer {
    rows: Vec<Answer>,
    oracle_calls: u64,
    hits: u64,
    misses: u64,
    ms: f64,
}

fn parse_outcome(out: &QueryOutcome) -> Result<(Vec<Answer>, u64, u64, u64), String> {
    if let Some(e) = &out.error {
        return Err(format!("{}: {}", e.sqlstate, e.message));
    }
    let col = |name: &str| {
        out.columns.iter().position(|c| c.name == name).ok_or(format!("no column {name}"))
    };
    let (est, lo, hi, conf) = (col("estimate")?, col("ci_lo")?, col("ci_hi")?, col("ci_confidence")?);
    let (calls, hits, misses) = (col("oracle_calls")?, col("cache_hits")?, col("cache_misses")?);
    let num = |r: usize, c: usize| out.f64(r, c).ok_or(format!("row {r} column {c} is not a number"));
    let mut rows = Vec::new();
    for r in 0..out.rows.len() {
        let ci = match (out.f64(r, lo), out.f64(r, hi), out.f64(r, conf)) {
            (Some(l), Some(h), Some(c)) => Some((l, h, c)),
            _ => None,
        };
        rows.push(Answer { est: num(r, est)?, ci });
    }
    if rows.is_empty() {
        return Err("no rows".to_string());
    }
    Ok((rows, num(0, calls)? as u64, num(0, hits)? as u64, num(0, misses)? as u64))
}

/// Runs both connections' sequences concurrently; returns per-connection
/// answers (`None` for a failed statement) and the round's wall time.
/// With `first_id` set, each round trip is a traced statement root.
fn run_round(
    round: &mut Round,
    seqs: &[Vec<Stmt>],
    first_id: Option<u64>,
) -> (Vec<Vec<Result<WireAnswer, String>>>, f64) {
    let start = trace::stopwatch();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = round
            .clients
            .iter_mut()
            .zip(seqs)
            .enumerate()
            .map(|(c, (client, seq))| {
                scope.spawn(move || {
                    seq.iter()
                        .enumerate()
                        .map(|(i, stmt)| {
                            let t = trace::stopwatch();
                            let out = match first_id {
                                Some(base) => {
                                    let id = base + (c * seq.len() + i) as u64;
                                    trace::statement(id, "server.wire.statement", || {
                                        client.query(&stmt.sql)
                                    })
                                }
                                None => client.query(&stmt.sql),
                            };
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let out = out.map_err(|e| format!("{}: {e}", stmt.sql))?;
                            let (rows, oracle_calls, hits, misses) =
                                parse_outcome(&out).map_err(|e| format!("{}: {e}", stmt.sql))?;
                            Ok(WireAnswer { rows, oracle_calls, hits, misses, ms })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    (results, start.elapsed().as_secs_f64())
}

/// One replayed statement: its answer rows, and its latency in ms.
type Replayed = (Result<Vec<Answer>, String>, f64);

/// Replays a round in-process: each connection's sequence runs on
/// `session_with_id(pid)` of an identically built engine, the connections
/// concurrently on their own threads as on the wire.
fn replay_round(
    tables: &Tables,
    round: &Round,
    seqs: &[Vec<Stmt>],
) -> Vec<Vec<Replayed>> {
    let replay = deploy::engine(tables, round.seed, true, true);
    let replay = &replay;
    std::thread::scope(|scope| {
        let handles: Vec<_> = round
            .clients
            .iter()
            .zip(seqs)
            .map(|(client, seq)| {
                let pid = u64::from(client.backend_pid());
                scope.spawn(move || {
                    let mut session = replay.session_with_id(pid);
                    seq.iter()
                        .map(|stmt| {
                            let t = trace::stopwatch();
                            let out = session.execute(&stmt.sql);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            (out.map(|r| deploy::answers(&r)).map_err(|e| e.to_string()), ms)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    })
}

struct Wire {
    tables: Tables,
    seqs: Vec<Vec<Stmt>>,
    accuracy: Accuracy,
    violations: Vec<String>,
    rounds: usize,
}

impl Wire {
    fn record(
        &mut self,
        round: &Round,
        results: &[Vec<Result<WireAnswer, String>>],
        rec: &mut Recorder,
    ) {
        for (seq, answers) in self.seqs.iter().zip(results) {
            for (stmt, ans) in seq.iter().zip(answers) {
                match ans {
                    Ok(a) => {
                        rec.ok(stmt.class, a.ms, a.oracle_calls);
                        rec.hits += a.hits;
                        rec.misses += a.misses;
                        if a.oracle_calls > stmt.budget {
                            rec.flag(format!("{}: spent {} > budget", stmt.sql, a.oracle_calls));
                        }
                        self.accuracy.add(&stmt.truth, &a.rows);
                    }
                    Err(e) => rec.fail(e.clone()),
                }
            }
        }
        if self.rounds < REPLAY_ROUNDS {
            self.check_replay(round, results);
        }
        self.rounds += 1;
    }

    /// Wire answers must equal an in-process replay of each connection's
    /// sequence on `session_with_id(pid)` of an identically built engine.
    fn check_replay(&mut self, round: &Round, results: &[Vec<Result<WireAnswer, String>>]) {
        let replayed = replay_round(&self.tables, round, &self.seqs);
        for (((client, seq), answers), replays) in
            round.clients.iter().zip(&self.seqs).zip(results).zip(&replayed)
        {
            for ((stmt, ans), (replay, _)) in seq.iter().zip(answers).zip(replays) {
                let Ok(wire) = ans else { continue };
                match replay {
                    Ok(rows) if same_rows(rows, &wire.rows) => {}
                    Ok(_) => self.violations.push(format!(
                        "{}: wire answer of pid {} differs from the in-process replay",
                        stmt.sql,
                        client.backend_pid()
                    )),
                    Err(e) => self.violations.push(format!("{}: replay failed: {e}", stmt.sql)),
                }
            }
        }
    }

    /// Closed loop of rounds for `seconds`, starting with `first`.
    fn measure(&mut self, first: Round, seed: u64, seconds: f64, rec: &mut Recorder) {
        let start = trace::stopwatch();
        self.run_untraced(first, rec);
        while start.elapsed().as_secs_f64() < seconds || rec.completed() < COUNTED_STATEMENTS {
            self.run_untraced(start_round(&self.tables, round_seed(seed, self.rounds)), rec);
        }
    }

    /// Runs one round untraced, records it, and shuts it down.
    fn run_untraced(&mut self, mut round: Round, rec: &mut Recorder) {
        let before = round.engine.stats().batcher;
        let (results, wall) = run_round(&mut round, &self.seqs, None);
        rec.busy_s += wall;
        self.record(&round, &results, rec);
        rec.add_batcher(&before, &round.engine.stats().batcher);
        end_round(round);
    }

    fn outcome(self, setup_s: Vec<f64>, rec: Recorder) -> Outcome {
        Outcome {
            setup_s,
            rec,
            accuracy: self.accuracy,
            violations: self.violations,
            info: vec![
                ("connections".into(), CONNECTIONS.to_string()),
                ("rounds".into(), self.rounds.to_string()),
                ("statements_per_round".into(), self.seqs.iter().map(Vec::len).sum::<usize>().to_string()),
            ],
        }
    }
}

fn round_seed(seed: u64, round: usize) -> u64 {
    deploy::mix(seed, 100 + round as u64)
}

fn setup(seed: u64) -> (Wire, Round) {
    let tables = deploy::build_tables(seed);
    let round = start_round(&tables, round_seed(seed, 0));
    let seqs = (0..CONNECTIONS).map(|c| sequence(c, &tables.truth)).collect();
    let wire = Wire { tables, seqs, accuracy: Accuracy::default(), violations: Vec::new(), rounds: 0 };
    (wire, round)
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    // A discarded set-up's server and clients shut down when dropped.
    let ((mut wire, round), setup_s) = repeated_setup(|| setup(seed));
    let mut rec = Recorder::default();
    wire.measure(round, seed, seconds, &mut rec);
    wire.outcome(setup_s, rec)
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    trace::enable(true);
    let t = trace::stopwatch();
    let (mut wire, mut untraced) = setup(seed);
    let setup_s = vec![t.elapsed().as_secs_f64()];
    trace::enable(false);

    // Each step runs an untraced round, then a traced one, so host drift
    // moves both alike. In a traced round each round trip is a statement
    // root. The wire overhead is each round trip minus the same statement
    // in an untraced concurrent in-process replay (`replay_round`).
    // Afterwards both sequences run once more, in-process through the
    // traced layer path on an identically seeded engine, to break the
    // server's time down.
    let mut rec = Recorder::default();
    let mut meta = BTreeMap::new();
    let mut overhead = Vec::new();
    let start = trace::stopwatch();
    let mut next_id = 1u64;
    let mut r = 0usize;
    loop {
        wire.run_untraced(untraced, &mut rec);
        let seed_r = round_seed(seed, 1000 + r);
        r += 1;
        trace::enable(true);
        let mut round = start_round(&wire.tables, seed_r);
        let (results, _) = run_round(&mut round, &wire.seqs, Some(next_id));
        trace::enable(false);
        let replayed = replay_round(&wire.tables, &round, &wire.seqs);
        trace::enable(true);
        let shadow_engine = deploy::engine(&wire.tables, seed_r, true, true);
        for (c, (((client, seq), answers), replays)) in
            round.clients.iter().zip(&wire.seqs).zip(&results).zip(&replayed).enumerate()
        {
            let pid = u64::from(client.backend_pid());
            let mut session = shadow_engine.session_with_id(pid);
            for (i, ((stmt, ans), (_, replay_ms))) in seq.iter().zip(answers).zip(replays).enumerate() {
                let wire_id = next_id + (c * seq.len() + i) as u64;
                meta.insert(wire_id, stmt_meta(stmt, Kind::Wire));
                let Ok(ans) = ans else { continue };
                overhead.push(ans.ms - replay_ms);
                let shadow = ShadowStmt::resolve(&shadow_engine, &stmt.sql);
                let shadow_id = wire_id + 1_000_000;
                let mut rng = deploy::shadow_rng(deploy::mix(seed_r, shadow_id));
                trace::statement(shadow_id, "statement", || {
                    trace::span("query.parse", || abae_query::parse_statement(&stmt.sql).expect("parses"));
                    trace::span("query.prepare", || session.prepare(&stmt.sql).expect("prepares"));
                    shadow.run(&shadow_engine, pid, &mut rng)
                });
                meta.insert(shadow_id, stmt_meta(stmt, stmt.kind));
            }
        }
        trace::enable(false);
        next_id += 10_000;
        end_round(round);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        untraced = start_round(&wire.tables, round_seed(seed, wire.rounds));
    }
    let spans = trace::take();
    Traced {
        outcome: wire.outcome(setup_s, rec),
        spans,
        meta,
        wire_overhead_ms: overhead,
    }
}

fn stmt_meta(stmt: &Stmt, kind: Kind) -> StmtMeta {
    StmtMeta { class: stmt.class, kind, snapshots: 0, first_snapshot_s: None, accounted: false }
}
