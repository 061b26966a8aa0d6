//! Per-layer metrics from a traced run, and the trace's own checks: layer
//! self times must account for the untraced statement latency of each
//! statement class, and the traced-vs-untraced gap is the tracing overhead.

use crate::deploy::Kind;
use crate::trace::{self, Span};
use crate::{mean, median, Outcome};
use std::collections::BTreeMap;

/// Layer self times of one statement class must sum to within this
/// fraction of the class's untraced median latency.
pub const ACCOUNTING_TOLERANCE: f64 = 0.25;

/// What a traced run hands to [`metrics`].
pub struct Traced {
    /// The run's untraced statements (counts and class latencies).
    pub outcome: Outcome,
    pub spans: Vec<Span>,
    pub meta: BTreeMap<u64, StmtMeta>,
    pub wire_overhead_ms: Vec<f64>,
}

/// Per traced statement: its class, and what the spans cannot carry.
pub struct StmtMeta {
    pub class: &'static str,
    pub kind: Kind,
    pub snapshots: usize,
    pub first_snapshot_s: Option<f64>,
    /// Whether the statement's layer self times should account for the
    /// untraced latency of `class` (false for wire round trips, whose
    /// server-side layers are traced on an in-process replay instead).
    pub accounted: bool,
}

/// One traced statement: root span duration and self time per layer.
struct PerStmt<'a> {
    meta: &'a StmtMeta,
    root: f64,
    layers: BTreeMap<&'static str, f64>,
}

impl PerStmt<'_> {
    fn layer(&self, name: &str) -> Option<f64> {
        self.layers.get(name).copied()
    }

    fn layer_sum(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Every per-layer metric name with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("query.parser.parse_us", "us"),
    ("query.plan.prepare_us", "us"),
    ("core.strata.stratify_ms", "ms"),
    ("core.two_stage.sample_ms", "ms"),
    ("core.bootstrap.ci_ms", "ms"),
    ("core.bootstrap.ci_share", "frac"),
    ("core.groupby.ci_ms", "ms"),
    ("core.two_stage.snapshots_per_query", "count"),
    ("core.two_stage.snapshot_ci_ms", "ms"),
    ("core.two_stage.first_snapshot_ms", "ms"),
    ("data.oracle.label_ms", "ms"),
    ("data.label_store.lookup_ms", "ms"),
    ("data.label_store.hit_rate", "frac"),
    ("data.label_store.misses_per_query", "count"),
    ("core.batcher.admit_ms", "ms"),
    ("core.batcher.shared_batch_frac", "frac"),
    ("core.batcher.coalesced_per_query", "count"),
    ("core.batcher.cache_served_per_query", "count"),
    ("core.batcher.device_ms_per_query", "ms"),
    ("server.wire.overhead_ms", "ms"),
    ("server.wire.connect_ms", "ms"),
    ("data.table.build_s", "s"),
    ("ml.proxy.create_ms", "ms"),
    ("setup.warmup_s", "s"),
    ("host.spin_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.accounting_gap", "frac"),
];

fn med_of(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Computes every per-layer metric (0 where the layer does no work on the
/// workload) and appends accounting failures to the outcome's violations.
pub fn metrics(traced: &mut Traced) -> BTreeMap<&'static str, (f64, &'static str)> {
    let selfs = trace::self_times(&traced.spans);
    let mut per: BTreeMap<u64, PerStmt> = BTreeMap::new();
    let mut setup: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &traced.spans {
        let Some(meta) = traced.meta.get(&s.stmt) else {
            setup.entry(s.name).or_default().push(s.dur());
            continue;
        };
        let entry = per.entry(s.stmt).or_insert_with(|| PerStmt {
            meta,
            root: 0.0,
            layers: BTreeMap::new(),
        });
        if s.parent.is_none() {
            entry.root = s.dur();
        } else {
            *entry.layers.entry(s.name).or_insert(0.0) += selfs[&s.id];
        }
    }
    let stmts: Vec<&PerStmt> = per.values().collect();
    let with = |name: &str, scale: f64| -> f64 {
        med_of(stmts.iter().filter_map(|p| p.layer(name)).map(|v| v * scale).collect())
    };
    let per_query = |name: &str| -> f64 {
        mean(&stmts.iter().map(|p| p.layer(name).unwrap_or(0.0) * 1e3).collect::<Vec<_>>())
    };
    let until: Vec<&&PerStmt> = stmts.iter().filter(|p| p.meta.kind == Kind::Until).collect();

    let rec = &traced.outcome.rec;
    let n = rec.completed().max(1) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("query.parser.parse_us", with("query.parse", 1e6));
    m.insert("query.plan.prepare_us", with("query.prepare", 1e6));
    m.insert("core.strata.stratify_ms", with("core.stratify", 1e3));
    m.insert(
        "core.two_stage.sample_ms",
        med_of(
            stmts
                .iter()
                .filter_map(|p| p.layer("core.two_stage").or(p.layer("core.two_stage.progressive")))
                .map(|v| v * 1e3)
                .collect(),
        ),
    );
    m.insert("core.bootstrap.ci_ms", with("core.bootstrap", 1e3));
    m.insert(
        "core.bootstrap.ci_share",
        med_of(stmts.iter().filter_map(|p| p.layer("core.bootstrap").map(|b| b / p.root)).collect()),
    );
    m.insert("core.groupby.ci_ms", with("core.groupby.ci", 1e3));
    m.insert(
        "core.two_stage.snapshots_per_query",
        mean(&until.iter().map(|p| p.meta.snapshots as f64).collect::<Vec<_>>()),
    );
    m.insert(
        "core.two_stage.snapshot_ci_ms",
        med_of(until.iter().map(|p| p.layer("core.two_stage.snapshot_ci").unwrap_or(0.0) * 1e3).collect()),
    );
    m.insert(
        "core.two_stage.first_snapshot_ms",
        med_of(until.iter().filter_map(|p| p.meta.first_snapshot_s).map(|v| v * 1e3).collect()),
    );
    m.insert("data.oracle.label_ms", per_query("data.oracle.label"));
    m.insert("data.label_store.lookup_ms", per_query("data.label_store"));
    m.insert("core.batcher.admit_ms", per_query("core.batcher.admit"));
    // Share of all label demands the store answered: labels a statement
    // bought from the oracle without asking the store (GROUP BY today)
    // count as misses.
    let demands = (rec.hits + rec.labels).max(1) as f64;
    m.insert("data.label_store.hit_rate", rec.hits as f64 / demands);
    m.insert("data.label_store.misses_per_query", rec.misses as f64 / n);
    m.insert(
        "core.batcher.shared_batch_frac",
        rec.shared_batches as f64 / rec.invocations.max(1) as f64,
    );
    m.insert("core.batcher.coalesced_per_query", rec.coalesced as f64 / n);
    m.insert("core.batcher.cache_served_per_query", rec.cache_served as f64 / n);
    m.insert(
        "core.batcher.device_ms_per_query",
        rec.invocations as f64 * crate::deploy::ORACLE_OVERHEAD.as_secs_f64() * 1e3 / n,
    );
    m.insert("server.wire.overhead_ms", med_of(traced.wire_overhead_ms.clone()));
    let setup_med = |name: &str, scale: f64| {
        med_of(setup.get(name).map_or_else(Vec::new, |v| v.iter().map(|x| x * scale).collect()))
    };
    m.insert("server.wire.connect_ms", setup_med("server.wire.connect", 1e3));
    m.insert("data.table.build_s", setup_med("data.table.build", 1.0));
    m.insert("setup.warmup_s", setup_med("setup.warmup", 1.0));
    m.insert("ml.proxy.create_ms", setup_med("ml.proxy.create", 1e3));

    // Accounting: per class, median layer sum against the untraced median.
    let untraced = rec.class_medians();
    let mut by_class: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for p in stmts.iter().filter(|p| p.meta.accounted) {
        let e = by_class.entry(p.meta.class).or_default();
        e.0.push(p.layer_sum() * 1e3);
        e.1.push(p.root * 1e3);
    }
    // Largest |layer self times / untraced median - 1| over the classes.
    let mut gap = 0.0f64;
    let (mut traced_roots, mut untraced_all) = (Vec::new(), Vec::new());
    for (class, (sums, roots)) in by_class {
        let Some(&base) = untraced.get(class) else { continue };
        let ratio = median(sums) / base;
        eprintln!("# trace accounting: class {class}: layer self times = {ratio:.3} x untraced median {base:.3} ms");
        gap = gap.max((ratio - 1.0).abs());
        if (ratio - 1.0).abs() > ACCOUNTING_TOLERANCE {
            traced.outcome.violations.push(format!(
                "class {class}: layer self times sum to {ratio:.3} of the untraced latency \
                 (tolerance {ACCOUNTING_TOLERANCE})"
            ));
        }
        traced_roots.extend(roots);
    }
    untraced_all.extend(rec.lat_ms.iter().copied());
    // Wire round trips: traced against untraced round trips.
    let wire_roots: Vec<f64> = stmts
        .iter()
        .filter(|p| p.meta.kind == Kind::Wire)
        .map(|p| p.root * 1e3)
        .collect();
    traced_roots.extend(wire_roots);
    m.insert("trace.accounting_gap", gap);
    m.insert(
        "trace.overhead_frac",
        if traced_roots.is_empty() { 0.0 } else { median(traced_roots) / med_of(untraced_all) - 1.0 },
    );
    traced.outcome.info.push(("trace_statements".into(), stmts.len().to_string()));

    PER_LAYER
        .iter()
        .filter(|(name, _)| *name != "host.spin_ms")
        .map(|&(name, unit)| (name, (m.get(name).copied().unwrap_or(0.0), unit)))
        .collect()
}
