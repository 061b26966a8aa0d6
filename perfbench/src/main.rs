//! The repository benchmark: three closed-loop workloads against the ABae
//! engine (`dashboard_warm`, `explore_cold`, `wire_shared`), answers
//! checked against ground truth, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one. See `perfbench/README.md`.
//!
//! ```sh
//! abae-perfbench --workload dashboard_warm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it (`# config {..}`) records the inputs and the host.

mod dashboard;
mod deploy;
mod explore;
mod layers;
mod shadow;
mod trace;
mod wire;

use abae_stats::bootstrap::ConfidenceInterval;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// One answer row: estimate plus CI (`lo`, `hi`, nominal confidence).
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub est: f64,
    pub ci: Option<(f64, f64, f64)>,
}

impl Answer {
    pub fn new(est: f64, ci: Option<ConfidenceInterval>) -> Self {
        Self { est, ci: ci.map(|c| (c.lo, c.hi, c.confidence)) }
    }

    /// Bit-for-bit equality of the estimate and CI endpoints.
    pub fn same(&self, other: &Answer) -> bool {
        let ci = |a: &Answer| a.ci.map(|(lo, hi, _)| (lo.to_bits(), hi.to_bits()));
        self.est.to_bits() == other.est.to_bits() && ci(self) == ci(other)
    }
}

pub fn same_rows(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same(y))
}

/// Answer quality against ground truth, accumulated over answer rows.
#[derive(Debug, Default, Clone)]
pub struct Accuracy {
    rows: usize,
    rel_err: f64,
    cis: usize,
    rel_width: f64,
    covered: usize,
    nominal: f64,
    /// Per statement: (CIs, CIs covering the truth). The CIs of one
    /// statement come from one sample, so they are one Monte-Carlo unit.
    clusters: Vec<(usize, usize)>,
}

impl Accuracy {
    /// Adds one statement's answer rows.
    pub fn add(&mut self, truth: &[f64], rows: &[Answer]) {
        let (cis, covered) = (self.cis, self.covered);
        for (t, a) in truth.iter().zip(rows) {
            self.rows += 1;
            self.rel_err += (a.est - t).abs() / t.abs();
            if let Some((lo, hi, conf)) = a.ci {
                self.cis += 1;
                self.rel_width += (hi - lo) / t.abs();
                self.covered += usize::from(lo <= *t && *t <= hi);
                self.nominal += conf;
            }
        }
        if self.cis > cis {
            self.clusters.push((self.cis - cis, self.covered - covered));
        }
    }

    pub fn rel_error(&self) -> f64 {
        self.rel_err / self.rows.max(1) as f64
    }

    pub fn ci_rel_width(&self) -> f64 {
        self.rel_width / self.cis.max(1) as f64
    }

    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.cis.max(1) as f64
    }

    /// Mean nominal confidence of the CIs seen.
    pub fn nominal(&self) -> f64 {
        self.nominal / self.cis.max(1) as f64
    }

    /// Monte-Carlo standard error of the coverage, with each statement's
    /// CIs as one cluster (the cluster-robust ratio-estimator variance).
    pub fn coverage_se(&self) -> f64 {
        let n = self.clusters.len();
        if n < 2 {
            return 0.0;
        }
        let p = self.coverage();
        let ss: f64 = self
            .clusters
            .iter()
            .map(|&(m, c)| (c as f64 - p * m as f64).powi(2))
            .sum();
        (ss * n as f64 / (n - 1) as f64).sqrt() / self.cis as f64
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Every untraced run completes at least this many statements. The cost
/// metrics (`labels_per_query`, `invocations_per_query`) cover exactly
/// the first this many, so for a seed they do not depend on how many more
/// statements the run's time allowed.
pub const COUNTED_STATEMENTS: usize = 100;

/// What the untraced measurement loop saw, statement by statement.
#[derive(Debug, Default)]
pub struct Recorder {
    pub lat_ms: Vec<f64>,
    pub classes: Vec<&'static str>,
    /// Oracle labels each completed statement spent.
    pub stmt_labels: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub labels: u64,
    pub invocations: u64,
    pub hits: u64,
    pub misses: u64,
    pub shared_batches: u64,
    pub coalesced: u64,
    pub cache_served: u64,
    /// Labels, invocations and completed statements at the first batcher
    /// update that saw `COUNTED_STATEMENTS` completed.
    pub counted: Option<(u64, u64, usize)>,
    /// Wall time the closed loop ran, in seconds.
    pub busy_s: f64,
    /// Failure descriptions (first few are printed).
    pub errors: Vec<String>,
}

impl Recorder {
    pub fn ok(&mut self, class: &'static str, ms: f64, labels: u64) {
        self.attempted += 1;
        self.lat_ms.push(ms);
        self.classes.push(class);
        self.stmt_labels.push(labels);
        self.labels += labels;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(why);
    }

    /// Latency of a statement that completed but broke a check: it is
    /// timed like the others and counted as failed.
    pub fn flag(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Adds a batcher delta; call it after recording the statements the
    /// delta covers.
    pub fn add_batcher(&mut self, before: &abae_query::BatcherStats, after: &abae_query::BatcherStats) {
        self.invocations += after.invocations - before.invocations;
        self.shared_batches += after.shared_batches - before.shared_batches;
        self.coalesced += after.coalesced_requests - before.coalesced_requests;
        self.cache_served += after.cache_served - before.cache_served;
        if self.counted.is_none() && self.completed() >= COUNTED_STATEMENTS {
            self.counted = Some((self.labels, self.invocations, self.completed()));
        }
    }

    pub fn completed(&self) -> usize {
        self.lat_ms.len()
    }

    /// Median latency per statement class.
    pub fn class_medians(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (c, l) in self.classes.iter().zip(&self.lat_ms) {
            by.entry(c).or_default().push(*l);
        }
        by.into_iter().map(|(c, mut v)| (c, quantile(&mut v, 0.5))).collect()
    }
}

/// Nearest-rank quantile (`q` in (0, 1]) of `v`; NaN when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Fixed reference loop, timed: the host-drift canary. Never used to
/// normalise a metric.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` repeatedly — at least 3 times and for at least 8 s, at most
/// 12 times — dropping each result before the next, and keeps the last.
/// Returns it with every repetition's time; `setup_s` is their median.
/// Short set-ups (table builds of about 0.6 s) vary by a tenth from one
/// repetition to the next on a shared host, so they need many.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < 3 || (times.iter().sum::<f64>() < 8.0 && times.len() < 12) {
        drop(kept.take());
        let t = trace::stopwatch();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("set up at least once"), times)
}

/// One workload's run, reported the same way by all three.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub rec: Recorder,
    pub accuracy: Accuracy,
    /// Run-level check failures (the run is then not correct).
    pub violations: Vec<String>,
    pub info: Vec<(String, String)>,
}

fn e2e_metrics(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let rec = &out.rec;
    let (labels, invocations, counted) =
        rec.counted.unwrap_or((rec.labels, rec.invocations, rec.completed()));
    let n = counted.max(1) as f64;
    let mut lat = rec.lat_ms.clone();
    vec![
        ("setup_s", median(out.setup_s.clone()), "s"),
        ("query_p50_ms", quantile(&mut lat, 0.5), "ms"),
        ("query_p90_ms", quantile(&mut lat, 0.9), "ms"),
        ("statements_per_s", rec.completed() as f64 / rec.busy_s, "1/s"),
        ("labels_per_query", labels as f64 / n, "count"),
        ("invocations_per_query", invocations as f64 / n, "count"),
        ("rel_error", out.accuracy.rel_error(), "frac"),
        ("ci_rel_width", out.accuracy.ci_rel_width(), "frac"),
        ("ci_coverage", out.accuracy.coverage(), "frac"),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["dashboard_warm", "explore_cold", "wire_shared"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("abae-perfbench: {e}\nusage: abae-perfbench --workload \
                       dashboard_warm|explore_cold|wire_shared --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let spin_before = spin_ms();
    let (out, metrics) = if args.trace {
        let mut traced = match args.workload.as_str() {
            "dashboard_warm" => dashboard::traced(args.seed, args.seconds),
            "explore_cold" => explore::traced(args.seed, args.seconds),
            _ => wire::traced(args.seed, args.seconds),
        };
        let mut metrics = layers::metrics(&mut traced);
        let spin_after = spin_ms();
        metrics.insert("host.spin_ms", ((spin_before + spin_after) / 2.0, "ms"));
        (traced.outcome, metrics)
    } else {
        let out = match args.workload.as_str() {
            "dashboard_warm" => dashboard::run(args.seed, args.seconds),
            "explore_cold" => explore::run(args.seed, args.seconds),
            _ => wire::run(args.seed, args.seconds),
        };
        let metrics = e2e_metrics(&out).into_iter().map(|(k, v, u)| (k, (v, u))).collect();
        (out, metrics)
    };
    let spin_after = spin_ms();

    let mut per_class: BTreeMap<&str, (usize, u64, f64, f64)> = BTreeMap::new();
    for ((c, l), ms) in out.rec.classes.iter().zip(&out.rec.stmt_labels).zip(&out.rec.lat_ms) {
        let e = per_class.entry(c).or_insert((0, 0, f64::INFINITY, 0.0));
        *e = (e.0 + 1, e.1 + l, e.2.min(*ms), e.3.max(*ms));
    }
    for (class, med) in out.rec.class_medians() {
        let (n, labels, lo, hi) = per_class[class];
        eprintln!(
            "# class {class}: {n} statements, median {med:.3} ms (min {lo:.3}, max {hi:.3}), {:.1} labels",
            labels as f64 / n as f64
        );
    }
    let mut violations = out.violations.clone();
    for e in out.rec.errors.iter().take(5) {
        eprintln!("abae-perfbench: failed statement: {e}");
    }
    if out.rec.completed() < COUNTED_STATEMENTS && !args.trace {
        violations.push(format!(
            "only {} statements completed (< {COUNTED_STATEMENTS})",
            out.rec.completed()
        ));
    }
    for v in &violations {
        eprintln!("abae-perfbench: check failed: {v}");
    }
    let correct = violations.is_empty() && out.rec.failed == 0;

    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        (
            "profile".into(),
            json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        ("trec05p_scale".into(), deploy::TREC_SCALE.to_string()),
        ("celeba_groupby_scale".into(), deploy::CELEBA_SCALE.to_string()),
        ("strata".into(), deploy::STRATA.to_string()),
        ("stage1_fraction".into(), deploy::STAGE1_FRACTION.to_string()),
        ("bootstrap_trials".into(), deploy::BOOTSTRAP_TRIALS.to_string()),
        ("exec_threads".into(), deploy::EXEC.threads.to_string()),
        ("exec_batch".into(), deploy::EXEC.batch_size.to_string()),
        ("oracle_overhead_ms".into(), (deploy::ORACLE_OVERHEAD.as_secs_f64() * 1e3).to_string()),
        (
            "setup_each_s".into(),
            format!("[{}]", out.setup_s.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")),
        ),
        ("statements".into(), out.rec.completed().to_string()),
        ("answer_rows".into(), out.accuracy.rows().to_string()),
        ("spin_before_ms".into(), spin_before.to_string()),
        ("spin_after_ms".into(), spin_after.to_string()),
    ];
    info.extend(out.info.iter().cloned());
    let info: Vec<String> = info.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("# config {{{}}}", info.join(", "));

    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { format!("{v:?}") } else { "null".to_string() };
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(k), json_str(u))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.rec.attempted.max(1),
        out.rec.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
