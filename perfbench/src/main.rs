//! The repository's benchmark: three workloads against the public APIs of
//! `telemetry`, `core`, `cluster` and `sherlockd`, and a fourth traced pass
//! (`ingest`) of the daemon's write path. See README.md for what each
//! workload and metric measures and why.
//!
//! ```text
//! perfbench --workload <corpus|wide|stream> --seed <n> --seconds <s> --trace 0
//! perfbench [--workload <name>] --seed <n> --seconds <s> --trace 1
//! ```
//!
//! With `--trace 0` the named workload runs untraced and reports the
//! end-to-end metrics. With `--trace 1` the four traced passes run, each
//! for a quarter of `--seconds`, and a workload named with `--workload` is
//! checked but changes nothing: every traced run prints every per-layer
//! metric, so one traced run per seed is enough. Per-layer names carry
//! their pass as a prefix (`wide.core.label_ms`). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run's provenance.

mod corpus;
mod host;
mod ingest;
mod models;
mod replica;
mod rng;
mod stats;
mod stream;
mod trace;
mod wide;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("correct_share", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the explain workloads (`corpus`, `wide`).
const EXPLAIN_LAYERS: &[(&str, &str)] = &[
    ("telemetry.snapshot_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.label_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.fill_ms", "ms"),
    ("core.mean_diff_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.separation_ms", "ms"),
    ("core.domain_ms", "ms"),
    ("core.rank_ms", "ms"),
    ("core.explain_self_ms", "ms"),
    ("core.attrs", "count"),
    ("core.partitions", "count"),
    ("core.predicates", "count"),
    ("core.predicates_kept", "count"),
    ("core.models", "count"),
    ("core.yield_share", "fraction"),
    ("bench.trace_overhead_share", "fraction"),
];

const STREAM_LAYERS: &[(&str, &str)] = &[
    ("core.detect_select_ms", "ms"),
    ("cluster.kdist_ms", "ms"),
    ("cluster.dbscan_ms", "ms"),
    ("core.detect_self_ms", "ms"),
    ("core.explain_ms", "ms"),
    ("core.detect_attrs", "count"),
    ("cluster.points", "count"),
    ("sherlockd.handle_line_us", "us"),
    ("sherlockd.to_dataset_ms", "ms"),
    ("sherlockd.service_ms", "ms"),
    ("sherlockd.queue_wait_ms", "ms"),
    ("sherlockd.worker_busy_share", "fraction"),
    ("sherlockd.quiet_share", "fraction"),
    ("sherlockd.shed_share", "fraction"),
    ("sherlockd.false_alarms", "count"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead_share", "fraction"),
];

const INGEST_LAYERS: &[(&str, &str)] = &[
    ("telemetry.parse_line_us", "us"),
    ("sherlockd.parse_command_us", "us"),
    ("sherlockd.ring_push_us", "us"),
    ("sherlockd.handle_line_us", "us"),
    ("sherlockd.handle_line_self_us", "us"),
    ("sherlockd.evicted_share", "fraction"),
    ("bench.trace_overhead_share", "fraction"),
];

/// Host indicators over the whole run: they tell a noisy run from a slow
/// program.
const HOST: &[(&str, &str)] = &[
    ("host.involuntary_switches", "count"),
    ("host.steal_share", "fraction"),
    ("host.load_1m", "tasks"),
];

/// The workloads an untraced run may name.
const WORKLOADS: &[&str] = &["corpus", "wide", "stream"];

/// Each traced pass with the per-layer metrics it reports.
const PASSES: &[(&str, &[(&str, &str)])] = &[
    ("corpus", EXPLAIN_LAYERS),
    ("wide", EXPLAIN_LAYERS),
    ("stream", STREAM_LAYERS),
    ("ingest", INGEST_LAYERS),
];

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
}

/// What a workload hands back: its counts, its metrics by name, and the
/// provenance notes (sample counts behind each percentile, and so on).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.insert(key.to_string(), Value::Number(value));
    }

    /// Fold a traced pass into the traced run, its names prefixed with the
    /// workload's.
    fn absorb(&mut self, workload: &str, pass: Outcome) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.correct &= pass.correct;
        for (name, value) in pass.metrics {
            self.metrics.insert(format!("{workload}.{name}"), value);
        }
        for (key, value) in pass.notes {
            self.notes.insert(format!("{workload}.{key}"), value);
        }
    }
}

fn parse_args() -> Result<(Option<String>, RunConfig, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(workload) = &workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
        }
    }
    let cfg = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    };
    let traced = trace.ok_or("--trace is required")?;
    if workload.is_none() && !traced {
        return Err("--workload is required with --trace 0".into());
    }
    Ok((workload, cfg, traced))
}

/// Run one workload untraced, or every traced pass, and render
/// the result line. An error means the run must not report numbers: a
/// failed set-up, or a replica that diverged from the public entry point
/// it stands for.
fn run(workload: Option<&str>, cfg: RunConfig, traced: bool) -> Result<Value, String> {
    let before = host::Sample::now();
    let mut outcome = if traced {
        let mut all = Outcome { correct: true, ..Outcome::default() };
        let pass = RunConfig { seconds: cfg.seconds / PASSES.len() as f64, ..cfg };
        for &(name, _) in PASSES {
            let outcome = match name {
                "corpus" => corpus::trace(pass)?,
                "wide" => wide::trace(pass)?,
                "stream" => stream::trace(pass)?,
                _ => ingest::trace(pass)?,
            };
            all.absorb(name, outcome);
        }
        all
    } else {
        match workload {
            Some("corpus") => corpus::run(cfg)?,
            Some("wide") => wide::run(cfg)?,
            Some("stream") => stream::run(cfg)?,
            _ => return Err("--workload is required with --trace 0".into()),
        }
    };
    let host = host::delta(&before, &host::Sample::now());
    outcome.set("host.involuntary_switches", host.involuntary_switches);
    outcome.set("host.steal_share", host.steal_share);
    outcome.set("host.load_1m", host.load_1m);

    let wanted: Vec<(String, &str)> = if traced {
        PASSES
            .iter()
            .flat_map(|&(w, layers)| layers.iter().map(move |&(m, u)| (format!("{w}.{m}"), u)))
            .chain(HOST.iter().map(|&(m, u)| (m.to_string(), u)))
            .collect()
    } else {
        END_TO_END.iter().map(|&(m, u)| (m.to_string(), u)).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in wanted {
        let value = *outcome.metrics.get(&name).ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let mut entry = BTreeMap::new();
        entry.insert("value".to_string(), Value::Number(value));
        entry.insert("unit".to_string(), Value::String(unit.to_string()));
        metrics.insert(name, Value::Object(entry));
    }

    let mut provenance = std::mem::take(&mut outcome.notes);
    let text = |s: &str| Value::String(s.to_string());
    provenance.insert("workload".into(), text(if traced { "all" } else { workload.unwrap_or("") }));
    provenance.insert("seed".into(), Value::Number(cfg.seed as f64));
    provenance.insert("seconds".into(), Value::Number(cfg.seconds));
    provenance.insert("trace".into(), Value::Bool(traced));
    provenance.insert("git_revision".into(), text(&host::git_revision()));
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    provenance.insert("build_profile".into(), text(profile));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    provenance.insert("available_parallelism".into(), Value::Number(cores as f64));
    for (name, value) in [
        ("host.involuntary_switches", host.involuntary_switches),
        ("host.steal_share", host.steal_share),
        ("host.load_1m", host.load_1m),
    ] {
        provenance.insert(name.into(), Value::Number(value));
    }
    println!("provenance {}", to_json(&Value::Object(provenance)));

    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::Bool(outcome.correct));
    result.insert("attempted".to_string(), Value::Number(outcome.attempted as f64));
    result.insert("failed".to_string(), Value::Number(outcome.failed as f64));
    result.insert("metrics".to_string(), Value::Object(metrics));
    Ok(Value::Object(result))
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

fn main() -> ExitCode {
    let (workload, cfg, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(workload.as_deref(), cfg, traced) {
        Ok(line) => {
            println!("{}", to_json(&line));
            ExitCode::SUCCESS
        }
        Err(e) => {
            let what = if traced { "traced run" } else { workload.as_deref().unwrap_or("") };
            eprintln!("perfbench {what}: {e}");
            ExitCode::FAILURE
        }
    }
}
