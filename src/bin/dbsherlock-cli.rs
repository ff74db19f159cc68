//! `dbsherlock-cli` — command-line front end for the DBSherlock library.
//!
//! The workflow of the paper's Fig. 2, driven from a shell: simulate or
//! import telemetry CSVs, plot metrics, explain user-selected anomaly
//! regions, detect regions automatically, and maintain a persistent causal
//! model repository across sessions.
//!
//! ```text
//! dbsherlock-cli simulate --kind "I/O Saturation" --out incident.csv
//! dbsherlock-cli plot incident.csv txn_avg_latency_ms --region 60..110
//! dbsherlock-cli explain incident.csv --abnormal 60..110 --models repo.json
//! dbsherlock-cli feedback incident.csv --abnormal 60..110 \
//!     --cause "external I/O hog" --models repo.json
//! dbsherlock-cli detect incident.csv
//! ```

use std::process::ExitCode;

use dbsherlock::core::{ArgScan, ModelRepository, ModelStore, Sherlock, SherlockParams};
use dbsherlock::prelude::*;
use dbsherlock::telemetry::{from_csv, from_csv_lossy, render_plot, to_csv, PlotOptions};

/// CLI failures, each with its own exit code so scripts can tell *what*
/// failed: bad invocation (1), unreadable/unparseable input (2), or a
/// diagnosis that could not produce a result (3).
#[derive(Debug)]
enum CliError {
    /// Wrong arguments; usage is printed.
    Usage(String),
    /// Input could not be read or parsed.
    Parse(String),
    /// Inputs were fine but the diagnosis step failed.
    Diagnosis(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Parse(_) => 2,
            CliError::Diagnosis(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Diagnosis(m) => m,
        }
    }
}

/// Usage errors from plain strings.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {}", error.message());
            if matches!(error, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(error.exit_code())
        }
    }
}

const USAGE: &str = "\
usage: dbsherlock-cli <command> [options]

commands:
  simulate --kind <anomaly> --out <csv> [--duration N] [--start N] [--len N] [--seed N]
           generate a labeled incident with the built-in OLTP simulator
           (anomaly names as in Table 1, e.g. \"CPU Saturation\")
  plot <csv> <attribute> [--region A..B]
           render an ASCII plot of one metric, optionally highlighting a region
  explain <csv> --abnormal A..B [--normal C..D] [--models <json>] [--theta X]
           generate predicates (and ranked causes, when models are loaded)
  feedback <csv> --abnormal A..B --cause <name> --models <json> [--theta X]
           confirm a diagnosis: store/merge the causal model into the repository
  detect <csv>
           propose an abnormal region automatically (potential power + DBSCAN)
  anomalies
           list the ten built-in anomaly classes

options:
  --strict fail on the first malformed CSV cell instead of repairing it
           (by default, damaged telemetry is salvaged and each repair is
           reported on stderr as `warning: ...`)
  --threads <N|serial|auto>
           thread budget for the diagnosis pipeline (default: auto)
  --deadline-ms <N>
           wall-clock budget for one diagnosis; a blown deadline fails with
           exit code 3 instead of hanging (default: unlimited)
  --max-rows <N> / --max-partitions <N>
           reject oversized diagnoses up front instead of starting them

model repository files are stored as checksummed, crash-safe records: every
save keeps the previous generation as <path>.prev, and a torn or corrupt
file is quarantined as <path>.corrupt-<n> and recovered from the backup.

exit codes:
  0 success   1 usage error   2 unreadable/unparseable input   3 diagnosis failure";

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args.first().ok_or("missing command")?;
    // Shared scanner (also used by sherlockd): `--name value` options,
    // bare flags, leading positionals.
    let rest = ArgScan::new(&args[1..]);
    match command.as_str() {
        "simulate" => simulate(&rest),
        "plot" => plot(&rest),
        "explain" => explain(&rest),
        "feedback" => feedback(&rest),
        "detect" => detect(&rest),
        "anomalies" => {
            for kind in AnomalyKind::ALL {
                println!("{:24} {}", kind.name(), kind.description());
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Parse `A..B` into a region over a dataset of `n_rows` rows.
///
/// The start must land inside the dataset — a region that begins at or past
/// the last row can only come from a typo or a mismatched file, so it is a
/// usage error, not a silently-empty region. The end is clamped (asking for
/// "through row 500" of a 300-row file is a reasonable way to say "to the
/// end").
fn parse_region(spec: &str, n_rows: usize) -> Result<Region, CliError> {
    let (a, b) =
        spec.split_once("..").ok_or_else(|| format!("bad region {spec:?}; expected A..B"))?;
    let a: usize = a.trim().parse().map_err(|_| format!("bad region start {a:?}"))?;
    let b: usize = b.trim().parse().map_err(|_| format!("bad region end {b:?}"))?;
    if a >= b {
        return Err(format!("empty region {spec:?}").into());
    }
    if a >= n_rows {
        return Err(format!(
            "region {spec:?} starts at row {a}, but the dataset has only {n_rows} rows"
        )
        .into());
    }
    Ok(Region::from_range(a..b.min(n_rows)))
}

/// Load a telemetry CSV. Lossy by default: malformed cells and rows are
/// repaired or skipped, and each repair is reported on stderr. `--strict`
/// restores fail-fast parsing.
fn load_dataset(path: &str, strict: bool) -> Result<Dataset, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Parse(format!("cannot read {path}: {e}")))?;
    if strict {
        return from_csv(&text).map_err(|e| CliError::Parse(format!("cannot parse {path}: {e}")));
    }
    let (dataset, warnings) =
        from_csv_lossy(&text).map_err(|e| CliError::Parse(format!("cannot parse {path}: {e}")))?;
    for warning in &warnings {
        eprintln!("warning: {path}: {warning}");
    }
    if !warnings.is_empty() {
        eprintln!(
            "warning: {path}: {} ingest repair(s); rerun with --strict to fail fast",
            warnings.len()
        );
    }
    Ok(dataset)
}

/// Load the model repository through the crash-safe store: corrupt or torn
/// files are quarantined and the last good generation (or a fresh, empty
/// repository) takes over, with every degradation reported on stderr. Only
/// a real I/O failure aborts.
fn load_repository(path: &str) -> Result<ModelRepository, CliError> {
    let (repo, report) = ModelStore::new(path)
        .load()
        .map_err(|e| CliError::Parse(format!("cannot load model repository: {e}")))?;
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    Ok(repo)
}

/// Persist the repository through the crash-safe store: checksummed record,
/// write-temp + fsync + atomic rename, previous generation kept as
/// `<path>.prev`.
fn save_repository(path: &str, repo: &ModelRepository) -> Result<(), CliError> {
    let report = ModelStore::new(path)
        .save(repo)
        .map_err(|e| CliError::Diagnosis(format!("cannot save model repository: {e}")))?;
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    Ok(())
}

fn params_from(args: &ArgScan<'_>) -> Result<SherlockParams, CliError> {
    let mut builder = SherlockParams::builder();
    if let Some(theta) = args.parsed::<f64>("--theta")? {
        builder = builder.theta(theta);
    }
    if let Some(exec) = args.exec_policy()? {
        builder = builder.exec(exec);
    }
    if let Some(budget) = args.budget()? {
        builder = builder.budget(budget);
    }
    builder.build().map_err(|e| CliError::Usage(e.to_string()))
}

fn simulate(args: &ArgScan<'_>) -> Result<(), CliError> {
    let kind_name = args.option("--kind").ok_or("simulate requires --kind")?;
    let out = args.option("--out").ok_or("simulate requires --out")?;
    let kind = AnomalyKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(kind_name))
        .ok_or_else(|| format!("unknown anomaly {kind_name:?}; see `dbsherlock-cli anomalies`"))?;
    let duration: usize = args.parsed_or("--duration", 170)?;
    let start: usize = args.parsed_or("--start", 60)?;
    let len: usize = args.parsed_or("--len", 50)?;
    let seed: u64 = args.parsed_or("--seed", 42)?;

    let labeled = Scenario::new(WorkloadConfig::tpcc_default(), duration, seed)
        .with_injection(Injection::new(kind, start, len))
        .run();
    std::fs::write(out, to_csv(&labeled.data))
        .map_err(|e| CliError::Diagnosis(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {out}: {} seconds x {} attributes; injected {} over rows {:?}",
        labeled.data.n_rows(),
        labeled.data.schema().len(),
        kind.name(),
        labeled.abnormal_region().intervals(),
    );
    Ok(())
}

fn plot(args: &ArgScan<'_>) -> Result<(), CliError> {
    let path = args.positional(0).ok_or("plot requires a CSV path")?;
    let attr = args.positional(1).ok_or("plot requires an attribute name")?;
    let dataset = load_dataset(path, args.flag("--strict"))?;
    let region =
        args.option("--region").map(|spec| parse_region(spec, dataset.n_rows())).transpose()?;
    let text = render_plot(&dataset, attr, region.as_ref(), &PlotOptions::default())
        .map_err(|e| CliError::Diagnosis(e.to_string()))?;
    print!("{text}");
    Ok(())
}

fn explain(args: &ArgScan<'_>) -> Result<(), CliError> {
    let path = args.positional(0).ok_or("explain requires a CSV path")?;
    let dataset = load_dataset(path, args.flag("--strict"))?;
    let abnormal_spec = args.option("--abnormal").ok_or("explain requires --abnormal A..B")?;
    let abnormal = parse_region(abnormal_spec, dataset.n_rows())?;
    let normal =
        args.option("--normal").map(|spec| parse_region(spec, dataset.n_rows())).transpose()?;

    let mut sherlock =
        Sherlock::new(params_from(args)?).with_domain_knowledge(DomainKnowledge::mysql_linux());
    if let Some(models_path) = args.option("--models") {
        *sherlock.repository_mut() = load_repository(models_path)?;
    }
    let explanation = sherlock
        .try_explain(&dataset, &abnormal, normal.as_ref())
        .map_err(|e| CliError::Diagnosis(e.to_string()))?;
    println!("predicates ({}):", explanation.predicates.len());
    for generated in &explanation.predicates {
        println!("  {:<48} SP {:.2}", generated.predicate.to_string(), generated.separation_power);
    }
    if explanation.causes.is_empty() {
        if !sherlock.repository().models().is_empty() {
            println!("\nno stored cause above the confidence threshold");
        }
    } else {
        println!("\nlikely causes:");
        for cause in &explanation.causes {
            println!("  {:<32} confidence {:.0}%", cause.cause, cause.confidence * 100.0);
        }
    }
    Ok(())
}

fn feedback(args: &ArgScan<'_>) -> Result<(), CliError> {
    let path = args.positional(0).ok_or("feedback requires a CSV path")?;
    let dataset = load_dataset(path, args.flag("--strict"))?;
    let abnormal = parse_region(
        args.option("--abnormal").ok_or("feedback requires --abnormal")?,
        dataset.n_rows(),
    )?;
    let cause = args.option("--cause").ok_or("feedback requires --cause")?;
    let models_path = args.option("--models").ok_or("feedback requires --models")?;

    let mut sherlock = Sherlock::new(params_from(args)?);
    *sherlock.repository_mut() = load_repository(models_path)?;
    let explanation = sherlock.explain(&dataset, &abnormal, None);
    if explanation.predicates.is_empty() {
        return Err(CliError::Diagnosis(
            "no predicates could be generated for that region".to_string(),
        ));
    }
    sherlock.feedback(cause, &explanation.predicates);
    save_repository(models_path, sherlock.repository())?;
    let model = sherlock.repository().model_of(cause).expect("just added");
    println!(
        "stored causal model {:?}: {} predicates (merged from {} diagnoses)",
        cause,
        model.predicates.len(),
        model.merged_from
    );
    Ok(())
}

fn detect(args: &ArgScan<'_>) -> Result<(), CliError> {
    let path = args.positional(0).ok_or("detect requires a CSV path")?;
    let dataset = load_dataset(path, args.flag("--strict"))?;
    let sherlock = Sherlock::new(SherlockParams::default());
    match sherlock.detect(&dataset) {
        Some(detection) => {
            println!("proposed abnormal region: {:?}", detection.region.intervals());
            let names: Vec<&str> = detection
                .selected_attrs
                .iter()
                .take(8)
                .map(|&id| dataset.schema().attr(id).name.as_str())
                .collect();
            println!(
                "driven by {} attributes with high potential power, e.g. {names:?}",
                detection.selected_attrs.len()
            );
        }
        None => println!("nothing anomalous detected"),
    }
    Ok(())
}
