//! Table 5d (this reproduction's extension): the streaming daemon under
//! sustained overload and transport chaos.
//!
//! 72 tenant threads stream telemetry into one in-process [`Daemon`]
//! configured well past its comfort zone (2 workers, an 8-deep diagnosis
//! queue). The streams rotate through the chaos schedules — floods, torn
//! lines, garbage, backwards clocks, stalls, mid-stream disconnects — and
//! 8 tenants carry the in-band [`PANIC_ATTR`] trigger that detonates the
//! real model scorer inside a worker thread.
//!
//! The claims this bench gates:
//!
//! * **Zero escapes.** Every scorer panic is contained to its tenant
//!   (quarantined with a structured response); both workers are still
//!   alive when the storm ends.
//! * **Shedding is explicit.** Overload drops the *oldest* queued
//!   diagnosis and tells its requester; nothing is silently lost.
//! * **The daemon stays useful.** A fresh tenant streamed after the storm
//!   still gets an automatic explanation.
//! * **Drain is safe.** The model store saves once and re-verifies clean.
//!
//! Output: a summary table plus `results/BENCH_daemon_overload.json`. The
//! process exits nonzero on any violated claim — the CI smoke gate for
//! the daemon.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbsherlock_bench::{write_json, ExperimentArgs, Table};
use dbsherlock_core::chaos::{quiet_panics, PANIC_ATTR};
use dbsherlock_core::{CausalModel, ModelRepository, ModelStore, Predicate};
use dbsherlock_sherlockd::chaos::{apply_schedule, IngestFault, StreamEvent};
use dbsherlock_sherlockd::daemon::{Daemon, DaemonConfig, LineOutcome, Session, Sink};
use dbsherlock_sherlockd::protocol::Response;

/// Concurrent tenant streams (the acceptance floor is 64).
const TENANTS: usize = 72;
/// Rows per clean tenant stream.
const ROWS: usize = 160;
/// The sustained anomaly every stream plants (15 rows: longer than τ/2,
/// under the 20% cluster cap for both the full stream and the ring window).
const ANOMALY: std::ops::Range<usize> = 100..115;

/// Is this tenant one of the 8 poison carriers?
fn poisoned(tenant: usize) -> bool {
    tenant % 9 == 4
}

/// Per-kind response counters, shared by every session sink.
#[derive(Debug, Default)]
struct Counters {
    ok: AtomicU64,
    warn: AtomicU64,
    error: AtomicU64,
    overloaded: AtomicU64,
    explanations: AtomicU64,
    quarantined: AtomicU64,
}

fn counting_sink(counters: &Arc<Counters>) -> Sink {
    let counters = Arc::clone(counters);
    Arc::new(move |response: &Response| {
        let slot = match response {
            Response::Ok { .. } => &counters.ok,
            Response::Warn { .. } => &counters.warn,
            Response::Error { .. } => &counters.error,
            Response::Overloaded { .. } => &counters.overloaded,
            Response::Explanation { .. } => &counters.explanations,
            Response::Quarantined { .. } => &counters.quarantined,
            Response::Stats(_) | Response::Bye => return,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    })
}

/// The clean protocol stream for one tenant. Poison carriers get an extra
/// [`PANIC_ATTR`] column so the chaos tripwire fires inside the scorer
/// once detection reaches the rank stage.
fn tenant_lines(tenant: usize) -> Vec<String> {
    let name = format!("tenant-{tenant:02}");
    let header = if poisoned(tenant) {
        format!("timestamp,signal:num,steady:num,{PANIC_ATTR}:num")
    } else {
        "timestamp,signal:num,steady:num".to_string()
    };
    let mut lines = vec![format!("tenant {name}"), header];
    for i in 0..ROWS {
        let jitter = (i as f64) * 0.37 % 1.0;
        let signal = if ANOMALY.contains(&i) { 80.0 + jitter } else { 5.0 + jitter };
        let steady = 40.0 + jitter;
        if poisoned(tenant) {
            lines.push(format!("{i},{signal},{steady},1.0"));
        } else {
            lines.push(format!("{i},{signal},{steady}"));
        }
    }
    lines
}

/// The rotating chaos assignment. Poison carriers stream clean (their
/// fault is in-band); everyone else cycles through the transport faults.
fn fault_schedule(tenant: usize) -> (&'static str, Vec<IngestFault>) {
    if poisoned(tenant) {
        return ("poison", Vec::new());
    }
    match tenant % 6 {
        0 | 1 => ("clean", Vec::new()),
        2 => ("flood", vec![IngestFault::Flood { at: 30, extra: 150 }]),
        3 => (
            "skew+garbage",
            vec![
                IngestFault::ClockSkew { at: 20, to: -999.0 },
                IngestFault::Garbage { at: 25, payload: "\u{1}\u{2}%%,,,".into() },
                IngestFault::ClockSkew { at: 90, to: 3.5 },
            ],
        ),
        4 => ("stall", vec![IngestFault::StallReader { at: 10, ms: 15 }]),
        // Late transport deaths: the anomaly has arrived, the tail is lost.
        5 if tenant.is_multiple_of(2) => {
            ("torn", vec![IngestFault::TornLine { at: 130, keep_bytes: 4 }])
        }
        _ => ("disconnect", vec![IngestFault::Disconnect { at: 140 }]),
    }
}

/// Play a compiled wire schedule against the in-process daemon, simulating
/// the transport: bytes accumulate in a buffer and only complete lines
/// reach [`Daemon::handle_line`] — so a torn line really is lost.
fn play(daemon: &Daemon, session: &mut Session, events: &[StreamEvent]) {
    let mut wire = String::new();
    for event in events {
        match event {
            StreamEvent::Send(payload) => {
                wire.push_str(payload);
                while let Some(pos) = wire.find('\n') {
                    let line: String = wire.drain(..=pos).collect();
                    if daemon.handle_line(session, line.trim_end_matches('\n')) == LineOutcome::Quit
                    {
                        return;
                    }
                }
            }
            StreamEvent::Pause(ms) => std::thread::sleep(Duration::from_millis(*ms)),
            StreamEvent::Disconnect => return,
        }
    }
}

fn main() {
    let _args = ExperimentArgs::parse();
    let dir = std::env::temp_dir().join(format!("sherlock-daemon-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("models.sherlock");

    // One stored model: scoring must run for the poison tripwire to fire,
    // and healthy explanations get a ranked cause.
    let mut repo = ModelRepository::new();
    repo.add(CausalModel {
        cause: "runaway batch job".to_string(),
        predicates: vec![Predicate::gt("signal", 40.0)],
        merged_from: 1,
    });
    ModelStore::new(&store_path).save(&repo).unwrap();

    // Deliberately overloaded: 2 workers and an 8-deep queue against 72
    // tenants enqueueing every 16 rows.
    let cfg = DaemonConfig {
        ring_rows: 128,
        detect_every: 16,
        min_detect_rows: 48,
        max_pending: 8,
        workers: 2,
        drain_deadline_ms: 4_000,
        store_path: Some(store_path),
        ..DaemonConfig::default()
    };
    let (daemon, startup_warnings) = Daemon::new(cfg).unwrap();
    assert!(startup_warnings.is_empty(), "{startup_warnings:?}");
    assert_eq!(daemon.n_models(), 1);
    let daemon = Arc::new(daemon);
    let workers = daemon.spawn_workers();
    let counters = Arc::new(Counters::default());

    let n_poisoned = (0..TENANTS).filter(|&t| poisoned(t)).count();
    println!(
        "storm: {TENANTS} tenants x {ROWS} rows, {n_poisoned} poison carriers, \
         2 workers, queue depth 8"
    );

    // ---- The storm: all tenants stream concurrently. ----
    let start = Instant::now();
    let escaped_clients = quiet_panics(|| {
        let mut clients = Vec::new();
        for tenant in 0..TENANTS {
            let daemon = Arc::clone(&daemon);
            let sink = counting_sink(&counters);
            let (_, faults) = fault_schedule(tenant);
            #[allow(
                clippy::disallowed_methods,
                reason = "one client thread per tenant drives the daemon concurrently"
            )]
            clients.push(std::thread::spawn(move || {
                let events = apply_schedule(&tenant_lines(tenant), &faults);
                let mut session = Session::new(sink);
                play(&daemon, &mut session, &events);
            }));
        }
        clients.into_iter().map(|c| c.join()).filter(Result::is_err).count()
    });
    let storm_elapsed = start.elapsed().as_secs_f64();

    // Sheds can leave poison jobs undiagnosed; force the stragglers so the
    // quarantine count is exact, not racy. Already-quarantined tenants
    // answer `code=quarantined` and nothing is re-run.
    quiet_panics(|| {
        let deadline = Instant::now() + Duration::from_secs(15);
        while daemon.stats.quarantined.load(Ordering::Relaxed) < n_poisoned as u64
            && Instant::now() < deadline
        {
            for tenant in (0..TENANTS).filter(|&t| poisoned(t)) {
                let mut session = Session::new(counting_sink(&counters));
                daemon.handle_line(&mut session, &format!("tenant tenant-{tenant:02}"));
                daemon.handle_line(&mut session, "detect");
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let quarantined = daemon.stats.quarantined.load(Ordering::Relaxed);

    // ---- Post-storm liveness: a fresh tenant is served end to end. ----
    let post_counters = Arc::new(Counters::default());
    {
        let mut session = Session::new(counting_sink(&post_counters));
        daemon.handle_line(&mut session, "tenant post-storm");
        daemon.handle_line(&mut session, "timestamp,signal:num,steady:num");
        for i in 0..ROWS {
            let jitter = (i as f64) * 0.37 % 1.0;
            let signal = if ANOMALY.contains(&i) { 80.0 + jitter } else { 5.0 + jitter };
            daemon.handle_line(&mut session, &format!("{i},{signal},{}", 40.0 + jitter));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while post_counters.explanations.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            daemon.handle_line(&mut session, "detect");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let post_explained = post_counters.explanations.load(Ordering::Relaxed);

    // A worker that let a panic escape its job boundary is a dead thread.
    let escaped_workers = workers.iter().filter(|w| w.is_finished()).count();
    let report = daemon.drain(workers);

    let rows = daemon.stats.rows.load(Ordering::Relaxed);
    let shed = daemon.stats.shed.load(Ordering::Relaxed);
    let explanations = daemon.stats.explanations.load(Ordering::Relaxed);
    let quiet = daemon.stats.quiet.load(Ordering::Relaxed);
    let errors = daemon.stats.errors.load(Ordering::Relaxed);
    let warnings = daemon.stats.warnings.load(Ordering::Relaxed);
    let evicted = daemon.stats.evicted.load(Ordering::Relaxed);
    let completed = explanations + quiet + errors + quarantined;
    let shed_rate = shed as f64 / (shed + completed).max(1) as f64;
    let rows_per_sec = rows as f64 / storm_elapsed.max(f64::MIN_POSITIVE);
    let escapes = escaped_clients + escaped_workers;

    let mut table = Table::new(
        "Table 5d — daemon overload: 72 chaos-scheduled tenant streams, 2 workers",
        &["Metric", "value"],
    );
    for (name, value) in [
        ("tenant streams", TENANTS.to_string()),
        ("poison carriers", n_poisoned.to_string()),
        ("rows accepted", rows.to_string()),
        ("storm wall-clock (s)", format!("{storm_elapsed:.2}")),
        ("sustained rows/sec", format!("{rows_per_sec:.0}")),
        ("rows evicted (window slid)", evicted.to_string()),
        ("ingest warnings", warnings.to_string()),
        ("diagnoses shed (oldest-first)", shed.to_string()),
        ("shed rate", format!("{:.1}%", shed_rate * 100.0)),
        ("explanations", explanations.to_string()),
        ("quiet diagnoses", quiet.to_string()),
        ("diagnosis errors", errors.to_string()),
        ("tenants quarantined", format!("{quarantined} (expect {n_poisoned})")),
        ("escaped panics", escapes.to_string()),
        ("post-storm tenant served", post_explained.to_string()),
        ("drain clean", report.clean.to_string()),
        ("store verified", report.store_verified().to_string()),
    ] {
        table.row(vec![name.to_string(), value]);
    }
    table.print();

    write_json(
        "BENCH_daemon_overload",
        &serde_json::json!({
            "tenants": TENANTS,
            "rows_per_tenant": ROWS,
            "poison_carriers": n_poisoned,
            "workers": 2,
            "max_pending": 8,
            "rows_accepted": rows,
            "storm_elapsed_s": storm_elapsed,
            "sustained_rows_per_sec": rows_per_sec,
            "evicted": evicted,
            "ingest_warnings": warnings,
            "shed": shed,
            "shed_rate": shed_rate,
            "overloaded_responses": counters.overloaded.load(Ordering::Relaxed),
            "explanations": explanations,
            "quiet": quiet,
            "errors": errors,
            "quarantined": quarantined,
            "escaped_panics": escapes,
            "post_storm_explained": post_explained,
            "drain_clean": report.clean,
            "store_verified": report.store_verified(),
        }),
    );

    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "\n{rows} rows from {TENANTS} streams in {storm_elapsed:.2}s \
         ({rows_per_sec:.0} rows/sec); {shed} shed, {explanations} explained, \
         {quarantined}/{n_poisoned} poisons quarantined, {escapes} escapes."
    );
    const { assert!(TENANTS >= 64, "acceptance floor is 64 concurrent streams") };
    assert_eq!(escapes, 0, "a panic escaped its isolation boundary");
    assert_eq!(quarantined, n_poisoned as u64, "poison carriers not all quarantined");
    assert!(shed >= 1, "overload never triggered shedding — bench is not overloaded");
    assert_eq!(
        counters.overloaded.load(Ordering::Relaxed),
        shed,
        "every shed must notify its requester"
    );
    assert!(explanations >= 1, "no healthy tenant was explained");
    assert_eq!(post_explained, 1, "post-storm tenant was not served");
    assert!(report.store_verified(), "{:?}", report.verify_warnings);
}
