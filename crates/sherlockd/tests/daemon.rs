//! End-to-end daemon tests over real sockets: a clean tenant stream gets an
//! automatic explanation; chaos-scheduled streams (torn lines, floods,
//! garbage, skewed clocks, mid-stream disconnects) never crash the daemon;
//! and drain-under-load leaves a checksum-verified model store behind.
//! In process, one simulator stream played into two fresh daemons gets the
//! same answers from both.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbsherlock_core::{
    generate_predicates, CausalModel, DomainKnowledge, ExecPolicy, ModelRepository, ModelStore,
    SherlockParams,
};
use dbsherlock_sherlockd::chaos::{apply_schedule, IngestFault, StreamEvent};
use dbsherlock_sherlockd::daemon::{Daemon, DaemonConfig, DrainReport, Session};
use dbsherlock_sherlockd::net::{self, NetConfig};
use dbsherlock_sherlockd::protocol::Response;
use dbsherlock_simulator::{
    standard_scenario, AnomalyKind, Benchmark, Injection, Scenario, WorkloadConfig,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sherlockd-it-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A live daemon serving a loopback listener on its own threads.
struct Harness {
    daemon: Arc<Daemon>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

fn start(cfg: DaemonConfig) -> Harness {
    let (daemon, warnings) = Daemon::new(cfg).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let daemon = Arc::new(daemon);
    let workers = daemon.spawn_workers();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let net_cfg = NetConfig { max_line_bytes: 4096, read_timeout_ms: 25, idle_timeout_ms: 10_000 };
    let accept_daemon = Arc::clone(&daemon);
    let accept_shutdown = Arc::clone(&shutdown);
    #[allow(
        clippy::disallowed_methods,
        reason = "the test runs the accept loop on its own thread, as sherlockd does"
    )]
    let accept_thread =
        std::thread::spawn(move || net::serve(&accept_daemon, listener, net_cfg, &accept_shutdown));
    Harness { daemon, addr, shutdown, accept_thread, workers }
}

impl Harness {
    /// Stop admission, drain, join every transport thread, and return the
    /// drain report.
    fn stop(self) -> dbsherlock_sherlockd::daemon::DrainReport {
        self.shutdown.store(true, Ordering::SeqCst);
        let report = self.daemon.drain(self.workers);
        let conn_handles = self.accept_thread.join().unwrap();
        for handle in conn_handles {
            let _ = handle.join();
        }
        report
    }
}

/// The clean protocol stream for one tenant: header plus `n` rows with a
/// sustained anomaly in `anomaly` (stream positions, not counting the
/// header lines).
fn tenant_stream(tenant: &str, n: usize, anomaly: std::ops::Range<usize>) -> Vec<String> {
    let mut lines = vec![format!("tenant {tenant}"), "timestamp,signal:num,steady:num".to_string()];
    for i in 0..n {
        let jitter = (i as f64) * 0.37 % 1.0;
        let signal = if anomaly.contains(&i) { 80.0 + jitter } else { 5.0 + jitter };
        lines.push(format!("{i},{signal},{}", 40.0 + jitter));
    }
    lines
}

/// Read response lines until `pattern` shows up or the deadline passes.
/// Returns everything read.
fn read_until(reader: &mut BufReader<TcpStream>, pattern: &str, deadline_ms: u64) -> String {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let mut seen = String::new();
    let mut line = String::new();
    while Instant::now() < deadline {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                seen.push_str(&line);
                if seen.contains(pattern) {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    seen
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn tcp_stream_gets_an_automatic_explanation() {
    let dir = scratch_dir();
    let cfg = DaemonConfig {
        detect_every: 16,
        min_detect_rows: 48,
        workers: 2,
        store_path: Some(dir.join("models.sherlock")),
        ..DaemonConfig::default()
    };
    let harness = start(cfg);
    let (mut stream, mut reader) = connect(harness.addr);
    for line in tenant_stream("prod-shard-3", 96, 60..75) {
        writeln!(stream, "{line}").unwrap();
    }
    stream.flush().unwrap();
    let seen = read_until(&mut reader, "event=explanation", 10_000);
    assert!(seen.contains("event=explanation tenant=\"prod-shard-3\""), "{seen}");
    assert!(seen.contains("signal"), "{seen}");
    // seq range is absolute and sane (region inside the 96 rows sent).
    assert!(seen.contains("seq="), "{seen}");

    writeln!(stream, "quit").unwrap();
    let seen = read_until(&mut reader, "bye", 2_000);
    assert!(seen.contains("bye"), "{seen}");

    let report = harness.stop();
    assert!(report.clean, "drain should be idle-clean");
    assert!(report.store_verified(), "{:?}", report.verify_warnings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_schedules_never_crash_the_daemon() {
    let cfg = DaemonConfig {
        detect_every: 32,
        min_detect_rows: 48,
        max_pending: 4,
        workers: 1,
        ring_rows: 128,
        ..DaemonConfig::default()
    };
    let harness = start(cfg);

    // Five tenants, each with a different transport-level catastrophe.
    let schedules: Vec<(&str, Vec<IngestFault>)> = vec![
        ("torn", vec![IngestFault::TornLine { at: 40, keep_bytes: 4 }]),
        ("flood", vec![IngestFault::Flood { at: 30, extra: 300 }]),
        (
            "skew",
            vec![
                IngestFault::ClockSkew { at: 20, to: -999.0 },
                IngestFault::Garbage { at: 25, payload: "\u{1}\u{2}%%,,,".into() },
            ],
        ),
        ("gone", vec![IngestFault::Disconnect { at: 35 }]),
        ("stall", vec![IngestFault::StallReader { at: 10, ms: 120 }]),
    ];
    let mut clients = Vec::new();
    for (tenant, faults) in &schedules {
        let lines = tenant_stream(tenant, 90, 55..70);
        let events = apply_schedule(&lines, faults);
        let addr = harness.addr;
        let tenant = tenant.to_string();
        #[allow(
            clippy::disallowed_methods,
            reason = "one client thread per tenant drives the daemon concurrently"
        )]
        clients.push(std::thread::spawn(move || {
            let (mut stream, _reader) = connect(addr);
            for event in events {
                match event {
                    StreamEvent::Send(payload) => {
                        if stream.write_all(payload.as_bytes()).is_err() {
                            return; // daemon-side close: acceptable under chaos
                        }
                    }
                    StreamEvent::Pause(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    StreamEvent::Disconnect => {
                        drop(stream);
                        let _ = tenant; // connection gone; client ends here
                        return;
                    }
                }
            }
            let _ = stream.flush();
            // Linger briefly so the daemon can answer before we vanish.
            std::thread::sleep(Duration::from_millis(50));
        }));
    }
    for client in clients {
        client.join().unwrap();
    }

    // The daemon survived all of it: a fresh, healthy client still gets
    // served end to end.
    let (mut stream, mut reader) = connect(harness.addr);
    for line in tenant_stream("healthy", 96, 60..75) {
        writeln!(stream, "{line}").unwrap();
    }
    writeln!(stream, "detect").unwrap();
    stream.flush().unwrap();
    let seen = read_until(&mut reader, "event=explanation", 10_000);
    assert!(seen.contains("event=explanation tenant=\"healthy\""), "{seen}");

    writeln!(stream, "stats").unwrap();
    let seen = read_until(&mut reader, "stats ", 2_000);
    assert!(seen.contains("tenants="), "{seen}");

    let report = harness.stop();
    // Chaos may leave queued work that drains; either way no worker died
    // and no store was configured to corrupt.
    assert!(report.store_verified());
}

#[test]
fn drain_under_load_is_bounded_and_store_verifies() {
    let dir = scratch_dir();
    let cfg = DaemonConfig {
        detect_every: 8,
        min_detect_rows: 32,
        max_pending: 2,
        workers: 1,
        drain_deadline_ms: 1_500,
        store_path: Some(dir.join("models.sherlock")),
        ..DaemonConfig::default()
    };
    let harness = start(cfg);

    // Several tenants queue up diagnoses faster than one worker clears them.
    for t in 0..4 {
        let (mut stream, _reader) = connect(harness.addr);
        for line in tenant_stream(&format!("t{t}"), 80, 50..65) {
            writeln!(stream, "{line}").unwrap();
        }
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }

    let started = Instant::now();
    let report = harness.stop();
    let elapsed = started.elapsed();
    // The drain must respect its deadline with margin for joins.
    assert!(elapsed < Duration::from_secs(10), "drain took {elapsed:?}");
    assert!(report.store_verified(), "{:?}", report.verify_warnings);
    assert!(dir.join("models.sherlock").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows per block of [`play_in_blocks`]; also the daemon's detection
/// cadence, so once the window is full every block ends in a trigger.
const BLOCK: usize = 64;
/// Blocks that fill the 192-row window; the last of them is the first
/// trigger.
const FILL: usize = 3;

/// Diagnoses the daemon has resolved: run to an answer, shed or failed.
/// With one worker taking jobs in order, once this covers a trigger, that
/// trigger's diagnosis has taken its window.
fn resolved(daemon: &Daemon) -> u64 {
    let s = &daemon.stats;
    [&s.explanations, &s.quiet, &s.errors, &s.quarantined, &s.shed]
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .sum()
}

/// Play `header` and `rows` as tenant `t0` into a fresh one-worker daemon
/// loading `models`, a block at a time. Each block goes out only once the
/// daemon has resolved every trigger before it, so each diagnosis sees
/// exactly its trigger's window. Returns every response and the drain.
fn play_in_blocks(
    header: &str,
    rows: &[&str],
    models: &ModelRepository,
    params: &SherlockParams,
) -> (Vec<Response>, DrainReport) {
    let dir = scratch_dir();
    let store = dir.join("models.sherlock");
    ModelStore::new(&store).save(models).unwrap();
    let cfg = DaemonConfig {
        ring_rows: FILL * BLOCK,
        detect_every: BLOCK,
        min_detect_rows: FILL * BLOCK,
        workers: 1,
        drain_deadline_ms: 10_000,
        params: params.clone(),
        store_path: Some(store),
        ..DaemonConfig::default()
    };
    let (daemon, warnings) = Daemon::new(cfg).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let daemon = Arc::new(daemon);
    let workers = daemon.spawn_workers();
    let responses = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&responses);
    let mut session = Session::new(Arc::new(move |response: &Response| {
        log.lock().unwrap().push(response.clone())
    }));
    daemon.handle_line(&mut session, "tenant t0");
    daemon.handle_line(&mut session, header);
    let blocks = rows.chunks(BLOCK).count();
    for (b, block) in rows.chunks(BLOCK).enumerate() {
        let triggers = (b + 1).saturating_sub(FILL) as u64;
        let deadline = Instant::now() + Duration::from_secs(120);
        while resolved(&daemon) < triggers {
            assert!(Instant::now() < deadline, "trigger {triggers} unresolved");
            std::thread::sleep(Duration::from_millis(1));
        }
        for line in block {
            daemon.handle_line(&mut session, line);
        }
    }
    let report = daemon.drain(workers);
    // No trigger coalesced into another.
    assert_eq!(resolved(&daemon), (blocks + 1 - FILL) as u64);
    std::fs::remove_dir_all(&dir).ok();
    let responses = responses.lock().unwrap().clone();
    (responses, report)
}

/// The timing-free half of perfbench `stream`'s check, in one tenant: a
/// simulator stream with four planted anomalies, each wholly inside its
/// own 64-row block, played into two fresh daemons, gets the same
/// responses from both, none a warning, and each drain is clean with a
/// verified store. Diagnosis state that outlived one diagnosis or one
/// daemon would show as a difference here.
#[test]
fn two_fresh_daemons_answer_one_stream_alike() {
    const SEED: u64 = 101;
    let kinds = [
        AnomalyKind::IoSaturation,
        AnomalyKind::CpuSaturation,
        AnomalyKind::LockContention,
        AnomalyKind::WorkloadSpike,
    ];
    let params = SherlockParams::default().with_exec(ExecPolicy::Serial);
    // One model per planted class, learned from its standard scenario with
    // domain-knowledge pruning, so each explanation can name a cause.
    let domain = DomainKnowledge::mysql_linux();
    let mut models = ModelRepository::new();
    for kind in kinds {
        let labeled = standard_scenario(Benchmark::TpccLike, kind, 0, SEED).run();
        let (abnormal, normal) = (labeled.abnormal_region(), labeled.normal_region());
        let raw = generate_predicates(&labeled.data, &abnormal, &normal, &params);
        let predicates = domain.prune(&labeled.data, raw, &params);
        models.add(CausalModel::from_feedback(kind.name(), &predicates));
    }
    // After the fill, anomaly `i` covers 30 rows from 16 rows into block
    // FILL + 4i: a window never holds two.
    let planted: Vec<(AnomalyKind, std::ops::Range<usize>)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let start = (FILL + 4 * i) * BLOCK + 16;
            (kind, start..start + 30)
        })
        .collect();
    let blocks = FILL + 4 * (kinds.len() - 1) + 1;
    let mut scenario = Scenario::new(WorkloadConfig::tpcc_default(), blocks * BLOCK, SEED);
    for (kind, rows) in &planted {
        scenario = scenario.with_injection(Injection::new(*kind, rows.start, rows.len()));
    }
    let csv = dbsherlock_telemetry::to_csv(&scenario.run().data);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), blocks * BLOCK);

    let (first, first_drain) = play_in_blocks(header, &rows, &models, &params);
    let (second, second_drain) = play_in_blocks(header, &rows, &models, &params);
    assert_eq!(first, second);
    assert!(!first.iter().any(|r| matches!(r, Response::Warn { .. })), "{first:?}");
    for drain in [first_drain, second_drain] {
        assert!(drain.clean);
        assert!(drain.store_verified(), "{:?}", drain.verify_warnings);
    }
    // Every explanation names a cause, and each planted anomaly is
    // explained with its own class first.
    for response in &first {
        if let Response::Explanation { top_cause, .. } = response {
            assert!(top_cause.is_some(), "{}", response.render());
        }
    }
    for (kind, rows) in &planted {
        let (start, end) = (rows.start as u64, rows.end as u64);
        let named = first.iter().any(|r| {
            matches!(r, Response::Explanation { seq_range: (lo, hi), top_cause: Some(top), .. }
                if *lo < end && *hi >= start && top.cause == kind.name())
        });
        assert!(named, "{kind:?} at {rows:?}: {first:?}");
    }
}
