//! The daemon core: tenants, admission control, the diagnosis queue, and
//! graceful drain.
//!
//! [`Daemon`] is transport-agnostic — [`handle_line`](Daemon::handle_line)
//! takes one protocol line and a [`Sink`] to answer on, so the same core
//! serves TCP connections, stdin, and in-process tests. The robustness
//! invariants live here:
//!
//! * **Bounded memory.** Tenants are capped ([`DaemonConfig::max_tenants`]),
//!   each tenant's history is a bounded ring, and the diagnosis queue is a
//!   bounded deque. No input can grow the process without bound.
//! * **Load shedding is explicit.** When the queue is full the *oldest*
//!   queued diagnosis is dropped and its requester told so with a
//!   structured [`Response::Overloaded`] — newer telemetry wins because it
//!   describes the incident that is happening now.
//! * **Panic isolation.** Each diagnosis runs behind the same
//!   panic-isolation boundary the batch API uses; a scorer panic
//!   quarantines that one tenant and the daemon lives on.
//! * **Graceful drain.** [`drain`](Daemon::drain) stops admission, lets
//!   in-flight diagnoses finish under a deadline, cancels cooperative work
//!   past it, then saves the model store exactly once (single-writer
//!   contract) and verifies the written generation by re-loading it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbsherlock_core::{
    CancelFlag, ExecPolicy, ModelRepository, ModelStore, Sherlock, SherlockError, SherlockParams,
    StoreReport,
};
use dbsherlock_telemetry::{parse_header_lossy, parse_line_lossy, splitmix64, IngestWarning};

use crate::protocol::{parse_command, quote, Command, Response};
use crate::ring::{RingSnapshot, TenantRing};

/// Operational knobs of the daemon. Algorithm knobs stay in
/// [`SherlockParams`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Rows buffered per tenant (the sliding detection window).
    pub ring_rows: usize,
    /// Maximum number of tenants admitted; further headers are rejected
    /// with `error code=tenant-limit`.
    pub max_tenants: usize,
    /// Run detection every this many accepted rows per tenant.
    pub detect_every: usize,
    /// Don't bother detecting until a tenant has buffered this many rows.
    pub min_detect_rows: usize,
    /// Bound on queued (not yet running) diagnoses; beyond it the oldest
    /// queued job is shed.
    pub max_pending: usize,
    /// Diagnosis worker threads.
    pub workers: usize,
    /// Grace period for in-flight diagnoses on drain before cooperative
    /// cancellation kicks in.
    pub drain_deadline_ms: u64,
    /// Algorithm parameters (budget/deadline included).
    pub params: SherlockParams,
    /// Where to load models from at startup and save them on drain.
    pub store_path: Option<std::path::PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            ring_rows: 512,
            max_tenants: 1024,
            detect_every: 64,
            min_detect_rows: 48,
            max_pending: 32,
            workers: 2,
            drain_deadline_ms: 2_000,
            params: SherlockParams::default(),
            store_path: None,
        }
    }
}

/// Where a response goes. One sink per client session; workers answer on
/// the sink of whichever session requested (or triggered) the diagnosis.
pub type Sink = Arc<dyn Fn(&Response) + Send + Sync>;

/// Per-connection state: which tenant the stream feeds and where replies go.
pub struct Session {
    /// Tenant selected with `tenant <name>`, if any yet.
    pub tenant: Option<String>,
    /// Reply channel for this session.
    pub sink: Sink,
    lines_seen: usize,
}

impl Session {
    /// A fresh session answering on `sink`.
    pub fn new(sink: Sink) -> Self {
        Session { tenant: None, sink, lines_seen: 0 }
    }
}

/// What [`Daemon::handle_line`] decided about the session's future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// Client said `quit`; close the session.
    Quit,
}

/// One queued diagnosis request.
struct Job {
    tenant: String,
    sink: Sink,
}

struct TenantState {
    ring: TenantRing,
    quarantined: bool,
    rows_since_detect: usize,
    last_timestamp: Option<f64>,
    /// Absolute seq range of the last reported explanation, for dedup.
    last_explained: Option<(u64, u64)>,
}

/// Monotonic daemon counters, all relaxed — they are telemetry about the
/// telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Rows accepted into rings.
    pub rows: AtomicU64,
    /// Rows evicted from rings (window slid).
    pub evicted: AtomicU64,
    /// Lossy-ingest warnings emitted.
    pub warnings: AtomicU64,
    /// Diagnoses shed under overload.
    pub shed: AtomicU64,
    /// Explanations reported.
    pub explanations: AtomicU64,
    /// Diagnoses that ran but found nothing (no detection / deduped).
    pub quiet: AtomicU64,
    /// Diagnosis errors reported to clients.
    pub errors: AtomicU64,
    /// Tenants quarantined after a panic.
    pub quarantined: AtomicU64,
    /// Responses lost to a broken/stalled client writer. Shared (`Arc`)
    /// because the per-connection sinks outlive their borrow of the daemon.
    pub dropped_responses: Arc<AtomicU64>,
}

/// What [`Daemon::drain`] accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// `true` when every queued and in-flight diagnosis finished inside the
    /// deadline; `false` when cooperative cancellation had to step in.
    pub clean: bool,
    /// Result of the final model-store save, when a store is configured.
    pub store_saved: Option<Result<StoreReport, SherlockError>>,
    /// Warnings from re-loading the just-saved store (empty = checksum and
    /// structure verified intact).
    pub verify_warnings: Vec<String>,
    /// Save attempts spent (1 = clean first try; up to [`SAVE_ATTEMPTS`]
    /// under transient store failures; 0 = no store configured).
    pub save_attempts: u32,
}

impl DrainReport {
    /// Did the saved store verify clean (or was no store configured)?
    pub fn store_verified(&self) -> bool {
        self.verify_warnings.is_empty() && !matches!(self.store_saved, Some(Err(_)))
    }
}

/// The daemon core. Shared across connection handlers and workers behind an
/// `Arc`.
pub struct Daemon {
    cfg: DaemonConfig,
    sherlock: Sherlock,
    cancel: CancelFlag,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    /// Public counters (read by `stats` and the bench harness).
    pub stats: DaemonStats,
}

/// Lock a mutex, riding over poisoning: a panicking holder was inside the
/// panic-isolation boundary, and every structure guarded here is valid
/// between mutations.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Daemon {
    /// Build a daemon: load models from the configured store (tolerating a
    /// recovered or fresh store), wire the shared cancel flag into the
    /// diagnosis budget so drain can cut long explains short.
    pub fn new(mut cfg: DaemonConfig) -> Result<(Self, Vec<String>), SherlockError> {
        let cancel = CancelFlag::default();
        let budget = cfg.params.budget().clone().with_cancel_flag(cancel.clone());
        cfg.params = cfg.params.clone().with_budget(budget);
        let mut startup_warnings = Vec::new();
        let mut sherlock = Sherlock::new(cfg.params.clone());
        if let Some(path) = &cfg.store_path {
            let (repo, report) = ModelStore::new(path).load()?;
            startup_warnings.extend(report.warnings);
            *sherlock.repository_mut() = repo;
        }
        let daemon = Daemon {
            cfg,
            sherlock,
            cancel,
            tenants: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            stats: DaemonStats::default(),
        };
        Ok((daemon, startup_warnings))
    }

    /// The configuration the daemon runs with.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Number of loaded causal models.
    pub fn n_models(&self) -> usize {
        self.sherlock.repository().models().len()
    }

    /// Is the daemon refusing new work?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Spawn the diagnosis worker pool. Handles are joined by
    /// [`drain`](Daemon::drain).
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .filter_map(|i| {
                let daemon = Arc::clone(self);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "pool thread; jobs run under try_par_map_indexed, drain() joins it"
                )]
                let spawned = std::thread::Builder::new()
                    .name(format!("sherlockd-worker-{i}"))
                    .spawn(move || daemon.worker_loop());
                match spawned {
                    Ok(handle) => Some(handle),
                    Err(e) => {
                        // A short pool still drains correctly; say so loudly
                        // instead of silently running under-provisioned.
                        eprintln!("sherlockd: failed to spawn worker {i}: {e}");
                        None
                    }
                }
            })
            .collect()
    }

    /// Process one client line. All effects go through `session.sink`; the
    /// return value only says whether to keep the session open.
    pub fn handle_line(&self, session: &mut Session, line: &str) -> LineOutcome {
        session.lines_seen += 1;
        match parse_command(line) {
            Command::Blank => LineOutcome::Continue,
            Command::Quit => {
                (session.sink)(&Response::Bye);
                LineOutcome::Quit
            }
            Command::Stats => {
                (session.sink)(&Response::Stats(self.stats_body()));
                LineOutcome::Continue
            }
            Command::Tenant(name) => {
                if name.is_empty() {
                    (session.sink)(&Response::Error {
                        code: "bad-tenant",
                        detail: "tenant name must not be empty".into(),
                    });
                } else {
                    session.tenant = Some(name.to_string());
                    (session.sink)(&Response::Ok {
                        what: "tenant",
                        detail: format!("tenant={}", quote(name)),
                    });
                }
                LineOutcome::Continue
            }
            Command::Header(header) => {
                self.handle_header(session, header);
                LineOutcome::Continue
            }
            Command::Row(row) => {
                self.handle_row(session, row);
                LineOutcome::Continue
            }
            Command::Detect => {
                self.handle_detect(session);
                LineOutcome::Continue
            }
        }
    }

    fn handle_header(&self, session: &mut Session, header: &str) {
        let Some(tenant) = session.tenant.clone() else {
            (session.sink)(&Response::Error {
                code: "no-tenant",
                detail: "send `tenant <name>` before a header".into(),
            });
            return;
        };
        if self.is_draining() {
            (session.sink)(&Response::Error {
                code: "draining",
                detail: "daemon is draining; not admitting schemas".into(),
            });
            return;
        }
        let mut warnings = Vec::new();
        let schema = match parse_header_lossy(header, &mut warnings) {
            Ok(schema) => schema,
            Err(e) => {
                (session.sink)(&Response::Error { code: "bad-header", detail: e.to_string() });
                return;
            }
        };
        self.emit_warnings(&session.sink, &tenant, &warnings);
        let n_attrs = schema.len();
        let mut tenants = lock(&self.tenants);
        match tenants.get_mut(&tenant) {
            Some(state) => {
                state.ring.reset_schema(schema);
                state.quarantined = false;
                state.rows_since_detect = 0;
                state.last_timestamp = None;
            }
            None => {
                if tenants.len() >= self.cfg.max_tenants {
                    drop(tenants);
                    (session.sink)(&Response::Error {
                        code: "tenant-limit",
                        detail: format!(
                            "tenant cap {} reached; not admitting {}",
                            self.cfg.max_tenants,
                            quote(&tenant)
                        ),
                    });
                    return;
                }
                tenants.insert(
                    tenant.clone(),
                    TenantState {
                        ring: TenantRing::new(schema, self.cfg.ring_rows),
                        quarantined: false,
                        rows_since_detect: 0,
                        last_timestamp: None,
                        last_explained: None,
                    },
                );
            }
        }
        drop(tenants);
        (session.sink)(&Response::Ok {
            what: "header",
            detail: format!("tenant={} attrs={n_attrs}", quote(&tenant)),
        });
    }

    fn handle_row(&self, session: &mut Session, row: &str) {
        let Some(tenant) = session.tenant.clone() else {
            (session.sink)(&Response::Error {
                code: "no-tenant",
                detail: "send `tenant <name>` and a header before rows".into(),
            });
            return;
        };
        let mut warnings = Vec::new();
        let mut enqueue_detect = false;
        {
            let mut tenants = lock(&self.tenants);
            let Some(state) = tenants.get_mut(&tenant) else {
                drop(tenants);
                (session.sink)(&Response::Error {
                    code: "no-header",
                    detail: format!("tenant {} has no schema yet", quote(&tenant)),
                });
                return;
            };
            let line_no = session.lines_seen;
            let Some((timestamp, cells)) =
                parse_line_lossy(state.ring.schema(), row, line_no, &mut warnings)
            else {
                drop(tenants);
                self.emit_warnings(&session.sink, &tenant, &warnings);
                return;
            };
            if let Some(prev) = state.last_timestamp {
                if timestamp <= prev {
                    warnings
                        .push(IngestWarning::NonMonotonicTimestamp { line: line_no, timestamp });
                }
            }
            state.last_timestamp = Some(state.last_timestamp.unwrap_or(f64::MIN).max(timestamp));
            let (_seq, evicted) = state.ring.push(timestamp, cells);
            self.stats.rows.fetch_add(1, Ordering::Relaxed);
            if evicted {
                self.stats.evicted.fetch_add(1, Ordering::Relaxed);
            }
            state.rows_since_detect += 1;
            if !state.quarantined
                && state.rows_since_detect >= self.cfg.detect_every
                && state.ring.len() >= self.cfg.min_detect_rows
            {
                state.rows_since_detect = 0;
                enqueue_detect = true;
            }
        }
        self.emit_warnings(&session.sink, &tenant, &warnings);
        if enqueue_detect {
            self.enqueue(&tenant, &session.sink);
        }
    }

    fn handle_detect(&self, session: &mut Session) {
        let Some(tenant) = session.tenant.clone() else {
            (session.sink)(&Response::Error {
                code: "no-tenant",
                detail: "send `tenant <name>` before `detect`".into(),
            });
            return;
        };
        let known = {
            let tenants = lock(&self.tenants);
            tenants.get(&tenant).map(|s| (s.quarantined, s.ring.is_empty()))
        };
        match known {
            None => (session.sink)(&Response::Error {
                code: "no-header",
                detail: format!("tenant {} has no schema yet", quote(&tenant)),
            }),
            Some((true, _)) => (session.sink)(&Response::Error {
                code: "quarantined",
                detail: format!("tenant {} is quarantined after a panic", quote(&tenant)),
            }),
            Some((_, true)) => (session.sink)(&Response::Error {
                code: "no-rows",
                detail: format!("tenant {} has no buffered rows", quote(&tenant)),
            }),
            Some((false, false)) => self.enqueue(&tenant, &session.sink),
        }
    }

    fn emit_warnings(&self, sink: &Sink, tenant: &str, warnings: &[IngestWarning]) {
        for warning in warnings {
            self.stats.warnings.fetch_add(1, Ordering::Relaxed);
            sink(&Response::from_warning(tenant, warning));
        }
    }

    /// Admit a diagnosis request into the bounded queue, shedding the
    /// oldest queued job (with a structured notice to its requester) when
    /// full. Requests for a tenant that already has a queued job coalesce.
    fn enqueue(&self, tenant: &str, sink: &Sink) {
        if self.is_draining() {
            (sink)(&Response::Error {
                code: "draining",
                detail: "daemon is draining; diagnosis not admitted".into(),
            });
            return;
        }
        let shed: Option<Job>;
        {
            let mut queue = lock(&self.queue);
            if queue.iter().any(|job| job.tenant == tenant) {
                return; // coalesce: one queued diagnosis per tenant
            }
            shed =
                if queue.len() >= self.cfg.max_pending.max(1) { queue.pop_front() } else { None };
            queue.push_back(Job { tenant: tenant.to_string(), sink: Arc::clone(sink) });
        }
        self.queue_cv.notify_one();
        // Notify the shed requester outside the lock: its sink may be a
        // slow socket, and the queue must not stall behind it.
        if let Some(old) = shed {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            let pending = lock(&self.queue).len();
            (old.sink)(&Response::Overloaded { tenant: old.tenant, pending });
        }
    }

    /// Worker body: pop → diagnose → answer, until drained. `in_flight` is
    /// incremented under the queue lock so drain's "queue empty and nothing
    /// in flight" check cannot race a job between pop and start.
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        self.in_flight.fetch_add(1, Ordering::SeqCst);
                        break job;
                    }
                    if self.is_draining() {
                        return;
                    }
                    let (guard, _) = self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(100))
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    queue = guard;
                }
            };
            self.run_job(&job);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Run one diagnosis behind the panic-isolation boundary. A panic
    /// quarantines the tenant; every other outcome is answered on the
    /// job's sink.
    fn run_job(&self, job: &Job) {
        let snapshot = {
            let tenants = lock(&self.tenants);
            match tenants.get(&job.tenant) {
                None => return, // tenant evaporated (re-headered away); nothing to do
                Some(state) if state.quarantined => return,
                Some(state) => (state.ring.to_dataset(), state.last_explained),
            }
        };
        let (snapshot, last_explained) = snapshot;
        let mut results = dbsherlock_core::try_par_map_indexed(
            ExecPolicy::Serial,
            "daemon-diagnose",
            &[()],
            |_, _| self.diagnose(&snapshot, last_explained),
        );
        match results.pop() {
            Some(Ok(Some(outcome))) => {
                {
                    let mut tenants = lock(&self.tenants);
                    if let Some(state) = tenants.get_mut(&job.tenant) {
                        state.last_explained = Some(outcome.seq_range);
                    }
                }
                self.stats.explanations.fetch_add(1, Ordering::Relaxed);
                (job.sink)(&Response::Explanation {
                    tenant: job.tenant.clone(),
                    seq_range: outcome.seq_range,
                    region_rows: outcome.region_rows,
                    predicates: outcome.predicates,
                    top_cause: outcome.top_cause,
                });
            }
            Some(Ok(None)) => {
                self.stats.quiet.fetch_add(1, Ordering::Relaxed);
            }
            Some(Err(SherlockError::TaskPanicked { message, .. })) => {
                {
                    let mut tenants = lock(&self.tenants);
                    if let Some(state) = tenants.get_mut(&job.tenant) {
                        state.quarantined = true;
                    }
                }
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                (job.sink)(&Response::Quarantined { tenant: job.tenant.clone(), reason: message });
            }
            Some(Err(err)) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                (job.sink)(&Response::from_error(&err));
            }
            None => {}
        }
    }

    /// Detect over the window snapshot; if a fresh anomalous region shows
    /// up, explain it. `Ok(None)` = nothing (new) to report.
    fn diagnose(
        &self,
        snapshot: &RingSnapshot,
        last_explained: Option<(u64, u64)>,
    ) -> Result<Option<ExplainOutcome>, SherlockError> {
        let Some(detection) = self.sherlock.try_detect(&snapshot.dataset)? else {
            return Ok(None);
        };
        let indices = detection.region.indices();
        let (Some(&first), Some(&last)) = (indices.first(), indices.last()) else {
            return Ok(None);
        };
        let (Some(&seq_start), Some(&seq_end)) =
            (snapshot.seqs.get(first), snapshot.seqs.get(last))
        else {
            return Ok(None);
        };
        // Dedup against the previous report: the window slides slowly, so
        // the same incident would otherwise be re-announced every
        // `detect_every` rows.
        if let Some((prev_start, prev_end)) = last_explained {
            let overlap =
                (seq_end.min(prev_end) as i64 - seq_start.max(prev_start) as i64 + 1).max(0) as f64;
            let span = (seq_end - seq_start + 1) as f64;
            if overlap / span > 0.5 {
                return Ok(None);
            }
        }
        let explanation = self.sherlock.try_explain(&snapshot.dataset, &detection.region, None)?;
        Ok(Some(ExplainOutcome {
            seq_range: (seq_start, seq_end),
            region_rows: indices.len(),
            predicates: explanation.predicates_display(),
            top_cause: explanation.top_cause().cloned(),
        }))
    }

    fn stats_body(&self) -> String {
        let (n_tenants, n_quarantined) = {
            let tenants = lock(&self.tenants);
            (tenants.len(), tenants.values().filter(|s| s.quarantined).count())
        };
        let queued = lock(&self.queue).len();
        format!(
            "tenants={n_tenants} quarantined={n_quarantined} rows={} evicted={} warnings={} \
             queued={queued} in_flight={} shed={} explanations={} quiet={} errors={} \
             dropped_responses={} models={} draining={}",
            self.stats.rows.load(Ordering::Relaxed),
            self.stats.evicted.load(Ordering::Relaxed),
            self.stats.warnings.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::SeqCst),
            self.stats.shed.load(Ordering::Relaxed),
            self.stats.explanations.load(Ordering::Relaxed),
            self.stats.quiet.load(Ordering::Relaxed),
            self.stats.errors.load(Ordering::Relaxed),
            self.stats.dropped_responses.load(Ordering::Relaxed),
            self.n_models(),
            self.is_draining(),
        )
    }

    /// Stop admitting work (sessions and enqueues start refusing) and wake
    /// idle workers so they can observe the drain.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Drain: wait (up to the configured deadline) for the queue to empty
    /// and in-flight diagnoses to land, cancel cooperatively past the
    /// deadline, join the workers, then save and verify the model store.
    pub fn drain(&self, workers: Vec<JoinHandle<()>>) -> DrainReport {
        self.begin_drain();
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_deadline_ms);
        let mut clean = true;
        loop {
            let idle = lock(&self.queue).is_empty() && self.in_flight.load(Ordering::SeqCst) == 0;
            if idle {
                break;
            }
            if Instant::now() >= deadline {
                clean = false;
                self.cancel.cancel();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for handle in workers {
            // Job panics are isolated per-job; a panic surfacing *here*
            // means the worker loop itself died — worth a trace.
            if handle.join().is_err() {
                eprintln!("sherlockd: a worker thread panicked outside the job boundary");
            }
        }
        let mut store_saved = None;
        let mut verify_warnings = Vec::new();
        let mut save_attempts = 0;
        if let Some(path) = &self.cfg.store_path {
            // Single-writer contract: workers are joined, so this is the
            // only writer touching the store path. Transient save/verify
            // failures (ENOSPC clearing, a backup agent briefly holding the
            // file, …) get a bounded, jittered, deadline-capped retry.
            let store = ModelStore::new(path);
            let (saved, warnings, attempts) =
                save_with_backoff(&store, self.sherlock.repository(), deadline, &mut |_| {});
            store_saved = Some(saved);
            verify_warnings = warnings;
            save_attempts = attempts;
        }
        DrainReport { clean, store_saved, verify_warnings, save_attempts }
    }
}

/// Drain-time store saves retry at most this many times before giving up —
/// SIGTERM must terminate, so the retry loop is bounded by attempts *and*
/// capped by the drain deadline.
pub const SAVE_ATTEMPTS: u32 = 3;

/// Base backoff between drain-save attempts, doubled per retry and spread
/// by deterministic jitter so a fleet draining together doesn't hammer
/// shared storage in lockstep.
const SAVE_BACKOFF_MS: u64 = 10;

/// splitmix64 jitter in `0..SAVE_BACKOFF_MS` ms (no unseeded RNG in
/// daemon code).
fn backoff_jitter_ms(attempt: u32) -> u64 {
    splitmix64(0x5AFE_D8A1_u64 ^ ((attempt as u64) << 32)) % SAVE_BACKOFF_MS
}

/// Save `repo` to `store` and verify the written generation by re-loading
/// it, with bounded exponential backoff on failure: up to [`SAVE_ATTEMPTS`]
/// attempts, sleeping `10ms·2^(attempt−1)` plus jitter between them, never
/// past `deadline`. An attempt succeeds only when the save, the verify
/// load, *and* the round-trip agree — a load that silently recovered (from
/// the previous generation or a fresh start) or came back with the wrong
/// model count is a failed save, not a success, even though `load()`
/// reports `Ok`.
///
/// `after_save` runs after each successful save, before its verify — the
/// fault-injection seam for tests (production passes a no-op).
///
/// Returns the last attempt's save result, its verify warnings (empty on
/// success), and the attempts spent.
pub fn save_with_backoff(
    store: &ModelStore,
    repo: &ModelRepository,
    deadline: Instant,
    after_save: &mut dyn FnMut(u32),
) -> (Result<StoreReport, SherlockError>, Vec<String>, u32) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let saved = store.save(repo);
        let mut warnings = Vec::new();
        match &saved {
            Ok(_) => {
                after_save(attempts);
                match store.load() {
                    Ok((loaded, report)) => {
                        warnings = report.warnings;
                        if report.recovered_from_backup {
                            warnings.push(
                                "verify: primary damaged; load recovered the previous generation"
                                    .to_string(),
                            );
                        }
                        if loaded.models().len() != repo.models().len() {
                            warnings.push(format!(
                                "verify: loaded {} models, expected {}",
                                loaded.models().len(),
                                repo.models().len()
                            ));
                        }
                    }
                    Err(e) => warnings.push(format!("verify load failed: {e}")),
                }
                if warnings.is_empty() {
                    return (saved, warnings, attempts);
                }
            }
            Err(e) => warnings.push(format!("save failed: {e}")),
        }
        if attempts >= SAVE_ATTEMPTS || Instant::now() >= deadline {
            return (saved, warnings, attempts);
        }
        let backoff = (SAVE_BACKOFF_MS << (attempts - 1)) + backoff_jitter_ms(attempts);
        let remaining = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(remaining.min(Duration::from_millis(backoff)));
    }
}

/// What one successful diagnosis produced (internal carrier between
/// [`Daemon::diagnose`] and the response).
struct ExplainOutcome {
    seq_range: (u64, u64),
    region_rows: usize,
    predicates: String,
    top_cause: Option<dbsherlock_core::RankedCause>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that appends rendered lines to a shared buffer.
    fn capture() -> (Sink, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink_buf = Arc::clone(&buf);
        let sink: Sink = Arc::new(move |r: &Response| {
            sink_buf.lock().unwrap().push(r.render());
        });
        (sink, buf)
    }

    fn feed(daemon: &Daemon, session: &mut Session, lines: &[&str]) {
        for line in lines {
            daemon.handle_line(session, line);
        }
    }

    #[test]
    fn protocol_walkthrough_ingests_rows() {
        let (daemon, _) = Daemon::new(DaemonConfig::default()).unwrap();
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        feed(
            &daemon,
            &mut session,
            &["tenant t0", "timestamp,cpu:num", "0,1.5", "1,2.5", "garbage,here", "stats"],
        );
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("ok cmd=tenant"));
        assert!(lines.contains("ok cmd=header"));
        // The garbage row degrades to a structured warning, not a dead session.
        assert!(lines.contains("warn tenant=\"t0\""), "{lines}");
        assert!(lines.contains("skipped row"), "{lines}");
        assert!(lines.contains("rows=2"), "{lines}");
        assert_eq!(daemon.stats.rows.load(Ordering::Relaxed), 2);
        assert_eq!(daemon.stats.warnings.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rows_without_tenant_or_header_get_structured_errors() {
        let (daemon, _) = Daemon::new(DaemonConfig::default()).unwrap();
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        feed(&daemon, &mut session, &["0,1.0"]);
        session.tenant = Some("ghost".into());
        feed(&daemon, &mut session, &["0,1.0", "detect"]);
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("code=no-tenant"));
        assert!(lines.contains("code=no-header"));
    }

    #[test]
    fn tenant_cap_rejects_with_structured_error() {
        let cfg = DaemonConfig { max_tenants: 1, ..DaemonConfig::default() };
        let (daemon, _) = Daemon::new(cfg).unwrap();
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        feed(
            &daemon,
            &mut session,
            &["tenant a", "timestamp,x:num", "tenant b", "timestamp,x:num"],
        );
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("code=tenant-limit"), "{lines}");
    }

    #[test]
    fn queue_sheds_oldest_with_structured_overload() {
        let cfg = DaemonConfig { max_pending: 2, workers: 1, ..DaemonConfig::default() };
        let (daemon, _) = Daemon::new(cfg).unwrap();
        let (sink, buf) = capture();
        // Three tenants with buffered rows; no workers running, so jobs pile up.
        for name in ["a", "b", "c"] {
            let mut session = Session::new(Arc::clone(&sink));
            feed(
                &daemon,
                &mut session,
                &[&format!("tenant {name}"), "timestamp,x:num", "0,1.0", "detect"],
            );
        }
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("overloaded tenant=\"a\""), "{lines}");
        assert!(lines.contains("action=shed-oldest"));
        assert_eq!(daemon.stats.shed.load(Ordering::Relaxed), 1);
        assert_eq!(lock(&daemon.queue).len(), 2);
    }

    #[test]
    fn duplicate_detect_requests_coalesce() {
        let cfg = DaemonConfig { max_pending: 8, ..DaemonConfig::default() };
        let (daemon, _) = Daemon::new(cfg).unwrap();
        let (sink, _buf) = capture();
        let mut session = Session::new(sink);
        feed(&daemon, &mut session, &["tenant a", "timestamp,x:num", "0,1.0"]);
        for _ in 0..5 {
            feed(&daemon, &mut session, &["detect"]);
        }
        assert_eq!(lock(&daemon.queue).len(), 1);
    }

    #[test]
    fn draining_refuses_new_work() {
        let (daemon, _) = Daemon::new(DaemonConfig::default()).unwrap();
        let (sink, buf) = capture();
        let mut session = Session::new(Arc::clone(&sink));
        feed(&daemon, &mut session, &["tenant a", "timestamp,x:num", "0,1.0"]);
        daemon.begin_drain();
        feed(&daemon, &mut session, &["detect", "timestamp,y:num"]);
        let lines = buf.lock().unwrap().join("");
        assert_eq!(lines.matches("code=draining").count(), 2, "{lines}");
    }

    #[test]
    fn worker_diagnoses_a_planted_anomaly_end_to_end() {
        let cfg = DaemonConfig {
            detect_every: 16,
            min_detect_rows: 48,
            ring_rows: 256,
            workers: 1,
            ..DaemonConfig::default()
        };
        let (daemon, _) = Daemon::new(cfg).unwrap();
        let daemon = Arc::new(daemon);
        let workers = daemon.spawn_workers();
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        feed(&daemon, &mut session, &["tenant t", "timestamp,signal:num,steady:num"]);
        for i in 0..96u32 {
            let anomalous = (60..75).contains(&i);
            let jitter = f64::from(i) * 0.37 % 1.0;
            let signal = if anomalous { 80.0 + jitter } else { 5.0 + jitter };
            daemon.handle_line(&mut session, &format!("{i},{signal},{}", 40.0 + jitter));
        }
        // Give the worker a moment, then drain (which waits for in-flight).
        let report = daemon.drain(workers);
        assert!(report.clean);
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("event=explanation tenant=\"t\""), "{lines}");
        assert!(lines.contains("signal"), "{lines}");
        assert!(daemon.stats.explanations.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn quarantine_isolates_a_panicking_tenant() {
        // A stored model is needed for the rank stage to score anything;
        // the chaos tripwire (enabled for tests) then panics inside the
        // real scorer whenever the PANIC_ATTR attribute is present.
        let dir = std::env::temp_dir().join(format!("sherlockd-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.sherlock");
        let mut repo = dbsherlock_core::ModelRepository::default();
        repo.add(dbsherlock_core::CausalModel {
            cause: "any stored cause".into(),
            predicates: vec![dbsherlock_core::Predicate::lt("signal", -100.0)],
            merged_from: 1,
        });
        dbsherlock_core::ModelStore::new(&path).save(&repo).unwrap();

        let cfg = DaemonConfig {
            workers: 1,
            min_detect_rows: 4,
            store_path: Some(path),
            ..DaemonConfig::default()
        };
        let (daemon, _) = Daemon::new(cfg).unwrap();
        assert_eq!(daemon.n_models(), 1);
        let daemon = Arc::new(daemon);
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        let header = format!("timestamp,signal:num,{}:num", dbsherlock_core::chaos::PANIC_ATTR);
        feed(&daemon, &mut session, &["tenant bad", &header]);
        for i in 0..96u32 {
            // 15/96 anomalous rows: a sustained run longer than τ/2 (so the
            // median filter sees it) yet under the 20% cluster-size cap, so
            // the detector reports the region and the pipeline reaches the
            // rank stage where the tripwire lives.
            let jitter = f64::from(i) * 0.37 % 1.0;
            let signal = if (60..75).contains(&i) { 80.0 + jitter } else { 5.0 + jitter };
            daemon.handle_line(&mut session, &format!("{i},{signal},1.0"));
        }
        feed(&daemon, &mut session, &["detect"]);
        let workers = daemon.spawn_workers();
        dbsherlock_core::chaos::quiet_panics(|| {
            let report = daemon.drain(workers);
            assert!(report.clean);
        });
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("event=quarantined tenant=\"bad\""), "{lines}");
        // Further detects answer with the quarantine error; the daemon lives.
        feed(&daemon, &mut session, &["detect"]);
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("code=quarantined"), "{lines}");
        assert_eq!(daemon.stats.quarantined.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_saves_and_verifies_the_store() {
        let dir = std::env::temp_dir().join(format!("sherlockd-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.sherlock");
        let cfg = DaemonConfig { store_path: Some(path.clone()), ..DaemonConfig::default() };
        let (daemon, warnings) = Daemon::new(cfg).unwrap();
        assert!(warnings.is_empty());
        let daemon = Arc::new(daemon);
        let workers = daemon.spawn_workers();
        let report = daemon.drain(workers);
        assert!(report.clean);
        assert!(report.store_verified(), "{:?}", report.verify_warnings);
        assert_eq!(report.save_attempts, 1, "clean save must not retry");
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn backoff_repo(n: usize) -> ModelRepository {
        let mut repo = ModelRepository::new();
        for i in 0..n {
            repo.add(dbsherlock_core::CausalModel {
                cause: format!("cause-{i}"),
                predicates: vec![dbsherlock_core::Predicate::gt("signal", i as f64)],
                merged_from: 1,
            });
        }
        repo
    }

    fn backoff_store(tag: &str) -> (std::path::PathBuf, ModelStore) {
        let dir =
            std::env::temp_dir().join(format!("sherlockd-backoff-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = ModelStore::new(dir.join("models.bin"));
        (dir, store)
    }

    #[test]
    fn save_with_backoff_recovers_from_transient_store_faults() {
        let (dir, store) = backoff_store("transient");
        let repo = backoff_repo(2);
        let deadline = Instant::now() + Duration::from_secs(10);
        // The injector vanishes the freshly written primary on the first
        // two attempts; the third save lands clean.
        let mut faulted = 0;
        let (saved, warnings, attempts) =
            save_with_backoff(&store, &repo, deadline, &mut |attempt| {
                if attempt <= 2 {
                    faulted += 1;
                    dbsherlock_core::StoreFault::DeletePrimary.apply(store.path()).unwrap();
                }
            });
        assert!(saved.is_ok());
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(attempts, 3);
        assert_eq!(faulted, 2);
        // The surviving generation round-trips with the full model count.
        let (loaded, report) = store.load().unwrap();
        assert_eq!(loaded.models().len(), 2);
        assert!(report.warnings.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_with_backoff_gives_up_after_bounded_attempts() {
        let (dir, store) = backoff_store("persistent");
        let repo = backoff_repo(1);
        let deadline = Instant::now() + Duration::from_secs(10);
        // Every attempt's primary is truncated to a zero-length husk: the
        // verify load sees a fresh start (or recovery), never the saved
        // generation, so the loop must stop at the attempt bound — not spin
        // until the deadline.
        let (_, warnings, attempts) = save_with_backoff(&store, &repo, deadline, &mut |_| {
            dbsherlock_core::StoreFault::TruncateAt(0).apply(store.path()).unwrap();
        });
        assert_eq!(attempts, SAVE_ATTEMPTS);
        assert!(!warnings.is_empty(), "persistent fault must surface verify warnings");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_with_backoff_expired_deadline_means_one_attempt() {
        let (dir, store) = backoff_store("deadline");
        let repo = backoff_repo(1);
        // Deadline already in the past: one attempt, no sleeps, give up.
        let deadline = Instant::now();
        let started = Instant::now();
        let (_, warnings, attempts) = save_with_backoff(&store, &repo, deadline, &mut |_| {
            dbsherlock_core::StoreFault::DeletePrimary.apply(store.path()).unwrap();
        });
        assert_eq!(attempts, 1);
        assert!(!warnings.is_empty());
        assert!(started.elapsed() < Duration::from_millis(500), "must not back off past deadline");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_monotonic_timestamps_warn_but_ingest() {
        let (daemon, _) = Daemon::new(DaemonConfig::default()).unwrap();
        let (sink, buf) = capture();
        let mut session = Session::new(sink);
        feed(&daemon, &mut session, &["tenant t", "timestamp,x:num", "5,1.0", "3,2.0", "6,3.0"]);
        let lines = buf.lock().unwrap().join("");
        assert!(lines.contains("not after predecessor"), "{lines}");
        assert_eq!(daemon.stats.rows.load(Ordering::Relaxed), 3);
    }

    /// Protocol-shaped fragments a tape byte picks from: commands, the
    /// header keyword and kind tags, separators, number syntax, quotes and
    /// multi-byte characters. `\n` splits the text into lines, as the
    /// transport does.
    const FRAGMENTS: &[&str] = &[
        "tenant ",
        "t0",
        "timestamp",
        "detect",
        "stats",
        "quit",
        ",",
        ",",
        "\n",
        "\n",
        "\r",
        ":num",
        ":cat",
        "cpu",
        "state",
        "0",
        "1",
        "9",
        ".",
        "-",
        "e",
        "NaN",
        "inf",
        "\"",
        " ",
        "a",
        "é",
        "😀",
    ];

    /// Client lines from a byte tape: a byte below 0xC0 appends a fragment,
    /// any other byte is appended raw; the lossy UTF-8 decode is what the
    /// transport hands the daemon for a line that is not valid UTF-8.
    fn lines_from_tape(tape: &[u8]) -> Vec<String> {
        let mut bytes = Vec::new();
        for &b in tape {
            match FRAGMENTS.get(usize::from(b) % 0xC0 % FRAGMENTS.len()) {
                Some(fragment) if b < 0xC0 => bytes.extend_from_slice(fragment.as_bytes()),
                _ => bytes.push(b),
            }
        }
        bytes
            .split(|&b| b == b'\n')
            .map(|line| String::from_utf8_lossy(line).into_owned())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Untrusted lines, after no prelude, a `tenant` line, a header, or
        /// a header and valid rows, never panic the daemon, and a
        /// following `stats` line still gets its response.
        #[test]
        fn handle_line_never_panics_and_stats_still_answers(
            prelude in 0u8..4,
            tape in proptest::collection::vec(0u8..=255, 0..400),
        ) {
            // No workers: queued diagnoses stay queued, and the small
            // bounds make random `detect` lines and rows exercise shedding.
            let cfg = DaemonConfig {
                ring_rows: 32,
                detect_every: 4,
                min_detect_rows: 4,
                max_pending: 2,
                max_tenants: 4,
                ..DaemonConfig::default()
            };
            let (daemon, _) = Daemon::new(cfg).unwrap();
            let (sink, buf) = capture();
            let mut session = Session::new(sink);
            let mut prelude_lines: Vec<String> = ["tenant t0", "timestamp,cpu:num,state:cat"]
                .iter()
                .take(usize::from(prelude))
                .map(|l| l.to_string())
                .collect();
            if prelude == 3 {
                // Valid rows, so detection triggers and queued diagnoses shed.
                let rows = tape.iter().take(24).enumerate();
                prelude_lines.extend(rows.map(|(i, &b)| format!("{i},{b},s{}", b % 3)));
            }
            for line in prelude_lines.iter().chain(&lines_from_tape(&tape)) {
                if daemon.handle_line(&mut session, line) == LineOutcome::Quit {
                    break;
                }
            }
            let before = buf.lock().unwrap().len();
            proptest::prop_assert_eq!(
                daemon.handle_line(&mut session, "stats"),
                LineOutcome::Continue
            );
            let responses = buf.lock().unwrap()[before..].to_vec();
            proptest::prop_assert!(
                responses.iter().any(|r| r.starts_with("stats ")),
                "no stats response: {:?}", responses
            );
        }
    }
}
