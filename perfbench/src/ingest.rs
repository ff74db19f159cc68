//! `ingest`: the daemon's write path, measured in the traced run only. A
//! loop on one thread hands one TPC-C-like data row at a time to
//! `Daemon::handle_line`: classify the line, parse its 79 CSV cells
//! lossily, look up the tenant, push to its ring and evict. Rows go
//! round-robin over 48 tenants whose full 512-row rings (~50 MB) exceed a
//! 32 MiB L3; detection never triggers. A ~7 µs call whose data outgrow the
//! L3 reads up to twice as slow for whole runs while a neighbour of the
//! shared host works memory hard, so it has no end-to-end metrics; its
//! per-layer ones time the parser, the protocol and the ring, whose costs
//! reach `stream`'s latency through the rows of each trigger's block.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbsherlock_sherlockd::{
    parse_command, Command, Daemon, DaemonConfig, Session, Sink, TenantRing,
};
use dbsherlock_simulator::{Scenario, WorkloadConfig};
use dbsherlock_telemetry::{parse_header_lossy, parse_line_lossy, to_csv, Schema};

use crate::models;
use crate::rng::Rng;
use crate::stats::{median, ms, ratio};
use crate::trace::{Stage, Tracer};
use crate::{Outcome, RunConfig};

const TENANTS: usize = 48;
const RING_ROWS: usize = 512;
/// Distinct simulated rows; each tenant cycles through them from its own
/// seeded offset, with its own increasing timestamps.
const POOL_ROWS: usize = 2048;
struct State {
    daemon: Daemon,
    sessions: Vec<Session>,
    /// Responses each tenant's session received since set-up: any one is a
    /// warning about the row just sent.
    responses: Vec<Arc<AtomicU64>>,
    schema: Schema,
    bodies: Vec<String>,
    offsets: Vec<usize>,
    next_ts: Vec<usize>,
}

impl State {
    /// Write tenant `t`'s next row into `line`.
    fn next_line(&mut self, t: usize, line: &mut String) {
        let ts = self.next_ts[t];
        self.next_ts[t] += 1;
        self.line(t, ts, line);
    }

    /// Write tenant `t`'s row with timestamp `ts` into `line`.
    fn line(&self, t: usize, ts: usize, line: &mut String) {
        line.clear();
        let _ = write!(line, "{ts},{}", self.bodies[(self.offsets[t] + ts) % POOL_ROWS]);
    }
}

fn setup(seed: u64) -> Result<State, String> {
    let mut rng = Rng::derive(seed, 4);
    let data = Scenario::new(WorkloadConfig::tpcc_default(), POOL_ROWS, rng.next_u64()).run().data;
    let csv = to_csv(&data);
    let mut lines = csv.lines();
    let header = lines.next().ok_or("simulator produced no CSV header")?.to_string();
    let bodies: Vec<String> = lines
        .map(|l| l.split_once(',').map(|(_, body)| body.to_string()))
        .collect::<Option<_>>()
        .ok_or("a simulated row has no cells")?;
    let mut warnings = Vec::new();
    let schema = parse_header_lossy(&header, &mut warnings).map_err(|e| e.to_string())?;
    let cfg = DaemonConfig {
        ring_rows: RING_ROWS,
        detect_every: usize::MAX,
        min_detect_rows: usize::MAX,
        params: models::params(),
        store_path: None,
        ..DaemonConfig::default()
    };
    let (daemon, _) = Daemon::new(cfg).map_err(|e| e.to_string())?;
    let mut sessions = Vec::with_capacity(TENANTS);
    let mut responses = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let sink: Sink = Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let mut session = Session::new(sink);
        daemon.handle_line(&mut session, &format!("tenant t{t:02}"));
        daemon.handle_line(&mut session, &header);
        count.store(0, Ordering::Relaxed);
        sessions.push(session);
        responses.push(count);
    }
    let offsets = (0..TENANTS).map(|_| rng.range(0, POOL_ROWS)).collect();
    let mut state =
        State { daemon, sessions, responses, schema, bodies, offsets, next_ts: vec![0; TENANTS] };
    // Fill every ring to capacity, so each measured row evicts one.
    let mut line = String::new();
    for t in 0..TENANTS {
        for _ in 0..RING_ROWS {
            state.next_line(t, &mut line);
            state.daemon.handle_line(&mut state.sessions[t], &line);
        }
    }
    Ok(state)
}

/// The traced pass. Each row goes through the public `handle_line`, then
/// its three parts run again on the same line against a shadow ring per
/// tenant (`parse_command`, `parse_line_lossy`, `TenantRing::push`), each
/// in a span. The shadow must agree with the daemon on every row: no
/// warning on either side, one eviction each. Every other `handle_line`
/// call is timed without a span, as the reference the tracing overhead is
/// read against over the same stretch of the run.
pub fn trace(cfg: RunConfig) -> Result<Outcome, String> {
    let mut state = setup(cfg.seed)?;
    let mut line = String::new();
    let mut out = Outcome::default();
    let mut shadows = Vec::with_capacity(TENANTS);
    let mut warnings = Vec::new();
    for t in 0..TENANTS {
        let mut ring = TenantRing::new(state.schema.clone(), RING_ROWS);
        let end = state.next_ts[t];
        for ts in end.saturating_sub(RING_ROWS)..end {
            state.line(t, ts, &mut line);
            let (ts, cells) = parse_line_lossy(&state.schema, &line, 0, &mut warnings)
                .ok_or("a generated row failed to parse")?;
            ring.push(ts, cells);
        }
        shadows.push(ring);
    }
    let stats = &state.daemon.stats;
    let rows_before = stats.rows.load(Ordering::Relaxed);
    let evicted_before = stats.evicted.load(Ordering::Relaxed);
    let mut tr = Tracer::new();
    let mut self_us = Vec::new();
    let mut untraced_ms = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut k = 0u64;
    while started.elapsed() < budget {
        let t = k as usize % TENANTS;
        state.next_line(t, &mut line);
        tr.begin_op(k);
        let before = state.responses[t].load(Ordering::Relaxed);
        let evicted = state.daemon.stats.evicted.load(Ordering::Relaxed);
        let daemon = &state.daemon;
        let session = &mut state.sessions[t];
        let traced = k % 2 == 1;
        if traced {
            tr.span(Stage::HandleLine, |_| daemon.handle_line(session, &line));
        } else {
            let call = Instant::now();
            daemon.handle_line(session, &line);
            untraced_ms.push(ms(call.elapsed()));
        }
        let daemon_evicted = daemon.stats.evicted.load(Ordering::Relaxed) - evicted;
        let daemon_warned = state.responses[t].load(Ordering::Relaxed) != before;
        let command = tr.span(Stage::ParseCommand, |_| parse_command(&line));
        let Command::Row(row) = command else {
            return Err(format!("parse_command did not classify row {k} as a data row"));
        };
        let parsed =
            tr.span(Stage::ParseLine, |_| parse_line_lossy(&state.schema, row, 0, &mut warnings));
        let Some((ts, cells)) = parsed else {
            return Err(format!("parse_line_lossy rejected row {k}"));
        };
        let (_, shadow_evicted) = tr.span(Stage::RingPush, |_| shadows[t].push(ts, cells));
        if daemon_warned || !warnings.is_empty() || !shadow_evicted || daemon_evicted != 1 {
            return Err(crate::replica::diverged("handle_line", &format!("row {k}")));
        }
        if traced {
            let parts = tr.op_ms(Stage::ParseCommand)
                + tr.op_ms(Stage::ParseLine)
                + tr.op_ms(Stage::RingPush);
            self_us.push((tr.op_ms(Stage::HandleLine) - parts) * 1e3);
        }
        tr.end_op();
        k += 1;
    }
    let stats = &state.daemon.stats;
    let accepted = stats.rows.load(Ordering::Relaxed) - rows_before;
    let evicted = stats.evicted.load(Ordering::Relaxed) - evicted_before;
    let us = |s: Stage| median(tr.samples_ms(s)) * 1e3;
    out.attempted = k;
    out.correct = accepted == k;
    out.failed = k - accepted.min(k);
    out.set("telemetry.parse_line_us", us(Stage::ParseLine));
    out.set("sherlockd.parse_command_us", us(Stage::ParseCommand));
    out.set("sherlockd.ring_push_us", us(Stage::RingPush));
    out.set("sherlockd.handle_line_us", us(Stage::HandleLine));
    out.set("sherlockd.handle_line_self_us", median(&self_us));
    out.set("sherlockd.evicted_share", ratio(evicted as f64, accepted as f64));
    let traced_ms = median(tr.samples_ms(Stage::HandleLine));
    out.set("bench.trace_overhead_share", traced_ms / median(&untraced_ms) - 1.0);
    crate::replica::write_spans(&mut out, &tr, "ingest", cfg.seed)?;
    Ok(out)
}
