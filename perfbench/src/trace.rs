//! Outside-in spans: the traced run wraps each call into a public stage
//! function in a span (name, start, end, parent, operation id). Spans stay
//! in memory and are written out as CSV when the run ends; per-operation
//! stage totals feed the per-layer metrics.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Every span name the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Snapshot,
    Partition,
    Label,
    Filter,
    Fill,
    MeanDiff,
    Extract,
    Separation,
    Domain,
    Rank,
    TryExplain,
    ReplicaExplain,
    DetectSelect,
    Kdist,
    Dbscan,
    TryDetect,
    ReplicaDetect,
    ToDataset,
    HandleLine,
    ParseCommand,
    ParseLine,
    RingPush,
}

const N_STAGES: usize = Stage::RingPush as usize + 1;

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Snapshot => "telemetry.snapshot",
            Stage::Partition => "core.partition",
            Stage::Label => "core.label",
            Stage::Filter => "core.filter",
            Stage::Fill => "core.fill",
            Stage::MeanDiff => "core.mean_diff",
            Stage::Extract => "core.extract",
            Stage::Separation => "core.separation",
            Stage::Domain => "core.domain",
            Stage::Rank => "core.rank",
            Stage::TryExplain => "core.try_explain",
            Stage::ReplicaExplain => "bench.replica_explain",
            Stage::DetectSelect => "core.detect_select",
            Stage::Kdist => "cluster.kdist",
            Stage::Dbscan => "cluster.dbscan",
            Stage::TryDetect => "core.try_detect",
            Stage::ReplicaDetect => "bench.replica_detect",
            Stage::ToDataset => "sherlockd.to_dataset",
            Stage::HandleLine => "sherlockd.handle_line",
            Stage::ParseCommand => "sherlockd.parse_command",
            Stage::ParseLine => "telemetry.parse_line",
            Stage::RingPush => "sherlockd.ring_push",
        }
    }
}

/// Where runs leave files (spans, the stream workload's model store):
/// inside the benchmark's own directory, ignored by git.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.runs"))
}

/// Spans kept in memory at most; later spans still count toward the
/// per-operation totals, and the run reports how many were not kept.
const SPAN_CAPACITY: usize = 1 << 16;

struct Span {
    op: u64,
    id: u32,
    parent: u32,
    stage: Stage,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    next_id: u32,
    dropped: u64,
    totals: [u64; N_STAGES],
    samples: Vec<Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_id: 1,
            dropped: 0,
            totals: [0; N_STAGES],
            samples: vec![Vec::new(); N_STAGES],
        }
    }

    /// Start operation `op`: spans opened from now on carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.totals = [0; N_STAGES];
    }

    /// Time `f` as one span of `stage`, nested under the innermost open span.
    pub fn span<R>(&mut self, stage: Stage, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.totals[stage as usize] += end_ns - start_ns;
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(Span { op: self.op, id, parent, stage, start_ns, end_ns });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Milliseconds spent in `stage` so far in the current operation.
    pub fn op_ms(&self, stage: Stage) -> f64 {
        self.totals[stage as usize] as f64 / 1e6
    }

    /// Close the current operation: its per-stage totals become one sample
    /// of each stage it touched.
    pub fn end_op(&mut self) {
        for (stage, &total) in self.totals.iter().enumerate() {
            if total > 0 {
                self.samples[stage].push(total as f64 / 1e6);
            }
        }
    }

    /// Per-operation totals of `stage` in ms, one per operation that ran it.
    pub fn samples_ms(&self, stage: Stage) -> &[f64] {
        &self.samples[stage as usize]
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every kept span as CSV under the benchmark's `.runs`
    /// directory; returns the file written.
    pub fn write(&self, file_name: &str) -> Result<PathBuf, String> {
        let dir = runs_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(file_name);
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        writeln!(out, "op,id,parent,name,start_ns,end_ns").map_err(io)?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.op,
                s.id,
                s.parent,
                s.stage.name(),
                s.start_ns,
                s.end_ns
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)?;
        Ok(path)
    }
}
