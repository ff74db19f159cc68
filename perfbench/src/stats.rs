//! Sample summaries and the timing loops every workload shares.
//!
//! The host is shared. For seconds at a time it runs the same code up to
//! about 1.8 times slower, memory-bound code most, and such stretches cover
//! about a third of the time; between them, short bursts slow single calls.
//! So every figure is read from the repeats of an operation that the host
//! disturbed least. A closed loop goes round a fixed set of inputs (keys),
//! so each input runs many times, spread over the whole run; an input's
//! latency is the first quartile of its repeats, and the median and tail
//! are read over the inputs. `stream` replays its schedule in passes for
//! the same effect. Set-ups are timed several times, spread through the
//! run, and the first quartile of their times is reported. A change to the
//! program moves every repeat and every set-up; a noisy neighbour moves
//! some.

use std::time::{Duration, Instant};

/// Share of repeats (or set-ups) a figure is read from: the least
/// disturbed ones.
const LEAST_DISTURBED: f64 = 0.25;

/// Set-ups a closed loop times before it starts, and again after it ends.
/// `wide`'s take ~35 ms each, most of it faulting in fresh pages, whose
/// cost varies from one set-up to the next.
pub const SETUPS_EACH_SIDE: usize = 8;

/// Set-up times of one run. `setup_s` is their first quartile.
#[derive(Default)]
pub struct Setups {
    times: Vec<f64>,
}

impl Setups {
    /// Build a workload's state `reps` times, dropping each state before
    /// building the next, and time each build. Returns the last state.
    pub fn time<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut state = None;
        for _ in 0..reps.max(1) {
            drop(state.take());
            let started = Instant::now();
            state = Some(setup()?);
            self.times.push(started.elapsed().as_secs_f64());
        }
        state.ok_or_else(|| "no set-up ran".to_string())
    }

    /// The first quartile of the set-up times, in seconds.
    pub fn least_disturbed(&self) -> f64 {
        least_disturbed(&self.times)
    }

    pub fn count(&self) -> usize {
        self.times.len()
    }
}

/// What a closed loop measured, over its keys.
pub struct ClosedLoop {
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub throughput_per_s: f64,
    /// Operations run.
    pub ops: u64,
    /// Keys the percentiles rest on: those run at least once.
    pub keys: usize,
    /// Fewest repeats behind any key's latency.
    pub min_repeats: usize,
}

/// A closed loop on the calling thread: run `op(k)` for k = 0, 1, ... back
/// to back until `seconds` have passed. Operation `k` runs key `k % keys`,
/// so the loop goes round a fixed set of inputs and each one's repeats are
/// spread over the whole run. `op` returns the latency it timed around the
/// call under test. A key's latency is the first quartile of its repeats;
/// the median and the `tail` percentile are read over the keys, and the
/// throughput is the rate at which the loop goes round the keys at those
/// latencies. Latencies go to a buffer of `capacity` samples, touched up
/// front so its pages count toward peak RSS whatever the run's operation
/// count: a faster program must not read as a bigger one.
pub fn closed_loop(
    seconds: f64,
    keys: usize,
    capacity: usize,
    tail: f64,
    mut op: impl FnMut(u64) -> Duration,
) -> ClosedLoop {
    let keys = keys.max(1);
    let mut buf = vec![f32::NAN; capacity.max(keys)];
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut k = 0u64;
    while started.elapsed() < budget {
        let latency = ms(op(k)) as f32;
        if let Some(cell) = buf.get_mut(k as usize) {
            *cell = latency;
        }
        k += 1;
    }
    let recorded = &buf[..buf.len().min(k as usize)];
    let mut repeats = Vec::new();
    let mut per_key = Vec::with_capacity(keys);
    let mut min_repeats = usize::MAX;
    for key in 0..keys.min(recorded.len()) {
        repeats.clear();
        repeats.extend(recorded.iter().skip(key).step_by(keys).map(|&v| f64::from(v)));
        min_repeats = min_repeats.min(repeats.len());
        per_key.push(least_disturbed(&repeats));
    }
    ClosedLoop {
        latency_p50_ms: median(&per_key),
        latency_tail_ms: percentile(&per_key, tail),
        throughput_per_s: ratio(1e3, mean(&per_key)),
        ops: k,
        keys: per_key.len(),
        min_repeats: if per_key.is_empty() { 0 } else { min_repeats },
    }
}

/// The least disturbed of an operation's repeated timings: their first
/// quartile.
pub fn least_disturbed(repeats: &[f64]) -> f64 {
    percentile(repeats, LEAST_DISTURBED)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
