//! Re-implementation of **PerfAugur**'s anomaly-region detection (Roy,
//! König, Dvorkin, Kumar — ICDE 2015), the detection baseline of the
//! DBSherlock paper's Appendix E.
//!
//! PerfAugur finds the data region whose robust aggregate deviates most
//! from the rest. Appendix E supplies it "the overall average latency as
//! its performance indicator" and uses "their naive algorithm with the
//! original scoring function": exhaustively score every candidate window.
//! The scoring used here is the robust median-shift statistic — the
//! absolute difference between the window's median and the median of the
//! remaining data, scaled by `sqrt(len)` so longer windows with the same
//! shift score higher (a standard impact × surprise trade-off); the exact
//! constants of the original are not published in the DBSherlock paper.

use dbsherlock_telemetry::{stats, Dataset, Region};

/// Configuration for the naive window search.
#[derive(Debug, Clone)]
pub struct PerfAugurConfig {
    /// Performance indicator attribute.
    pub indicator: String,
    /// Smallest candidate window, in rows.
    pub min_window: usize,
    /// Largest candidate window as a fraction of the data (anomalies are
    /// assumed to be a minority; 0.45 keeps the search away from
    /// degenerate half-splits).
    pub max_window_fraction: f64,
}

impl Default for PerfAugurConfig {
    fn default() -> Self {
        PerfAugurConfig {
            indicator: "txn_avg_latency_ms".to_string(),
            min_window: 5,
            max_window_fraction: 0.45,
        }
    }
}

/// A scored candidate window.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredWindow {
    /// The window as a region.
    pub region: Region,
    /// Its score (higher = more anomalous).
    pub score: f64,
}

/// Score one window `[start, start+len)` of `values`: robust median shift
/// times `sqrt(len)`, discounted by the window's own robust (5–95%)
/// spread *relative to the shift*. The discount keeps a window from
/// "stretching" over normal data — a diluted window keeps its median but
/// its internal spread explodes relative to the shift — while windows
/// whose contents are volatile but hugely shifted stay competitive (the
/// original's surprise-vs-impact trade-off).
#[allow(
    clippy::indexing_slicing,
    reason = "callers score windows inside values (start + len <= values.len())"
)]
pub fn window_score(values: &[f64], start: usize, len: usize) -> f64 {
    let inside = &values[start..start + len];
    let outside: Vec<f64> =
        values[..start].iter().chain(values[start + len..].iter()).copied().collect();
    if outside.is_empty() {
        return 0.0;
    }
    let shift = (stats::median(inside) - stats::median(&outside)).abs();
    let spread = stats::quantile(inside, 0.95) - stats::quantile(inside, 0.05);
    shift * (len as f64).sqrt() / (1.0 + spread / shift.max(1.0))
}

/// Exhaustively score all windows and return the best (the "naive
/// algorithm"). Returns `None` for datasets too small to search.
///
/// For speed on ten-minute datasets, the reference aggregate is the
/// *global* median (anomaly windows are a small minority, so the global
/// and outside medians are nearly identical) and each start position
/// grows its window incrementally over a sorted buffer, giving
/// O(n · w_max²) element moves instead of a sort per window. The scoring
/// is identical to [`window_score`] up to that reference substitution.
pub fn detect(dataset: &Dataset, config: &PerfAugurConfig) -> Option<ScoredWindow> {
    let values = dataset.numeric_by_name(&config.indicator).ok()?;
    let n = values.len();
    let max_len = ((n as f64 * config.max_window_fraction) as usize).max(config.min_window);
    if n < config.min_window * 2 {
        return None;
    }
    let global_median = stats::median(values);
    let mut best: Option<(usize, usize, f64)> = None;
    let mut window = stats::SortedWindow::with_capacity(max_len);
    for start in 0..n.saturating_sub(config.min_window) {
        window.clear();
        let grown = values.iter().skip(start).take(max_len);
        for (len, &v) in (1usize..).zip(grown) {
            window.insert(v);
            if len < config.min_window {
                continue;
            }
            let sorted = window.as_slice();
            let shift = (stats::quantile_sorted(sorted, 0.5) - global_median).abs();
            let spread =
                stats::quantile_sorted(sorted, 0.95) - stats::quantile_sorted(sorted, 0.05);
            let score = shift * (len as f64).sqrt() / (1.0 + spread / shift.max(1.0));
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((start, len, score));
            }
        }
    }
    best.filter(|&(_, _, score)| score > 0.0).map(|(start, len, score)| ScoredWindow {
        region: Region::from_range(start..start + len),
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    fn latency_dataset(values: &[f64]) -> Dataset {
        let schema = Schema::from_attrs([AttributeMeta::numeric("txn_avg_latency_ms")]).unwrap();
        let mut d = Dataset::new(schema);
        for (i, &v) in values.iter().enumerate() {
            d.push_row(i as f64, &[Value::Num(v)]).unwrap();
        }
        d
    }

    #[test]
    fn finds_a_clean_latency_plateau() {
        let mut values = vec![10.0; 200];
        for v in &mut values[120..160] {
            *v = 80.0;
        }
        let d = latency_dataset(&values);
        let found = detect(&d, &PerfAugurConfig::default()).unwrap();
        let truth = Region::from_range(120..160);
        assert!(found.region.iou(&truth) > 0.9, "{:?}", found.region.intervals());
    }

    #[test]
    fn longer_windows_with_same_shift_score_higher() {
        let mut values = vec![10.0; 100];
        for v in &mut values[50..70] {
            *v = 80.0;
        }
        let short = window_score(&values, 50, 10);
        let long = window_score(&values, 50, 20);
        assert!(long > short);
    }

    #[test]
    fn noisy_plateau_still_found() {
        let mut values: Vec<f64> =
            (0..300).map(|i| 10.0 + ((i as f64) * 0.61).sin() * 2.0).collect();
        for (i, v) in values.iter_mut().enumerate().take(220).skip(180) {
            *v = 60.0 + ((i as f64) * 0.61).sin() * 5.0;
        }
        let d = latency_dataset(&values);
        let found = detect(&d, &PerfAugurConfig::default()).unwrap();
        assert!(found.region.iou(&Region::from_range(180..220)) > 0.8);
    }

    #[test]
    fn flat_series_finds_nothing() {
        let d = latency_dataset(&vec![5.0; 100]);
        assert!(detect(&d, &PerfAugurConfig::default()).is_none());
    }

    #[test]
    fn tiny_series_finds_nothing() {
        let d = latency_dataset(&[1.0, 2.0, 3.0]);
        assert!(detect(&d, &PerfAugurConfig::default()).is_none());
    }

    #[test]
    fn missing_indicator_finds_nothing() {
        let schema = Schema::from_attrs([AttributeMeta::numeric("other")]).unwrap();
        let d = Dataset::new(schema);
        assert!(detect(&d, &PerfAugurConfig::default()).is_none());
    }
}
