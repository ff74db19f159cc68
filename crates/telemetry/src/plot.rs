//! Terminal plotting of performance metrics (paper Fig. 2 step 3).
//!
//! DBSherlock's GUI shows scatter plots of metrics over time, on which the
//! user selects abnormal regions. This module is the headless equivalent:
//! compact ASCII renderings of a metric with an optional region
//! highlighted, for examples, debugging, and operator-facing CLIs.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::region::Region;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct PlotOptions {
    /// Plot width in characters (time axis is resampled to fit).
    pub width: usize,
    /// Plot height in rows.
    pub height: usize,
    /// Character used to mark rows inside the highlighted region.
    pub highlight: char,
    /// Character used for ordinary samples.
    pub point: char,
}

impl Default for PlotOptions {
    fn default() -> Self {
        PlotOptions { width: 72, height: 12, highlight: '#', point: '·' }
    }
}

/// Render `attr` of `dataset` over time, highlighting `region` (if any).
///
/// Each output column aggregates `ceil(n / width)` consecutive samples by
/// their mean; a column is highlighted when any of its samples is in the
/// region. The y-axis is annotated with the data range.
#[allow(
    clippy::indexing_slicing,
    reason = "chunks stay inside 0..n, and row < height, col < columns.len() size the grid"
)]
pub fn render(
    dataset: &Dataset,
    attr: &str,
    region: Option<&Region>,
    options: &PlotOptions,
) -> Result<String> {
    let values = dataset.numeric_by_name(attr)?;
    let width = options.width.max(8);
    let height = options.height.max(3);
    if values.is_empty() {
        return Ok(format!("{attr}: <no data>\n"));
    }
    // Resample into columns.
    let n = values.len();
    let per_col = n.div_ceil(width);
    let mut columns: Vec<(f64, bool)> = Vec::new();
    for chunk_start in (0..n).step_by(per_col) {
        let chunk_end = (chunk_start + per_col).min(n);
        let slice = &values[chunk_start..chunk_end];
        let mean = slice.iter().sum::<f64>() / slice.len() as f64;
        let hot =
            region.map(|r| (chunk_start..chunk_end).any(|row| r.contains(row))).unwrap_or(false);
        columns.push((mean, hot));
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(v, _) in &columns {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if hi <= lo {
        hi = lo + 1.0;
    }

    let mut grid = vec![vec![' '; columns.len()]; height];
    for (col, &(v, hot)) in columns.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let level = ((v - lo) / (hi - lo) * (height - 1) as f64).round() as usize;
        let row = height - 1 - level.min(height - 1);
        grid[row][col] = if hot { options.highlight } else { options.point };
    }

    let mut out = String::new();
    out.push_str(&format!("{attr}  [{lo:.1} .. {hi:.1}]\n"));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:>9.1} ")
        } else if i == height - 1 {
            format!("{lo:>9.1} ")
        } else {
            " ".repeat(10)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('+');
    out.push_str(&"-".repeat(columns.len()));
    out.push('\n');
    out.push_str(&format!(
        "{:>10} 0 .. {} s{}\n",
        "",
        n - 1,
        region
            .map(|_r| format!("   ({} = selected region)", options.highlight))
            .unwrap_or_default()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttributeMeta, Schema};
    use crate::value::Value;

    fn dataset(values: &[f64]) -> Dataset {
        let schema = Schema::from_attrs([AttributeMeta::numeric("lat")]).unwrap();
        let mut d = Dataset::new(schema);
        for (i, &v) in values.iter().enumerate() {
            d.push_row(i as f64, &[Value::Num(v)]).unwrap();
        }
        d
    }

    #[test]
    fn renders_with_highlight() {
        let values: Vec<f64> =
            (0..100).map(|i| if (40..60).contains(&i) { 80.0 } else { 10.0 }).collect();
        let d = dataset(&values);
        let region = Region::from_range(40..60);
        let text = render(&d, "lat", Some(&region), &PlotOptions::default()).unwrap();
        assert!(text.contains("lat"));
        assert!(text.contains('#'), "highlighted points expected:\n{text}");
        assert!(text.contains('·'), "normal points expected:\n{text}");
        assert!(text.contains("10.0") && text.contains("80.0"));
    }

    #[test]
    fn plot_has_requested_height() {
        let d = dataset(&[1.0, 2.0, 3.0]);
        let opts = PlotOptions { height: 5, ..PlotOptions::default() };
        let text = render(&d, "lat", None, &opts).unwrap();
        // title + 5 rows + axis + footer
        assert_eq!(text.lines().count(), 1 + 5 + 1 + 1);
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let d = dataset(&[5.0; 50]);
        let text = render(&d, "lat", None, &PlotOptions::default()).unwrap();
        assert!(text.contains("lat"));
    }

    #[test]
    fn empty_dataset_is_graceful() {
        let d = dataset(&[]);
        let text = render(&d, "lat", None, &PlotOptions::default()).unwrap();
        assert!(text.contains("no data"));
    }

    #[test]
    fn unknown_attribute_errors() {
        let d = dataset(&[1.0]);
        assert!(render(&d, "nope", None, &PlotOptions::default()).is_err());
    }

    #[test]
    fn wide_input_resamples_to_width() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = dataset(&values);
        let opts = PlotOptions { width: 40, ..PlotOptions::default() };
        let text = render(&d, "lat", None, &opts).unwrap();
        let plot_line_len = text.lines().nth(1).unwrap().chars().count();
        // 10 label chars + '|' + at most 40 columns.
        assert!(plot_line_len <= 51, "{plot_line_len}");
    }
}
