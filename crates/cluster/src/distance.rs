//! Point representation and distance metrics for clustering.

/// A dense point in d-dimensional space. DBSherlock's anomaly detector
/// builds these from min–max-normalized attribute columns, so coordinates
/// are typically in `[0, 1]`.
pub type Point = Vec<f64>;

/// Euclidean distance between two points of equal dimension.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Transpose normalized columns into row points: `columns[c][r]` becomes
/// coordinate `c` of point `r`.
#[allow(
    clippy::indexing_slicing,
    reason = "every column has the first column's length n (debug-asserted above)"
)]
pub fn rows_from_columns(columns: &[&[f64]]) -> Vec<Point> {
    let Some(first) = columns.first() else {
        return Vec::new();
    };
    let n = first.len();
    debug_assert!(columns.iter().all(|c| c.len() == n));
    (0..n).map(|r| columns.iter().map(|c| c[r]).collect()).collect()
}

/// Every pairwise [`euclidean`] distance of a point set, computed once so
/// that the k-dist list and DBSCAN's ε-neighbourhoods both read them.
///
/// The off-diagonal distances are stored condensed, row by row: row `i`
/// holds the `n − 1 − i` distances from point `i` to the points after it,
/// `n(n − 1)/2` values in all. `euclidean` is symmetric bit for bit
/// whenever it returns a number (`x − y` and `y − x` differ only in sign,
/// and are squared), so reading `d(j, i)` for `j < i` gives what computing
/// `d(i, j)` would. Each point's distance to itself is kept beside them:
/// zero for a finite point, NaN for one with an infinite or NaN coordinate,
/// which is what a neighbourhood scan that includes the point sees.
#[derive(Debug, Clone, Default)]
pub struct PairwiseDistances {
    rows: Vec<Vec<f64>>,
    diagonal: Vec<f64>,
}

impl PairwiseDistances {
    /// All pairwise distances of `points`, filled row by row.
    pub fn new(points: &[Point]) -> Self {
        let rows = (0..points.len()).map(|i| Self::row(points, i)).collect();
        // Rows built by `row` always have their expected lengths.
        Self::from_rows(points, rows).unwrap_or_default()
    }

    /// Row `i` of the condensed matrix: the distances from point `i` to
    /// each later point, in index order. Rows are independent, so a
    /// caller may build them on several threads and hand them to
    /// [`from_rows`](Self::from_rows).
    pub fn row(points: &[Point], i: usize) -> Vec<f64> {
        let Some(p) = points.get(i) else { return Vec::new() };
        points.iter().skip(i + 1).map(|q| euclidean(p, q)).collect()
    }

    /// The matrix of `points` from its rows `0..n` as [`row`](Self::row)
    /// returns them. `None` if a row is missing or has the wrong length.
    pub fn from_rows(points: &[Point], rows: Vec<Vec<f64>>) -> Option<Self> {
        let n = points.len();
        let fits =
            rows.len() == n && rows.iter().enumerate().all(|(i, row)| row.len() == n - 1 - i);
        fits.then(|| PairwiseDistances {
            rows,
            diagonal: points.iter().map(|p| euclidean(p, p)).collect(),
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.diagonal.len()
    }

    /// Whether the matrix covers no points.
    pub fn is_empty(&self) -> bool {
        self.diagonal.is_empty()
    }

    /// The distances from point `i` to every point `j` in `0..n`, in
    /// index order, `j = i` included. Empty for an `i` out of range.
    pub fn distances_from(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        let earlier = if i < self.len() { i } else { 0 };
        let above = self.rows.iter().take(earlier).enumerate();
        let above = above.map(move |(j, row)| row.get(i - j - 1).copied().unwrap_or(f64::NAN));
        let own = self.diagonal.get(i).copied();
        let after = self.rows.get(i).into_iter().flatten().copied();
        above.chain(own).chain(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn transpose_columns() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let pts = rows_from_columns(&[&a, &b]);
        assert_eq!(pts, vec![vec![1.0, 10.0], vec![2.0, 20.0]]);
        assert!(rows_from_columns(&[]).is_empty());
    }
}
