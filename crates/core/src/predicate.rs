//! Explanation predicates (paper §3).
//!
//! DBSherlock explains an anomaly as a conjunction of *simple* predicates,
//! one per attribute: `Attr < x`, `Attr > x`, `x < Attr < y` for numeric
//! attributes and `Attr ∈ {c1, ..., cl}` for categorical ones. More complex
//! shapes (disjunction, negation) are deliberately excluded for human
//! readability (§2.3, footnote 4).
//!
//! Categorical predicates carry category *labels*, not dictionary ids, so a
//! predicate learned on one dataset can be evaluated against another whose
//! dictionary assigned different ids.

use std::fmt;

use dbsherlock_telemetry::{ColumnView, Dictionary};
use serde::{Deserialize, Serialize};

/// The comparison a predicate applies to its attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PredicateOp {
    /// `Attr < x`.
    Lt(f64),
    /// `Attr > x`.
    Gt(f64),
    /// `x < Attr < y`.
    Between(f64, f64),
    /// `Attr ∈ {labels}`.
    InSet(Vec<String>),
}

impl PredicateOp {
    /// Does a numeric value satisfy this op? Categorical ops return false.
    pub fn matches_num(&self, v: f64) -> bool {
        match *self {
            PredicateOp::Lt(x) => v < x,
            PredicateOp::Gt(x) => v > x,
            PredicateOp::Between(lo, hi) => lo < v && v < hi,
            PredicateOp::InSet(_) => false,
        }
    }

    /// Does a category label satisfy this op? Numeric ops return false.
    pub fn matches_label(&self, label: &str) -> bool {
        match self {
            PredicateOp::InSet(labels) => labels.iter().any(|l| l == label),
            _ => false,
        }
    }

    /// True for `Lt`/`Gt`/`Between`.
    pub fn is_numeric(&self) -> bool {
        !matches!(self, PredicateOp::InSet(_))
    }

    /// Per-dictionary-id satisfaction table: one label comparison per
    /// *distinct* category instead of one per row, so categorical masks
    /// and selectivities reduce to an id-indexed table lookup.
    pub fn category_table(&self, dict: &Dictionary) -> Vec<bool> {
        (0..dict.len() as u32)
            .map(|id| dict.label(id).map(|l| self.matches_label(l)).unwrap_or(false))
            .collect()
    }
}

/// One simple predicate over a named attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute name (names travel across datasets; ids may not).
    pub attr: String,
    /// The comparison.
    pub op: PredicateOp,
}

impl Predicate {
    /// `attr < x`.
    pub fn lt(attr: impl Into<String>, x: f64) -> Self {
        Predicate { attr: attr.into(), op: PredicateOp::Lt(x) }
    }

    /// `attr > x`.
    pub fn gt(attr: impl Into<String>, x: f64) -> Self {
        Predicate { attr: attr.into(), op: PredicateOp::Gt(x) }
    }

    /// `lo < attr < hi`.
    pub fn between(attr: impl Into<String>, lo: f64, hi: f64) -> Self {
        Predicate { attr: attr.into(), op: PredicateOp::Between(lo, hi) }
    }

    /// `attr ∈ {labels}`.
    pub fn in_set(attr: impl Into<String>, labels: impl IntoIterator<Item = String>) -> Self {
        Predicate { attr: attr.into(), op: PredicateOp::InSet(labels.into_iter().collect()) }
    }

    /// Columnar evaluation primitive: fill `mask[i] = row i satisfies
    /// self` over a whole column view. Attribute kind dispatch and
    /// dictionary lookups happen once per column; the loop per op is a
    /// branch-light scan of the attribute-contiguous slice. Kind
    /// mismatches fill `false`: a predicate about an attribute of the
    /// other kind cannot support an anomaly there.
    pub fn fill_mask(&self, view: ColumnView<'_>, mask: &mut Vec<bool>) {
        mask.clear();
        match view {
            ColumnView::Numeric(v) => {
                let values = v.as_slice();
                match self.op {
                    PredicateOp::Lt(x) => mask.extend(values.iter().map(|&v| v < x)),
                    PredicateOp::Gt(x) => mask.extend(values.iter().map(|&v| v > x)),
                    PredicateOp::Between(lo, hi) => {
                        mask.extend(values.iter().map(|&v| lo < v && v < hi))
                    }
                    PredicateOp::InSet(_) => mask.resize(values.len(), false),
                }
            }
            ColumnView::Categorical(c) => {
                if self.op.is_numeric() {
                    mask.resize(c.ids.len(), false);
                } else {
                    let table = self.op.category_table(c.dict);
                    mask.extend(
                        c.ids.iter().map(|&id| table.get(id as usize).copied().unwrap_or(false)),
                    );
                }
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            PredicateOp::Lt(x) => write!(f, "{} < {x:.4}", self.attr),
            PredicateOp::Gt(x) => write!(f, "{} > {x:.4}", self.attr),
            PredicateOp::Between(lo, hi) => write!(f, "{lo:.4} < {} < {hi:.4}", self.attr),
            PredicateOp::InSet(labels) => {
                write!(f, "{} ∈ {{{}}}", self.attr, labels.join(", "))
            }
        }
    }
}

/// Pretty-print a conjunction of predicates the way the paper does
/// (`p1 ∧ p2 ∧ ...`).
pub fn display_conjunction(predicates: &[Predicate]) -> String {
    predicates.iter().map(Predicate::to_string).collect::<Vec<_>>().join(" ∧ ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Dataset, Schema, Value};

    fn dataset() -> Dataset {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("cpu"),
            AttributeMeta::categorical("state"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        let steady = d.intern(1, "steady").unwrap();
        let rotating = d.intern(1, "rotating").unwrap();
        d.push_row(0.0, &[Value::Num(10.0), steady]).unwrap();
        d.push_row(1.0, &[Value::Num(50.0), rotating]).unwrap();
        d.push_row(2.0, &[Value::Num(90.0), steady]).unwrap();
        d
    }

    #[test]
    fn numeric_ops() {
        assert!(PredicateOp::Lt(5.0).matches_num(4.9));
        assert!(!PredicateOp::Lt(5.0).matches_num(5.0));
        assert!(PredicateOp::Gt(5.0).matches_num(5.1));
        assert!(!PredicateOp::Gt(5.0).matches_num(5.0));
        assert!(PredicateOp::Between(1.0, 2.0).matches_num(1.5));
        assert!(!PredicateOp::Between(1.0, 2.0).matches_num(1.0));
        assert!(!PredicateOp::Between(1.0, 2.0).matches_num(2.0));
        assert!(!PredicateOp::InSet(vec!["a".into()]).matches_num(1.0));
    }

    #[test]
    fn categorical_ops() {
        let op = PredicateOp::InSet(vec!["a".into(), "b".into()]);
        assert!(op.matches_label("a"));
        assert!(!op.matches_label("c"));
        assert!(!PredicateOp::Lt(1.0).matches_label("a"));
    }

    /// [`Predicate::fill_mask`] over column `attr_id` of `d`.
    fn mask(p: &Predicate, d: &Dataset, attr_id: usize) -> Vec<bool> {
        let mut mask = Vec::new();
        p.fill_mask(d.column(attr_id), &mut mask);
        mask
    }

    #[test]
    fn matches_rows_of_dataset() {
        let d = dataset();
        assert_eq!(mask(&Predicate::gt("cpu", 40.0), &d, 0), [false, true, true]);
        let q = Predicate::in_set("state", ["rotating".to_string()]);
        assert_eq!(mask(&q, &d, 1), [false, true, false]);
    }

    #[test]
    fn unknown_attribute_never_matches() {
        let d = dataset();
        let all = dbsherlock_telemetry::Region::from_range(0..3);
        let none = dbsherlock_telemetry::Region::new();
        let sp = |p: &Predicate| crate::separation::separation_power(p, &d, &all, &none);
        assert_eq!(sp(&Predicate::gt("cpu", 0.0)), 1.0);
        assert_eq!(sp(&Predicate::gt("nope", 0.0)), 0.0);
    }

    #[test]
    fn kind_mismatch_never_matches() {
        let d = dataset();
        // Numeric predicate over categorical attribute and vice versa.
        assert_eq!(mask(&Predicate::gt("state", 0.0), &d, 1), [false; 3]);
        assert_eq!(mask(&Predicate::in_set("cpu", ["steady".to_string()]), &d, 0), [false; 3]);
    }

    #[test]
    fn display_is_paper_style() {
        assert_eq!(Predicate::gt("cpu", 40.0).to_string(), "cpu > 40.0000");
        assert_eq!(Predicate::between("x", 1.0, 2.0).to_string(), "1.0000 < x < 2.0000");
        let c = Predicate::in_set("s", ["a".to_string(), "b".to_string()]);
        assert_eq!(c.to_string(), "s ∈ {a, b}");
        let conj = display_conjunction(&[Predicate::lt("a", 1.0), Predicate::gt("b", 2.0)]);
        assert_eq!(conj, "a < 1.0000 ∧ b > 2.0000");
    }
}
