//! Metamorphic relations for Algorithm 1 and Eq. 3: transformations of a
//! trace whose effect on the explanation is known without an oracle.
//!
//! - Permuting tuples within each region changes no predicate, separation
//!   power or confidence. Only the normalized mean difference may move, in
//!   its last bits, because its sums run in a different order.
//! - Reordering attributes permutes the predicates and changes no bit of
//!   any predicate or of the ranking.
//! - Scaling one attribute, and the models' thresholds on it, by `2^k`
//!   scales its thresholds by exactly `2^k` (equi-width partitions over
//!   `[min, max]` commute with the scaling, and a power of two rounds
//!   exactly) and changes nothing else.
//!
//! Every engine runs without domain knowledge, and thresholds compare with
//! `==`, so the sign of a zero bound does not count.

use dbsherlock::prelude::*;
use proptest::prelude::*;

const ROWS: usize = 120;
/// Index of the categorical attribute in [`Trace::columns`].
const STATE: usize = 5;

/// A generated trace, column by column: `shifty` jumps and `dip` drops
/// inside the abnormal window, `drifty` trends, `noisy` is noise salted
/// with NaN, `steady` barely moves, and the categorical `state` leans
/// "bad" (1.0) over "ok" (0.0) inside the window.
struct Trace {
    columns: Vec<(&'static str, Vec<f64>)>,
    abnormal: Region,
}

fn trace(seedish: u64, shift_at: usize, jump: f64) -> Trace {
    let window = shift_at..shift_at + 25;
    let wiggle = |i: usize, salt: u64| -> f64 {
        let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seedish.wrapping_mul(salt));
        (x % 1009) as f64 / 1009.0
    };
    let column = |f: &dyn Fn(usize, bool) -> f64| -> Vec<f64> {
        (0..ROWS).map(|i| f(i, window.contains(&i))).collect()
    };
    let columns = vec![
        ("shifty", column(&|i, ab| if ab { 10.0 * jump } else { 10.0 } + wiggle(i, 3))),
        ("dip", column(&|i, ab| if ab { 40.0 / jump } else { 40.0 } + wiggle(i, 5) * 2.0)),
        ("drifty", column(&|i, _| 5.0 + i as f64 * 0.25 + wiggle(i, 7))),
        ("noisy", column(&|i, _| if i % 11 == 3 { f64::NAN } else { 70.0 + wiggle(i, 11) * 9.0 })),
        ("steady", column(&|i, _| 42.0 + wiggle(i, 13) * 0.01)),
        ("state", column(&|i, ab| f64::from(u8::from(ab && i % 5 != 0)))),
    ];
    Trace { columns, abnormal: Region::from_range(window) }
}

/// The trace as a dataset: attributes in `order`, row `i` taken from trace
/// row `rows[i]`, and attribute `scaled.0` multiplied by `scaled.1`. The
/// categories are interned before any row, so their ids do not depend on
/// row order.
fn dataset(t: &Trace, order: &[usize], rows: &[usize], scaled: (usize, f64)) -> Dataset {
    let schema = Schema::from_attrs(order.iter().map(|&a| match a {
        STATE => AttributeMeta::categorical(t.columns[a].0),
        _ => AttributeMeta::numeric(t.columns[a].0),
    }))
    .unwrap();
    let mut d = Dataset::new(schema);
    let state = order.iter().position(|&a| a == STATE).unwrap();
    let (ok, bad) = (d.intern(state, "ok").unwrap(), d.intern(state, "bad").unwrap());
    for (i, &row) in rows.iter().enumerate() {
        let values: Vec<Value> = order
            .iter()
            .map(|&a| {
                let v = t.columns[a].1[row];
                match a {
                    STATE if v > 0.5 => bad,
                    STATE => ok,
                    _ if a == scaled.0 => Value::Num(v * scaled.1),
                    _ => Value::Num(v),
                }
            })
            .collect();
        d.push_row(i as f64, &values).unwrap();
    }
    d
}

const UNSCALED: (usize, f64) = (usize::MAX, 1.0);

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// A seeded Fisher–Yates shuffle.
fn shuffle(items: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

/// An engine without domain knowledge, holding the model learned from the
/// trace's own explanation and hand-made models over four attributes.
fn engine(t: &Trace) -> Sherlock {
    let d = dataset(t, &identity(t.columns.len()), &identity(ROWS), UNSCALED);
    let params = SherlockParams::default();
    let mut sherlock = Sherlock::new(params).with_domain_knowledge(DomainKnowledge::none());
    let learned = sherlock.explain(&d, &t.abnormal, None);
    sherlock.feedback("learned", &learned.predicates);
    let model = |cause: &str, predicates: Vec<Predicate>| CausalModel {
        cause: cause.into(),
        predicates,
        merged_from: 1,
    };
    for m in [
        model("hot", vec![Predicate::gt("shifty", 15.0), Predicate::lt("dip", 30.0)]),
        model("band", vec![Predicate::between("drifty", 10.0, 20.0)]),
        model("noise", vec![Predicate::gt("noisy", 74.0), Predicate::lt("steady", 42.005)]),
        model("state", vec![Predicate::in_set("state", ["bad".to_string()])]),
    ] {
        sherlock.repository_mut().add(m);
    }
    sherlock
}

/// `op`'s thresholds, each multiplied by `factor`.
fn scale_op(op: &PredicateOp, factor: f64) -> PredicateOp {
    match *op {
        PredicateOp::Lt(x) => PredicateOp::Lt(x * factor),
        PredicateOp::Gt(x) => PredicateOp::Gt(x * factor),
        PredicateOp::Between(lo, hi) => PredicateOp::Between(lo * factor, hi * factor),
        PredicateOp::InSet(ref labels) => PredicateOp::InSet(labels.clone()),
    }
}

/// Confidences, cause by cause, to the bit.
fn ranking(e: &Explanation) -> Vec<(String, u64)> {
    e.all_causes.iter().map(|c| (c.cause.clone(), c.confidence.to_bits())).collect()
}

proptest! {
    /// Permuting the tuples within each region leaves every predicate,
    /// separation power and confidence bit for bit, and each normalized
    /// mean difference within 1e-12 relative.
    #[test]
    fn permuting_tuples_within_regions_changes_no_predicate(
        seedish in 0u64..10_000,
        shift_at in 5usize..90,
        jump in 2.0_f64..8.0,
        seed in 0u64..u64::MAX,
    ) {
        let t = trace(seedish, shift_at, jump);
        let sherlock = engine(&t);
        let order = identity(t.columns.len());
        let mut abnormal = t.abnormal.indices().to_vec();
        let mut normal = t.abnormal.complement(ROWS).indices().to_vec();
        shuffle(&mut abnormal, seed);
        shuffle(&mut normal, seed.rotate_left(17));
        let (mut next_abnormal, mut next_normal) = (abnormal.into_iter(), normal.into_iter());
        let rows: Vec<usize> = (0..ROWS)
            .map(|i| {
                let source =
                    if t.abnormal.contains(i) { &mut next_abnormal } else { &mut next_normal };
                source.next().unwrap()
            })
            .collect();
        let explain = |rows: &[usize]| {
            sherlock.try_explain(&dataset(&t, &order, rows, UNSCALED), &t.abnormal, None).unwrap()
        };
        let (base, permuted) = (explain(&identity(ROWS)), explain(&rows));
        prop_assert!(!base.predicates.is_empty());
        prop_assert_eq!(base.predicates.len(), permuted.predicates.len());
        for (a, b) in base.predicates.iter().zip(&permuted.predicates) {
            prop_assert_eq!(&a.predicate, &b.predicate);
            prop_assert_eq!(a.separation_power.to_bits(), b.separation_power.to_bits());
            let drift = (a.normalized_diff - b.normalized_diff).abs();
            prop_assert!(
                drift <= 1e-12 * a.normalized_diff.abs(),
                "{}: {} vs {}",
                a.predicate,
                a.normalized_diff,
                b.normalized_diff
            );
        }
        prop_assert_eq!(ranking(&base), ranking(&permuted));
    }

    /// Reordering the attributes permutes the predicates into the new
    /// schema order and changes no bit of any predicate or of the ranking.
    #[test]
    fn reordering_attributes_permutes_the_predicates(
        seedish in 0u64..10_000,
        shift_at in 5usize..90,
        jump in 2.0_f64..8.0,
        seed in 0u64..u64::MAX,
    ) {
        let t = trace(seedish, shift_at, jump);
        let sherlock = engine(&t);
        let mut order = identity(t.columns.len());
        shuffle(&mut order, seed);
        let explain = |order: &[usize]| {
            let d = dataset(&t, order, &identity(ROWS), UNSCALED);
            sherlock.try_explain(&d, &t.abnormal, None).unwrap()
        };
        let (base, reordered) = (explain(&identity(t.columns.len())), explain(&order));
        let position = |name: &str| order.iter().position(|&a| t.columns[a].0 == name).unwrap();
        let mut expected = base.predicates.clone();
        expected.sort_by_key(|g| position(&g.predicate.attr));
        prop_assert!(!expected.is_empty());
        prop_assert_eq!(expected.len(), reordered.predicates.len());
        for (a, b) in expected.iter().zip(&reordered.predicates) {
            prop_assert_eq!(&a.predicate, &b.predicate);
            prop_assert_eq!(a.separation_power.to_bits(), b.separation_power.to_bits());
            prop_assert_eq!(a.normalized_diff.to_bits(), b.normalized_diff.to_bits());
        }
        prop_assert_eq!(ranking(&base), ranking(&reordered));
    }

    /// Scaling one numeric attribute, and every model threshold on it, by
    /// `2^k` scales its generated thresholds by exactly `2^k` and leaves
    /// labels, separation powers, normalized differences and confidences
    /// bit for bit.
    #[test]
    fn scaling_an_attribute_by_a_power_of_two_scales_its_thresholds(
        seedish in 0u64..10_000,
        shift_at in 5usize..90,
        jump in 2.0_f64..8.0,
        attr in 0usize..STATE,
        k in -8i32..=8,
    ) {
        let t = trace(seedish, shift_at, jump);
        let order = identity(t.columns.len());
        let (name, factor) = (t.columns[attr].0, 2f64.powi(k));
        let sherlock = engine(&t);
        let mut scaled_engine = Sherlock::new(sherlock.params().clone())
            .with_domain_knowledge(DomainKnowledge::none());
        for m in sherlock.repository().models() {
            let predicates = m
                .predicates
                .iter()
                .map(|p| {
                    let op = if p.attr == name { scale_op(&p.op, factor) } else { p.op.clone() };
                    Predicate { attr: p.attr.clone(), op }
                })
                .collect();
            scaled_engine.repository_mut().add(CausalModel { predicates, ..m.clone() });
        }
        let plain = dataset(&t, &order, &identity(ROWS), UNSCALED);
        let scaled = dataset(&t, &order, &identity(ROWS), (attr, factor));
        let base = sherlock.try_explain(&plain, &t.abnormal, None).unwrap();
        let moved = scaled_engine.try_explain(&scaled, &t.abnormal, None).unwrap();
        prop_assert!(!base.predicates.is_empty());
        prop_assert_eq!(base.predicates.len(), moved.predicates.len());
        for (a, b) in base.predicates.iter().zip(&moved.predicates) {
            let op = &a.predicate.op;
            let expected = if a.predicate.attr == name { scale_op(op, factor) } else { op.clone() };
            prop_assert_eq!(&a.predicate.attr, &b.predicate.attr);
            prop_assert_eq!(&expected, &b.predicate.op);
            prop_assert_eq!(a.separation_power.to_bits(), b.separation_power.to_bits());
            prop_assert_eq!(a.normalized_diff.to_bits(), b.normalized_diff.to_bits());
        }
        prop_assert_eq!(ranking(&base), ranking(&moved));
        // Labels too, attribute by attribute: the spaces Eq. 3 scores on.
        let normal = t.abnormal.complement(ROWS);
        let (plain_snapshot, scaled_snapshot) = (plain.snapshot(), scaled.snapshot());
        for id in 0..order.len() {
            let label = |s: &ColumnarSnapshot<'_>| {
                dbsherlock::core::label::labelled_space(s, id, &t.abnormal, &normal, 250)
                    .map(|l| l.labels)
            };
            prop_assert_eq!(label(&plain_snapshot), label(&scaled_snapshot));
        }
    }
}
