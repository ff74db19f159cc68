//! Property-based tests for the telemetry substrate.

use dbsherlock_telemetry::{
    from_csv, from_csv_lossy, stats, to_csv, AttributeMeta, Dataset, IngestWarning, Region, Schema,
    TelemetryError, Value,
};
use proptest::prelude::*;

/// CSV-shaped fragments a tape byte picks from: the header keyword, kind
/// tags, separators, quotes, line breaks, number syntax (non-finite
/// spellings included), padding and multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "timestamp",
    ",",
    ",",
    "\n",
    "\n",
    "\r\n",
    "\"",
    "\"\"",
    ":num",
    ":cat",
    ":",
    "x:num",
    "y:cat",
    "0",
    "1",
    "7",
    "42",
    ".",
    "-",
    "e",
    "E+3",
    "NaN",
    "inf",
    "-inf",
    " ",
    "\t",
    "a",
    "b",
    "é",
    "測",
];

/// Text from a byte tape: a byte below 0xC0 appends a fragment, any other
/// byte is appended raw, so the tape also yields invalid UTF-8, which the
/// lossy conversion turns into U+FFFD as a file reader would.
fn text_from_tape(tape: &[u8]) -> String {
    let mut bytes = Vec::new();
    for &b in tape {
        match FRAGMENTS.get(usize::from(b) % 0xC0 % FRAGMENTS.len()) {
            Some(fragment) if b < 0xC0 => bytes.extend_from_slice(fragment.as_bytes()),
            _ => bytes.push(b),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A CSV document from a byte tape: the tape alone, a valid header then
/// the tape, a valid document built from the tape's bytes (which the
/// strict parser accepts), or that document with the tape text spliced in
/// at a tape-chosen line.
fn csv_from_tape(mode: u8, tape: &[u8]) -> String {
    const HEADER: &str = "timestamp,x:num,y:cat\n";
    let valid = || -> String {
        let labels = ["a", "b", "\"q,uoted\"", "é"];
        let rows: String = tape
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                format!("{i},{},{}\n", f64::from(b) / 4.0 - 20.0, labels[usize::from(b) % 4])
            })
            .collect();
        format!("{HEADER}{rows}")
    };
    match mode % 4 {
        0 => text_from_tape(tape),
        1 => format!("{HEADER}{}", text_from_tape(tape)),
        2 => valid(),
        _ => {
            let doc = valid();
            let cut = tape.first().map_or(0, |&b| usize::from(b) % (doc.lines().count() + 1));
            let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
            lines.insert(cut.min(lines.len()), text_from_tape(tape.get(1..).unwrap_or_default()));
            lines.join("\n")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lossy ingestion never panics on untrusted text, and it extends the
    /// strict parser: whatever `from_csv` accepts, `from_csv_lossy`
    /// accepts as the same dataset.
    #[test]
    fn lossy_csv_never_panics_and_extends_strict(
        mode in 0u8..4,
        tape in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        let text = csv_from_tape(mode, &tape);
        let lossy = from_csv_lossy(&text);
        if let Ok(strict) = from_csv(&text) {
            let (repaired, _warnings) = lossy.map_err(|e| {
                TestCaseError::Fail(format!("strict accepted, lossy rejected: {e}: {text:?}"))
            })?;
            prop_assert_eq!(to_csv(&repaired), to_csv(&strict), "{:?}", text);
        }
    }
}

proptest! {
    /// CSV round-trips any dataset the public API builds: finite
    /// timestamps, any numbers, any labels. A name or label with a line
    /// break never enters the data model (the format is line-oriented).
    /// The strict reader gives back the same `to_csv` text. So does the
    /// lossy reader, once it has filled each empty label with `<missing>`;
    /// its only warnings are one `NonFiniteCell` per NaN or ±∞ cell and
    /// one "empty cell" repair per empty label.
    #[test]
    fn csv_round_trip(
        rows in proptest::collection::vec((any::<f64>(), "[a-z,\"\n\r\\PC]{0,12}"), 0..40),
        name in "[a-z\n]{1,6}",
    ) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric(&name),
            AttributeMeta::categorical("label"),
        ]);
        if name.contains('\n') {
            prop_assert!(matches!(schema, Err(TelemetryError::LineBreak(_))));
            return Ok(());
        }
        let schema = schema.unwrap();
        let mut d = Dataset::new(schema.clone());
        let mut repaired = Dataset::new(schema);
        let (mut non_finite, mut empty) = (0, 0);
        for (i, (x, label)) in rows.iter().enumerate() {
            match d.intern(1, label) {
                Err(TelemetryError::LineBreak(_)) => prop_assert!(label.contains('\n')),
                other => {
                    d.push_row(i as f64, &[Value::Num(*x), other.unwrap()]).unwrap();
                    let filled = if label.is_empty() { "<missing>" } else { label.as_str() };
                    let v = repaired.intern(1, filled).unwrap();
                    repaired.push_row(i as f64, &[Value::Num(*x), v]).unwrap();
                    non_finite += usize::from(!x.is_finite());
                    empty += usize::from(label.is_empty());
                }
            }
        }
        let text = to_csv(&d);
        prop_assert_eq!(to_csv(&from_csv(&text).unwrap()), text.clone());
        let (lossy, warnings) = from_csv_lossy(&text).unwrap();
        prop_assert_eq!(to_csv(&lossy), to_csv(&repaired));
        let (mut warned_non_finite, mut warned_empty) = (0, 0);
        for w in &warnings {
            match w {
                IngestWarning::NonFiniteCell { .. } => warned_non_finite += 1,
                IngestWarning::RepairedCell { attribute, reason, .. }
                    if attribute == "label" && reason == "empty cell" => warned_empty += 1,
                other => prop_assert!(false, "unexpected warning {:?}", other),
            }
        }
        prop_assert_eq!((warned_non_finite, warned_empty), (non_finite, empty));
    }

    /// Region algebra: complement is an involution partitioning 0..n.
    #[test]
    fn region_complement_partitions(
        indices in proptest::collection::btree_set(0usize..300, 0..120),
        n in 300usize..400,
    ) {
        let region = Region::from_indices(indices.iter().copied());
        let complement = region.complement(n);
        prop_assert_eq!(region.len() + complement.len(), n);
        prop_assert!(region.intersect(&complement).is_empty());
        prop_assert_eq!(complement.complement(n), region.clone());
        prop_assert_eq!(region.union(&complement).len(), n);
        // IoU of disjoint non-empty regions is 0; of a region with itself is 1.
        if !region.is_empty() {
            prop_assert!((region.iou(&region) - 1.0).abs() < 1e-12);
            prop_assert_eq!(region.iou(&complement), 0.0);
        }
    }

    /// Intervals reconstruct the region exactly.
    #[test]
    fn intervals_reconstruct(indices in proptest::collection::btree_set(0usize..200, 0..80)) {
        let region = Region::from_indices(indices.iter().copied());
        let rebuilt = Region::from_ranges(region.intervals());
        prop_assert_eq!(rebuilt, region);
    }

    /// Median is order-insensitive and lies within [min, max].
    #[test]
    fn median_properties(mut values in proptest::collection::vec(-1e6_f64..1e6, 1..80)) {
        let m = stats::median(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
        values.reverse();
        prop_assert!((stats::median(&values) - m).abs() < 1e-9);
    }

    /// quantile_sorted agrees with quantile on sorted input.
    #[test]
    fn quantile_sorted_matches(
        mut values in proptest::collection::vec(-1e6_f64..1e6, 1..60),
        q in 0.0_f64..1.0,
    ) {
        let expected = stats::quantile(&values, q);
        values.sort_by(f64::total_cmp);
        let got = stats::quantile_sorted(&values, q);
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// Entropy is non-negative and maximal for uniform counts.
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(0usize..100, 1..30)) {
        let h = stats::entropy_of_counts(&counts);
        prop_assert!(h >= 0.0);
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        if nonzero > 0 {
            prop_assert!(h <= (nonzero as f64).ln() + 1e-9);
        }
    }

    /// The independence factor is in [0, 1] for any joint histogram.
    #[test]
    fn kappa_in_unit_interval(
        joint in proptest::collection::vec(
            proptest::collection::vec(0usize..50, 4),
            4,
        ),
    ) {
        let kappa = stats::independence_factor(&joint);
        prop_assert!((0.0..=1.0).contains(&kappa), "kappa {kappa}");
    }
}
