//! dbseer-style CSV round-trip for [`Dataset`]s.
//!
//! The on-disk layout mirrors what DBSeer hands to DBSherlock (paper §2.1):
//! one row per one-second interval, a leading `timestamp` column, then one
//! column per attribute. Headers carry the attribute kind as a suffix so a
//! file round-trips without a sidecar schema:
//!
//! ```text
//! timestamp,os_cpu_usage:num,active_external_job:cat
//! 0,12.5,idle
//! 1,13.1,backup
//! ```
//!
//! Fields containing commas, quotes, or newlines are quoted RFC-4180 style.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::attribute::{AttributeKind, AttributeMeta, Schema};
use crate::dataset::Dataset;
use crate::error::{IngestWarning, Result, TelemetryError};
use crate::value::Value;
use crate::view::ColumnView;

/// Serialize a dataset to CSV text.
pub fn to_csv(dataset: &Dataset) -> String {
    let mut out = String::new();
    out.push_str("timestamp");
    for (_, attr) in dataset.schema().iter() {
        out.push(',');
        write_field(&mut out, &format!("{}:{}", attr.name, attr.kind.tag()));
    }
    out.push('\n');
    let columns: Vec<ColumnView<'_>> =
        (0..dataset.schema().len()).map(|attr_id| dataset.column(attr_id)).collect();
    for (row, &timestamp) in dataset.timestamps().iter().enumerate() {
        let _ = write!(out, "{}", fmt_num(timestamp));
        for column in &columns {
            out.push(',');
            match column {
                ColumnView::Numeric(v) => {
                    if let Some(&x) = v.as_slice().get(row) {
                        let _ = write!(out, "{}", fmt_num(x));
                    }
                }
                ColumnView::Categorical(c) => {
                    let label = c.ids.get(row).and_then(|&id| c.dict.label(id));
                    write_field(&mut out, label.unwrap_or("<unknown>"));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text produced by [`to_csv`] back into a dataset.
pub fn from_csv(text: &str) -> Result<Dataset> {
    let mut lines = text.lines().enumerate();
    let (_, header) =
        lines.next().ok_or(TelemetryError::Parse { line: 1, message: "empty input".into() })?;
    let fields = split_line(header, 1)?;
    if fields.first().map(Cow::as_ref) != Some("timestamp") {
        return Err(TelemetryError::Parse {
            line: 1,
            message: "first column must be `timestamp`".into(),
        });
    }
    let mut schema = Schema::new();
    for field in fields.iter().skip(1) {
        let (name, tag) = field.rsplit_once(':').ok_or_else(|| TelemetryError::Parse {
            line: 1,
            message: format!("header field {field:?} missing `:num`/`:cat` tag"),
        })?;
        let kind = AttributeKind::from_tag(tag).ok_or_else(|| TelemetryError::Parse {
            line: 1,
            message: format!("unknown kind tag {tag:?}"),
        })?;
        schema.push(AttributeMeta { name: name.to_string(), kind })?;
    }
    let mut dataset = Dataset::new(schema);
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(line, line_no)?;
        if fields.len() != dataset.schema().len() + 1 {
            return Err(TelemetryError::ArityMismatch {
                expected: dataset.schema().len() + 1,
                found: fields.len(),
            });
        }
        let timestamp = parse_num(fields.first().map_or("", Cow::as_ref), line_no)?;
        let mut values = Vec::with_capacity(dataset.schema().len());
        for (attr_id, field) in fields.iter().skip(1).enumerate() {
            let value = match dataset.schema().attr(attr_id).kind {
                AttributeKind::Numeric => Value::Num(parse_num(field, line_no)?),
                AttributeKind::Categorical => dataset.intern(attr_id, field)?,
            };
            values.push(value);
        }
        dataset.push_row(timestamp, &values)?;
    }
    Ok(dataset)
}

/// Parse CSV text into a dataset, surviving degraded input.
///
/// Where [`from_csv`] aborts with a hard [`TelemetryError::Parse`] on the
/// first malformed byte, this lossy reader applies a per-row skip/repair
/// policy and reports everything it did as [`IngestWarning`]s:
///
/// * rows with too few/too many fields are padded (numeric cells with NaN,
///   categorical cells with `"<missing>"`) or truncated;
/// * unparseable numeric cells are repaired to NaN;
/// * rows whose timestamp cannot be parsed, and fragments from a file
///   truncated mid-row (unterminated quote on the final line), are skipped;
/// * header fields missing a `:num`/`:cat` kind tag are assumed numeric, and
///   duplicated attribute names are de-duplicated with a suffix — both
///   reported as [`IngestWarning::HeaderDrift`];
/// * non-finite numeric cells (`NaN`, `inf`) are kept but reported;
/// * non-monotonic timestamps are kept (see
///   [`repair_alignment`](crate::repair_alignment)) but reported.
///
/// Only a header too damaged to yield any schema (missing `timestamp`
/// column, empty input) is a hard error. The returned dataset never has more
/// rows than the input had data lines.
pub fn from_csv_lossy(text: &str) -> Result<(Dataset, Vec<IngestWarning>)> {
    let mut warnings = Vec::new();
    let mut lines = text.lines().enumerate();
    let (_, header) =
        lines.next().ok_or(TelemetryError::Parse { line: 1, message: "empty input".into() })?;
    let schema = parse_header_lossy(header, &mut warnings)?;
    let mut dataset = Dataset::new(schema);
    let mut last_timestamp = f64::NEG_INFINITY;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let Some((timestamp, cells)) =
            parse_line_lossy(dataset.schema(), line, line_no, &mut warnings)
        else {
            continue;
        };
        if timestamp <= last_timestamp {
            warnings.push(IngestWarning::NonMonotonicTimestamp { line: line_no, timestamp });
        }
        last_timestamp = last_timestamp.max(timestamp);
        if let Err(e) = push_raw_row(&mut dataset, timestamp, &cells) {
            warnings.push(IngestWarning::SkippedRow { line: line_no, reason: e.to_string() });
        }
    }
    Ok((dataset, warnings))
}

/// A parsed-but-not-yet-interned cell from [`parse_line_lossy`].
///
/// Categorical labels stay as owned strings so a row can be parsed without
/// mutable access to any [`Dataset`] — the streaming daemon buffers rows in
/// per-tenant rings long before a dataset exists to intern into.
#[derive(Debug, Clone, PartialEq)]
pub enum RawCell {
    /// A numeric cell (possibly NaN after a repair).
    Num(f64),
    /// A categorical label, not yet interned.
    Label(String),
}

/// Parse a CSV header line into a [`Schema`] with the lossy repair policy
/// (missing/unknown kind tags assumed numeric, duplicate names renamed —
/// both reported as [`IngestWarning::HeaderDrift`]). Only a header too
/// damaged to yield any schema is a hard error.
pub fn parse_header_lossy(header: &str, warnings: &mut Vec<IngestWarning>) -> Result<Schema> {
    let header_fields = match split_line(header, 1) {
        Ok(fields) => fields,
        Err(_) => {
            return Err(TelemetryError::Parse {
                line: 1,
                message: "header is unreadable (unterminated quote)".into(),
            })
        }
    };
    if header_fields.first().map(Cow::as_ref) != Some("timestamp") {
        return Err(TelemetryError::Parse {
            line: 1,
            message: "first column must be `timestamp`".into(),
        });
    }
    let mut schema = Schema::new();
    for field in header_fields.iter().skip(1) {
        let (name, kind) = match field.rsplit_once(':') {
            Some((name, tag)) => match AttributeKind::from_tag(tag) {
                Some(kind) => (name.to_string(), kind),
                None => {
                    warnings.push(IngestWarning::HeaderDrift {
                        detail: format!("unknown kind tag in {field:?}; assuming numeric"),
                    });
                    (field.to_string(), AttributeKind::Numeric)
                }
            },
            None => {
                warnings.push(IngestWarning::HeaderDrift {
                    detail: format!(
                        "header field {field:?} missing `:num`/`:cat` tag; assuming numeric"
                    ),
                });
                (field.to_string(), AttributeKind::Numeric)
            }
        };
        let mut attempt = name.clone();
        let mut suffix = 1usize;
        // Retry only a duplicate name; any other rejection is final.
        while let Err(err) = schema.push(AttributeMeta { name: attempt.clone(), kind }) {
            if !matches!(err, TelemetryError::DuplicateAttribute(_)) {
                return Err(err);
            }
            suffix += 1;
            attempt = format!("{name}_dup{suffix}");
            if suffix == 2 {
                warnings.push(IngestWarning::HeaderDrift {
                    detail: format!("duplicate attribute {name:?}; renamed to {attempt:?}"),
                });
            }
        }
    }
    Ok(schema)
}

/// Parse one data line against `schema` with the lossy repair policy:
/// arity padded/truncated, bad numeric cells repaired to NaN, empty
/// categorical cells filled with `"<missing>"` — every repair reported.
/// Returns `None` (with a warning) for lines that cannot yield a row: a
/// fragment cut mid-quote or an unusable timestamp.
///
/// Cross-line policies stay with the caller: monotonic-timestamp tracking
/// and the dictionary-capacity intern check happen where the line stream's
/// state lives (see [`from_csv_lossy`] and [`push_raw_row`]).
pub fn parse_line_lossy(
    schema: &Schema,
    line: &str,
    line_no: usize,
    warnings: &mut Vec<IngestWarning>,
) -> Option<(f64, Vec<RawCell>)> {
    parse_fields_lossy(schema, split_line(line, line_no), line_no, warnings)
}

/// [`parse_line_lossy`] after the split: the lossy policy applied to one
/// line's fields, or to the error of a line that did not split.
fn parse_fields_lossy(
    schema: &Schema,
    split: Result<Vec<Cow<'_, str>>>,
    line_no: usize,
    warnings: &mut Vec<IngestWarning>,
) -> Option<(f64, Vec<RawCell>)> {
    let mut fields = match split {
        Ok(fields) => fields,
        Err(_) => {
            // An unterminated quote usually means the stream was cut
            // mid-row; drop the fragment.
            warnings.push(IngestWarning::TruncatedInput { line: line_no });
            return None;
        }
    };
    let n_attrs = schema.len();
    let expected = n_attrs + 1;
    if fields.len() != expected {
        warnings.push(IngestWarning::ArityRepair { line: line_no, expected, found: fields.len() });
        if fields.len() < expected {
            fields.resize(expected, Cow::Borrowed(""));
        } else {
            fields.truncate(expected);
        }
    }
    let ts_text = fields.first().map_or("", Cow::as_ref);
    let timestamp = match parse_num(ts_text, line_no) {
        Ok(t) if t.is_finite() => t,
        _ => {
            warnings.push(IngestWarning::SkippedRow {
                line: line_no,
                reason: format!("unusable timestamp {ts_text:?}"),
            });
            return None;
        }
    };
    let mut cells = Vec::with_capacity(n_attrs);
    for (attr_id, field) in fields.into_iter().skip(1).enumerate() {
        // Arity repair capped the loop at n_attrs, so the id is in range.
        let Some(meta) = schema.get(attr_id) else { break };
        let attr_name = || meta.name.clone();
        let cell = match meta.kind {
            AttributeKind::Numeric => match parse_num(&field, line_no) {
                Ok(v) => {
                    if !v.is_finite() {
                        warnings.push(IngestWarning::NonFiniteCell {
                            line: line_no,
                            attribute: attr_name(),
                        });
                    }
                    RawCell::Num(v)
                }
                Err(_) => {
                    warnings.push(IngestWarning::RepairedCell {
                        line: line_no,
                        attribute: attr_name(),
                        reason: if field.trim().is_empty() {
                            "empty cell".to_string()
                        } else {
                            format!("invalid number {field:?}")
                        },
                    });
                    RawCell::Num(f64::NAN)
                }
            },
            AttributeKind::Categorical => {
                if field.is_empty() {
                    warnings.push(IngestWarning::RepairedCell {
                        line: line_no,
                        attribute: attr_name(),
                        reason: "empty cell".to_string(),
                    });
                    RawCell::Label("<missing>".to_string())
                } else {
                    RawCell::Label(field.into_owned())
                }
            }
        };
        cells.push(cell);
    }
    Some((timestamp, cells))
}

/// Append a [`parse_line_lossy`] row to `dataset`, interning categorical
/// labels. The cells must match the dataset's schema arity and kinds.
pub fn push_raw_row(dataset: &mut Dataset, timestamp: f64, cells: &[RawCell]) -> Result<()> {
    let mut values = Vec::with_capacity(cells.len());
    for (attr_id, cell) in cells.iter().enumerate() {
        let value = match cell {
            RawCell::Num(v) => Value::Num(*v),
            RawCell::Label(label) => dataset.intern(attr_id, label)?,
        };
        values.push(value);
    }
    dataset.push_row(timestamp, &values)
}

/// Format a float compactly: integers lose the trailing `.0`.
fn fmt_num(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn parse_num(field: &str, line: usize) -> Result<f64> {
    field
        .trim()
        .parse::<f64>()
        .map_err(|_| TelemetryError::Parse { line, message: format!("invalid number {field:?}") })
}

fn write_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Split one CSV line into unescaped fields. A field is quoted when its
/// first character is `"`: up to the closing quote, `""` stands for one
/// `"` and commas are data; whatever follows the closing quote up to the
/// next comma is taken as it stands. Anywhere else a `"` is data. Fields
/// borrow from `line`; only quoted fields are copied, to unescape them.
fn split_line(line: &str, line_no: usize) -> Result<Vec<Cow<'_, str>>> {
    let mut fields = Vec::new();
    let mut rest = line;
    loop {
        let (field, tail) = match rest.strip_prefix('"') {
            Some(quoted) => {
                let (unquoted, after) = unquote(quoted).ok_or_else(|| TelemetryError::Parse {
                    line: line_no,
                    message: "unterminated quoted field".into(),
                })?;
                let (literal, tail) = split_at_comma(after);
                (Cow::Owned(unquoted + literal), tail)
            }
            None => {
                let (field, tail) = split_at_comma(rest);
                (Cow::Borrowed(field), tail)
            }
        };
        fields.push(field);
        match tail {
            Some(tail) => rest = tail,
            None => return Ok(fields),
        }
    }
}

/// The text before the first comma of `s`, and the text after it if there
/// is one.
fn split_at_comma(s: &str) -> (&str, Option<&str>) {
    match s.split_once(',') {
        Some((field, tail)) => (field, Some(tail)),
        None => (s, None),
    }
}

/// Unescape a quoted field's body (the text after its opening quote) up to
/// its closing quote; returns it with the text after that quote, or `None`
/// when the quote is never closed.
fn unquote(body: &str) -> Option<(String, &str)> {
    let mut unquoted = String::with_capacity(body.len());
    let mut rest = body;
    loop {
        let (text, after) = rest.split_once('"')?;
        unquoted.push_str(text);
        match after.strip_prefix('"') {
            Some(escaped) => {
                unquoted.push('"');
                rest = escaped;
            }
            None => return Some((unquoted, after)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeMeta;

    fn sample() -> Dataset {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("cpu"), AttributeMeta::categorical("job")])
                .unwrap();
        let mut d = Dataset::new(schema);
        let idle = d.intern(1, "idle").unwrap();
        let weird = d.intern(1, "a,\"b\"").unwrap();
        d.push_row(0.0, &[Value::Num(12.5), idle]).unwrap();
        d.push_row(1.0, &[Value::Num(-3.0), weird]).unwrap();
        d
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample();
        let text = to_csv(&d);
        let back = from_csv(&text).unwrap();
        assert!(back.schema().same_layout(d.schema()));
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.numeric(0).unwrap(), d.numeric(0).unwrap());
        assert_eq!(back.timestamps(), d.timestamps());
        let (ids, dict) = back.categorical(1).unwrap();
        assert_eq!(dict.label(ids[1]).unwrap(), "a,\"b\"");
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        let text = to_csv(&sample());
        let first_data_line = text.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with("0,12.5,"));
    }

    #[test]
    fn rejects_missing_timestamp_header() {
        assert!(from_csv("cpu:num\n1.0\n").is_err());
    }

    #[test]
    fn rejects_bad_kind_tag() {
        assert!(from_csv("timestamp,cpu:wat\n0,1\n").is_err());
    }

    #[test]
    fn rejects_bad_number() {
        let err = from_csv("timestamp,cpu:num\n0,hello\n").unwrap_err();
        assert!(err.to_string().contains("hello"));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(matches!(
            from_csv("timestamp,cpu:num\n0,1,2\n"),
            Err(TelemetryError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn skips_blank_lines() {
        let d = from_csv("timestamp,cpu:num\n0,1\n\n1,2\n").unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(from_csv("timestamp,job:cat\n0,\"oops\n").is_err());
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let d = sample();
        let text = to_csv(&d);
        let (back, warnings) = from_csv_lossy(&text).unwrap();
        assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
        assert!(back.schema().same_layout(d.schema()));
        assert_eq!(back.numeric(0).unwrap(), d.numeric(0).unwrap());
        assert_eq!(back.timestamps(), d.timestamps());
    }

    #[test]
    fn lossy_repairs_bad_numbers_to_nan() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu:num\n0,hello\n1,2\n").unwrap();
        assert_eq!(d.n_rows(), 2);
        assert!(d.numeric(0).unwrap()[0].is_nan());
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::RepairedCell { line: 2, .. })));
    }

    #[test]
    fn lossy_pads_and_truncates_arity() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu:num,io:num\n0,1\n1,2,3,4\n").unwrap();
        assert_eq!(d.n_rows(), 2);
        // Short row padded: missing io cell becomes NaN.
        assert!(d.numeric(1).unwrap()[0].is_nan());
        // Long row truncated.
        assert_eq!(d.numeric(0).unwrap()[1], 2.0);
        assert_eq!(
            warnings.iter().filter(|w| matches!(w, IngestWarning::ArityRepair { .. })).count(),
            2
        );
    }

    #[test]
    fn lossy_skips_rows_with_bad_timestamps() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu:num\nxyz,1\n1,2\n").unwrap();
        assert_eq!(d.n_rows(), 1);
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::SkippedRow { line: 2, .. })));
    }

    #[test]
    fn lossy_tolerates_untagged_header_fields() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu\n0,1\n").unwrap();
        assert_eq!(d.n_rows(), 1);
        assert_eq!(d.numeric(0).unwrap(), &[1.0]);
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::HeaderDrift { .. })));
    }

    #[test]
    fn lossy_survives_truncated_tail() {
        let (d, warnings) = from_csv_lossy("timestamp,job:cat\n0,a\n1,\"oo").unwrap();
        assert_eq!(d.n_rows(), 1);
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::TruncatedInput { line: 3 })));
    }

    #[test]
    fn lossy_flags_non_monotonic_timestamps_but_keeps_rows() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu:num\n5,1\n2,2\n").unwrap();
        assert_eq!(d.n_rows(), 2);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, IngestWarning::NonMonotonicTimestamp { line: 3, .. })));
    }

    #[test]
    fn lossy_interns_missing_categorical_cells() {
        let (d, warnings) = from_csv_lossy("timestamp,job:cat\n0,\n1,work\n").unwrap();
        let (ids, dict) = d.categorical(0).unwrap();
        assert_eq!(dict.label(ids[0]).unwrap(), "<missing>");
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::RepairedCell { .. })));
    }

    #[test]
    fn lossy_still_rejects_hopeless_input() {
        assert!(from_csv_lossy("").is_err());
        assert!(from_csv_lossy("cpu:num\n1\n").is_err());
    }

    #[test]
    fn lossy_renames_duplicate_columns() {
        let (d, warnings) = from_csv_lossy("timestamp,cpu:num,cpu:num\n0,1,2\n").unwrap();
        assert_eq!(d.schema().len(), 2);
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::HeaderDrift { .. })));
        assert_eq!(d.numeric(1).unwrap(), &[2.0]);
    }

    #[test]
    fn lossy_header_rejects_a_line_break_instead_of_renaming_it() {
        // Only a duplicate name is retried under a new suffix; a name the
        // schema rejects for another reason must end the header, not loop.
        let mut warnings = Vec::new();
        let result = parse_header_lossy("timestamp,a\nb:num", &mut warnings);
        assert!(matches!(result, Err(TelemetryError::LineBreak(name)) if name == "a\nb"));
    }

    /// The splitter as it was first written: one char at a time, one
    /// `String` per field. The oracle for [`split_line`].
    fn split_line_chars(line: &str, line_no: usize) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let mut current = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(ch) = chars.next() {
            match (in_quotes, ch) {
                (false, ',') => fields.push(std::mem::take(&mut current)),
                (false, '"') if current.is_empty() => in_quotes = true,
                (false, c) => current.push(c),
                (true, '"') => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        current.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                (true, c) => current.push(c),
            }
        }
        if in_quotes {
            return Err(TelemetryError::Parse {
                line: line_no,
                message: "unterminated quoted field".into(),
            });
        }
        fields.push(current);
        Ok(fields)
    }

    /// Decode a byte tape into a CSV line built from the pieces that
    /// stress a splitter: commas, quotes (at a field's start and inside
    /// it, doubled, unterminated), CR, multibyte text, numbers, words and
    /// the non-finite spellings.
    fn line_from_tape(tape: &[u8]) -> String {
        const PIECES: [&str; 16] = [
            ",", "\"", "\"\"", ",\"", "\r", "é", "測😀", "1", "2.5", "-", " ", "x", "NaN", "inf",
            "e3", "",
        ];
        tape.iter().filter_map(|&b| PIECES.get(usize::from(b) % PIECES.len())).copied().collect()
    }

    fn fuzz_schema() -> Schema {
        Schema::from_attrs([
            AttributeMeta::numeric("cpu"),
            AttributeMeta::categorical("job"),
            AttributeMeta::numeric("io"),
        ])
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The borrowing splitter yields the char-by-char splitter's fields,
        /// and fails exactly where it does.
        #[test]
        fn split_line_matches_the_char_oracle(tape in proptest::collection::vec(0u8..=255, 0..48)) {
            let line = line_from_tape(&tape);
            let fast = split_line(&line, 7)
                .map(|fields| fields.into_iter().map(Cow::into_owned).collect::<Vec<_>>());
            let slow = split_line_chars(&line, 7);
            proptest::prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "line {:?}", line);
        }

        /// Lossy row parsing over the new splitter gives the same row and
        /// the same warnings as over the oracle's fields.
        #[test]
        fn lossy_line_matches_the_char_oracle(tape in proptest::collection::vec(0u8..=255, 0..48)) {
            let line = line_from_tape(&tape);
            let schema = fuzz_schema();
            let mut fast_warnings = Vec::new();
            let fast = parse_line_lossy(&schema, &line, 3, &mut fast_warnings);
            let mut slow_warnings = Vec::new();
            let oracle_fields = split_line_chars(&line, 3)
                .map(|fields| fields.into_iter().map(Cow::Owned).collect());
            let slow = parse_fields_lossy(&schema, oracle_fields, 3, &mut slow_warnings);
            proptest::prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "line {:?}", line);
            proptest::prop_assert_eq!(fast_warnings, slow_warnings, "line {:?}", line);
        }
    }

    #[test]
    fn split_line_edge_cases() {
        let split = |line: &str| {
            split_line(line, 1).map(|f| f.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(split("").unwrap(), vec![""]);
        assert_eq!(split("a,").unwrap(), vec!["a", ""]);
        assert_eq!(split("\"a,b\"c,d").unwrap(), vec!["a,bc", "d"]);
        assert_eq!(split("\"say \"\"hi\"\"\"").unwrap(), vec!["say \"hi\""]);
        assert_eq!(split("x\"y\",\"\"\"\"").unwrap(), vec!["x\"y\"", "\""]);
        assert_eq!(split("\"\"x\"").unwrap(), vec!["x\""]);
        assert!(split("\"\"\"").is_err());
        assert!(split("ok,\"open").is_err());
        let fields = split_line("plain,\"quoted\"", 1).unwrap();
        assert!(matches!(fields.first(), Some(Cow::Borrowed("plain"))));
        assert!(matches!(fields.get(1), Some(Cow::Owned(_))));
    }
}
