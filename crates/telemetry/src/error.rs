//! Error type for telemetry data handling.

use std::fmt;

/// Errors produced while constructing, converting, or parsing telemetry data.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryError {
    /// An attribute name was referenced that does not exist in the schema.
    UnknownAttribute(String),
    /// A row had a different number of values than the schema has attributes.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A numeric operation was attempted on a categorical attribute (or vice versa).
    KindMismatch {
        /// The attribute involved.
        attribute: String,
        /// The kind the operation required.
        expected: &'static str,
    },
    /// A region referenced a row index outside the dataset.
    RowOutOfBounds {
        /// The offending row index.
        index: usize,
        /// The dataset's row count.
        len: usize,
    },
    /// CSV input could not be parsed.
    Parse {
        /// 1-based line number of the problem.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The operation requires a non-empty dataset or region.
    Empty(&'static str),
    /// A duplicate attribute name was added to a schema.
    DuplicateAttribute(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::UnknownAttribute(name) => {
                write!(f, "unknown attribute: {name:?}")
            }
            TelemetryError::ArityMismatch { expected, found } => {
                write!(f, "row arity mismatch: schema has {expected} attributes, row has {found}")
            }
            TelemetryError::KindMismatch { attribute, expected } => {
                write!(f, "attribute {attribute:?} is not {expected}")
            }
            TelemetryError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for dataset of {len} rows")
            }
            TelemetryError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TelemetryError::Empty(what) => write!(f, "operation requires non-empty {what}"),
            TelemetryError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute name: {name:?}")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Convenience alias used across the telemetry crate.
pub type Result<T> = std::result::Result<T, TelemetryError>;

/// A non-fatal problem encountered while ingesting degraded telemetry.
///
/// Produced by [`from_csv_lossy`](crate::from_csv_lossy) and
/// [`repair_alignment`](crate::repair_alignment): instead of aborting on the
/// first malformed byte the lossy path records what was skipped or repaired
/// and keeps going. All line numbers are 1-based (header is line 1), matching
/// [`TelemetryError::Parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum IngestWarning {
    /// A whole row was discarded.
    SkippedRow {
        /// 1-based line number of the row.
        line: usize,
        /// Why the row could not be salvaged.
        reason: String,
    },
    /// A single cell was replaced with a placeholder (NaN for numeric cells).
    RepairedCell {
        /// 1-based line number of the row.
        line: usize,
        /// Attribute (column) name.
        attribute: String,
        /// What was wrong with the original cell.
        reason: String,
    },
    /// A row had the wrong number of fields and was padded or truncated.
    ArityRepair {
        /// 1-based line number of the row.
        line: usize,
        /// Number of fields the schema expects (including timestamp).
        expected: usize,
        /// Number of fields found.
        found: usize,
    },
    /// The header deviated from the expected layout but was salvaged.
    HeaderDrift {
        /// Human-readable description of the drift.
        detail: String,
    },
    /// The input ended mid-row (truncated tail); the fragment was dropped.
    TruncatedInput {
        /// 1-based line number of the dangling fragment.
        line: usize,
    },
    /// A numeric cell parsed as NaN/±∞ and was kept as-is.
    NonFiniteCell {
        /// 1-based line number of the row.
        line: usize,
        /// Attribute (column) name.
        attribute: String,
    },
    /// A row's timestamp was not strictly after its predecessor's.
    NonMonotonicTimestamp {
        /// 1-based line number of the row.
        line: usize,
        /// The offending timestamp.
        timestamp: f64,
    },
}

impl IngestWarning {
    /// 1-based line number the warning refers to, if any.
    pub fn line(&self) -> Option<usize> {
        match self {
            IngestWarning::SkippedRow { line, .. }
            | IngestWarning::RepairedCell { line, .. }
            | IngestWarning::ArityRepair { line, .. }
            | IngestWarning::TruncatedInput { line }
            | IngestWarning::NonFiniteCell { line, .. }
            | IngestWarning::NonMonotonicTimestamp { line, .. } => Some(*line),
            IngestWarning::HeaderDrift { .. } => None,
        }
    }
}

impl fmt::Display for IngestWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestWarning::SkippedRow { line, reason } => {
                write!(f, "line {line}: skipped row ({reason})")
            }
            IngestWarning::RepairedCell { line, attribute, reason } => {
                write!(f, "line {line}: repaired cell in {attribute:?} ({reason})")
            }
            IngestWarning::ArityRepair { line, expected, found } => {
                write!(
                    f,
                    "line {line}: expected {expected} fields, found {found}; padded/truncated"
                )
            }
            IngestWarning::HeaderDrift { detail } => write!(f, "line 1: header drift: {detail}"),
            IngestWarning::TruncatedInput { line } => {
                write!(f, "line {line}: input truncated mid-row; fragment dropped")
            }
            IngestWarning::NonFiniteCell { line, attribute } => {
                write!(f, "line {line}: non-finite value in {attribute:?}")
            }
            IngestWarning::NonMonotonicTimestamp { line, timestamp } => {
                write!(f, "line {line}: timestamp {timestamp} not after predecessor")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TelemetryError::UnknownAttribute("cpu".into());
        assert!(e.to_string().contains("cpu"));
        let e = TelemetryError::ArityMismatch { expected: 3, found: 2 };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
        let e = TelemetryError::Parse { line: 7, message: "bad float".into() };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(TelemetryError::Empty("dataset"));
    }
}
