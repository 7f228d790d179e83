//! Error type for encoded-bitmap-index operations.

use ebi_storage::StorageError;
use std::fmt;

/// Errors raised by the encoded bitmap index and its encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A code was assigned twice or does not fit the mapping width.
    InvalidCode {
        /// Description of the violation.
        detail: String,
    },
    /// A value was not found in the mapping table.
    UnknownValue {
        /// The value id that was looked up.
        value: u64,
    },
    /// The mapping has no free code at its current width.
    DomainFull {
        /// Current code width.
        width: u32,
    },
    /// A query or maintenance operation addressed a row out of range.
    RowOutOfRange {
        /// The offending row.
        row: usize,
        /// Rows in the index.
        rows: usize,
    },
    /// Encoding construction was given inconsistent inputs.
    Encoding {
        /// Description of the problem.
        detail: String,
    },
    /// Range-based encoding received overlapping or unordered intervals.
    BadInterval {
        /// Description of the problem.
        detail: String,
    },
    /// The page store failed underneath a persisted or paged index; a
    /// payload that was read but does not decode is
    /// [`CoreError::InvalidCode`] instead.
    Storage(StorageError),
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// Bytes that were read but do not decode: every persisted-image decoder
/// reads through `ebi_bitvec::serial::ByteReader`, whose errors land here.
impl From<ebi_bitvec::BitVecError> for CoreError {
    fn from(e: ebi_bitvec::BitVecError) -> Self {
        Self::InvalidCode {
            detail: format!("corrupt persisted image: {e}"),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidCode { detail } => write!(f, "invalid code: {detail}"),
            Self::UnknownValue { value } => write!(f, "value {value} not in mapping table"),
            Self::DomainFull { width } => {
                write!(f, "no free code at width {width}; expand the domain first")
            }
            Self::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows)")
            }
            Self::Encoding { detail } => write!(f, "encoding error: {detail}"),
            Self::BadInterval { detail } => write!(f, "bad interval: {detail}"),
            Self::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(CoreError::UnknownValue { value: 9 }
            .to_string()
            .contains('9'));
        assert!(CoreError::DomainFull { width: 3 }
            .to_string()
            .contains("width 3"));
        assert!(CoreError::RowOutOfRange { row: 4, rows: 2 }
            .to_string()
            .contains("row 4"));
    }
}
