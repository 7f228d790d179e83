//! Storage error type.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id outside the allocated range was referenced.
    PageOutOfRange {
        /// The offending page id.
        page: u64,
        /// Number of pages currently allocated.
        allocated: u64,
    },
    /// A write did not fit in one page.
    PayloadTooLarge {
        /// Bytes attempted.
        len: usize,
        /// Page capacity.
        page_size: usize,
    },
    /// A segment's stored length is inconsistent with its page span.
    CorruptSegment {
        /// Description of the inconsistency.
        detail: String,
    },
    /// A row id outside the table was referenced.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// Number of rows in the table.
        rows: usize,
    },
    /// Column shape violation (unknown column, arity mismatch, …).
    Schema {
        /// Description of the schema violation.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PageOutOfRange { page, allocated } => {
                write!(f, "page {page} out of range ({allocated} allocated)")
            }
            Self::PayloadTooLarge { len, page_size } => {
                write!(f, "payload of {len} bytes exceeds page size {page_size}")
            }
            Self::CorruptSegment { detail } => write!(f, "corrupt segment: {detail}"),
            Self::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows)")
            }
            Self::Schema { detail } => write!(f, "schema error: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::PageOutOfRange {
            page: 9,
            allocated: 3
        }
        .to_string()
        .contains("page 9"));
        assert!(StorageError::PayloadTooLarge {
            len: 10,
            page_size: 4
        }
        .to_string()
        .contains("exceeds"));
        assert!(StorageError::RowOutOfRange { row: 5, rows: 2 }
            .to_string()
            .contains("row 5"));
    }
}
