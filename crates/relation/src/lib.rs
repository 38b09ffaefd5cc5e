//! # `pfd-relation` — relational substrate for PFD data cleaning
//!
//! String-valued relations with schemas, CSV I/O and column profiling. PFDs
//! operate on *qualitative* values (§2.1 of the paper), so cells are stored
//! as strings; the profiler classifies columns (quantitative / code /
//! categorical / text) and decides the pattern-extraction mode used by
//! discovery.
//!
//! ```
//! use pfd_relation::{Relation, profile_relation, ColumnKind};
//!
//! let rel = Relation::from_rows(
//!     "Zip",
//!     &["zip", "city"],
//!     vec![vec!["90001", "Los Angeles"], vec!["90002", "Los Angeles"]],
//! ).unwrap();
//!
//! let profiles = profile_relation(&rel);
//! assert_eq!(profiles[0].kind, ColumnKind::Code); // zips are codes, kept
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod csv;
pub mod fxhash;
pub mod io;
pub mod kernels;
pub mod postings;
pub mod profile;
#[allow(clippy::module_inception)]
pub mod relation;
pub mod schema;
pub mod wal;

pub use binary::{BinaryError, Cursor, SectionReader, SectionWriter};
pub use csv::{read_csv, read_csv_str, write_csv, write_csv_string, CsvError};
pub use fxhash::{fx_hash_str, FxBuildHasher, FxHashMap, FxHasher};
pub use io::{FailpointIo, Io, MemIo, SharedBytes, StdIo};
pub use postings::{PostingList, RowSetAccumulator};
pub use profile::{profile_column, profile_relation, ColumnKind, ColumnProfile, Extraction};
pub use relation::{Relation, RelationError, RowId, RowView};
pub use schema::{AttrId, Schema, SchemaError};
pub use wal::{read_wal_bytes, SyncPolicy, WalReadOutcome, WalRecord, WalTail, WalWriter};
