//! # `pfd-discovery` — automatic discovery of PFDs from dirty data
//!
//! The discovery algorithm of §4 of *“Pattern Functional Dependencies for
//! Data Cleaning”* (PVLDB 13(5), 2020), Fig. 4, with the practical
//! restrictions of §4.2 and the optimizations of §4.4/§5.4:
//!
//! - attribute profiling with numeric pruning (codes like zips are kept);
//! - per-attribute **tokenize vs n-grams** extraction;
//! - positional inverted indexes with **substring pruning** and a row →
//!   patterns reverse index;
//! - the decision function with minimum support `K`, allowed-noise ratio
//!   `δ` and minimum coverage `γ`;
//! - **single-semantics** position grouping;
//! - constant → variable PFD **generalization** with re-verification;
//! - the attribute-set lattice for multi-attribute LHS candidates.
//!
//! Engineering-wise the hot path runs on interned fragments
//! ([`FragmentDict`]), compact row sets ([`PostingList`]: sorted runs with
//! galloping intersection, bitsets once dense), and a work-stealing thread
//! pool ([`pool`]) for index construction and candidate checking. Long
//! separator-free values take a suffix-automaton extraction path
//! ([`FragmentExtractor`]) instead of the quadratic all-substrings
//! enumeration, and the lattice walk batches RHS decisions per anchor
//! through shared [`FrequentScratch`] buffers — see `docs/ARCHITECTURE.md`
//! at the repository root for the full hot-path guide.
//!
//! ```
//! use pfd_discovery::{discover, DiscoveryConfig};
//! use pfd_relation::Relation;
//!
//! let rel = Relation::from_rows(
//!     "Zip",
//!     &["zip", "city"],
//!     (0..8).map(|i| if i < 4 {
//!         vec![format!("9000{i}"), "Los Angeles".to_string()]
//!     } else {
//!         vec![format!("6060{i}"), "Chicago".to_string()]
//!     }).collect(),
//! ).unwrap();
//!
//! let config = DiscoveryConfig { min_support: 2, ..DiscoveryConfig::default() };
//! let result = discover(&rel, &config);
//! assert!(!result.dependencies.is_empty());
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod cells;
pub mod config;
pub mod extract;
pub mod index;
pub mod review;
pub mod serial;
pub mod warm;

// Extracted to the shared `pfd_runtime` crate (PR 9) so discovery index
// builds and the multi-tenant session server ride the same work-stealing
// substrate; re-exported here to keep the original paths.
pub use pfd_runtime::pool;

// Promoted to `pfd_relation::postings` so the incremental cleaning engine in
// `pfd_core` can share it; re-exported here to keep the original paths.
pub use pfd_relation::postings;

pub use algorithm::{
    discover, discover_cold, discover_warm, DependencyKind, DiscoveredDependency, DiscoveryResult,
    DiscoveryRun, DiscoveryStats,
};
pub use config::DiscoveryConfig;
pub use extract::{ngrams, runs, tokens, ExtractOptions, ExtractStats, FragmentExtractor, Run};
pub use index::{
    build_index, frequent_within, AttrIndex, FragmentDict, FrequentScratch, IndexEntry,
    IndexOptions, Symbol,
};
pub use pool::parallel_map;
pub use postings::{PostingList, RowSetAccumulator};
pub use review::{review_queue, ReviewItem};
pub use serial::{decode_dict, decode_entries, decode_entries_shared, encode_dict, encode_entries};
pub use warm::{
    discover_persistent, load_index, relation_fingerprint, save_index, IndexFallback, IndexKey,
    LoadedIndex, WarmDiscovery,
};
