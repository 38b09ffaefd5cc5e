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
//! ([`FragmentDict`]), compact row sets
//! ([`PostingList`](pfd_relation::PostingList): sorted runs with galloping
//! intersection, bitsets once dense), and a scoped parallel map
//! ([`pfd_runtime::parallel_map`]) for index construction and candidate
//! checking when `DiscoveryConfig::parallel` is set. Long
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
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod cells;
pub mod config;
pub mod extract;
pub mod index;
pub mod review;
pub mod serial;
pub mod warm;

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
pub use review::{review_queue, ReviewItem};
pub use serial::{decode_dict, decode_entries, encode_dict, encode_entries};
pub use warm::{
    discover_persistent, load_index, relation_fingerprint, save_index, IndexFallback, IndexKey,
    LoadedIndex, WarmDiscovery,
};
