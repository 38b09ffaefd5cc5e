//! # `pfd-datagen` — synthetic evaluation datasets for PFD experiments
//!
//! Deterministic, seeded twins of the paper's 15 evaluation tables
//! (data.gov / ChEMBL / university-warehouse, §5), plus the error-injection
//! machinery of the controlled evaluation (§5.3, Figures 5–6) and the
//! validation oracle of §5.2.
//!
//! Substitution argument (DESIGN.md §5): the real tables are private or
//! unpinned; these twins reproduce the *schema shapes*, the value formats
//! (names, zips, phones, IDs, dates, protein classes) and the embedded
//! dependencies — and make ground truth machine-checkable, so Table 7's
//! precision/recall are computed exactly rather than by manual annotation.
//!
//! ```
//! use pfd_datagen::{standard_suite, Scale};
//!
//! let suite = standard_suite(Scale::Small, 0.01, 42);
//! assert_eq!(suite.len(), 15);
//! let t1 = &suite[0];
//! assert!(t1.is_genuine(&["zip"], "city"));
//! assert!(!t1.is_genuine(&["email"], "gender"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod inject;
pub mod oracle;
pub mod pools;
pub mod tables;

pub use dataset::{evaluate_dependencies, Dataset, DependencyEval, GroundTruthDep, Repository};
pub use inject::{
    dirty_clean_pair, inject_errors, inject_profile, typo, ErrorProfile, ErrorSpec, InjectedError,
    NoiseMode,
};
pub use oracle::{OracleDomain, ValidationOracle};
pub use tables::{geo_cascade_table, standard_suite, zip_state_table, Scale, PAPER_ROWS};
