//! # `pfd` — Pattern Functional Dependencies for Data Cleaning
//!
//! A reproduction of *“Pattern Functional Dependencies for Data Cleaning”*
//! (Qahtan, Tang, Ouzzani, Cao, Stonebraker — PVLDB 13(5), VLDB 2020).
//!
//! Pattern functional dependencies (PFDs) are integrity constraints that
//! combine regex-like **patterns** with **functional dependencies**: instead
//! of requiring whole attribute values to agree, a PFD constrains *partial*
//! attribute values through a pattern tableau. The classic example: the first
//! token of a full name (`Susan` in `Susan Boyle`) determines `gender`, or the
//! first three digits of a ZIP code determine the city.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`pattern`] — the pattern language of §2.1: generalization tree, parser,
//!   NFA matching, PTIME containment, constrained patterns.
//! - [`relation`] — relational substrate: schemas, string relations, CSV I/O,
//!   column profiling.
//! - [`core`] — PFD tableaux, satisfaction semantics, violation detection and
//!   pattern-directed repair (§2.2, §5.3).
//! - [`inference`] — the axiom system, PFD-closure, implication and
//!   consistency analyses (§3, §7).
//! - [`discovery`] — the discovery algorithm of §4 (Fig. 4) with all its
//!   practical restrictions and optimizations.
//! - [`baselines`] — FDep and a CFDFinder-style miner for comparison (§5).
//! - [`datagen`] — synthetic equivalents of the paper's 15 evaluation tables,
//!   seeded error injection and a validation oracle.
//!
//! ## Quick start
//!
//! ```
//! use pfd::core::{Pfd, TableauRow};
//! use pfd::relation::Relation;
//!
//! let rel = Relation::from_rows(
//!     "Name",
//!     &["name", "gender"],
//!     vec![
//!         vec!["John Charles", "M"],
//!         vec!["John Bosco", "M"],
//!         vec!["Susan Orlean", "F"],
//!         vec!["Susan Boyle", "M"], // erroneous: should be F
//!     ],
//! )
//! .unwrap();
//!
//! // λ2 from the paper: [name = Susan\ \A*] → [gender = F]
//! let pfd = Pfd::constant_normal_form(
//!     "Name",
//!     &rel.schema(),
//!     "name",
//!     r"[Susan\ ]\A*",
//!     "gender",
//!     "[F]",
//! )
//! .unwrap();
//!
//! let violations = pfd.violations(&rel);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rows(), &[3]);
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use pfd_baselines as baselines;
pub use pfd_core as core;
pub use pfd_datagen as datagen;
pub use pfd_discovery as discovery;
pub use pfd_inference as inference;
pub use pfd_pattern as pattern;
pub use pfd_relation as relation;
