//! # `pfd-inference` — reasoning about pattern functional dependencies
//!
//! The fundamental analyses of §3 and §7 of *“Pattern Functional Dependencies
//! for Data Cleaning”* (PVLDB 13(5), 2020):
//!
//! - the six **inference axioms** of Fig. 3 as checked derivation steps
//!   ([`axioms`]) — Reflexivity, Inconsistency-EFQ, Augmentation,
//!   Transitivity, Reduction and LHS-Generalization;
//! - the **PFD-closure** algorithm of Fig. 7 ([`closure`]), the engine behind
//!   the completeness proof of Theorem 1;
//! - **implication** `Ψ ⊨ ψ` (coNP-complete, Theorem 2), decided through the
//!   closure, with a bounded small-model counterexample search for
//!   cross-validation ([`implication`]);
//! - **consistency** (NP-complete even over infinite domains, Theorem 3),
//!   decided by a membership-signature search implementing the §7.3 small
//!   model property ([`consistency`]), plus the paper's nontautology
//!   reduction as an executable artifact ([`reduction`]).
//!
//! ```
//! use pfd_core::Pfd;
//! use pfd_inference::implies;
//! use pfd_relation::Schema;
//!
//! let s = Schema::new("R", ["zip", "city", "state"]).unwrap();
//! let sigma = vec![
//!     Pfd::constant_normal_form("R", &s, "zip", r"[900]\D{2}", "city", "LA").unwrap(),
//!     Pfd::constant_normal_form("R", &s, "city", "LA", "state", "CA").unwrap(),
//! ];
//! let psi = Pfd::constant_normal_form("R", &s, "zip", r"[900]\D{2}", "state", "CA").unwrap();
//! assert!(implies(&sigma, &psi, 3)); // transitivity through the closure
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod axioms;
pub mod clause;
pub mod closure;
pub mod consistency;
pub mod cover;
pub mod implication;
pub mod reduction;

pub use axioms::{
    augmentation, inconsistency_efq, lhs_generalization, reduction as reduction_axiom, reflexivity,
    transitivity, Axiom, AxiomError, Proof, ProofStep,
};
pub use clause::{clauses_of, Clause};
pub use closure::{pfd_closure, Closure, ClosureConfig};
pub use consistency::{
    check_consistency, check_consistency_with, Consistency, Requirement, DEFAULT_STATE_LIMIT,
};
pub use cover::{equivalent_sets, minimal_cover};
pub use implication::{implies, refute_implication};
pub use reduction::{encode_nontautology, is_nontautology_via_pfds, Dnf, EncodedInstance, Literal};
