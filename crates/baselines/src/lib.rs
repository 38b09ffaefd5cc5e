//! # `pfd-baselines` — the comparison algorithms of §5
//!
//! Rust reimplementations of the two baselines the paper compares against
//! (both originally run through Metanome):
//!
//! - [`mod@fdep`] — **FDep** \[14\]: exact minimal FD discovery via difference
//!   sets and minimal hitting sets.
//! - [`cfd`] — a **CFDFinder**-style miner \[12, 13\]: constant CFDs with
//!   support and confidence (0.995 in the paper's runs), plus approximate
//!   whole-value variable CFDs.
//!
//! Both operate on *entire attribute values* — the limitation PFDs lift —
//! so on pattern-bearing tables they miss the partial-value dependencies
//! that Table 7 credits to the PFD miner.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cfd;
pub mod fdep;

pub use cfd::{cfd_discover, to_pfds, CfdConfig, CfdDependency, ConstantCfd, VariableCfd};
pub use fdep::{fdep, fdep_single_lhs, Fd, FdepConfig};
