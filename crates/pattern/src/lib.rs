//! # `pfd-pattern` — the pattern language of Pattern Functional Dependencies
//!
//! Implements §2.1 of *“Pattern Functional Dependencies for Data Cleaning”*
//! (PVLDB 13(5), 2020): a deliberately restricted, regex-like pattern class
//! over a **generalization tree** (Figure 1 of the paper), for which
//! membership, equivalence and containment are all tractable — unlike general
//! regular expressions, whose equivalence is PSPACE-complete.
//!
//! ## The language
//!
//! - Atoms: concrete characters, the classes `\LU` (upper), `\LL` (lower),
//!   `\D` (digit), `\S` (symbol), `\A` (any), conjunction `α & β`, and
//!   non-recursive groups.
//! - Quantifiers: `{N}`, `+`, `*`. Recursive patterns like `(α+)*` are
//!   rejected.
//! - **Constrained patterns** `pre[Q]post` mark a sub-segment whose matched
//!   portion defines string equivalence: `s ≡_Q s'` iff `s(Q) = s'(Q)`.
//!
//! ## Example
//!
//! ```
//! use pfd_pattern::ConstrainedPattern;
//!
//! // λ4 of the paper: the first name (constrained) of a full name.
//! let q: ConstrainedPattern = r"[\LU\LL*\ ]\A*".parse().unwrap();
//! assert!(q.matches("John Charles"));
//! assert_eq!(q.extract("John Charles"), Some("John "));
//! assert!(q.equivalent("John Charles", "John Bosco"));
//! assert!(!q.equivalent("John Charles", "Susan Orlean"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod class;
pub mod constrained;
pub mod contains;
pub mod display;
pub mod infer;
pub mod nfa;
pub mod normalize;
pub mod parse;
pub mod suffix;

pub use ast::{Atom, Element, Pattern, PatternError, Quant};
pub use class::CharClass;
pub use constrained::ConstrainedPattern;
pub use contains::{
    difference_witness, equivalent, intersection_witness, language_is_empty, member_witness,
    satisfiable_signatures, subset_of,
};
pub use infer::{infer_pattern, infer_verified, shape_of, ShapeFold, ShapeRun};
pub use nfa::Nfa;
pub use normalize::normalize;
pub use parse::{parse_constrained, parse_pattern, ParseError};
pub use suffix::{CountScratch, Repeat, SuffixAutomaton};
