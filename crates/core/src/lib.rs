//! # `pfd-core` — pattern functional dependencies
//!
//! The PFD data model and semantics of §2 of *“Pattern Functional
//! Dependencies for Data Cleaning”* (PVLDB 13(5), 2020), plus the error
//! detection and repair machinery of §5.3.
//!
//! A PFD `R(X → Y, Tp)` embeds a standard FD `X → Y` and constrains it with
//! a pattern tableau `Tp`: cells are constrained patterns (or the wildcard
//! `⊥`), and two tuples are compared through the portions of their values
//! matching the constrained parts. Constant rows fire on single tuples;
//! variable rows fire on tuple pairs.
//!
//! ```
//! use pfd_core::Pfd;
//! use pfd_relation::Relation;
//!
//! let rel = Relation::from_rows(
//!     "Zip",
//!     &["zip", "city"],
//!     vec![
//!         vec!["90001", "Los Angeles"],
//!         vec!["90002", "Los Angeles"],
//!         vec!["90004", "New York"], // violates λ3
//!     ],
//! ).unwrap();
//!
//! // λ3: ([zip = 900\D{2}] → [city = Los Angeles])
//! let pfd = Pfd::constant_normal_form(
//!     "Zip", rel.schema(), "zip", r"[900]\D{2}", "city", r"Los\ Angeles",
//! ).unwrap();
//!
//! let violations = pfd.violations(&rel);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rows(), &[2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod detect;
mod grouping;
pub mod incremental;
pub mod pfd;
#[doc(hidden)]
pub mod reference;
pub mod repair;
pub mod rules;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod tableau;

pub use detect::{
    detect_errors, detect_errors_with, evaluate_detection, CellFlag, DetectOptions, DetectionEval,
    DetectionReport,
};
pub use incremental::{DeltaEngine, DeltaEntry, Edit, IncrementalChecker, ViolationDelta};
pub use pfd::{
    display_with_schema, BoundedAudit, Pfd, PfdError, TableauAudit, Violation, ViolationKind,
};
pub use repair::{
    evaluate_repairs, repair, repair_to_fixpoint, repair_to_fixpoint_with, repair_with, CellFix,
    FixCandidate, FixScore, RepairEngine, RepairEval, RepairOptions, RepairOutcome,
};
pub use rules::{parse_rule, parse_rules, to_rule_string, to_rules_string, RuleError};
pub use server::{
    ChannelSink, CollectSink, EventSink, Server, ServerOptions, TenantExit, TenantLoader,
    DEFAULT_TENANT,
};
pub use session::{
    check_report_json, fix_json, parse_command, recovery_report_json, repair_outcome_json,
    run_session, run_session_with, LineReader, Session, SessionCommand, SessionStore,
    SessionSummary,
};
pub use snapshot::{
    load_from_bytes, load_from_bytes_with, replay_log, save_to_bytes, save_to_bytes_with,
    RecoverFailure, Recovered, RecoveryPolicy, RecoveryReport, RecoverySource, SnapshotError,
    SnapshotMeta, SnapshotStore,
};
pub use tableau::{TableauCell, TableauRow};
