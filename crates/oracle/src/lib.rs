//! `oracle` — analytic cross-checks, runtime invariants, and the
//! golden-regression harness.
//!
//! Three independent lines of defense against silent drift in the
//! reproduction:
//!
//! - [`model`] re-derives the Tables 1–7 latency decompositions in
//!   closed form from the cost tables and protocol constants, and
//!   [`model::predict`] must agree with the event-driven simulation
//!   to within one 40 ns clock tick per span;
//! - [`invariants`] arms pluggable runtime checkers (event-time
//!   monotonicity, clock quantization, mbuf conservation, TCP
//!   sequence-space sanity, capture/span agreement) on any
//!   experiment — off by default and zero-cost when clean;
//! - [`golden`] diffs live sweep output against blessed JSON under
//!   `tests/golden/` with a tolerance-aware comparator, and
//!   [`shrink`] minimizes a failing fault schedule to its smallest
//!   reproducer before reporting.

#![warn(missing_docs)]

pub mod golden;
pub mod invariants;
pub mod model;
pub mod shrink;

pub use golden::{compare_reports, parse_report, Drift, GoldenReport};
pub use invariants::{check_experiment, InvariantReport, InvariantSet, Violation};
pub use model::{predict, predict_dc, PredictError, Prediction};
pub use shrink::shrink_schedule;
