//! Test harness for the HierMinimax workspace: an executable specification
//! of Algorithm 1 that the optimized implementation is checked against.
//!
//! Three layers (DESIGN.md §9):
//!
//! - [`conformance`] — one replay automaton that checks a run's telemetry
//!   stream (the events it wrote, DESIGN.md §10) against Algorithm 1 for
//!   HierMinimax, HierFAVG and MultiLevel: phase ordering,
//!   keyed-RNG sampling replay (Phase-1 draw ∝ `p^(k)`, checkpoint index
//!   in `[τ1]×[τ2]`, Phase-2 uniform set), fault, adversary and churn
//!   replay, per-block survivor sets, constrained-simplex feasibility of
//!   every weight iterate, and closed-form per-round communication
//!   accounting. [`splice()`] joins a killed run's stream to its resumed
//!   run's, so resumed runs are checked the same way.
//! - [`oracle`] — a deliberately naive, allocation-heavy reference
//!   reimplementation of one HierMinimax round (plus the flat FedAvg/DRFA
//!   round shapes) that the optimized `hm-core::algorithms` path must
//!   match **bit-for-bit** per round — under client-level faults and
//!   every aggregation rule, which makes it the reference for the
//!   client-edge block phase.
//! - [`strategies`] — proptest generators for whole scenarios (topology,
//!   `τ1`/`τ2`, participation, fault plans, quantizers, constrained `P` sets)
//!   driving both the checker and the oracle across hundreds of cases.
//!
//! The crate is a regular dependency of the workspace's integration tests
//! (`tests/conformance.rs`, `tests/oracle_diff.rs`), not of any production
//! code.

pub mod conformance;
pub mod oracle;
pub mod splice;
pub mod strategies;

pub use conformance::{check_stream, ConformanceError, ConformanceReport, Protocol};
pub use oracle::{
    reference_drfa_round, reference_fedavg_round, reference_hierminimax_round,
    reference_hierminimax_run, reference_init_w, ReferenceRound,
};
pub use splice::{scrub, splice};
pub use strategies::{MultiLevelSpec, PDomainSpec, ScenarioSpec};
