//! Test harness for the HierMinimax workspace: an executable specification
//! of Algorithm 1 that the optimized implementation is checked against.
//!
//! Three layers (DESIGN.md §9):
//!
//! - [`conformance`] — a replay automaton that validates a full protocol
//!   [`hm_simnet::trace::Event`] log against the paper's Algorithm 1:
//!   phase ordering, keyed-RNG sampling replay (Phase-1 multiset ∝ `p^(k)`,
//!   checkpoint index in `[τ1]×[τ2]`, Phase-2 uniform set), dropout-aware
//!   local-step/aggregation structure, constrained-simplex feasibility of
//!   every weight iterate, and closed-form per-round communication
//!   accounting.
//! - [`oracle`] — a deliberately naive, allocation-heavy reference
//!   reimplementation of one HierMinimax round (plus the flat FedAvg/DRFA
//!   round shapes) that the optimized `hm-core::algorithms` path must
//!   match **bit-for-bit** per round — under client-level faults and
//!   every aggregation rule, which makes it the reference for the
//!   client-edge block phase.
//! - [`strategies`] — proptest generators for whole scenarios (topology,
//!   `τ1`/`τ2`, participation, dropout, quantizers, constrained `P` sets)
//!   driving both the checker and the oracle across hundreds of cases.
//!
//! The crate is a regular dependency of the workspace's integration tests
//! (`tests/conformance.rs`, `tests/oracle_diff.rs`), not of any production
//! code.

pub mod conformance;
pub mod oracle;
pub mod splice;
pub mod strategies;

pub use conformance::{
    check_hierfavg_trace, check_hierminimax_trace, check_multilevel_trace, ConformanceError,
    ConformanceReport,
};
pub use oracle::{
    reference_drfa_round, reference_fedavg_round, reference_hierminimax_round,
    reference_hierminimax_run, reference_init_w, ReferenceRound,
};
pub use splice::{round_start_index, splice_traces};
pub use strategies::{MultiLevelSpec, PDomainSpec, ScenarioSpec};
