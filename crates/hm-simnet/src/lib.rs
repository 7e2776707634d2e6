//! Hierarchical client-edge-cloud network simulator.
//!
//! The paper's system model (Fig. 1) is a hub-and-spoke hierarchy: a cloud
//! server, `N_E` edge servers, and `N_0` clients per edge. All experiments
//! in the paper run this topology in simulation (PyTorch on one machine);
//! this crate is the equivalent substrate in Rust:
//!
//! - [`topology`] — the static structure and id spaces.
//! - [`comm`] — per-link-type communication metering (floats, messages,
//!   synchronisation rounds). The evaluation's x-axis ("communication
//!   rounds") and Table 1's edge-cloud communication complexity both come
//!   from these counters, so they are first-class and conservation-checked.
//! - [`executor`] — the order-fixed parallel map used to run client work
//!   concurrently (rayon) while keeping results bit-deterministic.
//! - [`sampling`] — partial-participation samplers: weighted-by-`p` with
//!   replacement (Phase 1) and uniform without replacement (Phase 2).
//! - [`latency`] — a wall-clock cost model turning metered communication
//!   into simulated deployment time (fast local links, slow cloud links).
//! - [`quantize`] — unbiased stochastic model quantization (the
//!   Hier-Local-QSGD extension of the paper's reference \[22\]) with the
//!   matching wire-cost model.
//! - [`fault`] — deterministic fault injection (client crashes, edge
//!   outages, message loss with retry/backoff, stragglers, Byzantine
//!   update corruption), keyed off the
//!   same RNG-stream discipline so faulty runs stay bit-reproducible and
//!   conformance-checkable.
//! - [`churn`] — deterministic membership churn (clients leave/join, edge
//!   servers fail permanently with client re-homing), same keyed-stream
//!   discipline as [`fault`].
//!
//! The samplers, [`FaultPlan`]'s decision functions and [`ActiveTopology`]
//! are pure functions of `(seed, round, entity)`: the runs call them, and
//! so does the conformance replay in `hm-testkit`, which checks a run's
//! telemetry stream against its own re-derivation of every decision.

pub mod churn;
pub mod comm;
pub mod executor;
pub mod fault;
pub mod latency;
pub mod quantize;
pub mod sampling;
pub mod topology;

pub use churn::{ActiveTopology, ChurnPlan, ChurnStats, RoundChurn, CHURN_PRESETS, NO_CHURN};
pub use comm::{CommMeter, CommStats, Link};
pub use executor::Parallelism;
pub use fault::{
    AttackModel, Delivery, FaultInjector, FaultKind, FaultPlan, FaultStats, MsgChannel,
    QuarantineStats, StragglerFate, ATTACK_MODELS, FAULT_PRESETS, NO_FAULTS,
};
pub use latency::LatencyModel;
pub use quantize::Quantizer;
pub use topology::Topology;
