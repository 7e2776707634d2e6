//! HierMinimax and baselines: distributed minimax fair optimization over
//! hierarchical client-edge-cloud networks.
//!
//! This crate is the core of the reproduction of *Distributed Minimax Fair
//! Optimization over Hierarchical Networks* (ICPP 2024). It contains:
//!
//! - [`problem`] — the problem instance type (scenario + model + domains),
//!   realising eq. (3): `min_{w∈W} max_{p∈P} Σ_e p_e f_e(w)`.
//! - [`algorithms`] — [`algorithms::HierMinimax`] (Algorithm 1) and the
//!   four baselines of §6 (FedAvg, Stochastic-AFL, DRFA, HierFAVG), each
//!   an [`algorithms::Method`] run from one [`algorithms::Hyper`], all
//!   behind one [`algorithms::Algorithm`] trait.
//! - [`localsgd`] — the client-side projected local SGD of eq. (4), with
//!   checkpoint capture.
//! - [`metrics`] — per-edge test accuracy and the Table 2 fairness
//!   statistics (average / worst / variance).
//! - [`history`] — per-round records and the headline "communication
//!   rounds to reach a worst-accuracy target" queries.
//! - [`duality`] — the duality-gap estimator used to check Theorem 1's
//!   convex convergence behaviour empirically.
//! - [`stationarity`] — the Moreau-envelope gradient-norm estimator of
//!   Theorem 2's non-convex optimality measure.
//! - [`diagnostics`] — empirical verification of Lemma 1's model-divergence
//!   bound (lockstep instrumentation + problem-constant estimation).

pub mod algorithms;
pub mod checkpoint;
pub mod diagnostics;
pub mod duality;
pub mod history;
pub mod localsgd;
pub mod metrics;
pub mod problem;
pub mod stationarity;

pub use algorithms::{Algorithm, RunError, RunOpts, RunResult};
pub use checkpoint::CheckpointOpts;
pub use history::History;
pub use metrics::EvalReport;
pub use problem::FederatedProblem;
