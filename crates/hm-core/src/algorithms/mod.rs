//! The distributed optimization algorithms.
//!
//! [`Method`] names the eight: [`HierMinimax`], the paper's contribution
//! (Algorithm 1: three-layer minimax with multi-step local SGD,
//! multi-step client-edge aggregation, checkpoint-based edge-weight
//! updates and partial participation); its multi-level generalisation;
//! the four baselines the evaluation compares against (§6): FedAvg,
//! Stochastic-AFL, DRFA and HierFAVG; and the two-layer extension
//! baselines FedProx and q-FedAvg. `(Method, Hyper, RunOpts)` describes
//! a run, and [`Method::build`] runs it; [`HierMinimax::new`] converts
//! its config into the same description.
//!
//! One round driver, `driver` (DESIGN.md §7c), runs them all. Its units
//! are edges (HierMinimax, HierFAVG), groups of edges
//! (MultiLevel), or single clients that talk to the cloud directly (the
//! two-layer baselines FedAvg, FedProx, q-FedAvg, Stochastic-AFL and
//! DRFA).
//!
//! ## Communication-round convention
//!
//! Following the paper's framing (cloud connectivity is the scarce
//! resource), "communication rounds" counts synchronisation rounds on
//! cloud-terminating links ([`CommStats::cloud_rounds`]): exactly one per
//! training round for every method — the O(1)-per-round accounting behind
//! Table 1's `Θ(T^{1−α})` edge-cloud complexity. Weight-update exchanges
//! (DRFA's checkpoint round, HierMinimax's Phase 2) share the round's
//! exchange window; their payloads are still metered in the float/message
//! counters. Client-edge aggregations are metered on the `ClientEdge` link
//! and visible in [`CommStats::total_rounds`] and the float counters, but
//! do not count toward the headline metric.

mod churnctl;
mod driver;
mod hier_common;
mod hierminimax;
mod method;
mod multilevel;
mod qffl;

pub use hierminimax::{HierMinimax, HierMinimaxConfig, WeightUpdateModel};
pub use method::{Hyper, Method, MethodRun, Opt, Param};
pub use multilevel::UpperLevel;

use crate::history::History;
use crate::problem::FederatedProblem;
use hm_simnet::{
    ChurnPlan, ChurnStats, CommStats, FaultPlan, FaultStats, Parallelism, QuarantineStats,
};
use hm_telemetry::{Profiler, Telemetry, TelemetryEvent};
use hm_tensor::Aggregator;

/// Options shared by every algorithm runner.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Evaluate on test data every `eval_every` rounds (`0` = only after
    /// the final round). The final round is always evaluated.
    pub eval_every: usize,
    /// Client/edge execution mode. The default resolves from the
    /// `HM_PARALLELISM` environment variable (see
    /// [`Parallelism::from_env`]), which is how CI runs the whole suite
    /// under both executors.
    pub parallelism: Parallelism,
    /// Structured run telemetry (disabled by default; see `hm-telemetry`
    /// and DESIGN.md §10). A disabled handle costs one branch per
    /// round-boundary event and cannot perturb the run. The stream is the
    /// run's one event log: the conformance replay in `hm-testkit` checks
    /// it against Algorithm 1 (DESIGN.md §9).
    pub telemetry: Telemetry,
    /// Deterministic fault injection (see `hm_simnet::fault` and
    /// DESIGN.md §11). The default all-zero plan makes no RNG draws, so a
    /// fault-capable run with zero rates is bit-identical to a fault-free
    /// one. Per-block client dropout is the plan's `client_crash`. Every
    /// algorithm honours the plan; for the two-layer baselines the
    /// cloud-link classes act on each client's link to the cloud, and a
    /// client that crashes or misses the deadline uploads nothing.
    pub fault: FaultPlan,
    /// Crash-consistent checkpointing: where/how often to write snapshots
    /// and, optionally, a snapshot to resume from (see `hm-checkpoint` and
    /// DESIGN.md §12). The default neither writes nor resumes.
    pub checkpoint: crate::checkpoint::CheckpointOpts,
    /// Per-phase wall-clock profiling (disabled by default; see
    /// `hm_telemetry::profile` and DESIGN.md §13). Spans and the end-of-run
    /// summary are emitted *unsequenced* through the telemetry handle, so
    /// enabling profiling cannot perturb the sequenced event stream, the
    /// trained bits, or checkpoint/resume splices (`tests/profile.rs`).
    pub profile: Profiler,
    /// Client→edge (and edge→cloud) reduction rule (see
    /// `hm_tensor::robust` and DESIGN.md §14). The default
    /// [`Aggregator::Mean`] is the frozen historical path, bit-identical
    /// to pre-robust builds; the robust rules bound the influence of
    /// Byzantine uploads. q-FedAvg's server step is not an average, so
    /// its cloud fold does not use the rule.
    pub aggregator: Aggregator,
    /// Update-norm quarantine trigger threshold in standard deviations
    /// (`0.0` = disabled, the default). When positive, every algorithm
    /// but MultiLevel z-scores each reporting client's mean per-block
    /// upload norm every round and benches outliers for
    /// [`RunOpts::quarantine_window`] rounds; MultiLevel's tree reports
    /// no per-client norms and ignores it.
    pub quarantine_z: f64,
    /// Rounds a quarantined client sits out after being flagged.
    pub quarantine_window: usize,
    /// Deterministic membership churn (see `hm_simnet::churn` and
    /// DESIGN.md §15): clients leave/join mid-run and edge servers fail
    /// permanently with their clients re-homed onto survivors. The
    /// default zero-rate plan makes no RNG draws and leaves every edge up
    /// with its original clients, so churn-capable runs with churn off are
    /// bit-identical to pre-churn builds. HierMinimax and HierFAVG honour
    /// it ([`Method::honours`]); every other algorithm rejects an active
    /// plan.
    pub churn: ChurnPlan,
    /// Abort cap on consecutive stale rounds (rounds in which every
    /// sampled unit failed to report, leaving the global model untouched).
    /// `0` (the default) preserves the legacy behaviour of looping on the
    /// stale model forever; a positive cap makes [`Algorithm::try_run`]
    /// return [`RunError::StaleRoundsExceeded`] once more than that many
    /// stale rounds occur back to back, counting across a resume.
    pub max_stale_rounds: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            eval_every: 10,
            parallelism: Parallelism::from_env(),
            telemetry: Telemetry::disabled(),
            fault: FaultPlan::default(),
            checkpoint: crate::checkpoint::CheckpointOpts::default(),
            profile: Profiler::disabled(),
            aggregator: Aggregator::Mean,
            quarantine_z: 0.0,
            quarantine_window: 0,
            churn: ChurnPlan::default(),
            max_stale_rounds: 0,
        }
    }
}

impl RunOpts {
    /// Whether round `k` (0-based) of `rounds` total should be evaluated.
    pub fn should_eval(&self, k: usize, rounds: usize) -> bool {
        let last = k + 1 == rounds;
        last || (self.eval_every > 0 && (k + 1).is_multiple_of(self.eval_every))
    }

    /// Emit the one-shot unsequenced `aggregator_summary` telemetry event.
    /// A no-op for the default `mean` rule, so robust-off streams are
    /// byte-identical to historical ones.
    pub(crate) fn emit_aggregator_summary(&self) {
        if self.aggregator != Aggregator::Mean {
            self.telemetry.record(|| TelemetryEvent::AggregatorSummary {
                aggregator: self.aggregator.as_str().to_string(),
                param: self.aggregator.param(),
            });
        }
    }
}

/// Output of one algorithm run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final global model `w^(K)`.
    pub final_w: Vec<f32>,
    /// Running average of the per-round global models — the practical proxy
    /// for Theorem 1's time-averaged iterate `ŵ` used by the duality-gap
    /// evaluation.
    pub avg_w: Vec<f32>,
    /// Final edge weights (per edge area; two-layer minimax methods report
    /// their client weights summed per edge, minimization methods report
    /// the uniform vector).
    pub final_p: Vec<f32>,
    /// Running average of the per-round edge weights (`p̂` in Theorem 1).
    pub avg_p: Vec<f32>,
    /// Per-round history (communication, weights, periodic evaluations).
    pub history: History,
    /// Final cumulative communication counters.
    pub comm: CommStats,
    /// Cumulative injected-fault bookkeeping (all zeros for fault-free
    /// runs).
    pub faults: FaultStats,
    /// Cumulative Byzantine-adversary bookkeeping: corrupted uploads,
    /// quarantined clients, and quarantine-excluded upload slots (all
    /// zeros when the adversary and quarantine are off).
    pub quarantine: QuarantineStats,
    /// Cumulative membership-churn bookkeeping: joins, leaves, permanent
    /// edge failures, re-homed and stranded clients (all zeros when the
    /// churn plan is inert).
    pub churn: ChurnStats,
}

/// A typed abort from the round driver (see [`Algorithm::try_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run exceeded [`RunOpts::max_stale_rounds`] consecutive rounds
    /// in which no sampled unit (edge, group or client) reported, so the
    /// global model was stuck on its stale value with no progress
    /// possible.
    StaleRoundsExceeded {
        /// The round (0-based) at which the cap was breached.
        round: usize,
        /// Consecutive stale rounds observed, including this one.
        consecutive: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::StaleRoundsExceeded {
                round,
                consecutive,
                limit,
            } => write!(
                f,
                "aborted at round {round}: {consecutive} consecutive stale rounds \
                 (no sampled edge, group or client reported) exceeded the max_stale_rounds \
                 cap of {limit}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// A distributed algorithm that solves (or approximates) problem (3).
pub trait Algorithm {
    /// Short name used in experiment tables ("HierMinimax", "DRFA", …).
    fn name(&self) -> &'static str;

    /// Run the algorithm on a problem with a master seed, or return the
    /// typed abort (the [`RunOpts::max_stale_rounds`] cap).
    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError>;

    /// [`Algorithm::try_run`] for runs that are not expected to abort.
    ///
    /// # Panics
    /// Panics with the error's text if the run hits a typed abort.
    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        self.try_run(problem, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Running f64 accumulator for iterate averaging (`ŵ`, `p̂`).
#[derive(Debug, Clone)]
pub(crate) struct IterateAverage {
    sum: Vec<f64>,
    count: usize,
}

impl IterateAverage {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            sum: vec![0.0; dim],
            count: 0,
        }
    }

    pub(crate) fn add(&mut self, x: &[f32]) {
        assert_eq!(x.len(), self.sum.len());
        for (s, &v) in self.sum.iter_mut().zip(x) {
            *s += f64::from(v);
        }
        self.count += 1;
    }

    pub(crate) fn mean(&self) -> Vec<f32> {
        let n = self.count.max(1) as f64;
        self.sum.iter().map(|&s| (s / n) as f32).collect()
    }

    /// Raw accumulator state `(sum, count)`, for checkpointing.
    pub(crate) fn parts(&self) -> (&[f64], u64) {
        (&self.sum, self.count as u64)
    }

    /// Rebuild from checkpointed accumulator state.
    pub(crate) fn from_parts(sum: Vec<f64>, count: u64) -> Self {
        Self {
            sum,
            count: count as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_schedule() {
        let opts = RunOpts {
            eval_every: 5,
            ..Default::default()
        };
        assert!(!opts.should_eval(0, 100));
        assert!(opts.should_eval(4, 100)); // round 5
        assert!(opts.should_eval(99, 100)); // final
        let only_final = RunOpts {
            eval_every: 0,
            ..Default::default()
        };
        assert!(!only_final.should_eval(42, 100));
        assert!(only_final.should_eval(99, 100));
    }

    #[test]
    fn iterate_average_means() {
        let mut a = IterateAverage::new(2);
        a.add(&[1.0, 0.0]);
        a.add(&[3.0, 1.0]);
        assert_eq!(a.mean(), vec![2.0, 0.5]);
    }

    #[test]
    fn iterate_average_empty_is_zero() {
        let a = IterateAverage::new(3);
        assert_eq!(a.mean(), vec![0.0; 3]);
    }
}
