//! Method suite runner: runs the five algorithms on a shared problem with a
//! matched time-slot budget, so "communication rounds to reach a target"
//! comparisons are apples-to-apples (the paper gives every method the same
//! per-round local-update count: `τ1 = 2` for two-layer multi-step methods
//! and `τ1 = τ2 = 2` for hierarchical ones).

use hm_core::algorithms::{
    AflConfig, Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, HierFavg, HierFavgConfig,
    HierMinimax, HierMinimaxConfig, RunOpts, StochasticAfl,
};
use hm_core::problem::FederatedProblem;
use hm_core::RunResult;
use hm_simnet::{FaultPlan, Parallelism};
use hm_telemetry::Telemetry;

/// The five methods of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// FedAvg — two-layer minimization (multi-step).
    FedAvg,
    /// Stochastic-AFL — two-layer minimax (single-step).
    StochasticAfl,
    /// DRFA — two-layer minimax (multi-step).
    Drfa,
    /// HierFAVG — three-layer minimization.
    HierFavg,
    /// HierMinimax — three-layer minimax (the paper's algorithm).
    HierMinimax,
}

impl Method {
    /// All methods in the paper's presentation order.
    pub fn all() -> [Method; 5] {
        [
            Method::FedAvg,
            Method::StochasticAfl,
            Method::Drfa,
            Method::HierFavg,
            Method::HierMinimax,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::StochasticAfl => "Stochastic-AFL",
            Method::Drfa => "DRFA",
            Method::HierFavg => "HierFAVG",
            Method::HierMinimax => "HierMinimax",
        }
    }

    /// Time slots consumed per training round under the suite parameters.
    pub fn slots_per_round(&self, sp: &SuiteParams) -> usize {
        match self {
            Method::FedAvg | Method::Drfa => sp.tau1,
            Method::StochasticAfl => 1,
            Method::HierFavg | Method::HierMinimax => sp.tau1 * sp.tau2,
        }
    }
}

/// Shared parameters for a method suite.
#[derive(Debug, Clone)]
pub struct SuiteParams {
    /// Total time slots `T` given to every method.
    pub total_slots: usize,
    /// Local steps per client-edge aggregation (`τ1`, also the local steps
    /// of the two-layer multi-step methods).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`, hierarchical methods).
    pub tau2: usize,
    /// Participating edges per round (`m_E`); two-layer methods use
    /// `m_E · N_0` clients so device participation matches.
    pub m_edges: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate.
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation in the minimax methods.
    pub loss_batch: usize,
    /// Evaluate roughly every this many time slots.
    pub eval_every_slots: usize,
    /// Execution mode.
    pub parallelism: Parallelism,
    /// When set, each method writes structured run telemetry to
    /// `<dir>/telemetry_<method>.jsonl` (see DESIGN.md §10).
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Deterministic fault plan applied to every method (see
    /// `hm_simnet::fault`).
    pub fault: FaultPlan,
}

impl SuiteParams {
    fn opts(&self, slots_per_round: usize, method: Method) -> RunOpts {
        let telemetry = match &self.telemetry_dir {
            None => Telemetry::disabled(),
            Some(dir) => {
                let slug = method.name().to_lowercase().replace('-', "_");
                let path = dir.join(format!("telemetry_{slug}.jsonl"));
                Telemetry::jsonl(&path).unwrap_or_else(|e| {
                    eprintln!("warning: cannot open {}: {e}", path.display());
                    Telemetry::disabled()
                })
            }
        };
        RunOpts {
            eval_every: (self.eval_every_slots / slots_per_round).max(1),
            parallelism: self.parallelism,
            telemetry,
            fault: self.fault.clone(),
            checkpoint: Default::default(),
            profile: Default::default(),
            aggregator: Default::default(),
            quarantine_z: 0.0,
            quarantine_window: 0,
            churn: Default::default(),
            max_stale_rounds: 0,
        }
    }

    fn rounds(&self, slots_per_round: usize) -> usize {
        (self.total_slots / slots_per_round).max(1)
    }
}

/// Run one method with the matched budget.
pub fn run_method(
    method: Method,
    problem: &FederatedProblem,
    sp: &SuiteParams,
    seed: u64,
) -> RunResult {
    let n0 = problem.clients_per_edge();
    let m_clients = (sp.m_edges * n0).min(problem.topology().total_clients());
    let spr = method.slots_per_round(sp);
    let rounds = sp.rounds(spr);
    let opts = sp.opts(spr, method);
    match method {
        Method::FedAvg => FedAvg::new(FedAvgConfig {
            rounds,
            tau1: sp.tau1,
            m_clients,
            eta_w: sp.eta_w,
            batch_size: sp.batch_size,
            opts,
        })
        .run(problem, seed),
        Method::StochasticAfl => StochasticAfl::new(AflConfig {
            rounds,
            m_clients,
            eta_w: sp.eta_w,
            eta_q: sp.eta_p,
            batch_size: sp.batch_size,
            loss_batch: sp.loss_batch,
            opts,
        })
        .run(problem, seed),
        Method::Drfa => Drfa::new(DrfaConfig {
            rounds,
            tau1: sp.tau1,
            m_clients,
            eta_w: sp.eta_w,
            eta_q: sp.eta_p,
            batch_size: sp.batch_size,
            loss_batch: sp.loss_batch,
            opts,
        })
        .run(problem, seed),
        Method::HierFavg => HierFavg::new(HierFavgConfig {
            rounds,
            tau1: sp.tau1,
            tau2: sp.tau2,
            m_edges: sp.m_edges,
            eta_w: sp.eta_w,
            batch_size: sp.batch_size,
            quantizer: Default::default(),
            opts,
        })
        .run(problem, seed),
        Method::HierMinimax => HierMinimax::new(HierMinimaxConfig {
            rounds,
            tau1: sp.tau1,
            tau2: sp.tau2,
            m_edges: sp.m_edges,
            eta_w: sp.eta_w,
            eta_p: sp.eta_p,
            batch_size: sp.batch_size,
            loss_batch: sp.loss_batch,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts,
        })
        .run(problem, seed),
    }
}

/// Run every method and return `(method, result)` pairs in paper order.
pub fn run_suite(
    problem: &FederatedProblem,
    sp: &SuiteParams,
    seed: u64,
) -> Vec<(Method, RunResult)> {
    Method::all()
        .into_iter()
        .map(|m| {
            let r = run_method(m, problem, sp, seed);
            (m, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    fn sp() -> SuiteParams {
        SuiteParams {
            total_slots: 16,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            eta_p: 0.1,
            batch_size: 2,
            loss_batch: 4,
            eval_every_slots: 4,
            parallelism: Parallelism::Sequential,
            telemetry_dir: None,
            fault: FaultPlan::default(),
        }
    }

    #[test]
    fn budgets_match_across_methods() {
        let sp = sp();
        assert_eq!(Method::FedAvg.slots_per_round(&sp), 2);
        assert_eq!(Method::StochasticAfl.slots_per_round(&sp), 1);
        assert_eq!(Method::Drfa.slots_per_round(&sp), 2);
        assert_eq!(Method::HierMinimax.slots_per_round(&sp), 4);
        // Rounds × slots/round == total_slots for divisible budgets.
        for m in Method::all() {
            let spr = m.slots_per_round(&sp);
            assert_eq!(sp.rounds(spr) * spr, 16, "{m:?}");
        }
    }

    #[test]
    fn suite_runs_all_methods() {
        let sc = tiny_problem(3, 2, 1);
        let fp = hm_core::FederatedProblem::logistic_from_scenario(&sc);
        let out = run_suite(&fp, &sp(), 42);
        assert_eq!(out.len(), 5);
        for (m, r) in &out {
            let slots = r.history.rounds.last().unwrap().slots_done;
            assert_eq!(slots, 16, "{} consumed {} slots", m.name(), slots);
            assert!(
                r.history.final_eval().is_some(),
                "{} never evaluated",
                m.name()
            );
        }
        // One cloud round per training round for every method, so per slot
        // budget: {HierFAVG, HierMinimax} < {FedAvg, DRFA} < AFL under
        // τ1 = τ2 = 2.
        let rounds: Vec<u64> = out.iter().map(|(_, r)| r.comm.cloud_rounds()).collect();
        let (fedavg, afl, drfa, hierfavg, hm) =
            (rounds[0], rounds[1], rounds[2], rounds[3], rounds[4]);
        assert_eq!(hierfavg, 4);
        assert_eq!(hm, 4);
        assert_eq!(fedavg, 8);
        assert_eq!(drfa, 8);
        assert_eq!(afl, 16);
    }

    #[test]
    fn telemetry_dir_writes_one_valid_stream_per_method() {
        let dir = std::env::temp_dir().join(format!("hm-bench-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc = tiny_problem(3, 2, 9);
        let fp = hm_core::FederatedProblem::logistic_from_scenario(&sc);
        let mut params = sp();
        params.telemetry_dir = Some(dir.clone());
        let out = run_suite(&fp, &params, 42);
        for (m, r) in &out {
            let slug = m.name().to_lowercase().replace('-', "_");
            let path = dir.join(format!("telemetry_{slug}.jsonl"));
            let body = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let summary = hm_telemetry::validate_stream(&body)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(summary.runs, 1, "{}", m.name());
            assert_eq!(
                summary.events_by_kind.get("round_end"),
                Some(&r.history.rounds.len()),
                "{}",
                m.name()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
