//! The method table: the eight algorithms an entry point runs, by their
//! `--method` flag, with the hyper-parameters each reads, the time slots
//! one of its rounds takes, and the §6 matched budget (DESIGN.md §7c).
//! `hierminimax run`, `compare` and the bench suite build every algorithm
//! through [`Method::build`].

use super::{
    AflConfig, Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, FedProx, FedProxConfig, HierFavg,
    HierFavgConfig, HierMinimax, HierMinimaxConfig, MultiLevelConfig, MultiLevelMinimax, QFedAvg,
    QfflConfig, RunOpts, StochasticAfl, UpperLevel,
};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// An algorithm an entry point can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// HierMinimax — three-layer minimax (the paper's algorithm).
    HierMinimax,
    /// HierFAVG — three-layer minimization.
    HierFavg,
    /// FedAvg — two-layer minimization (multi-step).
    FedAvg,
    /// FedProx — FedAvg with a proximal term (extension baseline).
    FedProx,
    /// Stochastic-AFL — two-layer minimax (single-step).
    StochasticAfl,
    /// DRFA — two-layer minimax (multi-step).
    Drfa,
    /// q-FedAvg — q-fair two-layer minimization (extension baseline).
    QFedAvg,
    /// Multi-level HierMinimax with one level of regions above the edges.
    MultiLevel,
}

/// A hyper-parameter that only some methods read. Every method reads
/// [`Hyper::rounds`], [`Hyper::m`], [`Hyper::eta_w`] and
/// [`Hyper::batch_size`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// [`Hyper::tau1`].
    Tau1,
    /// [`Hyper::tau2`].
    Tau2,
    /// [`Hyper::eta_p`].
    EtaP,
    /// [`Hyper::loss_batch`].
    LossBatch,
    /// [`Hyper::mu`].
    Mu,
    /// [`Hyper::q`].
    Q,
    /// [`Hyper::upper`].
    Upper,
    /// [`Hyper::quantizer`].
    Quantizer,
}

/// The hyper-parameters of one run. [`Method::build`] fills a method's
/// config from the ones it [reads](Method::reads) and ignores the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyper {
    /// Training rounds.
    pub rounds: usize,
    /// Local SGD steps per block (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Units sampled per round: edges, clients (two-layer methods) or
    /// top-level groups (MultiLevel).
    pub m: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate (`η_p`, Stochastic-AFL's and DRFA's `η_q`).
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation.
    pub loss_batch: usize,
    /// FedProx's proximal coefficient.
    pub mu: f32,
    /// q-FedAvg's fairness exponent.
    pub q: f64,
    /// MultiLevel's one level of regions above the edges.
    pub upper: UpperLevel,
    /// Uplink codec (HierMinimax and HierFAVG).
    pub quantizer: Quantizer,
}

impl Default for Hyper {
    /// The `hierminimax run` defaults.
    fn default() -> Self {
        Self {
            rounds: 500,
            tau1: 2,
            tau2: 2,
            m: 2,
            eta_w: 0.02,
            eta_p: 0.005,
            batch_size: 2,
            loss_batch: 16,
            mu: 0.1,
            q: 1.0,
            upper: UpperLevel {
                group_size: 2,
                tau: 2,
            },
            quantizer: Quantizer::Exact,
        }
    }
}

impl Method {
    /// Every method, in the `--method` usage order.
    pub const ALL: [Method; 8] = [
        Method::HierMinimax,
        Method::HierFavg,
        Method::FedAvg,
        Method::FedProx,
        Method::StochasticAfl,
        Method::Drfa,
        Method::QFedAvg,
        Method::MultiLevel,
    ];

    /// The five methods of the paper's evaluation (§6), in its
    /// presentation order.
    pub const PAPER: [Method; 5] = [
        Method::FedAvg,
        Method::StochasticAfl,
        Method::Drfa,
        Method::HierFavg,
        Method::HierMinimax,
    ];

    /// The method a `--method` value names.
    pub fn parse(flag: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.flag() == flag)
    }

    /// The `--method` value.
    pub fn flag(self) -> &'static str {
        self.labels().0
    }

    /// The display name, which is also [`Algorithm::name`] and the
    /// `algorithm` of the method's snapshots and streams.
    pub fn name(self) -> &'static str {
        self.labels().1
    }

    /// `(flag, name)`.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Method::HierMinimax => ("hierminimax", "HierMinimax"),
            Method::HierFavg => ("hierfavg", "HierFAVG"),
            Method::FedAvg => ("fedavg", "FedAvg"),
            Method::FedProx => ("fedprox", "FedProx"),
            Method::StochasticAfl => ("afl", "Stochastic-AFL"),
            Method::Drfa => ("drfa", "DRFA"),
            Method::QFedAvg => ("qffl", "q-FedAvg"),
            Method::MultiLevel => ("multilevel", "MultiLevelMinimax"),
        }
    }

    /// Whether [`Method::build`] reads `param`.
    pub fn reads(self, param: Param) -> bool {
        use Method::*;
        match param {
            Param::Tau1 => self != StochasticAfl,
            Param::Tau2 => matches!(self, HierMinimax | HierFavg | MultiLevel),
            Param::EtaP => matches!(self, HierMinimax | StochasticAfl | Drfa | MultiLevel),
            Param::LossBatch => {
                matches!(
                    self,
                    HierMinimax | StochasticAfl | Drfa | QFedAvg | MultiLevel
                )
            }
            Param::Mu => self == FedProx,
            Param::Q => self == QFedAvg,
            Param::Upper => self == MultiLevel,
            Param::Quantizer => matches!(self, HierMinimax | HierFavg),
        }
    }

    /// Time slots one training round takes: the local steps of a client
    /// between two cloud aggregations.
    pub fn slots_per_round(self, h: &Hyper) -> usize {
        match self {
            Method::StochasticAfl => 1,
            Method::FedAvg | Method::FedProx | Method::Drfa | Method::QFedAvg => h.tau1,
            Method::HierMinimax | Method::HierFavg => h.tau1 * h.tau2,
            Method::MultiLevel => h.tau1 * h.tau2 * h.upper.tau,
        }
    }

    /// The §6 matched budget: `h` with the rounds that fit `total_slots`
    /// time slots (at least one) and the participation of `h.m` edges. A
    /// two-layer method samples their `m · N_0` clients, and MultiLevel
    /// the groups of `group_size` edges that hold them (at least one).
    ///
    /// # Panics
    /// Panics when `h.m` exceeds the problem's edges.
    pub fn matched(self, h: &Hyper, total_slots: usize, problem: &FederatedProblem) -> Hyper {
        let n_edges = problem.num_edges();
        assert!(h.m <= n_edges, "m_edges {} exceeds {n_edges} edges", h.m);
        let m = match self {
            Method::HierMinimax | Method::HierFavg => h.m,
            Method::MultiLevel => (h.m / h.upper.group_size).max(1),
            _ => h.m * problem.clients_per_edge(),
        };
        Hyper {
            rounds: (total_slots / self.slots_per_round(h)).max(1),
            m,
            ..h.clone()
        }
    }

    /// The method's runner, its config filled from `h`.
    ///
    /// # Panics
    /// Panics where the method's constructor does: on a degenerate config.
    pub fn build(self, h: &Hyper, opts: RunOpts) -> Box<dyn Algorithm> {
        match self {
            Method::HierMinimax => Box::new(HierMinimax::new(HierMinimaxConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                tau2: h.tau2,
                m_edges: h.m,
                eta_w: h.eta_w,
                eta_p: h.eta_p,
                batch_size: h.batch_size,
                loss_batch: h.loss_batch,
                weight_update_model: Default::default(),
                quantizer: h.quantizer,
                opts,
            })),
            Method::HierFavg => Box::new(HierFavg::new(HierFavgConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                tau2: h.tau2,
                m_edges: h.m,
                eta_w: h.eta_w,
                batch_size: h.batch_size,
                quantizer: h.quantizer,
                opts,
            })),
            Method::FedAvg => Box::new(FedAvg::new(FedAvgConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                m_clients: h.m,
                eta_w: h.eta_w,
                batch_size: h.batch_size,
                opts,
            })),
            Method::FedProx => Box::new(FedProx::new(FedProxConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                m_clients: h.m,
                mu: h.mu,
                eta_w: h.eta_w,
                batch_size: h.batch_size,
                opts,
            })),
            Method::StochasticAfl => Box::new(StochasticAfl::new(AflConfig {
                rounds: h.rounds,
                m_clients: h.m,
                eta_w: h.eta_w,
                eta_q: h.eta_p,
                batch_size: h.batch_size,
                loss_batch: h.loss_batch,
                opts,
            })),
            Method::Drfa => Box::new(Drfa::new(DrfaConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                m_clients: h.m,
                eta_w: h.eta_w,
                eta_q: h.eta_p,
                batch_size: h.batch_size,
                loss_batch: h.loss_batch,
                opts,
            })),
            Method::QFedAvg => Box::new(QFedAvg::new(QfflConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                m_clients: h.m,
                q: h.q,
                eta_w: h.eta_w,
                batch_size: h.batch_size,
                loss_batch: h.loss_batch,
                opts,
            })),
            Method::MultiLevel => Box::new(MultiLevelMinimax::new(MultiLevelConfig {
                rounds: h.rounds,
                tau1: h.tau1,
                tau2: h.tau2,
                upper: vec![h.upper],
                m_groups: h.m,
                eta_w: h.eta_w,
                eta_p: h.eta_p,
                batch_size: h.batch_size,
                loss_batch: h.loss_batch,
                opts,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    #[test]
    fn every_flag_round_trips_and_names_the_built_algorithm() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.flag()), Some(m));
            let alg = m.build(&Hyper::default(), RunOpts::default());
            assert_eq!(alg.name(), m.name());
        }
        assert_eq!(Method::parse("sgd"), None);
    }

    #[test]
    fn matched_budget_fills_a_divisible_slot_count() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 1));
        let h = Hyper::default();
        let spr = Method::ALL.map(|m| m.slots_per_round(&h));
        assert_eq!(spr, [4, 4, 2, 2, 1, 2, 2, 8]);
        for m in Method::ALL {
            let b = m.matched(&h, 16, &fp);
            assert_eq!(b.rounds * m.slots_per_round(&b), 16, "{m:?}");
        }
        // Two-layer methods sample the clients of m edges, MultiLevel the
        // groups that hold them.
        assert_eq!(Method::FedAvg.matched(&h, 16, &fp).m, 4);
        assert_eq!(Method::MultiLevel.matched(&h, 16, &fp).m, 1);
        let all = Hyper { m: 4, ..h.clone() };
        assert_eq!(Method::Drfa.matched(&all, 16, &fp).m, 8);
        assert_eq!(Method::MultiLevel.matched(&all, 16, &fp).m, 2);
        // A budget below one round still runs one.
        assert_eq!(Method::MultiLevel.matched(&h, 3, &fp).rounds, 1);
    }
}
