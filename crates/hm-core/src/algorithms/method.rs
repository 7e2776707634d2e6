//! The method table: the eight algorithms an entry point runs, by their
//! `--method` flag, with the hyper-parameters each reads, the run options
//! each honours, the time slots one of its rounds takes, and the §6
//! matched budget (DESIGN.md §7c). `(Method, Hyper, RunOpts)` is the one
//! description of a run: [`Method::build`] checks it and maps it to the
//! round driver's policies, and [`HierMinimax::new`] converts its config
//! into it.
//!
//! [`HierMinimax::new`]: super::HierMinimax::new

use super::driver::{self, Blocks, Driver, Dual, Fold, RoundSpec, Sampler};
use super::{Algorithm, RunError, RunOpts, RunResult, UpperLevel, WeightUpdateModel};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// An algorithm an entry point can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// HierMinimax — three-layer minimax, the paper's Algorithm 1 (see
    /// [`HierMinimax`](super::HierMinimax)).
    HierMinimax,
    /// HierFAVG (Liu et al., *Client-Edge-Cloud Hierarchical Federated
    /// Learning*, ICC 2020) — three-layer *minimization*: HierMinimax's
    /// Phase 1 (`τ2` client-edge aggregations of `τ1` local steps)
    /// solving problem (1), with no edge weights and no Phase 2. Edges
    /// are sampled uniformly and the cloud weighs each by its
    /// training-data volume (the `q_n ∝ data` convention of eq. 1). With
    /// a stochastic codec it is Hier-Local-QSGD.
    HierFavg,
    /// FedAvg (McMahan et al., AISTATS 2017) — two-layer minimization:
    /// a uniform client sample runs `τ1` local steps from the broadcast
    /// model and the cloud averages the results weighted by local data
    /// size, the `q_n ∝ data` choice of eq. (1) that under-serves
    /// data-poor clients. With edges of one client it is HierFAVG with
    /// `τ2 = 1`, bit for bit while no client drops
    /// (`tests/oracle_diff.rs`).
    FedAvg,
    /// FedProx (Li et al., MLSys 2020) — FedAvg with the proximal term
    /// `μ/2 ‖w − w^(k)‖²` on each client's local objective, which bounds
    /// client drift over multi-step local updates; the cloud takes the
    /// plain average. The standard non-fairness answer to heterogeneity,
    /// beside q-FedAvg's soft reweighting and HierMinimax's minimax.
    FedProx,
    /// Stochastic-AFL (Mohri, Sivek & Suresh, ICML 2019) — two-layer
    /// minimax with single-step local updates: one time slot per round.
    /// The cloud samples clients ∝ the mixture weights `q` for the model
    /// step and a uniform set for the loss estimates of the `q` ascent
    /// step; both ride the round's one client-cloud exchange. `q` lives
    /// on the client simplex, and the history sums it per edge area. On
    /// client units this is DRFA with `τ1 = 1`, estimating the losses on
    /// the round-start model the sampled clients already hold; with
    /// edges of one client it is HierMinimax with `τ1 = τ2 = 1` and
    /// [`WeightUpdateModel::RoundStart`], bit for bit while no client
    /// drops (`tests/oracle_diff.rs`).
    StochasticAfl,
    /// DRFA (Deng, Kamani & Mahdavi, NeurIPS 2020) — two-layer minimax
    /// with multi-step local updates: clients sampled ∝ `q` run `τ1`
    /// local steps and upload the final model and a checkpoint at a
    /// uniformly random step; a uniform client set estimates the
    /// checkpoint's losses, and `q ← Π_Δ(q + η_q τ1 v)`. The checkpoint
    /// exchange is metered but shares the round's one client-cloud
    /// round (Table 1's O(1) per round). HierMinimax with `τ2 = 1` on
    /// edges of one client is exactly this method, bit for bit while no
    /// client drops (`tests/oracle_diff.rs`).
    Drfa,
    /// q-FedAvg (Li, Sanjabi, Beirami & Smith, ICLR 2020, the paper's
    /// reference \[19\]) — q-fair two-layer minimization: a soft emphasis
    /// on high-loss clients through `Σ_k F_k^{q+1}/(q+1)`, from FedAvg
    /// (`q = 0`) toward minimax (`q → ∞`); the server step is in the
    /// `qffl` module.
    QFedAvg,
    /// Multi-level HierMinimax — the paper's §3 generalisation beyond
    /// three layers: clients → edges → [`Hyper::upper`]'s levels of
    /// regions → cloud, with `p` on the top-level groups. With no upper
    /// level it is the three-layer tree.
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
    /// [`Hyper::weight_update_model`].
    WeightUpdate,
    /// [`Hyper::quantizer`].
    Quantizer,
}

/// A run option that only some methods honour; the CLI refuses it for the
/// others, naming the flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opt {
    /// [`RunOpts::aggregator`]: q-FedAvg's server step is not an average.
    Aggregator,
    /// The upload codec, [`Hyper::quantizer`].
    Codec,
    /// [`RunOpts::quarantine_z`]: MultiLevel's tree reports no per-client
    /// norms.
    Quarantine,
    /// [`RunOpts::churn`].
    Churn,
}

/// The hyper-parameters of one run. A method reads the ones
/// [`Method::reads`] names and ignores the rest.
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
    /// MultiLevel's levels of regions above the edges, top first (empty =
    /// the three-layer tree).
    pub upper: Vec<UpperLevel>,
    /// Which model HierMinimax's Phase 2 evaluates (the ablation hook).
    pub weight_update_model: WeightUpdateModel,
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
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            weight_update_model: WeightUpdateModel::RandomCheckpoint,
            quantizer: Quantizer::Exact,
        }
    }
}

/// Edges under one MultiLevel top-level group: `Π group_size`.
fn edges_per_group(h: &Hyper) -> usize {
    h.upper.iter().map(|u| u.group_size).product()
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

    /// Whether the method's run reads `param`.
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
            Param::WeightUpdate => self == HierMinimax,
            Param::Quantizer => matches!(self, HierMinimax | HierFavg),
        }
    }

    /// Whether the method honours `opt`. Every method honours the fault
    /// plan, the adversary and the stale-round cap.
    pub fn honours(self, opt: Opt) -> bool {
        match opt {
            Opt::Aggregator => self != Method::QFedAvg,
            Opt::Codec => self.reads(Param::Quantizer),
            Opt::Quarantine => self != Method::MultiLevel,
            Opt::Churn => matches!(self, Method::HierMinimax | Method::HierFavg),
        }
    }

    /// Time slots one training round takes: the local steps of a client
    /// between two cloud aggregations.
    pub fn slots_per_round(self, h: &Hyper) -> usize {
        match self {
            Method::StochasticAfl => 1,
            Method::FedAvg | Method::FedProx | Method::Drfa | Method::QFedAvg => h.tau1,
            Method::HierMinimax | Method::HierFavg => h.tau1 * h.tau2,
            Method::MultiLevel => {
                h.tau1 * h.tau2 * h.upper.iter().map(|u| u.tau).product::<usize>()
            }
        }
    }

    /// The §6 matched budget: `h` with the rounds that fit `total_slots`
    /// time slots (at least one) and the participation of `h.m` edges. A
    /// two-layer method samples their `m · N_0` clients, and MultiLevel
    /// the groups that hold them (at least one).
    ///
    /// # Panics
    /// Panics when `h.m` exceeds the problem's edges.
    pub fn matched(self, h: &Hyper, total_slots: usize, problem: &FederatedProblem) -> Hyper {
        let n_edges = problem.num_edges();
        assert!(h.m <= n_edges, "m_edges {} exceeds {n_edges} edges", h.m);
        let m = match self {
            Method::HierMinimax | Method::HierFavg => h.m,
            Method::MultiLevel => (h.m / edges_per_group(h)).max(1),
            _ => h.m * problem.clients_per_edge(),
        };
        Hyper {
            rounds: (total_slots / self.slots_per_round(h)).max(1),
            m,
            ..h.clone()
        }
    }

    /// The method's run of `h` under `opts`, which
    /// [`MethodRun::check`]s them against the problem before round 0.
    pub fn build(self, h: &Hyper, opts: RunOpts) -> MethodRun {
        MethodRun {
            method: self,
            h: h.clone(),
            opts,
        }
    }

    /// The round driver's spec for a checked run: the method's four
    /// policies, filled from the parameters it reads.
    pub(super) fn spec<'a>(self, h: &'a Hyper, opts: &'a RunOpts) -> RoundSpec<'a> {
        use Method::*;
        let dual = match self {
            HierMinimax => Some(h.weight_update_model),
            StochasticAfl => Some(WeightUpdateModel::RoundStart),
            Drfa | MultiLevel => Some(WeightUpdateModel::RandomCheckpoint),
            HierFavg | FedAvg | FedProx | QFedAvg => None,
        }
        .map(|model| Dual {
            eta_p: h.eta_p,
            loss_batch: h.loss_batch,
            model,
        });
        let blocks = match self {
            HierMinimax | HierFavg => Blocks::Edges { tau2: h.tau2 },
            MultiLevel => Blocks::Tree {
                tau2: h.tau2,
                upper: &h.upper,
            },
            _ => Blocks::Clients {
                mu: if self == FedProx { h.mu } else { 0.0 },
            },
        };
        // The minimax methods draw ∝ `p` and weigh each report by its
        // multiplicity in the draw; the others draw uniformly.
        let (sampler, fold) = match self {
            _ if dual.is_some() => (Sampler::Weighted(h.m), Fold::Multiplicity),
            FedProx => (Sampler::Uniform(h.m), Fold::Plain),
            QFedAvg => {
                let fold = Fold::Qffl {
                    q: h.q,
                    loss_batch: h.loss_batch,
                };
                (Sampler::Uniform(h.m), fold)
            }
            _ => (Sampler::Uniform(h.m), Fold::Volume),
        };
        RoundSpec {
            method: self,
            rounds: h.rounds,
            tau1: if self.reads(Param::Tau1) { h.tau1 } else { 1 },
            eta_w: h.eta_w,
            batch_size: h.batch_size,
            quantizer: if self.reads(Param::Quantizer) {
                h.quantizer
            } else {
                Quantizer::Exact
            },
            opts,
            sampler,
            blocks,
            fold,
            dual,
        }
    }
}

/// A method's run, from [`Method::build`].
#[derive(Debug, Clone)]
pub struct MethodRun {
    method: Method,
    h: Hyper,
    opts: RunOpts,
}

impl MethodRun {
    /// The run check: refuse a run on `problem` with `seed` that the
    /// method cannot make, or a resume snapshot that does not fit it,
    /// before round 0. [`Algorithm::try_run`] makes the same checks first.
    ///
    /// # Panics
    /// Panics on a degenerate config (no rounds, steps, participants or
    /// batch), a negative FedProx `μ` or q-FedAvg `q`, an empty loss
    /// batch, an active churn plan the method does not honour, or more
    /// participants than the problem has units; and with `cannot resume:
    /// …` on a resume snapshot of another run, problem shape or state
    /// (DESIGN.md §12). A fresh run does no work beyond the config check.
    pub fn check(&self, problem: &FederatedProblem, seed: u64) {
        self.check_config(problem);
        if self.opts.checkpoint.resume.is_some() {
            Driver::new(problem, seed, self.method.spec(&self.h, &self.opts)).resume();
        }
    }

    /// The config half of [`MethodRun::check`].
    fn check_config(&self, problem: &FederatedProblem) {
        let (method, h, opts) = (self.method, &self.h, &self.opts);
        let reads = |p| method.reads(p);
        assert!(h.rounds > 0 && (h.tau1 > 0 || !reads(Param::Tau1)));
        assert!(h.tau2 > 0 || !reads(Param::Tau2));
        assert!(h.batch_size > 0);
        assert!(!reads(Param::Upper) || h.upper.iter().all(|u| u.group_size > 0 && u.tau > 0));
        if reads(Param::Mu) {
            assert!(h.mu >= 0.0 && h.mu.is_finite(), "mu must be non-negative");
        }
        if reads(Param::Q) {
            assert!(h.q >= 0.0, "q must be non-negative");
            assert!(h.eta_w > 0.0, "eta_w must be positive");
        }
        // An empty loss mini-batch fails before round 0, in Phase 2 and in
        // q-FedAvg's loss report alike.
        if reads(Param::LossBatch) {
            assert!(h.loss_batch > 0, "loss_batch must be positive");
        }
        assert!(
            opts.churn.is_none() || method.honours(Opt::Churn),
            "{} does not support membership churn; use HierMinimax",
            method.name()
        );
        let n_edges = problem.num_edges();
        let per = edges_per_group(h);
        let (unit, units) = match method {
            Method::HierMinimax | Method::HierFavg => ("edge", n_edges),
            Method::MultiLevel => {
                assert!(
                    n_edges.is_multiple_of(per),
                    "{n_edges} edges do not divide into groups of {per}"
                );
                ("group", n_edges / per)
            }
            _ => ("client", problem.topology().total_clients()),
        };
        assert!(h.m > 0, "need at least one participating {unit}");
        assert!(h.m <= units, "m_{unit}s {} exceeds {units} {unit}s", h.m);
    }
}

impl Algorithm for MethodRun {
    fn name(&self) -> &'static str {
        self.method.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        // The driver decodes a resume snapshot before round 0.
        self.check_config(problem);
        driver::run(problem, seed, self.method.spec(&self.h, &self.opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn opts() -> RunOpts {
        RunOpts {
            eval_every: 1,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        }
    }

    /// Fast settings for the tiny problems below.
    fn quick(rounds: usize, m: usize) -> Hyper {
        Hyper {
            rounds,
            m,
            eta_w: 0.1,
            eta_p: 0.1,
            loss_batch: 4,
            ..Hyper::default()
        }
    }

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

    #[test]
    fn every_method_takes_one_cloud_round_per_round_and_reduces_the_objective() {
        // The matched budget of every edge: full participation.
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 3));
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        for m in Method::ALL {
            let h = m.matched(&quick(1, 4), 160, &fp);
            let r = m.build(&h, opts()).run(&fp, 5);
            assert_eq!(r.comm.cloud_rounds(), h.rounds as u64, "{m:?}");
            let slots = r.history.rounds.last().unwrap().slots_done;
            assert_eq!(slots, 160, "{m:?}");
            let after = fp.objective(&r.final_w, &p0);
            assert!(after < before * 0.8, "{m:?}: objective {before} -> {after}");
        }
    }

    #[test]
    fn afl_takes_one_slot_per_round_and_moves_its_weights() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(3, 2, 2));
        let r = Method::StochasticAfl
            .build(&quick(20, 4), opts())
            .run(&fp, 3);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 20);
        let sum: f32 = r.final_p.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "p doesn't sum to 1: {:?}",
            r.final_p
        );
        assert!(r.final_p.iter().any(|&x| (x - 1.0 / 3.0).abs() > 1e-3));
    }

    #[test]
    fn drfa_weights_move_off_uniform_and_stay_on_the_simplex() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(3, 2, 2));
        let h = Hyper {
            tau1: 2,
            ..quick(20, 4)
        };
        let r = Method::Drfa.build(&h, opts()).run(&fp, 3);
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(r.final_p.iter().any(|&x| (x - 1.0 / 3.0).abs() > 1e-3));
    }

    #[test]
    fn hierfavg_weights_stay_uniform() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 2));
        let r = Method::HierFavg.build(&quick(3, 2), opts()).run(&fp, 1);
        assert_eq!(r.final_p, vec![0.25; 4]);
        for rec in &r.history.rounds {
            assert_eq!(rec.p, vec![0.25; 4]);
        }
    }

    #[test]
    fn fedprox_mu_shrinks_the_round_update() {
        // The proximal term tethers clients to the broadcast model, so the
        // aggregated per-round update shrinks with mu.
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(3, 2, 88));
        let first_step = |mu: f32| -> f64 {
            let h = Hyper {
                tau1: 4,
                mu,
                ..quick(1, 4)
            };
            let r = Method::FedProx.build(&h, opts()).run(&fp, 5);
            // Initial model is all zeros for logistic, so ||w1|| is the
            // update magnitude.
            hm_tensor::vecops::norm2(&r.final_w)
        };
        let free = first_step(0.0);
        let tethered = first_step(5.0);
        assert!(
            tethered < free,
            "mu did not shrink the update: {tethered} vs {free}"
        );
    }

    #[test]
    #[should_panic(expected = "m_clients 100 exceeds 4 clients")]
    fn too_many_clients_panics() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(2, 2, 1));
        let _ = Method::FedAvg.build(&quick(1, 100), opts()).run(&fp, 0);
    }

    #[test]
    #[should_panic(expected = "m_edges 5 exceeds 2 edges")]
    fn too_many_edges_panics() {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(2, 2, 1));
        let _ = Method::HierMinimax.build(&quick(1, 5), opts()).run(&fp, 0);
    }
}
