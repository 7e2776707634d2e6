//! Property-based scenario generation.
//!
//! A [`ScenarioSpec`] is a plain, `Debug`-printable description of one
//! end-to-end test case — topology, periods, participation, fault plan,
//! quantizer, constrained `P` set, and both seeds — from which the problem
//! and the run's [`Hyper`] and [`RunOpts`] can be built. Keeping the spec a value type
//! (rather than generating problems directly) is what makes proptest's
//! case reporting and regression pinning meaningful: a failing case prints
//! and replays as a handful of integers.
//!
//! The strategies stick to the portable proptest core (unweighted
//! `prop_oneof!`, `prop_map`, tuple and range strategies); weighting is
//! expressed by duplicating arms, and dependent fields (`m ≤ n`) by
//! mapping a free integer instead of `prop_flat_map`.

use hm_core::algorithms::{Hyper, RunOpts, UpperLevel, WeightUpdateModel};
use hm_core::problem::FederatedProblem;
use hm_data::scenarios::tiny_problem;
use hm_optim::ProjectionOp;
use hm_simnet::{AttackModel, FaultPlan, Parallelism, Quantizer};
use hm_telemetry::{MemorySink, Telemetry};
use hm_tensor::Aggregator;
use proptest::prelude::*;
use std::sync::Arc;

/// The constrained weight domain `P` of problem (3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PDomainSpec {
    /// The full probability simplex (the paper's default).
    Simplex,
    /// A capped simplex `{p : lo ≤ p_e ≤ hi, Σ p = 1}` — the "constrained
    /// `P`" extension exercised by the conformance checker's feasibility
    /// invariant.
    CappedSimplex {
        /// Per-coordinate lower bound.
        lo: f32,
        /// Per-coordinate upper bound.
        hi: f32,
    },
}

impl PDomainSpec {
    /// The projection operator for this domain.
    pub fn projection(&self) -> ProjectionOp {
        match *self {
            PDomainSpec::Simplex => ProjectionOp::Simplex,
            PDomainSpec::CappedSimplex { lo, hi } => ProjectionOp::CappedSimplex { lo, hi },
        }
    }
}

/// One generated three-layer scenario: everything needed to build the
/// problem and run HierMinimax / HierFAVG on it deterministically.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Edge areas `N_E`.
    pub n_edges: usize,
    /// Clients per edge `N_0`.
    pub clients_per_edge: usize,
    /// Seed of the synthetic dataset generator.
    pub data_seed: u64,
    /// Master seed of the algorithm run.
    pub run_seed: u64,
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local steps per block `τ1`.
    pub tau1: usize,
    /// Blocks per round `τ2`.
    pub tau2: usize,
    /// Participating edges per phase `m_E`.
    pub m_edges: usize,
    /// Injected-fault plan (client crashes, outages, message loss,
    /// stragglers); the conformance automaton replays its keyed streams
    /// alongside the run.
    pub fault: FaultPlan,
    /// Uplink codec.
    pub quantizer: Quantizer,
    /// Constrained weight domain `P`.
    pub p_domain: PDomainSpec,
    /// Which model Phase 2 evaluates.
    pub weight_update_model: WeightUpdateModel,
}

/// Runner options every generated case uses: sequential (the reference
/// execution order), no mid-run evaluation.
pub fn case_opts() -> RunOpts {
    RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Sequential,
        ..Default::default()
    }
}

/// Attach a fresh in-memory telemetry sink to `opts` and return it: the
/// run's event stream, for the conformance replay.
pub fn record(opts: &mut RunOpts) -> Arc<MemorySink> {
    let sink = Arc::new(MemorySink::new());
    opts.telemetry = Telemetry::with_sink(sink.clone());
    sink
}

impl ScenarioSpec {
    /// Build the federated problem for this spec (multinomial logistic on
    /// the one-class-per-edge `tiny` scenario, with the spec's `P`).
    pub fn problem(&self) -> FederatedProblem {
        let sc = tiny_problem(self.n_edges, self.clients_per_edge, self.data_seed);
        let mut fp = FederatedProblem::logistic_from_scenario(&sc);
        fp.p_domain = self.p_domain.projection();
        fp
    }

    /// The hyper-parameters of this spec's HierMinimax or HierFAVG run
    /// (HierFAVG reads no `P` or Phase-2 knob).
    pub fn hyper(&self) -> Hyper {
        Hyper {
            rounds: self.rounds,
            tau1: self.tau1,
            tau2: self.tau2,
            m: self.m_edges,
            eta_w: 0.1,
            eta_p: 0.05,
            batch_size: 2,
            loss_batch: 3,
            weight_update_model: self.weight_update_model,
            quantizer: self.quantizer,
            ..Hyper::default()
        }
    }

    /// The run options of this spec: [`case_opts`] with its fault plan.
    pub fn opts(&self) -> RunOpts {
        RunOpts {
            fault: self.fault.clone(),
            ..case_opts()
        }
    }
}

/// One generated multi-level scenario (clients → edges → zero or one
/// intermediate level → cloud).
#[derive(Debug, Clone)]
pub struct MultiLevelSpec {
    /// Top-level (weighted) groups.
    pub groups: usize,
    /// Edges per group (forced to `1` when `with_upper` is false, which
    /// degenerates to the plain three-layer HierMinimax).
    pub group_size: usize,
    /// Whether an intermediate level exists at all.
    pub with_upper: bool,
    /// Aggregations of the level below per intermediate-level sync.
    pub tau_upper: usize,
    /// Clients per edge.
    pub clients_per_edge: usize,
    /// Seed of the synthetic dataset generator.
    pub data_seed: u64,
    /// Master seed of the algorithm run.
    pub run_seed: u64,
    /// Training rounds.
    pub rounds: usize,
    /// Local steps per block.
    pub tau1: usize,
    /// Blocks per edge-level sync.
    pub tau2: usize,
    /// Sampled groups per phase.
    pub m_groups: usize,
    /// Injected cloud-link fault plan (the multi-level conformance model
    /// covers edge outages and message loss; client-level classes stay
    /// zero here because inner subtrees key their streams by position
    /// tags the checker does not model).
    pub fault: FaultPlan,
}

impl MultiLevelSpec {
    /// Total edges of the underlying scenario.
    pub fn n_edges(&self) -> usize {
        self.groups * self.effective_group_size()
    }

    /// Group size after accounting for `with_upper`.
    pub fn effective_group_size(&self) -> usize {
        if self.with_upper {
            self.group_size
        } else {
            1
        }
    }

    /// Build the federated problem for this spec.
    pub fn problem(&self) -> FederatedProblem {
        let sc = tiny_problem(self.n_edges(), self.clients_per_edge, self.data_seed);
        FederatedProblem::logistic_from_scenario(&sc)
    }

    /// The hyper-parameters of this spec's MultiLevel run.
    pub fn hyper(&self) -> Hyper {
        let upper = if self.with_upper {
            vec![UpperLevel {
                group_size: self.group_size,
                tau: self.tau_upper,
            }]
        } else {
            Vec::new()
        };
        Hyper {
            rounds: self.rounds,
            tau1: self.tau1,
            tau2: self.tau2,
            upper,
            m: self.m_groups,
            eta_w: 0.1,
            eta_p: 0.02,
            batch_size: 2,
            loss_batch: 3,
            ..Hyper::default()
        }
    }

    /// The run options of this spec: [`case_opts`] with its fault plan.
    pub fn opts(&self) -> RunOpts {
        RunOpts {
            fault: self.fault.clone(),
            ..case_opts()
        }
    }
}

/// Strategy over per-block client crash rates: mostly failure-free,
/// sometimes partial (rounded to two decimals so cases print cleanly),
/// occasionally the total-blackout corner (`1.0`).
pub fn arb_client_crash() -> impl Strategy<Value = f32> {
    let partial = || (0.05_f32..0.6).prop_map(|x| (x * 100.0).round() / 100.0);
    prop_oneof![
        Just(0.0_f32),
        Just(0.0_f32),
        Just(0.0_f32),
        partial(),
        partial(),
        Just(1.0_f32),
    ]
}

/// Strategy over injected-fault plans: mostly fault-free, with arms for
/// each cloud-link fault class (outages, lossy deliveries with bounded
/// retries, in/out-of-deadline stragglers), the all-out corner that forces
/// stale rounds, and a combined "chaos" mix. Rates are rounded to two
/// decimals so failing cases print and replay cleanly.
pub fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let rate = || (0.05_f32..0.5).prop_map(|x| (x * 100.0).round() / 100.0);
    prop_oneof![
        Just(FaultPlan::default()),
        Just(FaultPlan::default()),
        Just(FaultPlan::default()),
        rate().prop_map(|r| FaultPlan {
            edge_outage: r,
            ..FaultPlan::default()
        }),
        (rate(), 0u32..=3).prop_map(|(r, max_retries)| FaultPlan {
            msg_loss: r,
            max_retries,
            ..FaultPlan::default()
        }),
        rate().prop_map(|r| FaultPlan {
            straggler_rate: r,
            straggler_slowdown: 3.0,
            deadline_factor: 1.5,
            ..FaultPlan::default()
        }),
        Just(FaultPlan {
            edge_outage: 1.0,
            ..FaultPlan::default()
        }),
        (rate(), rate()).prop_map(|(o, l)| FaultPlan {
            edge_outage: o,
            msg_loss: l,
            max_retries: 1,
            ..FaultPlan::default()
        }),
    ]
}

/// Strategy over client-level fault plans — the classes the naive oracle
/// models: crashes, stragglers (some past the deadline), Byzantine
/// corruption under every attack model, and a mix of all three. Cloud-link
/// classes stay zero.
pub fn arb_client_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let rate = || (0.05_f32..0.5).prop_map(|x| (x * 100.0).round() / 100.0);
    let attack = || {
        prop_oneof![
            Just(AttackModel::SignFlip),
            Just(AttackModel::Scale),
            Just(AttackModel::Noise),
            Just(AttackModel::Zero),
            Just(AttackModel::Collude),
        ]
    };
    let stragglers = |r: f32| FaultPlan {
        straggler_rate: r,
        straggler_slowdown: 3.0,
        deadline_factor: 1.5,
        ..FaultPlan::default()
    };
    prop_oneof![
        Just(FaultPlan::default()),
        rate().prop_map(|r| FaultPlan {
            client_crash: r,
            ..FaultPlan::default()
        }),
        rate().prop_map(stragglers),
        (rate(), attack(), 1usize..=8).prop_map(|(r, attack, scale)| FaultPlan {
            corrupt_rate: r,
            attack,
            attack_scale: scale as f64,
            ..FaultPlan::default()
        }),
        (rate(), rate(), rate(), attack()).prop_map(move |(crash, slow, corrupt, attack)| {
            FaultPlan {
                client_crash: crash,
                corrupt_rate: corrupt,
                attack,
                attack_scale: 4.0,
                ..stragglers(slow)
            }
        }),
    ]
}

/// Strategy over client→edge and edge→cloud aggregation rules: the mean
/// and each robust rule with a drawn parameter.
pub fn arb_aggregator() -> impl Strategy<Value = Aggregator> {
    prop_oneof![
        Just(Aggregator::Mean),
        Just(Aggregator::Mean),
        (1usize..=4).prop_map(|k| Aggregator::TrimmedMean {
            beta: 0.1 * k as f32
        }),
        Just(Aggregator::CoordinateMedian),
        (1usize..=8).prop_map(|k| Aggregator::NormClip {
            tau: 0.25 * k as f32
        }),
    ]
}

/// Strategy over cloud-link-only fault plans (for the multi-level checker,
/// which models outages and message loss but not subtree client faults).
pub fn arb_cloud_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let rate = || (0.05_f32..0.5).prop_map(|x| (x * 100.0).round() / 100.0);
    prop_oneof![
        Just(FaultPlan::default()),
        Just(FaultPlan::default()),
        rate().prop_map(|r| FaultPlan {
            edge_outage: r,
            ..FaultPlan::default()
        }),
        (rate(), 0u32..=2).prop_map(|(r, max_retries)| FaultPlan {
            msg_loss: r,
            max_retries,
            ..FaultPlan::default()
        }),
    ]
}

/// Strategy over uplink codecs: exact or stochastic at 2–8 bits.
pub fn arb_quantizer() -> impl Strategy<Value = Quantizer> {
    prop_oneof![
        Just(Quantizer::Exact),
        Just(Quantizer::Exact),
        (2u8..=8).prop_map(|bits| Quantizer::Stochastic { bits }),
    ]
}

/// Strategy over constrained `P` sets. The capped-simplex bounds admit the
/// uniform initial `p` for every generated edge count.
pub fn arb_p_domain() -> impl Strategy<Value = PDomainSpec> {
    prop_oneof![
        Just(PDomainSpec::Simplex),
        Just(PDomainSpec::Simplex),
        Just(PDomainSpec::CappedSimplex { lo: 0.02, hi: 0.75 }),
    ]
}

/// Strategy over the Phase-2 model choice (paper default weighted highest).
pub fn arb_weight_update_model() -> impl Strategy<Value = WeightUpdateModel> {
    prop_oneof![
        Just(WeightUpdateModel::RandomCheckpoint),
        Just(WeightUpdateModel::RandomCheckpoint),
        Just(WeightUpdateModel::FinalModel),
        Just(WeightUpdateModel::RoundStart),
    ]
}

/// Strategy over whole three-layer scenarios (see [`ScenarioSpec`]). The
/// participation count is derived from a free integer (`m = 1 + raw mod
/// n`) to keep `1 ≤ m_E ≤ N_E` without `prop_flat_map`.
pub fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            2usize..=5,
            1usize..=3,
            0u64..10_000,
            0u64..10_000,
            0usize..64,
        ),
        (1usize..=3, 1usize..=3, 1usize..=3),
        arb_client_crash(),
        (arb_fault_plan(), arb_quantizer()),
        (arb_p_domain(), arb_weight_update_model()),
    )
        .prop_map(
            |(
                (n_edges, clients_per_edge, data_seed, run_seed, m_raw),
                (rounds, tau1, tau2),
                client_crash,
                (fault, quantizer),
                (p_domain, weight_update_model),
            )| {
                ScenarioSpec {
                    n_edges,
                    clients_per_edge,
                    data_seed,
                    run_seed,
                    rounds,
                    tau1,
                    tau2,
                    m_edges: 1 + m_raw % n_edges,
                    fault: FaultPlan {
                        client_crash,
                        ..fault
                    },
                    quantizer,
                    p_domain,
                    weight_update_model,
                }
            },
        )
}

/// Strategy over multi-level scenarios (zero or one intermediate level).
pub fn arb_multilevel() -> impl Strategy<Value = MultiLevelSpec> {
    (
        (2usize..=3, 1usize..=2, any::<bool>(), 1usize..=3),
        (1usize..=2, 0u64..10_000, 0u64..10_000),
        (1usize..=3, 1usize..=2, 1usize..=2),
        0usize..64,
        arb_cloud_fault_plan(),
    )
        .prop_map(
            |(
                (groups, group_size, with_upper, tau_upper),
                (clients_per_edge, data_seed, run_seed),
                (rounds, tau1, tau2),
                m_raw,
                fault,
            )| {
                MultiLevelSpec {
                    groups,
                    group_size,
                    with_upper,
                    tau_upper,
                    clients_per_edge,
                    data_seed,
                    run_seed,
                    rounds,
                    tau1,
                    tau2,
                    m_groups: 1 + m_raw % groups,
                    fault,
                }
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_specs_are_well_formed(spec in arb_scenario()) {
            prop_assert!(spec.m_edges >= 1 && spec.m_edges <= spec.n_edges);
            prop_assert!((0.0..=1.0).contains(&spec.fault.client_crash));
            prop_assert!(spec.fault.validate().is_ok());
            let fp = spec.problem();
            prop_assert_eq!(fp.num_edges(), spec.n_edges);
            prop_assert_eq!(fp.clients_per_edge(), spec.clients_per_edge);
            // Capped-simplex bounds admit the uniform initial p.
            if let PDomainSpec::CappedSimplex { lo, hi } = spec.p_domain {
                let u = 1.0 / spec.n_edges as f32;
                prop_assert!(lo <= u && u <= hi);
                prop_assert!(lo * spec.n_edges as f32 <= 1.0);
                prop_assert!(hi * spec.n_edges as f32 >= 1.0);
            }
        }

        #[test]
        fn multilevel_specs_divide_evenly(spec in arb_multilevel()) {
            prop_assert!(spec.m_groups >= 1 && spec.m_groups <= spec.groups);
            let per: usize = spec.hyper().upper.iter().map(|u| u.group_size).product();
            prop_assert_eq!(spec.n_edges() % per.max(1), 0);
        }
    }
}
