//! Multi-level HierMinimax — the paper's claimed generalisation beyond
//! three layers ("we use [client-edge-cloud] as a representative example…
//! our work can be easily generalized", §3).
//!
//! The network is a tree: clients → edge servers → one or more levels of
//! intermediate aggregators ("regions") → cloud. Each intermediate level
//! `l` performs `τ_l` aggregations of the level below per aggregation of
//! the level above; the minimax weights `p` live on the level directly
//! under the cloud (the level whose mixture the cloud can actually
//! reweight), exactly as the paper's `p` lives on edge areas in the
//! three-layer case.
//!
//! Grouping is structural: level `l`'s groups are contiguous runs of the
//! level below. With `upper: []` this degenerates to HierMinimax itself
//! (weights on edge areas) — asserted in the tests.
//!
//! Communication metering note: links between intermediate levels are
//! metered on `ClientEdge` (local/cheap class) and only the top level's
//! exchange with the cloud on `EdgeCloud` (WAN class), consistent with the
//! cost model where everything below the cloud is site-local.

use super::driver::{self, Blocks, Dual, Fold, RoundSpec, Sampler};
use super::hier_common::{robust_reduce_into, run_edge_blocks, EdgeBlockParams};
use super::{Algorithm, Method, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::problem::FederatedProblem;
use hm_simnet::{Link, Quantizer};

/// One intermediate aggregation level above the edge servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperLevel {
    /// How many groups of the level below form one group of this level
    /// (contiguous grouping).
    pub group_size: usize,
    /// Aggregations of the level below per aggregation of this level.
    pub tau: usize,
}

/// Configuration of a multi-level HierMinimax run.
#[derive(Debug, Clone)]
pub struct MultiLevelConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per edge-level sync (`τ2`).
    pub tau2: usize,
    /// Intermediate levels above the edges, bottom-up (empty = the plain
    /// three-layer HierMinimax).
    pub upper: Vec<UpperLevel>,
    /// Top-level groups sampled per round (`m` of the weighted sampling).
    pub m_groups: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate (the update applies `η_p · Π τ`).
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation.
    pub loss_batch: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for MultiLevelConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            eta_w: 0.05,
            eta_p: 0.01,
            batch_size: 4,
            loss_batch: 16,
            opts: RunOpts::default(),
        }
    }
}

impl MultiLevelConfig {
    /// Time slots consumed per training round: `τ1 τ2 Π_l τ_l`.
    pub fn slots_per_round(&self) -> usize {
        self.tau1 * self.tau2 * self.upper.iter().map(|u| u.tau).product::<usize>()
    }

    /// Edges per top-level group: `Π_l group_size_l`.
    pub fn edges_per_group(&self) -> usize {
        self.upper.iter().map(|u| u.group_size).product()
    }
}

/// Multi-level HierMinimax.
#[derive(Debug, Clone)]
pub struct MultiLevelMinimax {
    cfg: MultiLevelConfig,
}

impl MultiLevelMinimax {
    /// Build a runner from a config.
    ///
    /// # Panics
    /// Panics on degenerate configs (zero rounds/taus/groups).
    pub fn new(cfg: MultiLevelConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_groups > 0 && cfg.batch_size > 0);
        assert!(cfg.upper.iter().all(|u| u.group_size > 0 && u.tau > 0));
        Self { cfg }
    }

    /// Number of top-level (weighted) groups for a problem.
    ///
    /// # Panics
    /// Panics unless the problem's edge count is divisible by the grouping.
    pub fn num_groups(&self, problem: &FederatedProblem) -> usize {
        let per = self.cfg.edges_per_group();
        let n = problem.num_edges();
        assert!(
            n.is_multiple_of(per),
            "{n} edges do not divide into groups of {per}"
        );
        n / per
    }
}

/// Recursive subtree update: runs the aggregation loop of upper level `li`
/// (an index into `upper`, top first) over `edges`, starting from
/// `w_start`, and returns the subtree's `(model, checkpoint)`.
///
/// `leaf` holds the block-phase parameters of the edge-level base case,
/// `cp_index` the round's checkpoint index (one coordinate per upper
/// level, then `(c1, c2)`), and `round_tag` keys the RNG streams uniquely
/// per (round, position) as `(tag · τ_l + t) · children + child`.
pub(super) fn subtree_update(
    leaf: &EdgeBlockParams<'_>,
    upper: &[UpperLevel],
    w_start: &[f32],
    edges: &[usize],
    li: usize,
    cp_index: &[usize],
    round_tag: usize,
) -> (Vec<f32>, Option<Vec<f32>>) {
    let agg = &leaf.aggregator;
    let mut agg_scratch: Vec<f32> = Vec::new();
    if li == upper.len() {
        // Base case: one edge-level block over these edges. Client faults
        // key on the tree depth as their level, so a deeper hierarchy
        // draws survival bits independent of the three-layer case even
        // when block indices coincide (with `upper: []` the depth is 0 and
        // the three-layer streams are preserved).
        let outputs = run_edge_blocks(&EdgeBlockParams {
            w_start,
            edges,
            level: upper.len(),
            round: round_tag,
            ..*leaf
        });
        let finals: Vec<&[f32]> = outputs.iter().map(|o| o.w_final.as_slice()).collect();
        let mut w = vec![0.0_f32; w_start.len()];
        robust_reduce_into(agg, &finals, None, w_start, &mut agg_scratch, &mut w);
        let cps: Vec<&[f32]> = outputs
            .iter()
            .map(|o| {
                o.checkpoint
                    .as_deref()
                    .expect("base level captures checkpoints")
            })
            .collect();
        let mut cp = vec![0.0_f32; w_start.len()];
        robust_reduce_into(agg, &cps, None, w_start, &mut agg_scratch, &mut cp);
        // The edge→aggregator upload is metered by the parent level's
        // gather (every recursion level records one gather over its
        // children), so nothing extra is recorded here.
        return (w, Some(cp));
    }

    let level = upper[li];
    // Split this subtree's edges into the child groups of the next level
    // down (contiguous, equal-sized by construction).
    let child_edges: usize = upper[li + 1..]
        .iter()
        .map(|u| u.group_size)
        .product::<usize>()
        .max(1);
    let children: Vec<&[usize]> = edges.chunks(child_edges).collect();
    let mut w = w_start.to_vec();
    let mut checkpoint: Option<Vec<f32>> = None;
    for t in 0..level.tau {
        // Broadcast down to children (intermediate link).
        leaf.meter
            .record_broadcast(Link::ClientEdge, w.len() as u64, children.len() as u64);
        let child_results: Vec<(Vec<f32>, Option<Vec<f32>>)> = children
            .iter()
            .enumerate()
            .map(|(ci, child)| {
                let tag = (round_tag * level.tau + t) * children.len() + ci;
                subtree_update(leaf, upper, &w, child, li + 1, cp_index, tag)
            })
            .collect();
        // Gather child models (+ checkpoints when this is the
        // checkpointed sub-block) and aggregate.
        leaf.meter
            .record_gather(Link::ClientEdge, 2 * w.len() as u64, children.len() as u64);
        leaf.meter.record_round(Link::ClientEdge);
        let base = if agg.needs_base() {
            w.clone()
        } else {
            Vec::new()
        };
        let models: Vec<&[f32]> = child_results.iter().map(|(m, _)| m.as_slice()).collect();
        robust_reduce_into(agg, &models, None, &base, &mut agg_scratch, &mut w);
        if t == cp_index[li] {
            let cps: Vec<&[f32]> = child_results
                .iter()
                .map(|(_, cp)| cp.as_deref().expect("children carry checkpoints"))
                .collect();
            let mut cp = vec![0.0_f32; w.len()];
            robust_reduce_into(agg, &cps, None, &base, &mut agg_scratch, &mut cp);
            checkpoint = Some(cp);
        }
    }
    (w, checkpoint)
}

impl Algorithm for MultiLevelMinimax {
    fn name(&self) -> &'static str {
        Method::MultiLevel.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        assert!(
            cfg.opts.churn.is_none(),
            "MultiLevelMinimax does not support membership churn; use HierMinimax"
        );
        let num_groups = self.num_groups(problem);
        assert!(
            cfg.m_groups <= num_groups,
            "m_groups {} exceeds {} groups",
            cfg.m_groups,
            num_groups
        );
        // The weighted top-level groups play the edge-area role: `p`, the
        // samplers and the `run_start` edge count all range over them.
        // Cloud-link faults act on the groups; intermediate links are
        // site-local and modeled as reliable.
        let spec = RoundSpec {
            name: self.name(),
            rounds: cfg.rounds,
            tau1: cfg.tau1,
            eta_w: cfg.eta_w,
            batch_size: cfg.batch_size,
            quantizer: Quantizer::Exact,
            opts: &cfg.opts,
            sampler: Sampler::Weighted(cfg.m_groups),
            blocks: Blocks::Tree {
                tau2: cfg.tau2,
                upper: &cfg.upper,
            },
            fold: Fold::Multiplicity,
            dual: Some(Dual {
                eta_p: cfg.eta_p,
                loss_batch: cfg.loss_batch,
                model: WeightUpdateModel::RandomCheckpoint,
            }),
        };
        driver::run(problem, seed, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(upper: Vec<UpperLevel>, m: usize) -> MultiLevelConfig {
        MultiLevelConfig {
            rounds: 4,
            tau1: 2,
            tau2: 2,
            upper,
            m_groups: m,
            eta_w: 0.1,
            eta_p: 0.01,
            batch_size: 2,
            loss_batch: 4,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        }
    }

    #[test]
    fn four_layer_runs_and_accounts_slots() {
        // 4 edges grouped 2-per-region → 2 regions; τ_region = 2.
        let sc = tiny_problem(4, 2, 51);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        let alg = MultiLevelMinimax::new(cfg.clone());
        assert_eq!(alg.num_groups(&fp), 2);
        let r = alg.run(&fp, 3);
        // slots per round = τ1 τ2 τ_region = 8.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 8);
        // One cloud round per training round.
        assert_eq!(r.comm.cloud_rounds(), 4);
        // p over regions (2 of them), still a distribution.
        assert_eq!(r.final_p.len(), 2);
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn five_layer_runs() {
        // 8 edges → regions of 2 → super-regions of 2 regions = 2 groups.
        let sc = tiny_problem(8, 2, 52);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![
                UpperLevel {
                    group_size: 2,
                    tau: 2,
                }, // super-region level
                UpperLevel {
                    group_size: 2,
                    tau: 3,
                }, // region level
            ],
            2,
        );
        let alg = MultiLevelMinimax::new(cfg);
        assert_eq!(alg.num_groups(&fp), 2);
        let r = alg.run(&fp, 5);
        // slots/round = 2·2·3·2 = 24.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 24);
        assert_eq!(r.comm.cloud_rounds(), 4);
    }

    #[test]
    fn no_upper_levels_matches_hierminimax_structure() {
        // With upper = [], groups are single edges and the protocol is the
        // plain 3-layer HierMinimax: same slot accounting and cloud rounds.
        let sc = tiny_problem(3, 2, 53);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(vec![], 2);
        let alg = MultiLevelMinimax::new(cfg);
        assert_eq!(alg.num_groups(&fp), 3);
        let r = alg.run(&fp, 7);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 4);
        assert_eq!(r.comm.cloud_rounds(), 4);
        assert_eq!(r.final_p.len(), 3);
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(4, 2, 54);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let uniform = vec![0.5_f32, 0.5];
        let mut cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        cfg.rounds = 25;
        let r = MultiLevelMinimax::new(cfg).run(&fp, 9);
        // Compare the group-mixture objective before/after.
        let group_loss = |w: &[f32]| -> f64 {
            let l = fp.edge_losses(w);
            0.5 * (l[0] + l[1]) / 2.0 + 0.5 * (l[2] + l[3]) / 2.0
        };
        let before = {
            let _ = &uniform;
            group_loss(&w0)
        };
        assert!(group_loss(&r.final_w) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(4, 2, 55);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        let a = MultiLevelMinimax::new(cfg.clone()).run(&fp, 11);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = MultiLevelMinimax::new(cfg).run(&fp, 11);
        assert_eq!(a.final_w, b.final_w);
        assert_eq!(a.final_p, b.final_p);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn indivisible_grouping_panics() {
        let sc = tiny_problem(3, 2, 56);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            1,
        );
        let _ = MultiLevelMinimax::new(cfg).run(&fp, 0);
    }
}
