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
//! (weights on edge areas) — asserted in the tests. [`Method::MultiLevel`]
//! runs the tree with [`Hyper::upper`]'s levels.
//!
//! [`Method::MultiLevel`]: super::Method::MultiLevel
//! [`Hyper::upper`]: super::Hyper::upper
//!
//! Communication metering note: links between intermediate levels are
//! metered on `ClientEdge` (local/cheap class) and only the top level's
//! exchange with the cloud on `EdgeCloud` (WAN class), consistent with the
//! cost model where everything below the cloud is site-local.

use super::driver::Driver;
use super::hier_common::{robust_reduce_into, run_edge_blocks};
use hm_simnet::Link;

/// One intermediate aggregation level above the edge servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperLevel {
    /// How many groups of the level below form one group of this level
    /// (contiguous grouping).
    pub group_size: usize,
    /// Aggregations of the level below per aggregation of this level.
    pub tau: usize,
}

/// Recursive subtree update: runs the aggregation loop of upper level `li`
/// (an index into the driver's upper levels, top first) over `edges`,
/// starting from `w_start`, and returns the subtree's `(model,
/// checkpoint)`.
///
/// `cp_index` is the round's checkpoint index (one coordinate per upper
/// level, then `(c1, c2)`), and `round_tag` keys the RNG streams uniquely
/// per (round, position) as `(tag · τ_l + t) · children + child`.
pub(super) fn subtree_update(
    dv: &Driver<'_>,
    w_start: &[f32],
    edges: &[usize],
    li: usize,
    cp_index: &[usize],
    round_tag: usize,
) -> (Vec<f32>, Option<Vec<f32>>) {
    let upper = dv.spec.blocks.upper();
    let agg = &dv.spec.opts.aggregator;
    let mut agg_scratch: Vec<f32> = Vec::new();
    if li == upper.len() {
        // Base case: one edge-level block over these edges. Client faults
        // key on the tree depth as their level, so a deeper hierarchy
        // draws survival bits independent of the three-layer case even
        // when block indices coincide (with `upper: []` the depth is 0 and
        // the three-layer streams are preserved).
        let c1c2 = (cp_index[li], cp_index[li + 1]);
        let outputs = run_edge_blocks(dv, w_start, edges, li, round_tag, Some(c1c2));
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
        dv.meter
            .record_broadcast(Link::ClientEdge, w.len() as u64, children.len() as u64);
        let child_results: Vec<(Vec<f32>, Option<Vec<f32>>)> = children
            .iter()
            .enumerate()
            .map(|(ci, child)| {
                let tag = (round_tag * level.tau + t) * children.len() + ci;
                subtree_update(dv, &w, child, li + 1, cp_index, tag)
            })
            .collect();
        // Gather child models (+ checkpoints when this is the
        // checkpointed sub-block) and aggregate.
        dv.meter
            .record_gather(Link::ClientEdge, 2 * w.len() as u64, children.len() as u64);
        dv.meter.record_round(Link::ClientEdge);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, Hyper, Method, RunOpts, RunResult};
    use crate::problem::FederatedProblem;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    /// Four rounds of the tree over `edges` edges of two clients.
    fn run(edges: usize, upper: Vec<UpperLevel>, m: usize, seed: u64) -> RunResult {
        let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(edges, 2, 50 + seed));
        let h = Hyper {
            rounds: 4,
            upper,
            m,
            eta_w: 0.1,
            eta_p: 0.01,
            loss_batch: 4,
            ..Hyper::default()
        };
        let opts = RunOpts {
            eval_every: 1,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        };
        Method::MultiLevel.build(&h, opts).run(&fp, seed)
    }

    fn level(group_size: usize, tau: usize) -> UpperLevel {
        UpperLevel { group_size, tau }
    }

    #[test]
    fn four_layer_runs_and_accounts_slots() {
        // 4 edges grouped 2-per-region → 2 regions; τ_region = 2.
        let r = run(4, vec![level(2, 2)], 2, 1);
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
        // 8 edges → regions of 2 → super-regions of 2 regions = 2 groups;
        // the super-region level first.
        let r = run(8, vec![level(2, 2), level(2, 3)], 2, 2);
        // slots/round = 2·2·3·2 = 24.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 24);
        assert_eq!(r.comm.cloud_rounds(), 4);
        assert_eq!(r.final_p.len(), 2);
    }

    #[test]
    fn no_upper_levels_matches_hierminimax_structure() {
        // With upper = [], groups are single edges and the protocol is the
        // plain 3-layer HierMinimax: same slot accounting and cloud rounds.
        let r = run(3, vec![], 2, 3);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 4);
        assert_eq!(r.comm.cloud_rounds(), 4);
        assert_eq!(r.final_p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "3 edges do not divide into groups of 2")]
    fn indivisible_grouping_panics() {
        run(3, vec![level(2, 2)], 1, 6);
    }
}
