//! Per-run membership controller for the round driver.
//!
//! Wraps the simulator's [`ActiveTopology`] (the membership state machine,
//! `hm_simnet::churn`) together with the run-side consequences the
//! re-homing policy demands: minting deterministic data shards for clients
//! that join mid-run, re-projecting the fairness weights `p` onto the
//! simplex over surviving edges after a permanent edge failure, and
//! emitting the unsequenced `churn`/`rehome` telemetry records the
//! conformance replay and report tooling consume.
//!
//! A joiner's shard lives exactly as long as its membership: it is minted
//! when the client joins and dropped in the round the client leaves (a
//! client that leaves never returns; joiners get fresh ids). A client
//! stranded on a failed edge stays in that edge's member list and keeps
//! its shard. So the controller's memory follows the live population, not
//! the number of joins a run has seen.
//!
//! It is the run's one membership view, with churn on or off: the block
//! phase, the quarantine pass, the volume weights, the uniform draws and
//! Phase 2 all enumerate clients through it. An inert plan
//! ([`ChurnPlan::is_none`]) leaves the view all-up with every edge serving
//! its original clients `edge·n₀ + idx`, in order, and makes the
//! controller a no-op: no RNG draws, no events, no re-projection. The
//! two-layer baselines use [`ChurnCtl::clients`], the same view with
//! every client a unit of its own.

use crate::checkpoint::ChurnSnapshot;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_simnet::{ActiveTopology, ChurnPlan, ChurnStats, RoundChurn, Topology, NO_CHURN};
use hm_telemetry::{Telemetry, TelemetryEvent};
use hm_tensor::Matrix;
use std::collections::{HashMap, HashSet};

/// Mint the data shard of a client that joins mid-run: a bootstrap
/// resample (with replacement) of its home edge's training pool (the edge's
/// client shards, concatenated in order), the same size as the edge's
/// original per-client shards, drawn from the keyed `Purpose::ChurnData`
/// stream so the shard is a pure function of `(seed, gid)` — identical
/// across executors and resume splices. Each drawn pool row is copied
/// straight from the client shard that holds it, so minting costs the
/// shard's size, not the pool's.
fn mint_shard(problem: &FederatedProblem, seed: u64, gid: usize, edge: usize) -> Dataset {
    let shards = &problem.scenario.edges[edge].client_train;
    let pool_len: usize = shards.iter().map(Dataset::len).sum();
    let size = (pool_len / problem.clients_per_edge()).max(1);
    let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::ChurnData, 0, gid as u64));
    let mut x = Matrix::zeros(size, shards[0].dim());
    let mut y = Vec::with_capacity(size);
    for r in 0..size {
        let (mut s, mut i) = (0, rng.below(pool_len));
        while i >= shards[s].len() {
            i -= shards[s].len();
            s += 1;
        }
        x.row_mut(r).copy_from_slice(shards[s].x.row(i));
        y.push(shards[s].y[i]);
    }
    Dataset {
        x,
        y,
        num_classes: shards[0].num_classes,
    }
}

/// Membership state of one hierarchical run.
pub(crate) struct ChurnCtl {
    plan: ChurnPlan,
    seed: u64,
    topo: ActiveTopology,
    /// Data shards of the joiners that are still members, keyed by global
    /// id: minted on arrival, dropped when the client leaves.
    joined: HashMap<usize, Dataset>,
    stats: ChurnStats,
    /// `(gid, home_edge_at_join)` of every joiner so far, departed ones
    /// too, in id order — enough to re-mint any joiner shard
    /// bit-identically on resume.
    joined_src: Vec<(usize, usize)>,
}

impl ChurnCtl {
    /// Build the controller for a run. Panics on an invalid plan (the CLI
    /// validates up front for a typed error).
    pub(crate) fn new(problem: &FederatedProblem, plan: &ChurnPlan, seed: u64) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid churn plan: {e}"));
        Self {
            plan: *plan,
            seed,
            topo: ActiveTopology::new(&problem.topology()),
            joined: HashMap::new(),
            stats: ChurnStats::default(),
            joined_src: Vec::new(),
        }
    }

    /// The view of a run whose units are single clients that talk to the
    /// cloud directly: an all-up topology of `N` one-client edges, so unit
    /// `c` has the one member `c` and its own shard. Churn is off.
    pub(crate) fn clients(problem: &FederatedProblem) -> Self {
        let n = problem.topology().total_clients();
        Self {
            topo: ActiveTopology::new(&Topology::new(n, 1)),
            ..Self::new(problem, &NO_CHURN, 0)
        }
    }

    /// Whether the plan has any non-zero rate. An inactive controller
    /// never changes the membership.
    pub(crate) fn active(&self) -> bool {
        !self.plan.is_none()
    }

    /// Cumulative transition counters.
    pub(crate) fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Whether `edge` is still up.
    pub(crate) fn is_up(&self, edge: usize) -> bool {
        self.topo.is_up(edge)
    }

    /// Surviving (up) edges, ascending.
    #[cfg(test)]
    pub(crate) fn up_edges(&self) -> Vec<usize> {
        self.topo.up_edges()
    }

    /// Exclusive upper bound on every global client id minted so far.
    pub(crate) fn id_bound(&self) -> usize {
        self.topo.id_bound()
    }

    /// Active members of `edge`, in deterministic order (originals first,
    /// then arrivals in assignment order; empty for a failed, drained
    /// edge).
    pub(crate) fn members_of(&self, edge: usize) -> &[usize] {
        self.topo.members_of(edge)
    }

    /// Apply one round of churn at the round boundary (before Phase-1
    /// sampling): membership transitions, dropping the shards of joiners
    /// that left and minting those of new ones, `p` re-projection, and
    /// event emission — all gated on an active plan.
    pub(crate) fn begin_round(
        &mut self,
        problem: &FederatedProblem,
        round: usize,
        p: &mut [f32],
        tel: &Telemetry,
    ) -> RoundChurn {
        if !self.active() {
            return RoundChurn::default();
        }
        let rc = self.topo.apply_round(&self.plan, self.seed, round);
        self.stats.absorb(&rc);
        for gid in &rc.left {
            self.joined.remove(gid);
        }
        for &(gid, home) in &rc.joined {
            self.joined
                .insert(gid, mint_shard(problem, self.seed, gid, home));
            self.joined_src.push((gid, home));
        }
        tel.record(|| TelemetryEvent::Churn {
            round,
            joined: rc.joined.clone(),
            left: rc.left.clone(),
            failed_edges: rc.failed_edges.clone(),
            rehomed: rc.rehomed.len() as u64,
        });
        for &(client, from_edge, to_edge) in &rc.rehomed {
            tel.record(|| TelemetryEvent::Rehome {
                round,
                client,
                from_edge,
                to_edge,
            });
        }
        if !rc.failed_edges.is_empty() {
            self.reproject_weights(p);
        }
        rc
    }

    /// Re-project the fairness weights onto the simplex over surviving
    /// edges (the minimax adversary cannot weight a loss nobody can ever
    /// report again). Delegates to [`ActiveTopology::reproject_weights`]
    /// so the conformance replayer mirrors the exact arithmetic. A no-op
    /// when churn is off or `p` is empty (the minimization loops have no
    /// weights).
    pub(crate) fn reproject_weights(&self, p: &mut [f32]) {
        if self.active() {
            self.topo.reproject_weights(p);
        }
    }

    /// Training shard of a member by global id: an original client
    /// (`gid < base_total`) decomposes into `(edge, idx)` against the
    /// problem; a joiner's shard is the one minted when it joined. Panics
    /// for a joiner that has left.
    pub(crate) fn data<'a>(&'a self, problem: &'a FederatedProblem, gid: usize) -> &'a Dataset {
        if gid < self.topo.base_total() {
            let n0 = problem.clients_per_edge();
            problem.client_data(gid / n0, gid % n0)
        } else {
            self.joined
                .get(&gid)
                .unwrap_or_else(|| panic!("no data shard for joined client {gid}"))
        }
    }

    /// Serialise the controller state (plus the run loop's consecutive
    /// stale-round counter) for the snapshot's `CHURN_SECTION`.
    pub(crate) fn checkpoint_bytes(&self, stale_rounds: u64) -> Vec<u8> {
        let (base_total, edge_up, members, next_join_id) = self.topo.parts();
        crate::checkpoint::encode_churn(
            base_total,
            edge_up,
            members,
            next_join_id,
            &self.stats,
            &self.joined_src,
            stale_rounds,
        )
    }

    /// Restore from a snapshot's decoded churn section, re-minting from
    /// its keyed stream the shard of every joiner in the restored member
    /// lists (the departed ones stay in `joined_src` only).
    pub(crate) fn restore(&mut self, problem: &FederatedProblem, snap: ChurnSnapshot) {
        let live: HashSet<usize> = snap.members.iter().flatten().copied().collect();
        self.joined = snap
            .joined_src
            .iter()
            .filter(|(gid, _)| live.contains(gid))
            .map(|&(gid, home)| (gid, mint_shard(problem, self.seed, gid, home)))
            .collect();
        self.topo = ActiveTopology::from_parts(
            snap.base_total,
            snap.edge_up,
            snap.members,
            snap.next_join_id,
        );
        self.joined_src = snap.joined_src;
        self.stats = snap.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    fn problem() -> FederatedProblem {
        FederatedProblem::logistic_from_scenario(&tiny_problem(3, 2, 1))
    }

    #[test]
    fn inert_plan_is_a_noop() {
        let fp = problem();
        let mut ctl = ChurnCtl::new(&fp, &NO_CHURN, 7);
        assert!(!ctl.active());
        let mut p = vec![0.5, 0.25, 0.25];
        let rc = ctl.begin_round(&fp, 0, &mut p, &Telemetry::disabled());
        assert!(rc.is_empty());
        assert_eq!(p, vec![0.5, 0.25, 0.25]);
        assert_eq!(ctl.stats(), ChurnStats::default());
        // The inert view is the static layout: every edge up, serving its
        // original clients in order, each on its own shard.
        let topo = fp.topology();
        for e in 0..fp.num_edges() {
            assert!(ctl.is_up(e));
            assert_eq!(ctl.members_of(e), topo.clients_of(e).collect::<Vec<_>>());
            for (idx, gid) in topo.clients_of(e).enumerate() {
                assert!(std::ptr::eq(ctl.data(&fp, gid), fp.client_data(e, idx)));
            }
        }
    }

    #[test]
    fn client_view_makes_every_client_a_unit() {
        let fp = problem();
        let ctl = ChurnCtl::clients(&fp);
        assert!(!ctl.active());
        let topo = fp.topology();
        for c in 0..topo.total_clients() {
            assert!(ctl.is_up(c));
            assert_eq!(ctl.members_of(c), [c]);
            let (e, idx) = (topo.edge_of(c), c % topo.clients_per_edge());
            assert!(std::ptr::eq(ctl.data(&fp, c), fp.client_data(e, idx)));
        }
    }

    /// The construction `mint_shard` replaced: copy the home edge's whole
    /// pool, then gather the drawn rows. The reference its bits must match.
    fn mint_from_pool(problem: &FederatedProblem, seed: u64, gid: usize, edge: usize) -> Dataset {
        let pool = problem.scenario.edges[edge].train_concat();
        let size = (pool.len() / problem.clients_per_edge()).max(1);
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::ChurnData, 0, gid as u64));
        let idx: Vec<usize> = (0..size).map(|_| rng.below(pool.len())).collect();
        pool.subset(&idx)
    }

    fn assert_same_shard(a: &Dataset, b: &Dataset, tag: &str) {
        let bits = |d: &Dataset| {
            d.x.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(a.x.shape(), b.x.shape(), "{tag}: shape");
        assert_eq!(bits(a), bits(b), "{tag}: features");
        assert_eq!(a.y, b.y, "{tag}: labels");
        assert_eq!(a.num_classes, b.num_classes, "{tag}: classes");
    }

    /// Leaves outpace joins, so most joiners are gone by the end of a run.
    fn leave_heavy(rehome: bool) -> ChurnPlan {
        ChurnPlan {
            leave_rate: 0.3,
            join_rate: 0.4,
            edge_fail_rate: 0.01,
            rehome,
        }
    }

    /// Joiner ids in the member lists of every edge, up or failed, sorted.
    fn member_joiners(ctl: &ChurnCtl) -> Vec<usize> {
        let (base_total, _, members, _) = ctl.topo.parts();
        let mut ids: Vec<usize> = members.iter().flatten().copied().collect();
        ids.retain(|&gid| gid >= base_total);
        ids.sort_unstable();
        ids
    }

    /// Joiner ids whose shard the controller holds, sorted.
    fn held_shards(ctl: &ChurnCtl) -> Vec<usize> {
        let mut ids: Vec<usize> = ctl.joined.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn minted_shards_match_a_gather_from_the_copied_pool() {
        // Uneven client shards, so the drawn rows fall in shards of every
        // size, the one-row shard included.
        let mut sc = tiny_problem(3, 3, 5);
        for edge in &mut sc.edges {
            let first = edge.client_train[0].subset(&[0]);
            edge.client_train[0] = first;
            let n = edge.client_train[2].len();
            let doubled: Vec<usize> = (0..n).chain(0..n).collect();
            edge.client_train[2] = edge.client_train[2].subset(&doubled);
        }
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        for seed in [0, 11, 97] {
            for edge in 0..fp.num_edges() {
                for gid in 9..40 {
                    assert_same_shard(
                        &mint_shard(&fp, seed, gid, edge),
                        &mint_from_pool(&fp, seed, gid, edge),
                        &format!("seed {seed} edge {edge} gid {gid}"),
                    );
                }
            }
        }
        // Standard shard size: the edge pool split over n0 clients.
        let a = mint_shard(&fp, 11, 9, 1);
        let pool_len: usize = sc.edges[1].client_train.iter().map(Dataset::len).sum();
        assert_eq!(a.len(), pool_len / fp.clients_per_edge());
        // A different gid draws a different resample.
        let b = mint_shard(&fp, 11, 10, 1);
        assert!(a.y != b.y || a.x.as_slice() != b.x.as_slice());
    }

    #[test]
    fn held_shards_are_exactly_the_member_joiners() {
        let fp = problem();
        let base_total = fp.topology().total_clients();
        for rehome in [true, false] {
            let mut ctl = ChurnCtl::new(&fp, &leave_heavy(rehome), 29);
            let mut p = fp.initial_p();
            for k in 0..300 {
                ctl.begin_round(&fp, k, &mut p, &Telemetry::disabled());
                let held = held_shards(&ctl);
                assert_eq!(held, member_joiners(&ctl), "rehome {rehome}, round {k}");
                for gid in held {
                    let home = ctl.joined_src.iter().find(|s| s.0 == gid).unwrap().1;
                    let tag = format!("rehome {rehome}, round {k}, gid {gid}");
                    assert_same_shard(ctl.data(&fp, gid), &mint_shard(&fp, 29, gid, home), &tag);
                }
            }
            // Most of the run's joiners have left and taken their shards.
            let joins = ctl.joined_src.len();
            assert_eq!(joins as u64, ctl.stats().joined);
            assert!(
                joins > 200 && ctl.joined.len() < 20,
                "{joins} joins, {} held",
                ctl.joined.len()
            );
            assert!(ctl.up_edges().len() < fp.num_edges(), "an edge failed");
            if !rehome {
                // A joiner stranded on a failed edge never leaves: the
                // per-round check above kept its shard.
                let stranded = (0..fp.num_edges())
                    .filter(|&e| !ctl.is_up(e))
                    .flat_map(|e| ctl.members_of(e))
                    .any(|&gid| gid >= base_total);
                assert!(stranded, "no joiner was stranded");
            }
        }
    }

    #[test]
    fn reprojection_moves_mass_off_dead_edges() {
        let fp = problem();
        let plan = ChurnPlan {
            edge_fail_rate: 1.0,
            ..NO_CHURN
        };
        let mut ctl = ChurnCtl::new(&fp, &plan, 3);
        let mut p = vec![0.2, 0.3, 0.5];
        ctl.begin_round(&fp, 0, &mut p, &Telemetry::disabled());
        // Rate 1.0 kills all but the guarded last up edge.
        let up = ctl.up_edges();
        assert_eq!(up.len(), 1);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "p sums to {sum}");
        for (e, &x) in p.iter().enumerate() {
            if !up.contains(&e) {
                assert_eq!(x, 0.0, "dead edge {e} kept weight");
            }
        }
    }

    #[test]
    fn reprojection_falls_back_to_uniform_when_all_mass_died() {
        let fp = problem();
        let plan = ChurnPlan {
            edge_fail_rate: 1.0,
            ..NO_CHURN
        };
        let mut ctl = ChurnCtl::new(&fp, &plan, 3);
        ctl.begin_round(&fp, 0, &mut [], &Telemetry::disabled());
        let up = ctl.up_edges();
        assert_eq!(up.len(), 1);
        // All the mass sat on edges that died.
        let mut p = vec![0.0_f32; 3];
        for (e, pe) in p.iter_mut().enumerate() {
            if !up.contains(&e) {
                *pe = 0.5;
            }
        }
        ctl.reproject_weights(&mut p);
        assert_eq!(p[up[0]], 1.0);
        assert_eq!(p.iter().sum::<f32>(), 1.0);
    }

    /// A restored controller holds exactly the live joiners' shards, writes
    /// the same bytes and continues identically, under `chaos-churn` (edge
    /// failures) and under a leave-heavy plan whose joiners have left
    /// before the snapshot.
    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let fp = problem();
        let cases = [
            (ChurnPlan::preset("chaos-churn").unwrap(), 6),
            (leave_heavy(true), 40),
        ];
        let mut departed = 0;
        for (plan, rounds) in cases {
            let mut ctl = ChurnCtl::new(&fp, &plan, 13);
            let mut p = fp.initial_p();
            for k in 0..rounds {
                ctl.begin_round(&fp, k, &mut p, &Telemetry::disabled());
            }
            let bytes = ctl.checkpoint_bytes(2);
            let held = held_shards(&ctl);
            departed += ctl.joined_src.len() - held.len();
            let mut fresh = ChurnCtl::new(&fp, &plan, 13);
            let section = crate::checkpoint::decode_churn(&bytes).unwrap();
            assert_eq!(section.stale_rounds, 2);
            fresh.restore(&fp, section);
            assert_eq!(fresh.stats(), ctl.stats());
            assert_eq!(fresh.up_edges(), ctl.up_edges());
            assert_eq!(fresh.id_bound(), ctl.id_bound());
            assert_eq!(held_shards(&fresh), held);
            for gid in held {
                let tag = format!("gid {gid}");
                assert_same_shard(fresh.data(&fp, gid), ctl.data(&fp, gid), &tag);
            }
            // Every joiner stays in the provenance list, so the snapshot
            // bytes do not change.
            assert_eq!(fresh.checkpoint_bytes(2), bytes);
            let mut p2 = p.clone();
            for k in rounds..2 * rounds {
                let a = ctl.begin_round(&fp, k, &mut p, &Telemetry::disabled());
                let b = fresh.begin_round(&fp, k, &mut p2, &Telemetry::disabled());
                assert_eq!(a, b, "round {k}");
                assert_eq!(p, p2, "round {k}");
                assert_eq!(held_shards(&fresh), held_shards(&ctl), "round {k}");
            }
        }
        assert!(departed > 5, "joiners must leave before the snapshot");
    }
}
