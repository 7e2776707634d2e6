//! Per-run membership-churn controller for the hierarchical round driver.
//!
//! Wraps the simulator's [`ActiveTopology`] (the membership state machine,
//! `hm_simnet::churn`) together with the run-side consequences the ISSUE's
//! re-homing policy demands: minting deterministic data shards for clients
//! that join mid-run, keeping the [`ClientRoster`] the block phase
//! enumerates in sync with the membership, re-projecting the fairness
//! weights `p` onto the simplex over surviving edges after a permanent
//! edge failure, and emitting the unsequenced `churn`/`rehome` telemetry
//! records the conformance replay and report tooling consume.
//!
//! An inert plan ([`ChurnPlan::is_none`]) makes the controller a zero-cost
//! no-op: no RNG draws, no events, `roster()` returns `None` so the
//! block phase takes the frozen legacy enumeration — bit-identical to
//! pre-churn builds.

use super::hier_common::{ClientRoster, QuarantineCtl};
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_simnet::{ActiveTopology, ChurnPlan, ChurnStats, RoundChurn};
use hm_telemetry::{Telemetry, TelemetryEvent};

/// Mint the data shard of a client that joins mid-run: a bootstrap
/// resample (with replacement) of its home edge's training pool, the same
/// size as the edge's original per-client shards, drawn from the keyed
/// `Purpose::ChurnData` stream so the shard is a pure function of
/// `(seed, gid)` — identical across executors and resume splices.
fn mint_shard(problem: &FederatedProblem, seed: u64, gid: usize, edge: usize) -> Dataset {
    let pool = problem.scenario.edges[edge].train_concat();
    let n0 = problem.clients_per_edge();
    let size = (pool.len() / n0).max(1);
    let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::ChurnData, 0, gid as u64));
    let idx: Vec<usize> = (0..size).map(|_| rng.below(pool.len())).collect();
    pool.subset(&idx)
}

/// Membership-churn state of one hierarchical run.
pub(crate) struct ChurnCtl {
    plan: ChurnPlan,
    seed: u64,
    topo: ActiveTopology,
    roster: ClientRoster,
    stats: ChurnStats,
    /// `(gid, home_edge_at_join)` per joiner, in id order — enough to
    /// re-mint every joiner shard bit-identically on resume.
    joined_src: Vec<(usize, usize)>,
}

impl ChurnCtl {
    /// Build the controller for a run. Panics on an invalid plan (the CLI
    /// validates up front for a typed error).
    pub(crate) fn new(problem: &FederatedProblem, plan: &ChurnPlan, seed: u64) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid churn plan: {e}"));
        let topo = ActiveTopology::new(&problem.topology());
        let members = (0..topo.num_edges())
            .map(|e| topo.members_of(e).to_vec())
            .collect();
        Self {
            plan: *plan,
            seed,
            topo,
            roster: ClientRoster::new(members),
            stats: ChurnStats::default(),
            joined_src: Vec::new(),
        }
    }

    /// Whether the plan has any non-zero rate. Inactive controllers do
    /// nothing and route the block phase onto the legacy layout.
    pub(crate) fn active(&self) -> bool {
        !self.plan.is_none()
    }

    /// The roster the block phase should enumerate: `Some` only
    /// when churn is active, so churn-off runs stay on the frozen path.
    pub(crate) fn roster(&self) -> Option<&ClientRoster> {
        self.active().then_some(&self.roster)
    }

    /// Cumulative transition counters.
    pub(crate) fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Surviving (up) edges, ascending.
    pub(crate) fn up_edges(&self) -> Vec<usize> {
        self.topo.up_edges()
    }

    /// Exclusive upper bound on every global client id minted so far.
    #[cfg(test)]
    pub(crate) fn id_bound(&self) -> usize {
        self.topo.id_bound()
    }

    /// Active members of `edge` (empty for a failed, drained edge).
    pub(crate) fn members_of(&self, edge: usize) -> &[usize] {
        self.roster.members_of(edge)
    }

    /// Apply one round of churn at the round boundary (before Phase-1
    /// sampling): membership transitions, joiner shard minting, roster
    /// sync, quarantine-table growth, `p` re-projection, and event
    /// emission — all gated on an active plan.
    pub(crate) fn begin_round(
        &mut self,
        problem: &FederatedProblem,
        round: usize,
        p: &mut [f32],
        quarantine: &mut QuarantineCtl,
        tel: &Telemetry,
    ) -> RoundChurn {
        if !self.active() {
            return RoundChurn::default();
        }
        let rc = self.topo.apply_round(&self.plan, self.seed, round);
        self.stats.absorb(&rc);
        for &(gid, home) in &rc.joined {
            self.roster
                .insert_joined(gid, mint_shard(problem, self.seed, gid, home));
            self.joined_src.push((gid, home));
        }
        let (_, _, members, _) = self.topo.parts();
        self.roster.sync_members(members);
        quarantine.ensure_clients(self.topo.id_bound());
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

    /// Training data of an active client by global id (original shard or
    /// minted joiner shard).
    pub(crate) fn data<'a>(&'a self, problem: &'a FederatedProblem, gid: usize) -> &'a Dataset {
        self.roster.data(problem, gid)
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

    /// Restore from a snapshot's `CHURN_SECTION`, re-minting every joiner
    /// shard from its keyed stream. Returns the persisted stale-round
    /// counter.
    pub(crate) fn restore(&mut self, problem: &FederatedProblem, bytes: &[u8]) -> u64 {
        let snap =
            crate::checkpoint::decode_churn(bytes).unwrap_or_else(|e| panic!("cannot resume: {e}"));
        self.topo = ActiveTopology::from_parts(
            snap.base_total,
            snap.edge_up,
            snap.members,
            snap.next_join_id,
        );
        for &(gid, home) in &snap.joined_src {
            self.roster
                .insert_joined(gid, mint_shard(problem, self.seed, gid, home));
        }
        self.joined_src = snap.joined_src;
        let (_, _, members, _) = self.topo.parts();
        self.roster.sync_members(members);
        self.stats = snap.stats;
        snap.stale_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::NO_CHURN;

    fn problem() -> FederatedProblem {
        FederatedProblem::logistic_from_scenario(&tiny_problem(3, 2, 1))
    }

    #[test]
    fn inert_plan_is_a_noop() {
        let fp = problem();
        let mut ctl = ChurnCtl::new(&fp, &NO_CHURN, 7);
        assert!(!ctl.active());
        assert!(ctl.roster().is_none());
        let mut p = vec![0.5, 0.25, 0.25];
        let mut q = QuarantineCtl::new(0.0, 0, 6);
        let rc = ctl.begin_round(&fp, 0, &mut p, &mut q, &Telemetry::disabled());
        assert!(rc.is_empty());
        assert_eq!(p, vec![0.5, 0.25, 0.25]);
        assert_eq!(ctl.stats(), ChurnStats::default());
    }

    #[test]
    fn minted_shards_are_deterministic_and_sized() {
        let fp = problem();
        let a = mint_shard(&fp, 11, 6, 1);
        let b = mint_shard(&fp, 11, 6, 1);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        assert_eq!(a.y, b.y);
        // Standard shard size: the edge pool split over n0 clients.
        let pool = fp.scenario.edges[1].train_concat();
        assert_eq!(a.len(), pool.len() / fp.clients_per_edge());
        // A different gid draws a different resample.
        let c = mint_shard(&fp, 11, 7, 1);
        assert!(a.y != c.y || a.x.as_slice() != c.x.as_slice());
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
        let mut q = QuarantineCtl::new(0.0, 0, 6);
        ctl.begin_round(&fp, 0, &mut p, &mut q, &Telemetry::disabled());
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
        let mut q = QuarantineCtl::new(0.0, 0, 6);
        ctl.begin_round(&fp, 0, &mut [], &mut q, &Telemetry::disabled());
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

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let fp = problem();
        let plan = ChurnPlan::preset("chaos-churn").unwrap();
        let mut ctl = ChurnCtl::new(&fp, &plan, 13);
        let mut p = fp.initial_p();
        let mut q = QuarantineCtl::new(0.0, 0, 6);
        for k in 0..6 {
            ctl.begin_round(&fp, k, &mut p, &mut q, &Telemetry::disabled());
        }
        let bytes = ctl.checkpoint_bytes(2);
        let mut fresh = ChurnCtl::new(&fp, &plan, 13);
        let stale = fresh.restore(&fp, &bytes);
        assert_eq!(stale, 2);
        assert_eq!(fresh.stats(), ctl.stats());
        assert_eq!(fresh.up_edges(), ctl.up_edges());
        assert_eq!(fresh.id_bound(), ctl.id_bound());
        // The restored controller continues identically.
        let mut p2 = p.clone();
        let a = ctl.begin_round(&fp, 6, &mut p, &mut q, &Telemetry::disabled());
        let mut q2 = QuarantineCtl::new(0.0, 0, 6);
        let b = fresh.begin_round(&fp, 6, &mut p2, &mut q2, &Telemetry::disabled());
        assert_eq!(a, b);
        assert_eq!(p, p2);
    }
}
