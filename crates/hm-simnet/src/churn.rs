//! Deterministic membership churn: clients leave, clients join, edge
//! servers fail permanently and their clients are re-homed.
//!
//! Mirrors the fault-injection design (`fault.rs`): a validated
//! [`ChurnPlan`] of per-round rates, every stochastic decision a pure
//! function of `(plan, seed, round, entity)` drawn from its own keyed
//! [`StreamRng`] stream (`Purpose::Churn`), so churn is bit-reproducible
//! across executors and replayable by the conformance automaton. A
//! zero-rate plan makes **no draws**, keeping churn-off runs bit-identical
//! to pre-churn builds.
//!
//! The membership state lives in [`ActiveTopology`], a mutable view over
//! the frozen [`Topology`]: per-edge member lists of global client ids, an
//! up/down bit per edge, and the id counter for joiners. All *policy*
//! (which surviving edge an orphan lands on) is deterministic —
//! least-loaded, then lowest edge id — so the replayer re-derives every
//! transition from the keyed streams alone.

use crate::topology::Topology;
use hm_data::rng::{Purpose, StreamKey, StreamRng};

/// Mix a churn-decision class into a stream-entity id, exactly like the
/// fault module's level mixing: class 0 = client leaves, class 1 = edge
/// failures, class 2 = join slots. Distinct classes never share a stream
/// even when their ids collide.
#[inline]
fn entity(class: usize, id: usize) -> u64 {
    ((class as u64) << 32) | id as u64
}

/// Per-round membership-churn rates. All rates are probabilities in
/// `[0, 1]`; a plan with every rate zero is inert ([`ChurnPlan::is_none`])
/// and draws nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Per-round probability that an active client permanently leaves.
    pub leave_rate: f32,
    /// Per-round probability that a join slot produces a new client.
    /// Every round offers one join slot per edge, so the expected arrival
    /// count is `join_rate × n_edges` per round.
    pub join_rate: f32,
    /// Per-round probability that an up edge server fails permanently.
    /// (Distinct from `FaultPlan::edge_outage`, which is transient.)
    pub edge_fail_rate: f32,
    /// `true`: a failed edge's clients are re-homed onto surviving edges
    /// (least-loaded, then lowest id). `false`: they stay stranded on the
    /// dead edge and never deliver again — the stale-fallback baseline
    /// the availability bench compares against.
    pub rehome: bool,
}

/// The inert plan: no churn, no draws.
pub const NO_CHURN: ChurnPlan = ChurnPlan {
    leave_rate: 0.0,
    join_rate: 0.0,
    edge_fail_rate: 0.0,
    rehome: true,
};

impl Default for ChurnPlan {
    fn default() -> Self {
        NO_CHURN
    }
}

/// Preset names accepted by [`ChurnPlan::preset`], in display order.
pub const CHURN_PRESETS: [&str; 5] = [
    "none",
    "mild",
    "flash-crowd",
    "edge-failover",
    "chaos-churn",
];

impl ChurnPlan {
    /// True when every rate is zero: the plan draws nothing and the run
    /// is bit-identical to a pre-churn build. (`rehome` is policy, not a
    /// rate, so it does not affect inertness.)
    pub fn is_none(&self) -> bool {
        self.leave_rate == 0.0 && self.join_rate == 0.0 && self.edge_fail_rate == 0.0
    }

    /// Validate every knob: rates must be finite probabilities.
    ///
    /// # Errors
    /// Returns a human-readable description of the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, v: f32| -> Result<(), String> {
            if !v.is_finite() {
                return Err(format!("{name} must be finite, got {v}"));
            }
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
            Ok(())
        };
        prob("leave_rate", self.leave_rate)?;
        prob("join_rate", self.join_rate)?;
        prob("edge_fail_rate", self.edge_fail_rate)?;
        Ok(())
    }

    /// Look up a named preset (see [`CHURN_PRESETS`]).
    pub fn preset(name: &str) -> Option<ChurnPlan> {
        match name {
            "none" => Some(NO_CHURN),
            "mild" => Some(ChurnPlan {
                leave_rate: 0.02,
                join_rate: 0.05,
                edge_fail_rate: 0.0,
                rehome: true,
            }),
            "flash-crowd" => Some(ChurnPlan {
                leave_rate: 0.01,
                join_rate: 0.6,
                edge_fail_rate: 0.0,
                rehome: true,
            }),
            "edge-failover" => Some(ChurnPlan {
                leave_rate: 0.0,
                join_rate: 0.0,
                edge_fail_rate: 0.15,
                rehome: true,
            }),
            "chaos-churn" => Some(ChurnPlan {
                leave_rate: 0.05,
                join_rate: 0.3,
                edge_fail_rate: 0.1,
                rehome: true,
            }),
            _ => None,
        }
    }

    // --- Pure decision functions -------------------------------------
    //
    // Pure functions of (plan, seed, round, id): the run loop and the
    // conformance replayer both call these. Streams are keyed, never
    // shared, so *draw order does not matter* — only the membership set
    // a decision is evaluated over, which both sides derive identically.

    /// Whether an active client permanently leaves at the start of the
    /// given round.
    pub fn client_leaves(&self, seed: u64, round: usize, client: usize) -> bool {
        if self.leave_rate == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Churn,
            round as u64,
            entity(0, client),
        ));
        rng.uniform() < f64::from(self.leave_rate)
    }

    /// Whether an up edge server fails permanently at the start of the
    /// given round.
    pub fn edge_fails(&self, seed: u64, round: usize, edge: usize) -> bool {
        if self.edge_fail_rate == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Churn,
            round as u64,
            entity(1, edge),
        ));
        rng.uniform() < f64::from(self.edge_fail_rate)
    }

    /// Whether join slot `slot` (0-based, one per edge) produces a new
    /// client at the start of the given round.
    pub fn client_joins(&self, seed: u64, round: usize, slot: usize) -> bool {
        if self.join_rate == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Churn,
            round as u64,
            entity(2, slot),
        ));
        rng.uniform() < f64::from(self.join_rate)
    }
}

/// Cumulative membership-churn accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Clients that joined mid-run.
    pub joined: u64,
    /// Clients that permanently left.
    pub left: u64,
    /// Edge servers that failed permanently.
    pub edge_failures: u64,
    /// Clients re-homed off a failed edge onto a survivor.
    pub rehomed: u64,
    /// Clients stranded on a dead edge (re-homing off).
    pub stranded: u64,
}

impl ChurnStats {
    /// Total membership transitions.
    pub fn total(&self) -> u64 {
        self.joined + self.left + self.edge_failures + self.rehomed + self.stranded
    }

    /// Fold one round's transitions into the totals.
    pub fn absorb(&mut self, rc: &RoundChurn) {
        self.joined += rc.joined.len() as u64;
        self.left += rc.left.len() as u64;
        self.edge_failures += rc.failed_edges.len() as u64;
        self.rehomed += rc.rehomed.len() as u64;
        self.stranded += rc.stranded.len() as u64;
    }
}

/// The membership transitions one round of churn produced, in the order
/// they were applied. Everything here is re-derivable from the keyed
/// streams plus the deterministic policy, which is how the conformance
/// automaton rejects forged transitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundChurn {
    /// Global ids of clients that left this round, ascending per edge.
    pub left: Vec<usize>,
    /// Edges that failed permanently this round, ascending.
    pub failed_edges: Vec<usize>,
    /// `(client, from_edge, to_edge)` re-homing moves, in assignment
    /// order (orphans ascending by global id).
    pub rehomed: Vec<(usize, usize, usize)>,
    /// Clients stranded on a dead edge (only when `rehome` is off).
    pub stranded: Vec<usize>,
    /// `(client, home_edge)` arrivals, in join-slot order.
    pub joined: Vec<(usize, usize)>,
}

impl RoundChurn {
    /// True when this round changed nothing.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
            && self.failed_edges.is_empty()
            && self.rehomed.is_empty()
            && self.stranded.is_empty()
            && self.joined.is_empty()
    }
}

/// Mutable membership view over a frozen [`Topology`]: which edges are
/// up, which global client ids each edge currently serves, and the id
/// counter for joiners. Global ids `< base_total` are the topology's
/// original clients (`gid = edge·n₀ + idx`); ids `≥ base_total` were
/// minted for mid-run joiners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveTopology {
    base_total: usize,
    edge_up: Vec<bool>,
    members: Vec<Vec<usize>>,
    next_join_id: usize,
}

impl ActiveTopology {
    /// The all-up, all-original-members view of a topology.
    pub fn new(topo: &Topology) -> Self {
        let members = (0..topo.num_edges())
            .map(|e| topo.clients_of(e).collect())
            .collect();
        Self {
            base_total: topo.total_clients(),
            edge_up: vec![true; topo.num_edges()],
            members,
            next_join_id: topo.total_clients(),
        }
    }

    /// Rebuild a view from checkpointed parts.
    ///
    /// # Panics
    /// Panics if `edge_up` and `members` disagree on the edge count.
    pub fn from_parts(
        base_total: usize,
        edge_up: Vec<bool>,
        members: Vec<Vec<usize>>,
        next_join_id: usize,
    ) -> Self {
        assert_eq!(edge_up.len(), members.len(), "edge count mismatch");
        Self {
            base_total,
            edge_up,
            members,
            next_join_id,
        }
    }

    /// The checkpointable parts: `(base_total, edge_up, members,
    /// next_join_id)`.
    pub fn parts(&self) -> (usize, &[bool], &[Vec<usize>], usize) {
        (
            self.base_total,
            &self.edge_up,
            &self.members,
            self.next_join_id,
        )
    }

    /// Number of edges in the underlying topology (up or down).
    pub fn num_edges(&self) -> usize {
        self.edge_up.len()
    }

    /// The topology's original client count; ids at or above this were
    /// minted for joiners.
    pub fn base_total(&self) -> usize {
        self.base_total
    }

    /// Whether edge `e` is still up.
    pub fn is_up(&self, edge: usize) -> bool {
        self.edge_up[edge]
    }

    /// Up edges, ascending.
    pub fn up_edges(&self) -> Vec<usize> {
        (0..self.edge_up.len())
            .filter(|&e| self.edge_up[e])
            .collect()
    }

    /// Number of up edges.
    pub fn num_up(&self) -> usize {
        self.edge_up.iter().filter(|&&u| u).count()
    }

    /// Active global client ids currently homed at edge `e`, in
    /// deterministic order (originals first, then arrivals in
    /// assignment order).
    pub fn members_of(&self, edge: usize) -> &[usize] {
        &self.members[edge]
    }

    /// Active clients across up edges.
    pub fn active_clients(&self) -> usize {
        (0..self.edge_up.len())
            .filter(|&e| self.edge_up[e])
            .map(|e| self.members[e].len())
            .sum()
    }

    /// Exclusive upper bound on every global client id seen so far.
    pub fn id_bound(&self) -> usize {
        self.next_join_id
    }

    /// Re-project fairness weights onto the simplex over up edges: dead
    /// edges' mass is zeroed and the survivors renormalized (in `f64`,
    /// then truncated — a fixed evaluation order, so the run loop and the
    /// conformance replayer compute bit-identical weights). If every
    /// weighted edge is down, fall back to uniform over the survivors.
    /// A no-op while every edge is up.
    pub fn reproject_weights(&self, p: &mut [f32]) {
        if p.is_empty() || self.num_up() == self.num_edges() {
            return;
        }
        let mut sum = 0.0_f64;
        for (e, x) in p.iter_mut().enumerate() {
            if !self.edge_up[e] {
                *x = 0.0;
            }
            sum += f64::from(*x);
        }
        if sum <= 0.0 {
            let share = 1.0 / self.num_up() as f32;
            for (e, x) in p.iter_mut().enumerate() {
                *x = if self.edge_up[e] { share } else { 0.0 };
            }
        } else {
            let inv = (1.0 / sum) as f32;
            for x in p.iter_mut() {
                *x *= inv;
            }
        }
    }

    /// The up edge with the fewest members, ties broken by lowest id.
    /// `None` when every edge is down (cannot happen via `apply_round`,
    /// which refuses to fail the last edge).
    fn least_loaded_up(&self) -> Option<usize> {
        (0..self.edge_up.len())
            .filter(|&e| self.edge_up[e])
            .min_by_key(|&e| (self.members[e].len(), e))
    }

    /// Apply one round of churn: leaves, then edge failures (with
    /// re-homing or stranding), then joins. Every coin is an
    /// independently keyed stream, so the transition set is a pure
    /// function of `(plan, seed, round, membership-before)` — the
    /// conformance replayer calls this same method on its mirror and
    /// compares. A failure that would leave zero up edges is ignored
    /// (the draw is still made, so later decisions are unaffected).
    pub fn apply_round(&mut self, plan: &ChurnPlan, seed: u64, round: usize) -> RoundChurn {
        let mut rc = RoundChurn::default();
        if plan.is_none() {
            return rc;
        }
        // 1. Leaves: evaluated over every active client on an up edge.
        for e in 0..self.edge_up.len() {
            if !self.edge_up[e] {
                continue;
            }
            self.members[e].retain(|&gid| {
                if plan.client_leaves(seed, round, gid) {
                    rc.left.push(gid);
                    false
                } else {
                    true
                }
            });
        }
        // 2. Permanent edge failures, ascending; never the last up edge.
        for e in 0..self.edge_up.len() {
            if !self.edge_up[e] {
                continue;
            }
            let fails = plan.edge_fails(seed, round, e);
            if fails && self.num_up() > 1 {
                self.edge_up[e] = false;
                rc.failed_edges.push(e);
            }
        }
        // Orphans of this round's failures: re-home or strand.
        for &e in &rc.failed_edges {
            if plan.rehome {
                let mut orphans = std::mem::take(&mut self.members[e]);
                orphans.sort_unstable();
                for gid in orphans {
                    let to = self.least_loaded_up().expect("at least one up edge");
                    self.members[to].push(gid);
                    rc.rehomed.push((gid, e, to));
                }
            } else {
                rc.stranded.extend(self.members[e].iter().copied());
            }
        }
        // 3. Joins: one slot per edge per round, each an independent coin.
        for slot in 0..self.edge_up.len() {
            if plan.client_joins(seed, round, slot) {
                let gid = self.next_join_id;
                self.next_join_id += 1;
                let to = self.least_loaded_up().expect("at least one up edge");
                self.members[to].push(gid);
                rc.joined.push((gid, to));
            }
        }
        rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(4, 3)
    }

    #[test]
    fn presets_all_validate() {
        for name in CHURN_PRESETS {
            let plan = ChurnPlan::preset(name).unwrap();
            plan.validate().unwrap();
        }
        assert!(ChurnPlan::preset("bogus").is_none());
        assert!(ChurnPlan::preset("none").unwrap().is_none());
        assert!(!ChurnPlan::preset("mild").unwrap().is_none());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut p = NO_CHURN;
        p.leave_rate = 1.5;
        assert!(p.validate().is_err());
        p.leave_rate = f32::NAN;
        assert!(p.validate().is_err());
        p.leave_rate = -0.1;
        assert!(p.validate().is_err());
        p.leave_rate = 1.0;
        p.validate().unwrap();
    }

    #[test]
    fn zero_rate_plan_changes_nothing() {
        let mut at = ActiveTopology::new(&topo());
        let before = at.clone();
        let rc = at.apply_round(&NO_CHURN, 7, 0);
        assert!(rc.is_empty());
        assert_eq!(at, before);
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let plan = ChurnPlan::preset("chaos-churn").unwrap();
        for round in 0..10 {
            for id in 0..12 {
                assert_eq!(
                    plan.client_leaves(3, round, id),
                    plan.client_leaves(3, round, id)
                );
                assert_eq!(plan.edge_fails(3, round, id), plan.edge_fails(3, round, id));
                assert_eq!(
                    plan.client_joins(3, round, id),
                    plan.client_joins(3, round, id)
                );
            }
        }
    }

    #[test]
    fn apply_round_is_deterministic_and_replayable() {
        let plan = ChurnPlan::preset("chaos-churn").unwrap();
        let mut a = ActiveTopology::new(&topo());
        let mut b = ActiveTopology::new(&topo());
        for round in 0..20 {
            let ra = a.apply_round(&plan, 11, round);
            let rb = b.apply_round(&plan, 11, round);
            assert_eq!(ra, rb);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rehoming_moves_orphans_to_least_loaded_survivor() {
        let plan = ChurnPlan {
            edge_fail_rate: 1.0,
            ..NO_CHURN
        };
        let mut at = ActiveTopology::new(&topo());
        let rc = at.apply_round(&plan, 1, 0);
        // Rate 1.0 fails edges 0..2; the guard keeps edge 3 up.
        assert_eq!(rc.failed_edges, vec![0, 1, 2]);
        assert_eq!(at.up_edges(), vec![3]);
        // Every orphan landed on the lone survivor; nobody was lost.
        assert_eq!(rc.rehomed.len(), 9);
        assert!(rc.rehomed.iter().all(|&(_, _, to)| to == 3));
        assert_eq!(at.members_of(3).len(), 12);
        assert_eq!(at.active_clients(), 12);
    }

    #[test]
    fn stranding_keeps_orphans_on_the_dead_edge() {
        let plan = ChurnPlan {
            edge_fail_rate: 1.0,
            rehome: false,
            ..NO_CHURN
        };
        let mut at = ActiveTopology::new(&topo());
        let rc = at.apply_round(&plan, 1, 0);
        assert_eq!(rc.failed_edges, vec![0, 1, 2]);
        assert!(rc.rehomed.is_empty());
        assert_eq!(rc.stranded.len(), 9);
        assert_eq!(at.active_clients(), 3);
        // Stranded members remain listed under their dead edge.
        assert_eq!(at.members_of(0).len(), 3);
    }

    #[test]
    fn joiners_get_fresh_ascending_ids() {
        let plan = ChurnPlan {
            join_rate: 1.0,
            ..NO_CHURN
        };
        let mut at = ActiveTopology::new(&topo());
        let r0 = at.apply_round(&plan, 1, 0);
        let r1 = at.apply_round(&plan, 1, 1);
        assert_eq!(r0.joined.len(), 4);
        assert_eq!(r1.joined.len(), 4);
        let ids: Vec<usize> = r0
            .joined
            .iter()
            .chain(&r1.joined)
            .map(|&(g, _)| g)
            .collect();
        assert_eq!(ids, vec![12, 13, 14, 15, 16, 17, 18, 19]);
        assert_eq!(at.active_clients(), 20);
        assert_eq!(at.id_bound(), 20);
    }

    #[test]
    fn parts_round_trip() {
        let plan = ChurnPlan::preset("chaos-churn").unwrap();
        let mut at = ActiveTopology::new(&topo());
        for round in 0..10 {
            at.apply_round(&plan, 5, round);
        }
        let (base, up, members, next) = at.parts();
        let rebuilt = ActiveTopology::from_parts(base, up.to_vec(), members.to_vec(), next);
        assert_eq!(rebuilt, at);
        // And the rebuilt view continues identically.
        let mut cont = rebuilt.clone();
        let mut orig = at.clone();
        assert_eq!(
            cont.apply_round(&plan, 5, 10),
            orig.apply_round(&plan, 5, 10)
        );
        assert_eq!(cont, orig);
    }

    #[test]
    fn stats_absorb_counts_transitions() {
        let plan = ChurnPlan::preset("chaos-churn").unwrap();
        let mut at = ActiveTopology::new(&topo());
        let mut stats = ChurnStats::default();
        for round in 0..30 {
            let rc = at.apply_round(&plan, 9, round);
            stats.absorb(&rc);
        }
        assert!(stats.total() > 0);
        assert!(stats.joined > 0);
        assert!(stats.left > 0);
    }

    #[test]
    fn last_up_edge_never_fails() {
        let plan = ChurnPlan {
            edge_fail_rate: 1.0,
            ..NO_CHURN
        };
        let mut at = ActiveTopology::new(&topo());
        for round in 0..5 {
            at.apply_round(&plan, 2, round);
        }
        assert_eq!(at.num_up(), 1);
    }
}
