//! Stream conformance checking: an executable model of Algorithm 1.
//!
//! [`check_stream`] replays the protocol alongside a run's telemetry
//! stream (the [`TelemetryEvent`]s it emitted, DESIGN.md §10) and
//! validates, round by round:
//!
//! - **Phase ordering** — protocol events appear in exactly the order the
//!   round driver prescribes (`round_start` → churn → Phase-1 draw →
//!   cloud-link faults → `τ2` blocks of client-edge aggregations → uplink
//!   faults → `phase1_done` → Phase-2 faults and `dual_update` →
//!   `fault_summary` → `adversary` → `round_end`).
//! - **Sampling replay** — the Phase-1 draw is re-drawn from the keyed
//!   `EdgeSampling` stream (∝ the streamed `p^(k)`, or uniform over the
//!   up edges), the checkpoint from the `Checkpoint` stream, and the
//!   Phase-2 set `U^(k)` from the `LossEstSampling` stream; the stream
//!   must match the replay exactly.
//!   Every edge of `U^(k)` must show up as a `fault` event or in
//!   `dual_update.edges`.
//! - **Checkpoint bounds** — `(c1, c2) ∈ [τ1] × [τ2]`, checked before the
//!   equality so an off-by-one surfaces as
//!   [`ConformanceError::CheckpointOutOfRange`].
//! - **Participation structure** — which clients each edge aggregates in
//!   each block (`block_agg.clients`, in slot order) is re-derived from
//!   the keyed crash and straggler streams over the edge's member list,
//!   and `round_end.slots` must be `(k+1)·τ1·τ2` (times `Π τ_l` up a
//!   tree).
//! - **Fault replay** — the run's [`FaultPlan`] streams (edge outages,
//!   per-channel message loss with bounded retries, client crashes and
//!   straggler deadlines) are re-drawn alongside the stream: every
//!   injected cloud-link fault must appear as a `fault` event in protocol
//!   order with the replayed kind and attempt count, and each round's
//!   `fault_summary` must carry the replayed counts. A `fault` event the
//!   replay did not draw is a [`ConformanceError::FaultMismatch`] wherever
//!   it appears.
//! - **Adversary replay** — when the plan has a Byzantine adversary, the
//!   per-round corrupted-upload count is re-drawn from the keyed
//!   `Adversary` stream over the surviving slots of every block, and the
//!   round's `adversary` event must carry exactly that count and the
//!   plan's attack tag. Honest streams must not contain the event at all.
//! - **Churn replay** — with an active [`hm_simnet::ChurnPlan`], the
//!   checker keeps its own [`ActiveTopology`] and re-derives every
//!   round's leaves, joins, edge failures and re-homing moves from the
//!   keyed `Churn` stream; the `churn` event and its `rehome` events must
//!   match the replay exactly. The mirror's member lists drive the
//!   participation, fault and comm models, and the tracked `p` is
//!   re-projected onto the surviving simplex whenever an edge fails.
//! - **Communication accounting** — every `round_end.comm_delta` is
//!   compared counter by counter with a closed-form model of the round's
//!   float/message/round costs on all three links, including the doubled
//!   upload of the checkpoint block and one full payload per replayed
//!   retransmission.
//! - **Feasibility and health** — every `dual_update.p` must lie in the
//!   constrained set `P` (via [`ProjectionOp::feasibility_violation`]),
//!   and every `phase1_done` must report zero non-finite parameters.
//!
//! One replay serves HierMinimax, HierFAVG and MultiLevel.
//! Like the round driver (DESIGN.md §7c) it is parameterized by three
//! policies — the Phase-1 sampler, the block phase and an optional dual
//! step — which [`Protocol::new`] builds from the run's `(Method, Hyper,
//! RunOpts)`. It stays an independent model: it calls `hm-simnet`'s pure
//! decision functions (samplers, [`FaultPlan`], [`ActiveTopology`]),
//! never `hm-core`'s driver.
//!
//! The replay reads protocol events strictly. It skips only observer
//! kinds — `span`, `profile_summary`, `eval`, `checkpoint`,
//! `aggregator_summary` and the run framing (`run_start`, `run_resume`,
//! `run_end`) — plus, for MultiLevel, the inner `block_agg` events, whose
//! `round` field is a position tag. MultiLevel is checked at the cloud
//! level, with the recursive intermediate-level comm cost in closed form.
//!
//! [`ProjectionOp::feasibility_violation`]: hm_optim::ProjectionOp::feasibility_violation

use hm_core::algorithms::{Hyper, Method, Param, RunOpts, UpperLevel};
use hm_core::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::{
    ActiveTopology, CommStats, FaultKind, FaultPlan, Link, MsgChannel, Quantizer, RoundChurn,
    StragglerFate,
};
use hm_telemetry::TelemetryEvent;
use std::fmt;

/// Feasibility slack for streamed weight iterates: the projections are
/// exact up to f32 rounding, so anything beyond this is a protocol
/// violation, not noise.
const FEASIBILITY_TOL: f64 = 1e-4;

/// A violation found while replaying a stream against the protocol model.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformanceError {
    /// The stream ended while the model still expected an event.
    TraceEnded {
        /// Round being checked.
        round: usize,
        /// The event kind the model expected next.
        expected: &'static str,
    },
    /// The next event was not the one the protocol prescribes here.
    UnexpectedEvent {
        /// Round being checked.
        round: usize,
        /// The event kind the model expected.
        expected: &'static str,
        /// Debug rendering of the event actually found.
        actual: String,
    },
    /// A sampled id set differs from the keyed-stream replay.
    SamplingMismatch {
        /// Round being checked.
        round: usize,
        /// Which draw: `"phase1"` or `"phase2"`.
        phase: &'static str,
        /// The replayed (correct) sample.
        expected: Vec<usize>,
        /// The streamed sample.
        actual: Vec<usize>,
    },
    /// A checkpoint index left `[τ1] × [τ2]`.
    CheckpointOutOfRange {
        /// Round being checked.
        round: usize,
        /// Streamed local-step index.
        c1: usize,
        /// Streamed block index.
        c2: usize,
        /// Local steps per block.
        tau1: usize,
        /// Blocks per round.
        tau2: usize,
    },
    /// A checkpoint index differs from the keyed-stream replay.
    CheckpointMismatch {
        /// Round being checked.
        round: usize,
        /// The replayed (correct) index.
        expected: (usize, usize),
        /// The streamed index.
        actual: (usize, usize),
    },
    /// A block's aggregated clients, or the round's slot count,
    /// contradict the survivor replay.
    LocalStepsMismatch {
        /// Round being checked.
        round: usize,
        /// Block index within the round.
        t2: usize,
        /// What went wrong.
        detail: String,
    },
    /// A `block_agg` event is out of order or attributed to the wrong
    /// edge or block.
    AggregationMismatch {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// A global model reported non-finite parameters, or a weight vector
    /// is malformed.
    BadModel {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// A weight iterate lies outside the constrained set `P`.
    InfeasibleWeights {
        /// Round being checked.
        round: usize,
        /// Largest constraint violation.
        violation: f64,
    },
    /// A fault, fault-summary or adversary event contradicts the keyed
    /// fault-stream replay (wrong kind, entity, attempt count or count,
    /// missing, or never drawn).
    FaultMismatch {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// A per-round communication counter differs from the closed form.
    CommMismatch {
        /// Round being checked.
        round: usize,
        /// Link the counter lives on.
        link: &'static str,
        /// Counter name.
        counter: &'static str,
        /// Closed-form value.
        expected: u64,
        /// Streamed value.
        actual: u64,
    },
    /// A `churn` or `rehome` event contradicts the keyed churn-stream
    /// replay (forged leave/join/failure/re-homing move, or missing event).
    ChurnMismatch {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// Protocol events remained after the final round.
    TrailingEvents {
        /// Number of leftover protocol events.
        count: usize,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TraceEnded { round, expected } => {
                write!(f, "round {round}: stream ended, expected {expected}")
            }
            Self::UnexpectedEvent {
                round,
                expected,
                actual,
            } => write!(f, "round {round}: expected {expected}, found {actual}"),
            Self::SamplingMismatch {
                round,
                phase,
                expected,
                actual,
            } => write!(
                f,
                "round {round}: {phase} sample {actual:?} != replay {expected:?}"
            ),
            Self::CheckpointOutOfRange {
                round,
                c1,
                c2,
                tau1,
                tau2,
            } => write!(
                f,
                "round {round}: checkpoint ({c1}, {c2}) outside [{tau1}]x[{tau2}]"
            ),
            Self::CheckpointMismatch {
                round,
                expected,
                actual,
            } => write!(
                f,
                "round {round}: checkpoint {actual:?} != replay {expected:?}"
            ),
            Self::LocalStepsMismatch { round, t2, detail } => {
                write!(f, "round {round} block {t2}: {detail}")
            }
            Self::AggregationMismatch { round, detail }
            | Self::BadModel { round, detail }
            | Self::FaultMismatch { round, detail }
            | Self::ChurnMismatch { round, detail } => write!(f, "round {round}: {detail}"),
            Self::InfeasibleWeights { round, violation } => {
                write!(f, "round {round}: weights violate P by {violation}")
            }
            Self::CommMismatch {
                round,
                link,
                counter,
                expected,
                actual,
            } => write!(
                f,
                "round {round}: {link} {counter} = {actual}, expected {expected}"
            ),
            Self::TrailingEvents { count } => {
                write!(f, "{count} trailing events after the final round")
            }
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Summary of a successful conformance check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// Training rounds validated.
    pub rounds: usize,
    /// Stream events read, observers included.
    pub events: usize,
    /// Client uploads (one per client per block) validated against the
    /// survivor replay.
    pub local_steps: usize,
    /// Checkpoint-block aggregations observed.
    pub checkpoints: usize,
    /// `fault` and `adversary` events validated against the fault-stream
    /// replay.
    pub faults: usize,
}

/// How the cloud picks a round's Phase-1 participants (the driver's
/// sampler policy).
#[derive(Debug, Clone, Copy)]
enum Sampler {
    /// `m` draws ∝ `p` with replacement (HierMinimax, MultiLevel).
    Weighted(usize),
    /// `m` distinct edges, uniform over the edges still up (HierFAVG).
    Uniform(usize),
}

impl Sampler {
    /// Reports the cloud uses per round; Phase 2 samples as many.
    fn m(&self) -> usize {
        match *self {
            Sampler::Weighted(m) | Sampler::Uniform(m) => m,
        }
    }
}

/// What a participant runs between the broadcast and its upload (the
/// driver's block policy).
#[derive(Debug, Clone, Copy)]
enum Blocks<'a> {
    /// `τ2` client-edge blocks per participating edge, each replayed
    /// against its `block_agg` events.
    Edges,
    /// MultiLevel's tree over the upper levels (top first); its inner
    /// events are skipped and its cost is checked in closed form.
    Tree(&'a [UpperLevel]),
}

impl Blocks<'_> {
    fn upper(&self) -> &[UpperLevel] {
        match *self {
            Blocks::Edges => &[],
            Blocks::Tree(upper) => upper,
        }
    }
}

/// The protocol one run followed: shared hyper-parameters and the three
/// policies.
#[derive(Debug, Clone, Copy)]
pub struct Protocol<'a> {
    rounds: usize,
    tau1: usize,
    /// Client-edge blocks per edge-level aggregation.
    tau2: usize,
    quantizer: Quantizer,
    /// The run's options (fault plan, churn plan, quarantine).
    opts: &'a RunOpts,
    sampler: Sampler,
    blocks: Blocks<'a>,
    /// Whether rounds draw a checkpoint and end with the dual step on `p`.
    dual: bool,
}

impl<'a> Protocol<'a> {
    /// The protocol of `method`'s run of `h` under `opts`.
    ///
    /// # Panics
    /// Panics for the two-layer baselines: the replay does not model
    /// client units.
    pub fn new(method: Method, h: &'a Hyper, opts: &'a RunOpts) -> Self {
        let (sampler, blocks, dual) = match method {
            Method::HierMinimax => (Sampler::Weighted(h.m), Blocks::Edges, true),
            Method::HierFavg => (Sampler::Uniform(h.m), Blocks::Edges, false),
            Method::MultiLevel => (Sampler::Weighted(h.m), Blocks::Tree(&h.upper), true),
            other => panic!("the replay does not model {}'s client units", other.name()),
        };
        Protocol {
            rounds: h.rounds,
            tau1: h.tau1,
            tau2: h.tau2,
            quantizer: if method.reads(Param::Quantizer) {
                h.quantizer
            } else {
                Quantizer::Exact
            },
            opts,
            sampler,
            blocks,
            dual,
        }
    }
}

/// Whether the replay skips this event: observers and run framing, plus
/// the inner `block_agg` events of a tree.
fn is_skipped(e: &TelemetryEvent, tree: bool) -> bool {
    match e {
        TelemetryEvent::Span { .. }
        | TelemetryEvent::ProfileSummary { .. }
        | TelemetryEvent::Eval { .. }
        | TelemetryEvent::Checkpoint { .. }
        | TelemetryEvent::AggregatorSummary { .. }
        | TelemetryEvent::RunStart { .. }
        | TelemetryEvent::RunResume { .. }
        | TelemetryEvent::RunEnd { .. } => true,
        TelemetryEvent::BlockAggregated { .. } => tree,
        _ => false,
    }
}

/// Strict event cursor: the replay consumes the stream front to back.
struct Cursor<'e> {
    events: &'e [TelemetryEvent],
    pos: usize,
    tree: bool,
}

impl<'e> Cursor<'e> {
    /// The next protocol event.
    fn next(
        &mut self,
        round: usize,
        expected: &'static str,
    ) -> Result<&'e TelemetryEvent, ConformanceError> {
        while let Some(e) = self.events.get(self.pos) {
            self.pos += 1;
            if !is_skipped(e, self.tree) {
                return Ok(e);
            }
        }
        Err(ConformanceError::TraceEnded { round, expected })
    }

    /// Events read, once no protocol event remains.
    fn finish(&self) -> Result<usize, ConformanceError> {
        let count = self.events[self.pos..]
            .iter()
            .filter(|e| !is_skipped(e, self.tree))
            .count();
        if count > 0 {
            Err(ConformanceError::TrailingEvents { count })
        } else {
            Ok(self.events.len())
        }
    }
}

/// The error for event `actual` found where the model expected
/// `expected`. A `fault` the replay did not draw is a fault mismatch and
/// a `rehome` it did not derive a churn mismatch, wherever they appear.
fn unexpected(round: usize, expected: &'static str, actual: &TelemetryEvent) -> ConformanceError {
    let detail = format!("expected {expected}, found {actual:?}");
    match actual {
        TelemetryEvent::Fault { .. } => ConformanceError::FaultMismatch { round, detail },
        TelemetryEvent::Rehome { .. } => ConformanceError::ChurnMismatch { round, detail },
        _ => ConformanceError::UnexpectedEvent {
            round,
            expected,
            actual: format!("{actual:?}"),
        },
    }
}

/// Distinct ids in first-seen order (the cloud broadcasts once per
/// distinct sampled unit).
fn distinct(sampled: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(sampled.len());
    for &e in sampled {
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

/// Closed-form expectation for one round's counters on one link.
#[derive(Debug, Clone, Copy, Default)]
struct LinkCost {
    down_floats: u64,
    down_msgs: u64,
    up_floats: u64,
    up_msgs: u64,
    rounds: u64,
}

fn check_link(
    round: usize,
    delta: &CommStats,
    link: Link,
    name: &'static str,
    want: LinkCost,
) -> Result<(), ConformanceError> {
    let checks: [(&'static str, u64, u64); 5] = [
        (
            "downlink floats",
            want.down_floats,
            delta.downlink_floats(link),
        ),
        ("downlink msgs", want.down_msgs, delta.downlink_msgs(link)),
        ("uplink floats", want.up_floats, delta.uplink_floats(link)),
        ("uplink msgs", want.up_msgs, delta.uplink_msgs(link)),
        ("rounds", want.rounds, delta.rounds(link)),
    ];
    for (counter, expected, actual) in checks {
        if expected != actual {
            return Err(ConformanceError::CommMismatch {
                round,
                link: name,
                counter,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

/// Recursive closed-form `ClientEdge` cost of one group's subtree update
/// over `edges` edges below upper level `li` (base levels run with the
/// exact codec and no client faults).
fn subtree_cost(
    upper: &[UpperLevel],
    tau2: u64,
    d: u64,
    n0: u64,
    li: usize,
    edges: u64,
) -> LinkCost {
    if li == upper.len() {
        // τ2 blocks over `edges` edges, exactly one of which carries the
        // doubled checkpoint payload.
        return LinkCost {
            down_floats: tau2 * edges * n0 * d,
            down_msgs: tau2 * edges * n0,
            up_floats: (tau2 + 1) * d * edges * n0,
            up_msgs: tau2 * edges * n0,
            rounds: tau2,
        };
    }
    let child_edges: u64 = upper[li + 1..]
        .iter()
        .map(|u| u.group_size as u64)
        .product::<u64>()
        .max(1);
    let children = edges / child_edges;
    let tau = upper[li].tau as u64;
    let child = subtree_cost(upper, tau2, d, n0, li + 1, child_edges);
    LinkCost {
        down_floats: tau * (d * children + children * child.down_floats),
        down_msgs: tau * (children + children * child.down_msgs),
        up_floats: tau * (2 * d * children + children * child.up_floats),
        up_msgs: tau * (children + children * child.up_msgs),
        rounds: tau * (1 + children * child.rounds),
    }
}

/// One round's replayed fault occurrences, for `fault_summary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FaultTally {
    crashes: u64,
    outages: u64,
    retries: u64,
    gave_up: u64,
    deadline_missed: u64,
}

/// What the block phase of one round replayed.
struct BlockReplay {
    /// Surviving uploads per block.
    survivors: Vec<u64>,
    /// Corrupted uploads, when the replay models them (not up a tree).
    corrupted: Option<u64>,
}

/// The replay state carried across rounds.
struct Replay<'a, 'e> {
    problem: &'a FederatedProblem,
    pr: Protocol<'a>,
    seed: u64,
    plan: &'a FaultPlan,
    /// Whether the churn plan is active: the stream then carries `churn`
    /// events, and `p` may sit on the simplex over surviving edges.
    churn_on: bool,
    /// The run's membership view, all-up while churn is off.
    mirror: ActiveTopology,
    cur: Cursor<'e>,
    report: ConformanceReport,
    /// Model dimension.
    d: u64,
    /// Clients per edge of the topology (the tree's closed-form cost).
    n0: u64,
    /// Edges under one sampled unit.
    per_unit: usize,
    /// Units the cloud samples and `p` weighs.
    n_units: usize,
    /// Time slots per round.
    slots: usize,
}

/// Check a run's telemetry stream against the Algorithm-1 model.
///
/// `events` must be the complete stream (for example a `MemorySink`'s, or
/// a resume splice, see [`crate::splice()`]) of `problem` run under the
/// protocol `pr`, with `seed`.
///
/// # Panics
/// Panics on what the model does not cover: update-norm quarantine, and
/// client crashes, stragglers or churn under MultiLevel.
pub fn check_stream<'a>(
    problem: &FederatedProblem,
    pr: Protocol<'a>,
    seed: u64,
    events: &[TelemetryEvent],
) -> Result<ConformanceReport, ConformanceError> {
    let plan = &pr.opts.fault;
    let tree = matches!(pr.blocks, Blocks::Tree(_));
    if tree {
        // Client crashes and stragglers inside subtrees key their streams
        // on position tags the closed-form subtree cost does not model.
        assert!(
            plan.client_crash == 0.0 && plan.straggler_rate == 0.0,
            "the tree replay covers cloud-link faults only \
             (client_crash and straggler_rate must be zero)"
        );
        assert!(
            pr.opts.churn.is_none(),
            "membership churn is a two-level feature (the multi-level run rejects it)"
        );
    } else {
        assert!(
            pr.opts.quarantine_z <= 0.0,
            "conformance replay does not model quarantine exclusion windows"
        );
    }
    let per_unit: usize = pr.blocks.upper().iter().map(|u| u.group_size).product();
    let n_edges = problem.num_edges();
    assert!(
        n_edges.is_multiple_of(per_unit),
        "{n_edges} edges do not divide into groups of {per_unit}"
    );
    let n_units = n_edges / per_unit;
    let mut replay = Replay {
        problem,
        seed,
        churn_on: !pr.opts.churn.is_none(),
        plan,
        mirror: ActiveTopology::new(&problem.topology()),
        cur: Cursor {
            events,
            pos: 0,
            tree,
        },
        report: ConformanceReport::default(),
        d: problem.num_params() as u64,
        n0: problem.clients_per_edge() as u64,
        per_unit,
        n_units,
        slots: pr.tau1 * pr.tau2 * pr.blocks.upper().iter().map(|u| u.tau).product::<usize>(),
        pr,
    };
    let mut p = vec![1.0_f32 / n_units as f32; n_units];
    for k in 0..pr.rounds {
        replay.round(k, &mut p)?;
        replay.report.rounds += 1;
    }
    replay.report.events = replay.cur.finish()?;
    Ok(replay.report)
}

impl Replay<'_, '_> {
    /// Replay round `k` from the weights `p` it starts with; leaves the
    /// streamed `p^(k+1)` in `p`.
    fn round(&mut self, k: usize, p: &mut Vec<f32>) -> Result<(), ConformanceError> {
        match self.cur.next(k, "round_start")? {
            TelemetryEvent::RoundStart { round } if *round == k => {}
            other => return Err(unexpected(k, "round_start", other)),
        }
        // Membership churn applies at the round boundary, before any
        // draw; a failed edge re-projects the tracked p like the run.
        if self.churn_on {
            let rc = self.expect_churn(k)?;
            if self.pr.dual && !rc.failed_edges.is_empty() {
                self.mirror.reproject_weights(p);
            }
        }

        // ---- Phase 1 -----------------------------------------------------
        let (sampled, c2) = self.expect_phase1(k, p)?;
        let mut tally = FaultTally::default();
        let active = self.outages(k, &distinct(&sampled), &mut tally)?;
        let (participants, p1_down) =
            self.deliveries(k, MsgChannel::Phase1Down, &active, &mut tally)?;
        let blocks = self.block_phase(k, &participants, c2, &mut tally)?;
        // The uplink deliveries decide which reports the cloud averages;
        // an empty set is the stale-round path, which still reports.
        let (_, p1_up) = self.deliveries(k, MsgChannel::Phase1Up, &participants, &mut tally)?;
        match self.cur.next(k, "phase1_done")? {
            TelemetryEvent::Phase1Done {
                round, nonfinite, ..
            } if *round == k => {
                if *nonfinite > 0 {
                    return Err(ConformanceError::BadModel {
                        round: k,
                        detail: format!("global model has {nonfinite} non-finite parameters"),
                    });
                }
            }
            other => return Err(unexpected(k, "phase1_done", other)),
        }

        // ---- Phase 2 -----------------------------------------------------
        let (live, est, p2_down) = if self.pr.dual {
            self.phase2(k, p, &mut tally)?
        } else {
            (Vec::new(), Vec::new(), 0)
        };

        // ---- Accounting --------------------------------------------------
        if !self.plan.is_none() {
            self.expect_fault_summary(k, tally)?;
        }
        if self.plan.has_adversary() {
            self.expect_adversary(k, blocks.corrupted)?;
        }
        let delta = match self.cur.next(k, "round_end")? {
            TelemetryEvent::RoundEnd {
                round,
                slots,
                comm_delta,
                ..
            } if *round == k => {
                let want = (k + 1) * self.slots;
                if *slots != want {
                    return Err(ConformanceError::LocalStepsMismatch {
                        round: k,
                        t2: 0,
                        detail: format!(
                            "round_end.slots = {slots}, expected (k+1)·τ1·τ2·Πτ_l = {want}"
                        ),
                    });
                }
                *comm_delta
            }
            other => return Err(unexpected(k, "round_end", other)),
        };
        self.check_comm(
            k,
            &delta,
            &CommReplay {
                active: active.len() as u64,
                participants: &participants,
                live: live.len() as u64,
                est: &est,
                extra: [p1_down, p1_up, p2_down],
                c2,
                survivors: &blocks.survivors,
            },
        )
    }

    /// Advance the churn mirror by one round and match the streamed
    /// `churn` event and its `rehome` events against the replay.
    fn expect_churn(&mut self, k: usize) -> Result<RoundChurn, ConformanceError> {
        let rc = self.mirror.apply_round(&self.pr.opts.churn, self.seed, k);
        let mismatch = |found: &TelemetryEvent| ConformanceError::ChurnMismatch {
            round: k,
            detail: format!(
                "expected churn left={:?} failed={:?} joined={:?} rehomed={:?}, found {found:?}",
                rc.left, rc.failed_edges, rc.joined, rc.rehomed
            ),
        };
        match self.cur.next(k, "churn")? {
            TelemetryEvent::Churn {
                round,
                joined,
                left,
                failed_edges,
                rehomed,
            } if *round == k
                && *joined == rc.joined
                && *left == rc.left
                && *failed_edges == rc.failed_edges
                && *rehomed == rc.rehomed.len() as u64 => {}
            other => return Err(mismatch(other)),
        }
        for &(client, from, to) in &rc.rehomed {
            match self.cur.next(k, "rehome")? {
                TelemetryEvent::Rehome {
                    round,
                    client: c,
                    from_edge,
                    to_edge,
                } if (*round, *c, *from_edge, *to_edge) == (k, client, from, to) => {}
                other => return Err(mismatch(other)),
            }
        }
        Ok(rc)
    }

    /// The edges under unit `g`.
    fn edges_of(&self, g: usize) -> std::ops::Range<usize> {
        g * self.per_unit..(g + 1) * self.per_unit
    }

    /// `m` distinct units uniform over those whose edges are all up (`m`
    /// clamped to their count).
    fn sample_up(&self, m: usize, rng: &mut StreamRng) -> Vec<usize> {
        let up: Vec<usize> = (0..self.n_units)
            .filter(|&g| self.edges_of(g).all(|e| self.mirror.is_up(e)))
            .collect();
        let m = m.min(up.len());
        sample_edges_uniform(up.len(), m, rng)
            .into_iter()
            .map(|i| up[i])
            .collect()
    }

    /// Match the `phase1` event against the sampler and checkpoint
    /// replay; returns the draw and the checkpoint block `c2`.
    fn expect_phase1(
        &mut self,
        k: usize,
        p: &[f32],
    ) -> Result<(Vec<usize>, Option<usize>), ConformanceError> {
        let (sampled, checkpoint) = match self.cur.next(k, "phase1")? {
            TelemetryEvent::Phase1Sampled {
                round,
                edges,
                checkpoint,
            } if *round == k && checkpoint.is_some() == self.pr.dual => (edges, *checkpoint),
            other => return Err(unexpected(k, "phase1", other)),
        };
        let mut rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::EdgeSampling,
            k as u64,
            0,
        ));
        let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
        let expect = match self.pr.sampler {
            Sampler::Weighted(m) => sample_edges_weighted(&p64, m, &mut rng),
            Sampler::Uniform(m) => self.sample_up(m, &mut rng),
        };
        if *sampled != expect {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase1",
                expected: expect,
                actual: sampled.clone(),
            });
        }
        let Some((c1, c2)) = checkpoint else {
            return Ok((expect, None));
        };
        // Range first, then the stream: one coordinate per upper level is
        // drawn before (c1, c2).
        let (tau1, tau2) = (self.pr.tau1, self.pr.tau2);
        if c1 >= tau1 || c2 >= tau2 {
            return Err(ConformanceError::CheckpointOutOfRange {
                round: k,
                c1,
                c2,
                tau1,
                tau2,
            });
        }
        let mut c_rng =
            StreamRng::for_key(StreamKey::new(self.seed, Purpose::Checkpoint, k as u64, 0));
        for u in self.pr.blocks.upper() {
            c_rng.below(u.tau);
        }
        let expect_cp = sample_checkpoint(tau1, tau2, &mut c_rng);
        if (c1, c2) != expect_cp {
            return Err(ConformanceError::CheckpointMismatch {
                round: k,
                expected: expect_cp,
                actual: (c1, c2),
            });
        }
        Ok((expect, Some(c2)))
    }

    /// Consume one `fault` event and match it against the replayed fault.
    fn expect_fault(
        &mut self,
        k: usize,
        edge: usize,
        kind: FaultKind,
        attempts: usize,
    ) -> Result<(), ConformanceError> {
        match self.cur.next(k, "fault")? {
            TelemetryEvent::Fault {
                round,
                kind: ek,
                level,
                edge: ee,
                attempts: ea,
            } if (*round, *level, *ee, *ea) == (k, 0, edge, attempts) && ek == kind.as_str() => {
                self.report.faults += 1;
                Ok(())
            }
            other => Err(ConformanceError::FaultMismatch {
                round: k,
                detail: format!(
                    "expected {} fault at edge {edge} ({attempts} attempts), found {other:?}",
                    kind.as_str()
                ),
            }),
        }
    }

    /// Replay the round's outage stream over `units`, consuming one fault
    /// event per outed unit; returns the units that are up.
    fn outages(
        &mut self,
        k: usize,
        units: &[usize],
        tally: &mut FaultTally,
    ) -> Result<Vec<usize>, ConformanceError> {
        let mut up = Vec::with_capacity(units.len());
        for &e in units {
            if self.plan.edge_out(self.seed, k as u64, 0, e) {
                tally.outages += 1;
                self.expect_fault(k, e, FaultKind::EdgeOutage, 0)?;
            } else {
                up.push(e);
            }
        }
        Ok(up)
    }

    /// Replay one channel's deliveries to `units`, consuming one fault
    /// event per retried or given-up message. Returns the units whose
    /// message arrived and the retransmissions, each metered at the full
    /// payload.
    fn deliveries(
        &mut self,
        k: usize,
        channel: MsgChannel,
        units: &[usize],
        tally: &mut FaultTally,
    ) -> Result<(Vec<usize>, u64), ConformanceError> {
        let mut delivered = Vec::with_capacity(units.len());
        let mut extra = 0_u64;
        for &e in units {
            let dv = self.plan.delivery(self.seed, k as u64, 0, channel, e);
            extra += u64::from(dv.attempts - 1);
            let kind = if !dv.delivered {
                tally.gave_up += 1;
                Some(FaultKind::MsgGaveUp)
            } else if dv.attempts > 1 {
                Some(FaultKind::MsgRetried)
            } else {
                None
            };
            if let Some(kind) = kind {
                self.expect_fault(k, e, kind, dv.attempts as usize)?;
            }
            if dv.delivered {
                delivered.push(e);
            }
        }
        tally.retries += extra;
        Ok((delivered, extra))
    }

    /// Replay the `τ2` blocks on the participating edges: per block, per
    /// edge with a survivor, one `block_agg` listing the clients that
    /// survived the crash and straggler streams, in slot order.
    fn block_phase(
        &mut self,
        k: usize,
        participants: &[usize],
        c2: Option<usize>,
        tally: &mut FaultTally,
    ) -> Result<BlockReplay, ConformanceError> {
        if matches!(self.pr.blocks, Blocks::Tree(_)) {
            return Ok(BlockReplay {
                survivors: Vec::new(),
                corrupted: None,
            });
        }
        let members: Vec<Vec<usize>> = participants
            .iter()
            .map(|&e| self.mirror.members_of(e).to_vec())
            .collect();
        let tau2 = self.pr.tau2;
        let mut survivors = Vec::with_capacity(tau2);
        let mut corrupted = 0_u64;
        for t2 in 0..tau2 {
            let block_tag = (k * tau2 + t2) as u64;
            let mut block_survivors = 0_u64;
            for (&edge, gids) in participants.iter().zip(&members) {
                let mut clients = Vec::with_capacity(gids.len());
                for &client in gids {
                    if self.plan.client_crashed(self.seed, block_tag, 0, client) {
                        tally.crashes += 1;
                    } else if self.plan.straggler(self.seed, block_tag, 0, client)
                        == StragglerFate::Missed
                    {
                        tally.deadline_missed += 1;
                    } else {
                        // Surviving uploads draw their Byzantine bit from
                        // the adversary stream, exactly as the run does.
                        if self.plan.client_corrupt(self.seed, block_tag, 0, client) {
                            corrupted += 1;
                        }
                        clients.push(client);
                    }
                }
                if clients.is_empty() {
                    // A fully cut edge keeps its block-start model.
                    continue;
                }
                block_survivors += clients.len() as u64;
                self.expect_block_agg(k, edge, t2, &clients)?;
                if c2 == Some(t2) {
                    self.report.checkpoints += 1;
                }
            }
            survivors.push(block_survivors);
        }
        Ok(BlockReplay {
            survivors,
            corrupted: Some(corrupted),
        })
    }

    fn expect_block_agg(
        &mut self,
        k: usize,
        edge: usize,
        t2: usize,
        clients: &[usize],
    ) -> Result<(), ConformanceError> {
        match self.cur.next(k, "block_agg")? {
            TelemetryEvent::BlockAggregated {
                round,
                edge: ee,
                t2: et2,
                clients: ec,
            } => {
                if (*round, *ee, *et2) != (k, edge, t2) {
                    return Err(ConformanceError::AggregationMismatch {
                        round: k,
                        detail: format!(
                            "expected block_agg at edge {edge} block {t2}, found edge {ee} \
                             block {et2} of round {round}"
                        ),
                    });
                }
                if ec != clients {
                    return Err(ConformanceError::LocalStepsMismatch {
                        round: k,
                        t2,
                        detail: format!(
                            "edge {edge} aggregated clients {ec:?}, survivor replay {clients:?}"
                        ),
                    });
                }
                self.report.local_steps += clients.len();
                Ok(())
            }
            other => Err(unexpected(k, "block_agg", other)),
        }
    }

    /// Replay Phase 2: `U^(k)`, its outages and estimate-request
    /// deliveries, then match `dual_update` (the estimating edges and a
    /// feasible `p^(k+1)`, which replaces `p`). Returns the live units,
    /// the estimating units and the downlink retransmissions.
    fn phase2(
        &mut self,
        k: usize,
        p: &mut Vec<f32>,
        tally: &mut FaultTally,
    ) -> Result<(Vec<usize>, Vec<usize>, u64), ConformanceError> {
        let mut u_rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::LossEstSampling,
            k as u64,
            u64::MAX,
        ));
        let u_set = self.sample_up(self.pr.sampler.m(), &mut u_rng);
        // A unit that is out or unreachable contributes v = 0; every unit
        // of U^(k) is either a fault event or an estimating edge.
        let live = self.outages(k, &u_set, tally)?;
        let (est, p2_down) = self.deliveries(k, MsgChannel::Phase2Down, &live, tally)?;
        let (edges, losses, p_new) = match self.cur.next(k, "dual_update")? {
            TelemetryEvent::DualUpdate {
                round,
                edges,
                losses,
                p,
                ..
            } if *round == k => (edges, losses, p),
            other => return Err(unexpected(k, "dual_update", other)),
        };
        if *edges != est {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase2",
                expected: est,
                actual: edges.clone(),
            });
        }
        if losses.len() != edges.len()
            || p_new.len() != self.n_units
            || p_new.iter().any(|x| !x.is_finite())
        {
            return Err(ConformanceError::BadModel {
                round: k,
                detail: format!("dual update malformed: losses {losses:?}, p {p_new:?}"),
            });
        }
        let violation = if self.churn_on && self.mirror.num_up() < self.n_units {
            // After an edge failure the run re-projects p onto the
            // surviving simplex, which can leave the original domain:
            // entries non-negative, zero on dead edges, summing to one.
            let mut sum = 0.0_f64;
            let mut violation = 0.0_f64;
            for (e, &x) in p_new.iter().enumerate() {
                let x = f64::from(x);
                if !self.mirror.is_up(e) {
                    violation = violation.max(x.abs());
                }
                violation = violation.max(-x);
                sum += x;
            }
            violation.max((sum - 1.0).abs())
        } else {
            self.problem.p_domain.feasibility_violation(p_new)
        };
        if violation > FEASIBILITY_TOL {
            return Err(ConformanceError::InfeasibleWeights {
                round: k,
                violation,
            });
        }
        p.clone_from(p_new);
        Ok((live, est, p2_down))
    }

    fn expect_fault_summary(&mut self, k: usize, want: FaultTally) -> Result<(), ConformanceError> {
        match self.cur.next(k, "fault_summary")? {
            TelemetryEvent::FaultSummary {
                round,
                crashes,
                outages,
                retries,
                gave_up,
                deadline_missed,
                ..
            } if *round == k
                && FaultTally {
                    crashes: *crashes,
                    outages: *outages,
                    retries: *retries,
                    gave_up: *gave_up,
                    deadline_missed: *deadline_missed,
                } == want =>
            {
                Ok(())
            }
            other => Err(ConformanceError::FaultMismatch {
                round: k,
                detail: format!("expected fault_summary with {want:?}, found {other:?}"),
            }),
        }
    }

    /// Consume the round's `adversary` event: the plan's attack tag and,
    /// when modelled, the replayed corrupted-upload count.
    fn expect_adversary(
        &mut self,
        k: usize,
        corrupted: Option<u64>,
    ) -> Result<(), ConformanceError> {
        let attack = self.plan.attack.as_str();
        match self.cur.next(k, "adversary")? {
            TelemetryEvent::Adversary {
                round,
                corrupted: c,
                attack: a,
            } if *round == k && a == attack && corrupted.is_none_or(|want| *c == want) => {
                self.report.faults += 1;
                Ok(())
            }
            other => Err(ConformanceError::FaultMismatch {
                round: k,
                detail: format!(
                    "expected adversary ({attack}) with {corrupted:?} corrupted uploads, \
                     found {other:?}"
                ),
            }),
        }
    }

    /// Check the round's comm delta against the closed form: base costs
    /// over the surviving sets, plus one full payload per replayed
    /// retransmission.
    fn check_comm(
        &self,
        k: usize,
        delta: &CommStats,
        r: &CommReplay<'_>,
    ) -> Result<(), ConformanceError> {
        let (d, n0) = (self.d, self.n0);
        let dual = u64::from(self.pr.dual);
        let wire = self.pr.quantizer.wire_floats(d as usize);
        let [p1_down, p1_up, p2_down] = r.extra;
        let prt = r.participants.len() as u64;
        let est = r.est.len() as u64;
        // The broadcast carries the checkpoint index, the upload the
        // checkpoint model.
        let cp_len = dual * (self.pr.blocks.upper().len() as u64 + 2);
        check_link(
            k,
            delta,
            Link::EdgeCloud,
            "EdgeCloud",
            LinkCost {
                down_floats: (d + cp_len) * (r.active + p1_down) + d * (r.live + p2_down),
                down_msgs: r.active + p1_down + r.live + p2_down,
                up_floats: (1 + dual) * wire * (prt + p1_up) + est,
                up_msgs: prt + p1_up + est,
                rounds: 1,
            },
        )?;
        // Loss estimation touches every member of every estimating unit.
        let est_clients: u64 = r
            .est
            .iter()
            .flat_map(|&g| self.edges_of(g))
            .map(|e| self.mirror.members_of(e).len() as u64)
            .sum();
        let tau2 = self.pr.tau2 as u64;
        let blocks = match self.pr.blocks {
            Blocks::Edges => {
                let prt_clients: u64 = r
                    .participants
                    .iter()
                    .map(|&e| self.mirror.members_of(e).len() as u64)
                    .sum();
                let mut up_floats = 0;
                for (t2, &s) in r.survivors.iter().enumerate() {
                    up_floats += if r.c2 == Some(t2) { 2 * wire } else { wire } * s;
                }
                LinkCost {
                    down_floats: tau2 * prt_clients * d,
                    down_msgs: tau2 * prt_clients,
                    up_floats,
                    up_msgs: r.survivors.iter().sum(),
                    rounds: tau2,
                }
            }
            Blocks::Tree(upper) => {
                let sub = subtree_cost(upper, tau2, d, n0, 0, self.per_unit as u64);
                LinkCost {
                    down_floats: prt * sub.down_floats,
                    down_msgs: prt * sub.down_msgs,
                    up_floats: prt * sub.up_floats,
                    up_msgs: prt * sub.up_msgs,
                    rounds: prt * sub.rounds,
                }
            }
        };
        check_link(
            k,
            delta,
            Link::ClientEdge,
            "ClientEdge",
            LinkCost {
                down_floats: blocks.down_floats + d * est_clients,
                down_msgs: blocks.down_msgs + est_clients,
                up_floats: blocks.up_floats + est_clients,
                up_msgs: blocks.up_msgs + est_clients,
                rounds: blocks.rounds + dual,
            },
        )?;
        check_link(
            k,
            delta,
            Link::ClientCloud,
            "ClientCloud",
            LinkCost::default(),
        )
    }
}

/// The replayed sets one round's comm closed form is computed over.
struct CommReplay<'r> {
    /// Distinct sampled units that were up.
    active: u64,
    /// Units whose Phase-1 downlink arrived.
    participants: &'r [usize],
    /// Units of `U^(k)` that were up.
    live: u64,
    /// Units of `U^(k)` whose estimate request arrived.
    est: &'r [usize],
    /// Retransmissions on the Phase-1 down, Phase-1 up and Phase-2 down
    /// channels.
    extra: [u64; 3],
    /// The checkpoint block, whose uploads are doubled.
    c2: Option<usize>,
    /// Surviving uploads per block (edge blocks only).
    survivors: &'r [u64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{case_opts, record};
    use hm_core::algorithms::{Algorithm, RunResult};
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::ChurnPlan;

    fn problem(n_edges: usize, n0: usize, seed: u64) -> FederatedProblem {
        FederatedProblem::logistic_from_scenario(&tiny_problem(n_edges, n0, seed))
    }

    /// One run to record and check.
    struct Case {
        method: Method,
        h: Hyper,
        opts: RunOpts,
    }

    impl Case {
        fn protocol(&self) -> Protocol<'_> {
            Protocol::new(self.method, &self.h, &self.opts)
        }
    }

    /// `method`'s run of `rounds` rounds at rates 0.05 (η_p 0.01 up a
    /// tree) and batch 4 under `opts`.
    fn case(method: Method, rounds: usize, opts: RunOpts) -> Case {
        let eta_p = if method == Method::MultiLevel {
            0.01
        } else {
            0.05
        };
        let h = Hyper {
            rounds,
            eta_w: 0.05,
            eta_p,
            batch_size: 4,
            ..Hyper::default()
        };
        Case { method, h, opts }
    }

    fn hm_cfg(rounds: usize, opts: RunOpts) -> Case {
        case(Method::HierMinimax, rounds, opts)
    }

    fn hf_cfg(rounds: usize, opts: RunOpts) -> Case {
        case(Method::HierFavg, rounds, opts)
    }

    fn ml_cfg(rounds: usize, opts: RunOpts) -> Case {
        case(Method::MultiLevel, rounds, opts)
    }

    /// Run `case` with a recording sink; returns the result and the stream.
    fn run(fp: &FederatedProblem, case: &mut Case, seed: u64) -> (RunResult, Vec<TelemetryEvent>) {
        let sink = record(&mut case.opts);
        let r = case.method.build(&case.h, case.opts.clone()).run(fp, seed);
        (r, sink.events())
    }

    fn count(events: &[TelemetryEvent], kind: &str) -> usize {
        events.iter().filter(|e| e.kind() == kind).count()
    }

    fn position(events: &[TelemetryEvent], kind: &str) -> usize {
        events
            .iter()
            .position(|e| e.kind() == kind)
            .unwrap_or_else(|| panic!("stream has a {kind} event"))
    }

    #[test]
    fn valid_hierminimax_stream_passes() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(3, case_opts());
        let (_, events) = run(&fp, &mut cfg, 42);
        let report = check_stream(&fp, cfg.protocol(), 42, &events).unwrap();
        assert_eq!(report.rounds, 3);
        assert_eq!(report.events, events.len());
        assert!(report.local_steps > 0);
        assert!(report.checkpoints > 0);
    }

    #[test]
    fn valid_hierfavg_stream_passes() {
        let fp = problem(3, 2, 2);
        let mut cfg = hf_cfg(3, case_opts());
        let events = run(&fp, &mut cfg, 7).1;
        let report = check_stream(&fp, cfg.protocol(), 7, &events).unwrap();
        assert_eq!(report.rounds, 3);
        assert_eq!(report.checkpoints, 0);
    }

    #[test]
    fn valid_multilevel_stream_passes() {
        let fp = problem(4, 2, 3);
        let mut cfg = ml_cfg(3, case_opts());
        let events = run(&fp, &mut cfg, 11).1;
        let report = check_stream(&fp, cfg.protocol(), 11, &events).unwrap();
        assert_eq!(report.rounds, 3);
    }

    /// A fault plan hitting every class replays cleanly: the checker
    /// consumes the interleaved `fault` events, recomputes survivor sets
    /// and fault summaries, and the retry-aware comm closed form matches.
    #[test]
    fn faulty_hierminimax_stream_passes_and_counts_faults() {
        let fp = problem(3, 2, 4);
        let mut cfg = hm_cfg(
            6,
            RunOpts {
                fault: FaultPlan {
                    client_crash: 0.3,
                    edge_outage: 0.4,
                    msg_loss: 0.35,
                    max_retries: 1,
                    straggler_rate: 0.3,
                    straggler_slowdown: 3.0,
                    deadline_factor: 1.5,
                    ..FaultPlan::default()
                },
                ..case_opts()
            },
        );
        let (r, events) = run(&fp, &mut cfg, 42);
        let report = check_stream(&fp, cfg.protocol(), 42, &events).unwrap();
        assert_eq!(report.rounds, 6);
        assert!(report.faults > 0, "plan rates high enough to always fire");
        // Every fault event in the stream was consumed by the replay.
        assert_eq!(report.faults, count(&events, "fault"));
        assert_eq!(count(&events, "fault_summary"), 6);
        assert!(r.faults.outages > 0 || r.faults.gave_up > 0);
    }

    #[test]
    fn faulty_hierfavg_stream_passes() {
        let fp = problem(3, 2, 5);
        let mut cfg = hf_cfg(
            5,
            RunOpts {
                fault: FaultPlan {
                    client_crash: 0.25,
                    edge_outage: 0.4,
                    msg_loss: 0.3,
                    max_retries: 0,
                    ..FaultPlan::default()
                },
                ..case_opts()
            },
        );
        let events = run(&fp, &mut cfg, 19).1;
        let report = check_stream(&fp, cfg.protocol(), 19, &events).unwrap();
        assert_eq!(report.rounds, 5);
        assert!(report.faults > 0);
    }

    #[test]
    fn faulty_multilevel_stream_passes_cloud_replay() {
        let fp = problem(4, 2, 6);
        let mut cfg = ml_cfg(
            5,
            RunOpts {
                fault: FaultPlan {
                    edge_outage: 0.35,
                    msg_loss: 0.3,
                    max_retries: 2,
                    ..FaultPlan::default()
                },
                ..case_opts()
            },
        );
        let events = run(&fp, &mut cfg, 13).1;
        let report = check_stream(&fp, cfg.protocol(), 13, &events).unwrap();
        assert_eq!(report.rounds, 5);
        assert!(report.faults > 0);
    }

    fn outage_run() -> (FederatedProblem, Case, Vec<TelemetryEvent>) {
        let fp = problem(3, 2, 4);
        let mut cfg = hm_cfg(
            6,
            RunOpts {
                fault: FaultPlan {
                    edge_outage: 0.5,
                    msg_loss: 0.3,
                    max_retries: 2,
                    ..FaultPlan::default()
                },
                ..case_opts()
            },
        );
        let (_, events) = run(&fp, &mut cfg, 42);
        (fp, cfg, events)
    }

    /// Dropping a fault event desynchronizes the replay: the checker must
    /// reject the stream rather than silently mis-attribute survivors.
    #[test]
    fn missing_fault_event_is_rejected() {
        let (fp, cfg, mut events) = outage_run();
        events.remove(position(&events, "fault"));
        let err = check_stream(&fp, cfg.protocol(), 42, &events).unwrap_err();
        assert!(
            matches!(
                err,
                ConformanceError::FaultMismatch { .. } | ConformanceError::UnexpectedEvent { .. }
            ),
            "expected replay desync, got {err}"
        );
    }

    /// A forged fault event (claiming an outage the keyed stream never
    /// drew) is caught as a fault mismatch.
    #[test]
    fn forged_fault_event_is_rejected() {
        let fp = problem(3, 2, 4);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let idx = position(&events, "phase1") + 1;
        events.insert(
            idx,
            TelemetryEvent::Fault {
                round: 0,
                kind: FaultKind::EdgeOutage.as_str().into(),
                level: 0,
                edge: 0,
                attempts: 0,
            },
        );
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "expected fault mismatch, got {err}"
        );
    }

    /// `fault_summary` counts are replayed too: one retry more than the
    /// message-loss streams drew is rejected, and so is a missing summary.
    #[test]
    fn forged_or_missing_fault_summary_is_rejected() {
        let (fp, cfg, events) = outage_run();
        let mut forged = events.clone();
        let idx = position(&forged, "fault_summary");
        if let TelemetryEvent::FaultSummary { retries, .. } = &mut forged[idx] {
            *retries += 1;
        }
        let err = check_stream(&fp, cfg.protocol(), 42, &forged).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
        let mut missing = events;
        missing.remove(idx);
        let err = check_stream(&fp, cfg.protocol(), 42, &missing).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let last_end = events
            .iter()
            .rposition(|e| matches!(e, TelemetryEvent::RoundEnd { .. }))
            .unwrap();
        events.truncate(last_end);
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(matches!(err, ConformanceError::TraceEnded { .. }), "{err}");
    }

    #[test]
    fn trailing_events_are_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        events.push(TelemetryEvent::RoundStart { round: 2 });
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert_eq!(err, ConformanceError::TrailingEvents { count: 1 });
    }

    /// A run whose global model went non-finite is rejected, even though
    /// the stream carries only the model's digest.
    #[test]
    fn non_finite_model_is_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let idx = position(&events, "phase1_done");
        if let TelemetryEvent::Phase1Done { nonfinite, .. } = &mut events[idx] {
            *nonfinite = 1;
        }
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(matches!(err, ConformanceError::BadModel { .. }), "{err}");
    }

    /// The clients of a block aggregate in slot order; the same set in
    /// another order is a different protocol step.
    #[test]
    fn reordered_block_clients_are_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let idx = position(&events, "block_agg");
        if let TelemetryEvent::BlockAggregated { clients, .. } = &mut events[idx] {
            assert!(clients.len() > 1, "two clients per edge, no faults");
            clients.reverse();
        }
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::LocalStepsMismatch { .. }),
            "{err}"
        );
    }

    fn byzantine_plan(rate: f32) -> FaultPlan {
        FaultPlan {
            corrupt_rate: rate,
            attack: hm_simnet::AttackModel::SignFlip,
            ..FaultPlan::default()
        }
    }

    fn adversarial_run() -> (FederatedProblem, Case, RunResult, Vec<TelemetryEvent>) {
        let fp = problem(3, 2, 4);
        let mut cfg = hm_cfg(
            5,
            RunOpts {
                fault: byzantine_plan(0.3),
                ..case_opts()
            },
        );
        let (r, events) = run(&fp, &mut cfg, 42);
        (fp, cfg, r, events)
    }

    /// An adversarial stream replays cleanly and the per-round corrupted
    /// counts sum to the run's own adversary accounting (a closed-form
    /// cross-check of the keyed corruption stream).
    #[test]
    fn adversarial_hierminimax_stream_passes_and_counts_corruption() {
        let (fp, cfg, r, events) = adversarial_run();
        let report = check_stream(&fp, cfg.protocol(), 42, &events).unwrap();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.faults, 5, "one validated adversary event per round");
        let streamed: u64 = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Adversary { corrupted, .. } => Some(*corrupted),
                _ => None,
            })
            .sum();
        assert!(streamed > 0, "30% corruption over 5 rounds fires");
        assert_eq!(streamed, r.quarantine.corrupted_updates);
    }

    /// Corruption composes with crash/straggler faults: the corrupted
    /// count is drawn over the *surviving* slots only, and the replay
    /// still matches with both fault classes active.
    #[test]
    fn adversarial_stream_with_crashes_passes() {
        let fp = problem(3, 2, 4);
        let mut cfg = hm_cfg(
            6,
            RunOpts {
                fault: FaultPlan {
                    client_crash: 0.3,
                    straggler_rate: 0.2,
                    straggler_slowdown: 3.0,
                    deadline_factor: 1.5,
                    ..byzantine_plan(0.4)
                },
                ..case_opts()
            },
        );
        let (_, events) = run(&fp, &mut cfg, 9);
        let report = check_stream(&fp, cfg.protocol(), 9, &events).unwrap();
        assert_eq!(report.rounds, 6);
    }

    #[test]
    fn adversarial_hierfavg_stream_passes() {
        let fp = problem(3, 2, 5);
        let mut cfg = hf_cfg(
            4,
            RunOpts {
                fault: byzantine_plan(0.25),
                ..case_opts()
            },
        );
        let events = run(&fp, &mut cfg, 19).1;
        let report = check_stream(&fp, cfg.protocol(), 19, &events).unwrap();
        assert_eq!(report.rounds, 4);
        assert_eq!(report.faults, 4);
    }

    #[test]
    fn adversarial_multilevel_stream_passes() {
        let fp = problem(4, 2, 6);
        let mut cfg = ml_cfg(
            4,
            RunOpts {
                fault: byzantine_plan(0.25),
                ..case_opts()
            },
        );
        let events = run(&fp, &mut cfg, 13).1;
        let report = check_stream(&fp, cfg.protocol(), 13, &events).unwrap();
        assert_eq!(report.rounds, 4);
        assert_eq!(report.faults, 4);
    }

    /// Inflating a streamed corrupted count forges adversary accounting
    /// the keyed stream never produced; the replay must reject it.
    #[test]
    fn forged_adversary_count_is_rejected() {
        let (fp, cfg, _, mut events) = adversarial_run();
        let idx = position(&events, "adversary");
        if let TelemetryEvent::Adversary { corrupted, .. } = &mut events[idx] {
            *corrupted += 1;
        }
        let err = check_stream(&fp, cfg.protocol(), 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
    }

    /// Deleting an adversary event hides corruption from the stream; the
    /// replay still expects the event and must reject the stream.
    #[test]
    fn missing_adversary_event_is_rejected() {
        let (fp, cfg, _, mut events) = adversarial_run();
        events.remove(position(&events, "adversary"));
        let err = check_stream(&fp, cfg.protocol(), 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
    }

    /// An honest (zero-rate) stream must not carry adversary events: the
    /// checker never consumes them, so an injected one desynchronizes.
    #[test]
    fn injected_adversary_event_in_honest_stream_is_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let idx = position(&events, "round_end");
        events.insert(
            idx,
            TelemetryEvent::Adversary {
                round: 0,
                corrupted: 2,
                attack: "sign-flip".into(),
            },
        );
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::UnexpectedEvent { .. }),
            "{err}"
        );
    }

    #[test]
    fn errors_render_without_panicking() {
        let e = ConformanceError::CommMismatch {
            round: 3,
            link: "EdgeCloud",
            counter: "uplink floats",
            expected: 10,
            actual: 12,
        };
        let s = e.to_string();
        assert!(s.contains("EdgeCloud") && s.contains("12"), "{s}");
    }

    fn churn_opts(preset: &str) -> RunOpts {
        RunOpts {
            churn: ChurnPlan::preset(preset).unwrap(),
            ..case_opts()
        }
    }

    /// A chaos-churn stream replays cleanly: the checker's topology mirror
    /// re-derives every leave, join, edge failure and re-homing move from
    /// the keyed churn stream, tracks roster-based participation, and the
    /// membership-aware comm closed form matches the meter.
    #[test]
    fn churn_hierminimax_stream_passes() {
        let fp = problem(4, 2, 4);
        let mut cfg = hm_cfg(6, churn_opts("chaos-churn"));
        let (r, events) = run(&fp, &mut cfg, 42);
        assert!(r.churn.total() > 0, "chaos-churn over 6 rounds fires");
        let report = check_stream(&fp, cfg.protocol(), 42, &events).unwrap();
        assert_eq!(report.rounds, 6);
        assert!(report.local_steps > 0);
    }

    #[test]
    fn churn_hierfavg_stream_passes() {
        let fp = problem(4, 2, 5);
        let mut cfg = hf_cfg(6, churn_opts("mild"));
        let events = run(&fp, &mut cfg, 19).1;
        let report = check_stream(&fp, cfg.protocol(), 19, &events).unwrap();
        assert_eq!(report.rounds, 6);
    }

    /// Edge failover exercises the headline path: a failed edge's clients
    /// re-home onto survivors, the fairness weights leave the dead
    /// coordinate, and the replay still matches end to end.
    #[test]
    fn edge_failover_stream_passes_with_rehoming() {
        let fp = problem(4, 2, 6);
        let mut cfg = hm_cfg(10, churn_opts("edge-failover"));
        let (r, events) = run(&fp, &mut cfg, 7);
        assert!(r.churn.rehomed > 0, "15% failure rate over 10 rounds fires");
        let report = check_stream(&fp, cfg.protocol(), 7, &events).unwrap();
        assert_eq!(report.rounds, 10);
    }

    /// Churn composes with message-level faults: delivery replays run over
    /// the roster-derived survivor sets and still match.
    #[test]
    fn churn_with_faults_stream_passes() {
        let fp = problem(4, 2, 4);
        let mut cfg = hm_cfg(
            5,
            RunOpts {
                fault: FaultPlan {
                    client_crash: 0.2,
                    msg_loss: 0.25,
                    max_retries: 1,
                    ..FaultPlan::default()
                },
                ..churn_opts("chaos-churn")
            },
        );
        let (_, events) = run(&fp, &mut cfg, 23);
        let report = check_stream(&fp, cfg.protocol(), 23, &events).unwrap();
        assert_eq!(report.rounds, 5);
    }

    /// A forged re-homing move — a `rehome` event the keyed churn stream
    /// never drew — is rejected as a churn mismatch wherever it sits.
    #[test]
    fn forged_rehoming_move_is_rejected() {
        let fp = problem(4, 2, 4);
        let mut cfg = hm_cfg(3, churn_opts("chaos-churn"));
        let (_, events) = run(&fp, &mut cfg, 42);
        let forged = TelemetryEvent::Rehome {
            round: 0,
            client: 0,
            from_edge: 1,
            to_edge: 2,
        };
        for idx in [position(&events, "churn") + 1, position(&events, "phase1")] {
            let mut events = events.clone();
            events.insert(idx, forged.clone());
            let err = check_stream(&fp, cfg.protocol(), 42, &events).unwrap_err();
            assert!(
                matches!(err, ConformanceError::ChurnMismatch { .. }),
                "at {idx}: {err}"
            );
        }
    }

    /// A forged leave is likewise rejected.
    #[test]
    fn forged_leave_is_rejected() {
        let fp = problem(4, 2, 5);
        let mut cfg = hf_cfg(3, churn_opts("mild"));
        let mut events = run(&fp, &mut cfg, 19).1;
        let idx = position(&events, "churn");
        if let TelemetryEvent::Churn { left, .. } = &mut events[idx] {
            left.push(0);
        }
        let err = check_stream(&fp, cfg.protocol(), 19, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::ChurnMismatch { .. }),
            "{err}"
        );
    }

    /// Dropping a churn event desynchronizes the replay immediately.
    #[test]
    fn missing_churn_event_is_rejected() {
        let fp = problem(4, 2, 4);
        let mut cfg = hm_cfg(3, churn_opts("chaos-churn"));
        let (_, mut events) = run(&fp, &mut cfg, 42);
        events.remove(position(&events, "churn"));
        let err = check_stream(&fp, cfg.protocol(), 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::ChurnMismatch { .. }),
            "{err}"
        );
    }

    /// A churn event in a churnless stream is an unexpected event — runs
    /// without an active plan must not claim membership transitions.
    #[test]
    fn churn_event_in_churnless_stream_is_rejected() {
        let fp = problem(3, 2, 1);
        let mut cfg = hm_cfg(2, case_opts());
        let (_, mut events) = run(&fp, &mut cfg, 5);
        let idx = position(&events, "phase1");
        events.insert(
            idx,
            TelemetryEvent::Churn {
                round: 0,
                joined: vec![],
                left: vec![],
                failed_edges: vec![],
                rehomed: 0,
            },
        );
        let err = check_stream(&fp, cfg.protocol(), 5, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::UnexpectedEvent { .. }),
            "{err}"
        );
    }
}
