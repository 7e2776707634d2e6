//! Trace conformance checking: an executable model of Algorithm 1.
//!
//! A checker replays the protocol alongside a recorded
//! [`hm_simnet::trace::Event`] log and validates, round by round:
//!
//! - **Phase ordering** — events appear in exactly the order the paper's
//!   pseudocode prescribes (Phase-1 sampling → checkpoint draw → broadcast
//!   → `τ2` blocks of local steps and aggregations → cloud aggregation →
//!   Phase-2 sampling → weight update → comm accounting).
//! - **Sampling replay** — the Phase-1 multiset is re-drawn from the keyed
//!   `EdgeSampling` stream proportionally to the *traced* `p^(k)`, the
//!   checkpoint from the `Checkpoint` stream, and the Phase-2 set from the
//!   `LossEstSampling` stream; the log must match the replay exactly.
//! - **Checkpoint bounds** — `(c1, c2) ∈ [τ1] × [τ2]`, checked before the
//!   equality so an off-by-one surfaces as
//!   [`ConformanceError::CheckpointOutOfRange`].
//! - **Participation structure** — which clients perform local steps in
//!   each block is re-derived from the keyed `Dropout` stream (replicating
//!   the `dropout == 0` no-draw fast path), and per-edge aggregation /
//!   checkpoint-capture events must match the survivor sets.
//! - **Fault replay** — the run's [`hm_simnet::FaultPlan`] streams
//!   (edge outages, per-channel message loss with bounded retries, client
//!   crashes and straggler deadlines) are re-drawn alongside the log:
//!   every injected fault must appear as an [`Event::EdgeFault`] in
//!   protocol order with the replayed kind and attempt count, broadcast
//!   recipients must equal the post-outage active set, and survivor-only
//!   participation must match the delivery replay. A fully-failed round
//!   must still emit its aggregation events (the stale-round path).
//! - **Adversary replay** — when the plan has a Byzantine adversary
//!   (`corrupt_rate > 0`), the per-round corrupted-upload count is
//!   re-drawn from the keyed `Adversary` stream over the surviving slots
//!   of every block, and the round's [`Event::AdversaryRound`] must carry
//!   exactly that count and the plan's attack tag. Honest traces must not
//!   contain the event at all, so a forged adversary record is rejected
//!   just like a forged fault.
//! - **Churn replay** — when the run has an active
//!   [`hm_simnet::ChurnPlan`], the checker maintains its own
//!   [`ActiveTopology`] mirror and re-derives every round's membership
//!   transitions (leaves, joins, edge failures and the deterministic
//!   re-homing moves) from the keyed `Churn` stream; the round's
//!   [`Event::ChurnRound`] must match the replay exactly, so a forged
//!   leave, join or re-homing move is rejected. The mirror's member
//!   lists drive the participation, fault and comm models below, and
//!   the tracked `p` is re-projected onto the surviving simplex exactly
//!   like the run whenever an edge fails.
//! - **Communication accounting** — every [`Event::RoundComm`] delta is
//!   compared counter-by-counter against a closed-form model of the
//!   round's float/message/round costs on all three links, including the
//!   per-attempt retransmission costs of retried and given-up deliveries.
//! - **Feasibility** — every [`Event::WeightUpdate`] iterate must lie in
//!   the constrained set `P` (via
//!   [`ProjectionOp::feasibility_violation`]), and every
//!   [`Event::GlobalModel`] must be finite and of dimension `d`.
//!
//! The multi-level checker validates the cloud-level protocol (sampling,
//! checkpoint, aggregation order, exact comm accounting including the
//! recursive intermediate-level costs); client-level events of inner
//! subtrees are keyed by position tags rather than the round index and are
//! deliberately skipped.

use hm_core::algorithms::{HierFavgConfig, HierMinimaxConfig, MultiLevelConfig};
use hm_core::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::trace::Event;
use hm_simnet::{
    ActiveTopology, ChurnPlan, CommStats, FaultKind, FaultPlan, Link, MsgChannel, RoundChurn,
    StragglerFate,
};
use std::fmt;

/// Feasibility slack for traced weight iterates: the projections are exact
/// up to f32 rounding, so anything beyond this is a protocol violation,
/// not noise.
const FEASIBILITY_TOL: f64 = 1e-4;

/// A violation found while replaying a trace against the protocol model.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformanceError {
    /// The log ended while the model still expected an event.
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
        /// The traced sample.
        actual: Vec<usize>,
    },
    /// A checkpoint index left `[τ1] × [τ2]`.
    CheckpointOutOfRange {
        /// Round being checked.
        round: usize,
        /// Traced local-step index.
        c1: usize,
        /// Traced block index.
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
        /// The traced index.
        actual: (usize, usize),
    },
    /// Broadcast recipients differ from the distinct sampled ids.
    BroadcastMismatch {
        /// Round being checked.
        round: usize,
        /// Expected recipients (first-seen order).
        expected: Vec<usize>,
        /// Traced recipients.
        actual: Vec<usize>,
    },
    /// A local-step event contradicts the survivor replay.
    LocalStepsMismatch {
        /// Round being checked.
        round: usize,
        /// Block index within the round.
        t2: usize,
        /// What went wrong.
        detail: String,
    },
    /// An aggregation / checkpoint-capture event is out of order or
    /// attributed to the wrong edge.
    AggregationMismatch {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// A global model iterate has the wrong dimension or non-finite
    /// entries.
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
    /// An injected-fault event contradicts the keyed fault-stream replay
    /// (wrong kind, wrong entity, wrong attempt count, or missing).
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
        /// Traced value.
        actual: u64,
    },
    /// A membership-churn event contradicts the keyed churn-stream replay
    /// (forged leave/join/failure/re-homing move, or missing event).
    ChurnMismatch {
        /// Round being checked.
        round: usize,
        /// What went wrong.
        detail: String,
    },
    /// Events remained after the final round's accounting.
    TrailingEvents {
        /// Number of leftover events.
        count: usize,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TraceEnded { round, expected } => {
                write!(f, "round {round}: trace ended, expected {expected}")
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
            Self::BroadcastMismatch {
                round,
                expected,
                actual,
            } => write!(
                f,
                "round {round}: broadcast to {actual:?}, expected {expected:?}"
            ),
            Self::LocalStepsMismatch { round, t2, detail } => {
                write!(f, "round {round} block {t2}: {detail}")
            }
            Self::AggregationMismatch { round, detail } => {
                write!(f, "round {round}: {detail}")
            }
            Self::BadModel { round, detail } => write!(f, "round {round}: {detail}"),
            Self::InfeasibleWeights { round, violation } => {
                write!(f, "round {round}: weights violate P by {violation}")
            }
            Self::FaultMismatch { round, detail } => {
                write!(f, "round {round}: {detail}")
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
            Self::ChurnMismatch { round, detail } => {
                write!(f, "round {round}: {detail}")
            }
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
    /// Events consumed by the automaton.
    pub events: usize,
    /// Client local-step executions validated against the dropout replay.
    pub local_steps: usize,
    /// Checkpoint captures observed.
    pub checkpoints: usize,
    /// Injected-fault events validated against the fault-stream replay.
    pub faults: usize,
}

/// Strict event cursor: the automaton consumes the log front to back.
struct Cursor<'a> {
    events: &'a [Event],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(events: &'a [Event]) -> Self {
        Self { events, pos: 0 }
    }

    fn next(
        &mut self,
        round: usize,
        expected: &'static str,
    ) -> Result<&'a Event, ConformanceError> {
        match self.events.get(self.pos) {
            Some(e) => {
                self.pos += 1;
                Ok(e)
            }
            None => Err(ConformanceError::TraceEnded { round, expected }),
        }
    }

    fn finish(&self) -> Result<usize, ConformanceError> {
        if self.pos < self.events.len() {
            Err(ConformanceError::TrailingEvents {
                count: self.events.len() - self.pos,
            })
        } else {
            Ok(self.pos)
        }
    }
}

fn unexpected(round: usize, expected: &'static str, actual: &Event) -> ConformanceError {
    ConformanceError::UnexpectedEvent {
        round,
        expected,
        actual: format!("{actual:?}"),
    }
}

/// First-seen-order multiplicity counting (mirrors the production helper,
/// which is crate-private by design).
fn multiplicities(sampled: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut distinct: Vec<usize> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for &e in sampled {
        match distinct.iter().position(|&x| x == e) {
            Some(i) => counts[i] += 1,
            None => {
                distinct.push(e);
                counts.push(1);
            }
        }
    }
    (distinct, counts)
}

/// Replay the keyed client-fault streams for one block over the given
/// per-edge member lists: `alive[ei][ci]`. A client is cut by a crash
/// (the legacy dropout stream) or by straggling past the deadline;
/// zero-rate plans make no draws, replicating the production fast path.
fn replay_alive(
    members: &[Vec<usize>],
    round: usize,
    tau2: usize,
    t2: usize,
    seed: u64,
    plan: &FaultPlan,
) -> Vec<Vec<bool>> {
    let block_tag = (round * tau2 + t2) as u64;
    members
        .iter()
        .map(|gids| {
            gids.iter()
                .map(|&client| {
                    !plan.client_crashed(seed, block_tag, 0, client)
                        && !matches!(
                            plan.straggler(seed, block_tag, 0, client),
                            StragglerFate::Missed
                        )
                })
                .collect()
        })
        .collect()
}

/// Per-edge member lists the run enumerates for the given edges: the
/// churn mirror's rosters when a plan is active, otherwise the static
/// `client_id` layout.
fn edge_members(
    problem: &FederatedProblem,
    mirror: &ActiveTopology,
    churn_on: bool,
    edges: &[usize],
) -> Vec<Vec<usize>> {
    let n0 = problem.clients_per_edge();
    let topo = problem.topology();
    edges
        .iter()
        .map(|&e| {
            if churn_on {
                mirror.members_of(e).to_vec()
            } else {
                (0..n0).map(|c| topo.client_id(e, c)).collect()
            }
        })
        .collect()
}

/// Advance the churn mirror by one round and match the traced
/// [`Event::ChurnRound`] against the replayed transitions. Any forged or
/// missing leave, join, edge failure or re-homing move is rejected.
fn expect_churn_round(
    cur: &mut Cursor<'_>,
    k: usize,
    mirror: &mut ActiveTopology,
    plan: &ChurnPlan,
    seed: u64,
) -> Result<RoundChurn, ConformanceError> {
    let rc = mirror.apply_round(plan, seed, k);
    match cur.next(k, "ChurnRound")? {
        Event::ChurnRound {
            round,
            left,
            failed_edges,
            rehomed,
            joined,
        } if *round == k
            && *left == rc.left
            && *failed_edges == rc.failed_edges
            && *rehomed == rc.rehomed
            && *joined == rc.joined =>
        {
            Ok(rc)
        }
        other => Err(ConformanceError::ChurnMismatch {
            round: k,
            detail: format!(
                "expected churn transitions left={:?} failed={:?} rehomed={:?} joined={:?}, \
                 found {other:?}",
                rc.left, rc.failed_edges, rc.rehomed, rc.joined
            ),
        }),
    }
}

/// Consume one [`Event::EdgeFault`] and match it against the replayed
/// fault occurrence.
fn expect_edge_fault(
    cur: &mut Cursor<'_>,
    round: usize,
    edge: usize,
    kind: FaultKind,
    attempts: usize,
    report: &mut ConformanceReport,
) -> Result<(), ConformanceError> {
    match cur.next(round, "EdgeFault")? {
        Event::EdgeFault {
            round: er,
            level,
            edge: ee,
            kind: ek,
            attempts: ea,
        } if *er == round && *level == 0 && *ee == edge && *ek == kind && *ea == attempts => {
            report.faults += 1;
            Ok(())
        }
        other => Err(ConformanceError::FaultMismatch {
            round,
            detail: format!(
                "expected {} fault at edge {edge} ({attempts} attempts), found {other:?}",
                kind.as_str()
            ),
        }),
    }
}

/// Replay the per-round outage stream over sampled ids (paired with their
/// sample multiplicities), consuming one fault event per outed id, and
/// return the surviving `(ids, counts)`.
fn replay_outages(
    cur: &mut Cursor<'_>,
    plan: &FaultPlan,
    seed: u64,
    round: usize,
    ids: &[usize],
    counts: &[usize],
    report: &mut ConformanceReport,
) -> Result<(Vec<usize>, Vec<usize>), ConformanceError> {
    let mut ok_ids = Vec::with_capacity(ids.len());
    let mut ok_counts = Vec::with_capacity(ids.len());
    for (&e, &c) in ids.iter().zip(counts) {
        if plan.edge_out(seed, round as u64, 0, e) {
            expect_edge_fault(cur, round, e, FaultKind::EdgeOutage, 0, report)?;
        } else {
            ok_ids.push(e);
            ok_counts.push(c);
        }
    }
    Ok((ok_ids, ok_counts))
}

/// Replay of one batch of per-edge cloud-link deliveries.
struct DeliveryReplay {
    /// Positions (into the input id list) whose message got through.
    delivered: Vec<usize>,
    /// `Σ (attempts − 1)` across all messages, delivered or not — each
    /// retransmission is metered at the full payload.
    extra_attempts: u64,
}

/// Replay the delivery stream of one channel over the given ids, consuming
/// one fault event per retried or given-up message.
fn replay_deliveries(
    cur: &mut Cursor<'_>,
    plan: &FaultPlan,
    seed: u64,
    round: usize,
    channel: MsgChannel,
    ids: &[usize],
    report: &mut ConformanceReport,
) -> Result<DeliveryReplay, ConformanceError> {
    let mut delivered = Vec::with_capacity(ids.len());
    let mut extra_attempts = 0_u64;
    for (i, &e) in ids.iter().enumerate() {
        let dv = plan.delivery(seed, round as u64, 0, channel, e);
        extra_attempts += u64::from(dv.attempts - 1);
        let kind = if !dv.delivered {
            Some(FaultKind::MsgGaveUp)
        } else if dv.attempts > 1 {
            Some(FaultKind::MsgRetried)
        } else {
            None
        };
        if let Some(kind) = kind {
            expect_edge_fault(cur, round, e, kind, dv.attempts as usize, report)?;
        }
        if dv.delivered {
            delivered.push(i);
        }
    }
    Ok(DeliveryReplay {
        delivered,
        extra_attempts,
    })
}

fn check_finite_model(round: usize, w: &[f32], d: usize) -> Result<(), ConformanceError> {
    if w.len() != d {
        return Err(ConformanceError::BadModel {
            round,
            detail: format!("global model has dim {}, expected {d}", w.len()),
        });
    }
    if let Some(i) = w.iter().position(|x| !x.is_finite()) {
        return Err(ConformanceError::BadModel {
            round,
            detail: format!("global model non-finite at coordinate {i}"),
        });
    }
    Ok(())
}

/// Closed-form expectation for one round's communication counters.
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

/// Validate the `run_edge_blocks` section of a round: `LocalSteps` events
/// in edge-major survivor order, then per-edge checkpoint captures and
/// aggregations. `members` holds the client ids each edge enumerates
/// (roster lists under churn, the static layout otherwise). Returns
/// per-block survivor counts.
#[allow(clippy::too_many_arguments)]
fn check_edge_blocks(
    cur: &mut Cursor<'_>,
    edges: &[usize],
    members: &[Vec<usize>],
    k: usize,
    tau1: usize,
    tau2: usize,
    c2: Option<usize>,
    seed: u64,
    plan: &FaultPlan,
    report: &mut ConformanceReport,
) -> Result<(Vec<u64>, u64), ConformanceError> {
    let mut survivors_per_block = Vec::with_capacity(tau2);
    let mut corrupted = 0u64;
    for t2 in 0..tau2 {
        let block_tag = (k * tau2 + t2) as u64;
        let alive = replay_alive(members, k, tau2, t2, seed, plan);
        survivors_per_block.push(alive.iter().flatten().filter(|&&a| a).count() as u64);
        for (ei, &edge) in edges.iter().enumerate() {
            for (ci, &client) in members[ei].iter().enumerate() {
                if !alive[ei][ci] {
                    continue;
                }
                // Surviving uploads draw their Byzantine bit from the
                // dedicated adversary stream, exactly as the run does.
                if plan.has_adversary() && plan.client_corrupt(seed, block_tag, 0, client) {
                    corrupted += 1;
                }
                match cur.next(k, "LocalSteps")? {
                    Event::LocalSteps {
                        round,
                        t2: et2,
                        edge: ee,
                        client: ec,
                        steps,
                    } if *round == k
                        && *et2 == t2
                        && *ee == edge
                        && *ec == client
                        && *steps == tau1 =>
                    {
                        report.local_steps += 1;
                    }
                    other => {
                        return Err(ConformanceError::LocalStepsMismatch {
                            round: k,
                            t2,
                            detail: format!(
                                "expected LocalSteps for client {client} of edge {edge} \
                                 ({tau1} steps), found {other:?}"
                            ),
                        })
                    }
                }
            }
        }
        // Per-edge aggregation over survivors; a fully-dropped edge emits
        // nothing and keeps its block-start model.
        for (ei, &edge) in edges.iter().enumerate() {
            let any_alive = alive[ei].iter().any(|&a| a);
            if !any_alive {
                continue;
            }
            if c2 == Some(t2) {
                match cur.next(k, "CheckpointCaptured")? {
                    Event::CheckpointCaptured {
                        round,
                        edge: ee,
                        t2: et2,
                    } if *round == k && *ee == edge && *et2 == t2 => {
                        report.checkpoints += 1;
                    }
                    other => {
                        return Err(ConformanceError::AggregationMismatch {
                            round: k,
                            detail: format!(
                                "expected CheckpointCaptured at edge {edge} block {t2}, \
                                 found {other:?}"
                            ),
                        })
                    }
                }
            }
            match cur.next(k, "ClientEdgeAggregation")? {
                Event::ClientEdgeAggregation {
                    round,
                    edge: ee,
                    t2: et2,
                } if *round == k && *ee == edge && *et2 == t2 => {}
                other => {
                    return Err(ConformanceError::AggregationMismatch {
                        round: k,
                        detail: format!(
                            "expected ClientEdgeAggregation at edge {edge} block {t2}, \
                             found {other:?}"
                        ),
                    })
                }
            }
        }
    }
    Ok((survivors_per_block, corrupted))
}

/// Consume one [`Event::AdversaryRound`] and match its corrupted-upload
/// count and attack tag against the independent replay of the keyed
/// adversary decision stream. Only called when the plan has an adversary;
/// honest traces must not contain the event at all.
fn expect_adversary_round(
    cur: &mut Cursor<'_>,
    round: usize,
    plan: &FaultPlan,
    corrupted: Option<u64>,
    report: &mut ConformanceReport,
) -> Result<(), ConformanceError> {
    match cur.next(round, "AdversaryRound")? {
        Event::AdversaryRound {
            round: er,
            corrupted: ec,
            attack,
        } if *er == round
            && *attack == plan.attack.as_str()
            && corrupted.is_none_or(|c| *ec == c) =>
        {
            report.faults += 1;
            Ok(())
        }
        other => Err(ConformanceError::FaultMismatch {
            round,
            detail: match corrupted {
                Some(c) => format!(
                    "expected AdversaryRound with {c} corrupted uploads ({}), found {other:?}",
                    plan.attack.as_str()
                ),
                None => format!(
                    "expected AdversaryRound ({}), found {other:?}",
                    plan.attack.as_str()
                ),
            },
        }),
    }
}

/// Check a full HierMinimax trace against the Algorithm-1 model.
///
/// `events` must be the complete log of a traced run of
/// `HierMinimax::new(cfg.clone()).run(problem, seed)` with
/// `cfg.opts.trace = true`.
///
/// # Panics
/// Panics on heterogeneous `tau2_per_edge` configs (not modelled).
pub fn check_hierminimax_trace(
    problem: &FederatedProblem,
    cfg: &HierMinimaxConfig,
    seed: u64,
    events: &[Event],
) -> Result<ConformanceReport, ConformanceError> {
    assert!(
        cfg.tau2_per_edge.is_none(),
        "conformance model covers homogeneous rates only"
    );
    assert!(
        cfg.opts.quarantine_z <= 0.0,
        "conformance replay does not model quarantine exclusion windows"
    );
    let n_edges = problem.num_edges();
    let n0 = problem.clients_per_edge() as u64;
    let d = problem.num_params();
    let wire = cfg.quantizer.wire_floats(d);
    // The effective fault plan: the run folds the legacy `dropout` knob
    // into `client_crash` exactly like this (plan wins when nonzero).
    let plan = cfg.opts.fault.clone().with_dropout(cfg.dropout);
    let churn_plan = &cfg.opts.churn;
    let churn_on = !churn_plan.is_none();
    let mut mirror = ActiveTopology::new(&problem.topology());
    let mut cur = Cursor::new(events);
    let mut p = problem.initial_p();
    let mut report = ConformanceReport::default();

    for k in 0..cfg.rounds {
        // Membership churn applies at the round boundary, before any
        // sampling draw; a failed edge re-projects the tracked p exactly
        // like the run does.
        if churn_on {
            let rc = expect_churn_round(&mut cur, k, &mut mirror, churn_plan, seed)?;
            if !rc.failed_edges.is_empty() {
                mirror.reproject_weights(&mut p);
            }
        }

        // Phase 1 (a): weighted edge sample from the traced p^(k).
        let sampled = match cur.next(k, "Phase1EdgesSampled")? {
            Event::Phase1EdgesSampled { round, edges } if *round == k => edges.clone(),
            other => return Err(unexpected(k, "Phase1EdgesSampled", other)),
        };
        let mut e_rng =
            StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
        let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
        let expect = sample_edges_weighted(&p64, cfg.m_edges, &mut e_rng);
        if sampled != expect {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase1",
                expected: expect,
                actual: sampled,
            });
        }

        // Checkpoint draw: range first, then stream equality.
        let (c1, c2) = match cur.next(k, "CheckpointSampled")? {
            Event::CheckpointSampled { round, c1, c2 } if *round == k => (*c1, *c2),
            other => return Err(unexpected(k, "CheckpointSampled", other)),
        };
        if c1 >= cfg.tau1 || c2 >= cfg.tau2 {
            return Err(ConformanceError::CheckpointOutOfRange {
                round: k,
                c1,
                c2,
                tau1: cfg.tau1,
                tau2: cfg.tau2,
            });
        }
        let mut c_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
        let expect_cp = sample_checkpoint(cfg.tau1, cfg.tau2, &mut c_rng);
        if (c1, c2) != expect_cp {
            return Err(ConformanceError::CheckpointMismatch {
                round: k,
                expected: expect_cp,
                actual: (c1, c2),
            });
        }

        // Outage filter over the distinct sampled edges (one fault event
        // per outed edge), then the broadcast to the survivors.
        let (distinct, counts) = multiplicities(&sampled);
        let (active, _active_counts) =
            replay_outages(&mut cur, &plan, seed, k, &distinct, &counts, &mut report)?;
        match cur.next(k, "CloudBroadcast")? {
            Event::CloudBroadcast { round, recipients } if *round == k => {
                if *recipients != active {
                    return Err(ConformanceError::BroadcastMismatch {
                        round: k,
                        expected: active.clone(),
                        actual: recipients.clone(),
                    });
                }
            }
            other => return Err(unexpected(k, "CloudBroadcast", other)),
        }

        // Phase-1 downlink deliveries decide which active edges take part.
        let p1_down = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Down,
            &active,
            &mut report,
        )?;
        let participants: Vec<usize> = p1_down.delivered.iter().map(|&i| active[i]).collect();

        // τ2 blocks of local steps + aggregations over each edge's
        // current member list.
        let prt_members = edge_members(problem, &mirror, churn_on, &participants);
        let (survivors, corrupted) = check_edge_blocks(
            &mut cur,
            &participants,
            &prt_members,
            k,
            cfg.tau1,
            cfg.tau2,
            Some(c2),
            seed,
            &plan,
            &mut report,
        )?;

        // Phase-1 uplink deliveries decide which reports the cloud
        // aggregates (an empty report set is the stale-round path — the
        // aggregation events must still appear).
        let p1_up = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Up,
            &participants,
            &mut report,
        )?;

        // Cloud aggregation.
        match cur.next(k, "GlobalAggregation")? {
            Event::GlobalAggregation { round } if *round == k => {}
            other => return Err(unexpected(k, "GlobalAggregation", other)),
        }
        match cur.next(k, "GlobalModel")? {
            Event::GlobalModel { round, w } if *round == k => check_finite_model(k, w, d)?,
            other => return Err(unexpected(k, "GlobalModel", other)),
        }

        // Phase 2: uniform sample.
        let u_set = match cur.next(k, "Phase2EdgesSampled")? {
            Event::Phase2EdgesSampled { round, edges } if *round == k => edges.clone(),
            other => return Err(unexpected(k, "Phase2EdgesSampled", other)),
        };
        let mut u_rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::LossEstSampling,
            k as u64,
            u64::MAX,
        ));
        // Under churn the run samples indices into the up-edge list (with
        // m clamped to its size) and maps them back to edge ids.
        let expect_u = if churn_on {
            let up = mirror.up_edges();
            let m = cfg.m_edges.min(up.len());
            sample_edges_uniform(up.len(), m, &mut u_rng)
                .into_iter()
                .map(|i| up[i])
                .collect()
        } else {
            sample_edges_uniform(n_edges, cfg.m_edges, &mut u_rng)
        };
        if u_set != expect_u {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase2",
                expected: expect_u,
                actual: u_set,
            });
        }

        // Phase-2 fault pipeline: outed edges, then lost estimate-request
        // downlinks; a failed edge contributes v_e = 0.
        let ones = vec![1_usize; u_set.len()];
        let (live, _) = replay_outages(&mut cur, &plan, seed, k, &u_set, &ones, &mut report)?;
        let p2_down = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase2Down,
            &live,
            &mut report,
        )?;
        let est = p2_down.delivered.len() as u64;
        // Loss-estimation fan-out: each delivered estimate edge touches
        // its current member count (`n0` each in the static layout).
        let est_clients: u64 = if churn_on {
            p2_down
                .delivered
                .iter()
                .map(|&i| mirror.members_of(live[i]).len() as u64)
                .sum()
        } else {
            est * n0
        };

        // Weight update: dimension, finiteness, feasibility; the traced p
        // becomes the next round's sampling distribution.
        let p_new = match cur.next(k, "WeightUpdate")? {
            Event::WeightUpdate { round, p } if *round == k => p.clone(),
            other => return Err(unexpected(k, "WeightUpdate", other)),
        };
        if p_new.len() != n_edges || p_new.iter().any(|x| !x.is_finite()) {
            return Err(ConformanceError::BadModel {
                round: k,
                detail: format!("weight vector malformed: {p_new:?}"),
            });
        }
        if churn_on && mirror.num_up() < n_edges {
            // After an edge failure the run re-projects p onto the
            // surviving simplex, which can leave the original domain `P`;
            // check the surviving-simplex constraints instead: entries
            // non-negative, zero on dead edges, summing to one.
            let mut sum = 0.0_f64;
            let mut violation = 0.0_f64;
            for (e, &x) in p_new.iter().enumerate() {
                let x = f64::from(x);
                if !mirror.is_up(e) {
                    violation = violation.max(x.abs());
                }
                violation = violation.max(-x);
                sum += x;
            }
            violation = violation.max((sum - 1.0).abs());
            if violation > FEASIBILITY_TOL {
                return Err(ConformanceError::InfeasibleWeights {
                    round: k,
                    violation,
                });
            }
        } else {
            let violation = problem.p_domain.feasibility_violation(&p_new);
            if violation > FEASIBILITY_TOL {
                return Err(ConformanceError::InfeasibleWeights {
                    round: k,
                    violation,
                });
            }
        }

        // Adversarial rounds account their corrupted uploads immediately
        // before the communication record; the count must equal the
        // independent replay of the keyed corruption stream over the
        // surviving slots of every block.
        if plan.has_adversary() {
            expect_adversary_round(&mut cur, k, &plan, Some(corrupted), &mut report)?;
        }

        // Closed-form communication accounting for this round: base costs
        // over the surviving sets, plus one full payload per replayed
        // retransmission (retried and given-up deliveries alike).
        let delta = match cur.next(k, "RoundComm")? {
            Event::RoundComm { round, delta } if *round == k => *delta,
            other => return Err(unexpected(k, "RoundComm", other)),
        };
        let act = active.len() as u64;
        let prt = participants.len() as u64;
        let liv = live.len() as u64;
        let du = d as u64;
        let t2u = cfg.tau2 as u64;
        check_link(
            k,
            &delta,
            Link::EdgeCloud,
            "EdgeCloud",
            LinkCost {
                down_floats: (du + 2) * (act + p1_down.extra_attempts)
                    + du * (liv + p2_down.extra_attempts),
                down_msgs: act + p1_down.extra_attempts + liv + p2_down.extra_attempts,
                up_floats: 2 * wire * (prt + p1_up.extra_attempts) + est,
                up_msgs: prt + p1_up.extra_attempts + est,
                rounds: 1,
            },
        )?;
        let prt_clients: u64 = prt_members.iter().map(|m| m.len() as u64).sum();
        let mut ce_up_f = est_clients;
        let mut ce_up_m = est_clients;
        for (t2, &s) in survivors.iter().enumerate() {
            ce_up_f += if t2 == c2 { 2 * wire } else { wire } * s;
            ce_up_m += s;
        }
        check_link(
            k,
            &delta,
            Link::ClientEdge,
            "ClientEdge",
            LinkCost {
                down_floats: t2u * prt_clients * du + du * est_clients,
                down_msgs: t2u * prt_clients + est_clients,
                up_floats: ce_up_f,
                up_msgs: ce_up_m,
                rounds: t2u + 1,
            },
        )?;
        check_link(
            k,
            &delta,
            Link::ClientCloud,
            "ClientCloud",
            LinkCost::default(),
        )?;

        p = p_new;
        report.rounds += 1;
    }
    report.events = cur.finish()?;
    Ok(report)
}

/// Check a full HierFAVG trace: Phase 1 only, uniform edge sampling,
/// no checkpoint machinery and no weight update.
pub fn check_hierfavg_trace(
    problem: &FederatedProblem,
    cfg: &HierFavgConfig,
    seed: u64,
    events: &[Event],
) -> Result<ConformanceReport, ConformanceError> {
    let n_edges = problem.num_edges();
    let d = problem.num_params();
    let wire = cfg.quantizer.wire_floats(d);
    assert!(
        cfg.opts.quarantine_z <= 0.0,
        "conformance replay does not model quarantine exclusion windows"
    );
    let plan = cfg.opts.fault.clone().with_dropout(cfg.dropout);
    let churn_plan = &cfg.opts.churn;
    let churn_on = !churn_plan.is_none();
    let mut mirror = ActiveTopology::new(&problem.topology());
    let mut cur = Cursor::new(events);
    let mut report = ConformanceReport::default();

    for k in 0..cfg.rounds {
        // Membership churn applies at the round boundary, before the
        // Phase-1 draw (HierFAVG has no fairness weights to re-project).
        if churn_on {
            expect_churn_round(&mut cur, k, &mut mirror, churn_plan, seed)?;
        }
        let sampled = match cur.next(k, "Phase1EdgesSampled")? {
            Event::Phase1EdgesSampled { round, edges } if *round == k => edges.clone(),
            other => return Err(unexpected(k, "Phase1EdgesSampled", other)),
        };
        let mut e_rng =
            StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
        // Under churn the run samples uniformly over the up-edge list
        // (with m clamped to its size) and maps indices back to edge ids.
        let expect = if churn_on {
            let up = mirror.up_edges();
            let m = cfg.m_edges.min(up.len());
            sample_edges_uniform(up.len(), m, &mut e_rng)
                .into_iter()
                .map(|i| up[i])
                .collect()
        } else {
            sample_edges_uniform(n_edges, cfg.m_edges, &mut e_rng)
        };
        if sampled != expect {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase1",
                expected: expect,
                actual: sampled,
            });
        }
        // Uniform sampling is without replacement, so `sampled` is already
        // the distinct set (multiplicity one each).
        let ones = vec![1_usize; sampled.len()];
        let (active, _) = replay_outages(&mut cur, &plan, seed, k, &sampled, &ones, &mut report)?;
        match cur.next(k, "CloudBroadcast")? {
            Event::CloudBroadcast { round, recipients } if *round == k => {
                if *recipients != active {
                    return Err(ConformanceError::BroadcastMismatch {
                        round: k,
                        expected: active.clone(),
                        actual: recipients.clone(),
                    });
                }
            }
            other => return Err(unexpected(k, "CloudBroadcast", other)),
        }
        let p1_down = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Down,
            &active,
            &mut report,
        )?;
        let participants: Vec<usize> = p1_down.delivered.iter().map(|&i| active[i]).collect();
        let prt_members = edge_members(problem, &mirror, churn_on, &participants);
        let (survivors, corrupted) = check_edge_blocks(
            &mut cur,
            &participants,
            &prt_members,
            k,
            cfg.tau1,
            cfg.tau2,
            None,
            seed,
            &plan,
            &mut report,
        )?;
        let p1_up = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Up,
            &participants,
            &mut report,
        )?;
        match cur.next(k, "GlobalAggregation")? {
            Event::GlobalAggregation { round } if *round == k => {}
            other => return Err(unexpected(k, "GlobalAggregation", other)),
        }
        match cur.next(k, "GlobalModel")? {
            Event::GlobalModel { round, w } if *round == k => check_finite_model(k, w, d)?,
            other => return Err(unexpected(k, "GlobalModel", other)),
        }
        if plan.has_adversary() {
            expect_adversary_round(&mut cur, k, &plan, Some(corrupted), &mut report)?;
        }
        let delta = match cur.next(k, "RoundComm")? {
            Event::RoundComm { round, delta } if *round == k => *delta,
            other => return Err(unexpected(k, "RoundComm", other)),
        };
        let act = active.len() as u64;
        let prt = participants.len() as u64;
        let du = d as u64;
        let t2u = cfg.tau2 as u64;
        check_link(
            k,
            &delta,
            Link::EdgeCloud,
            "EdgeCloud",
            LinkCost {
                down_floats: du * (act + p1_down.extra_attempts),
                down_msgs: act + p1_down.extra_attempts,
                up_floats: wire * (prt + p1_up.extra_attempts),
                up_msgs: prt + p1_up.extra_attempts,
                rounds: 1,
            },
        )?;
        let prt_clients: u64 = prt_members.iter().map(|m| m.len() as u64).sum();
        let ce_up_f: u64 = survivors.iter().map(|&s| wire * s).sum();
        let ce_up_m: u64 = survivors.iter().sum();
        check_link(
            k,
            &delta,
            Link::ClientEdge,
            "ClientEdge",
            LinkCost {
                down_floats: t2u * prt_clients * du,
                down_msgs: t2u * prt_clients,
                up_floats: ce_up_f,
                up_msgs: ce_up_m,
                rounds: t2u,
            },
        )?;
        check_link(
            k,
            &delta,
            Link::ClientCloud,
            "ClientCloud",
            LinkCost::default(),
        )?;
        report.rounds += 1;
    }
    report.events = cur.finish()?;
    Ok(report)
}

/// Is this event one the multi-level cloud loop emits (as opposed to
/// client/edge-level events of inner subtrees, whose `round` fields carry
/// position tags that can collide with real round indices)?
fn is_cloud_level(e: &Event) -> bool {
    matches!(
        e,
        Event::Phase1EdgesSampled { .. }
            | Event::CheckpointSampled { .. }
            | Event::CloudBroadcast { .. }
            | Event::GlobalAggregation { .. }
            | Event::GlobalModel { .. }
            | Event::Phase2EdgesSampled { .. }
            | Event::WeightUpdate { .. }
            | Event::AdversaryRound { .. }
            | Event::RoundComm { .. }
            // Cloud-link fault events; the multi-level loop models
            // intermediate links as reliable, so every `EdgeFault` in the
            // trace is the cloud loop's (level 0, real round index).
            | Event::EdgeFault { .. }
    )
}

/// Recursive closed-form `ClientEdge` cost of one group's subtree update
/// (mirrors `MultiLevelMinimax::subtree_update`; base levels run with
/// `Quantizer::Exact` and zero dropout).
fn subtree_cost(cfg: &MultiLevelConfig, d: u64, n0: u64, li: usize, edges: u64) -> LinkCost {
    if li == cfg.upper.len() {
        // run_edge_blocks over `edges` edges, τ2 blocks, exactly one of
        // which carries the doubled checkpoint payload.
        let t2 = cfg.tau2 as u64;
        return LinkCost {
            down_floats: t2 * edges * n0 * d,
            down_msgs: t2 * edges * n0,
            up_floats: (t2 + 1) * d * edges * n0,
            up_msgs: t2 * edges * n0,
            rounds: t2,
        };
    }
    let child_edges: u64 = cfg.upper[li + 1..]
        .iter()
        .map(|u| u.group_size as u64)
        .product::<u64>()
        .max(1);
    let children = edges / child_edges;
    let tau = cfg.upper[li].tau as u64;
    let child = subtree_cost(cfg, d, n0, li + 1, child_edges);
    LinkCost {
        down_floats: tau * (d * children + children * child.down_floats),
        down_msgs: tau * (children + children * child.down_msgs),
        up_floats: tau * (2 * d * children + children * child.up_floats),
        up_msgs: tau * (children + children * child.up_msgs),
        rounds: tau * (1 + children * child.rounds),
    }
}

/// Check the cloud-level protocol of a multi-level HierMinimax trace:
/// sampling replay over top-level groups, the checkpoint draw (upper-level
/// coordinates first, then `c1`, `c2`), aggregation order, weight
/// feasibility, and the full closed-form communication accounting
/// (including recursive intermediate-level costs). Inner subtree events
/// are skipped (their round fields are position tags).
pub fn check_multilevel_trace(
    problem: &FederatedProblem,
    cfg: &MultiLevelConfig,
    seed: u64,
    events: &[Event],
) -> Result<ConformanceReport, ConformanceError> {
    let per_group: usize = cfg.edges_per_group().max(1);
    let n_edges = problem.num_edges();
    assert!(
        n_edges.is_multiple_of(per_group),
        "{n_edges} edges do not divide into groups of {per_group}"
    );
    let num_groups = n_edges / per_group;
    let n0 = problem.clients_per_edge() as u64;
    let d = problem.num_params();
    let plan = cfg.opts.fault.clone().with_dropout(cfg.dropout);
    // The checker replays cloud-link fault classes only: client crashes and
    // stragglers inside subtrees key their streams on position tags the
    // closed-form subtree cost does not model.
    assert!(
        plan.client_crash == 0.0 && plan.straggler_rate == 0.0,
        "check_multilevel_trace replays cloud-link faults only \
         (client_crash and straggler_rate must be zero)"
    );
    assert!(
        cfg.opts.churn.is_none(),
        "membership churn is a two-level feature (the multi-level run rejects it)"
    );
    let cloud: Vec<&Event> = events.iter().filter(|e| is_cloud_level(e)).collect();
    let mut cur = Cursor {
        events: &[],
        pos: 0,
    };
    // A cursor over references: rebuild a contiguous buffer instead.
    let cloud_events: Vec<Event> = cloud.into_iter().cloned().collect();
    cur.events = &cloud_events;

    let mut p = vec![1.0_f32 / num_groups as f32; num_groups];
    let mut report = ConformanceReport::default();

    for k in 0..cfg.rounds {
        let sampled = match cur.next(k, "Phase1EdgesSampled")? {
            Event::Phase1EdgesSampled { round, edges } if *round == k => edges.clone(),
            other => return Err(unexpected(k, "Phase1EdgesSampled", other)),
        };
        let mut e_rng =
            StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
        let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
        let expect = sample_edges_weighted(&p64, cfg.m_groups, &mut e_rng);
        if sampled != expect {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase1",
                expected: expect,
                actual: sampled,
            });
        }
        let (distinct, counts) = multiplicities(&sampled);

        let (c1, c2) = match cur.next(k, "CheckpointSampled")? {
            Event::CheckpointSampled { round, c1, c2 } if *round == k => (*c1, *c2),
            other => return Err(unexpected(k, "CheckpointSampled", other)),
        };
        if c1 >= cfg.tau1 || c2 >= cfg.tau2 {
            return Err(ConformanceError::CheckpointOutOfRange {
                round: k,
                c1,
                c2,
                tau1: cfg.tau1,
                tau2: cfg.tau2,
            });
        }
        // Replay: upper-level coordinates are drawn before (c1, c2).
        let mut c_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
        for u in &cfg.upper {
            let _ = c_rng.below(u.tau);
        }
        let expect_cp = (c_rng.below(cfg.tau1), c_rng.below(cfg.tau2));
        if (c1, c2) != expect_cp {
            return Err(ConformanceError::CheckpointMismatch {
                round: k,
                expected: expect_cp,
                actual: (c1, c2),
            });
        }

        let (active, _active_counts) =
            replay_outages(&mut cur, &plan, seed, k, &distinct, &counts, &mut report)?;
        match cur.next(k, "CloudBroadcast")? {
            Event::CloudBroadcast { round, recipients } if *round == k => {
                if *recipients != active {
                    return Err(ConformanceError::BroadcastMismatch {
                        round: k,
                        expected: active.clone(),
                        actual: recipients.clone(),
                    });
                }
            }
            other => return Err(unexpected(k, "CloudBroadcast", other)),
        }
        let p1_down = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Down,
            &active,
            &mut report,
        )?;
        let participants: Vec<usize> = p1_down.delivered.iter().map(|&i| active[i]).collect();
        let p1_up = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase1Up,
            &participants,
            &mut report,
        )?;
        match cur.next(k, "GlobalAggregation")? {
            Event::GlobalAggregation { round } if *round == k => {}
            other => return Err(unexpected(k, "GlobalAggregation", other)),
        }
        match cur.next(k, "GlobalModel")? {
            Event::GlobalModel { round, w } if *round == k => check_finite_model(k, w, d)?,
            other => return Err(unexpected(k, "GlobalModel", other)),
        }
        let u_set = match cur.next(k, "Phase2EdgesSampled")? {
            Event::Phase2EdgesSampled { round, edges } if *round == k => edges.clone(),
            other => return Err(unexpected(k, "Phase2EdgesSampled", other)),
        };
        let mut u_rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::LossEstSampling,
            k as u64,
            u64::MAX,
        ));
        let expect_u = sample_edges_uniform(num_groups, cfg.m_groups, &mut u_rng);
        if u_set != expect_u {
            return Err(ConformanceError::SamplingMismatch {
                round: k,
                phase: "phase2",
                expected: expect_u,
                actual: u_set,
            });
        }
        let ones = vec![1_usize; u_set.len()];
        let (live, _) = replay_outages(&mut cur, &plan, seed, k, &u_set, &ones, &mut report)?;
        let p2_down = replay_deliveries(
            &mut cur,
            &plan,
            seed,
            k,
            MsgChannel::Phase2Down,
            &live,
            &mut report,
        )?;
        let est = p2_down.delivered.len() as u64;
        let p_new = match cur.next(k, "WeightUpdate")? {
            Event::WeightUpdate { round, p } if *round == k => p.clone(),
            other => return Err(unexpected(k, "WeightUpdate", other)),
        };
        if p_new.len() != num_groups || p_new.iter().any(|x| !x.is_finite()) {
            return Err(ConformanceError::BadModel {
                round: k,
                detail: format!("weight vector malformed: {p_new:?}"),
            });
        }
        let violation = problem.p_domain.feasibility_violation(&p_new);
        if violation > FEASIBILITY_TOL {
            return Err(ConformanceError::InfeasibleWeights {
                round: k,
                violation,
            });
        }

        // The per-round corrupted count aggregates over inner subtrees
        // whose corruption streams key on position tags this closed-form
        // checker does not model, so only the event's presence, round, and
        // attack tag are validated here.
        if plan.has_adversary() {
            expect_adversary_round(&mut cur, k, &plan, None, &mut report)?;
        }

        let delta = match cur.next(k, "RoundComm")? {
            Event::RoundComm { round, delta } if *round == k => *delta,
            other => return Err(unexpected(k, "RoundComm", other)),
        };
        let act = active.len() as u64;
        let prt = participants.len() as u64;
        let liv = live.len() as u64;
        let du = d as u64;
        let cp_len = cfg.upper.len() as u64 + 2;
        check_link(
            k,
            &delta,
            Link::EdgeCloud,
            "EdgeCloud",
            LinkCost {
                down_floats: (du + cp_len) * (act + p1_down.extra_attempts)
                    + du * (liv + p2_down.extra_attempts),
                down_msgs: act + p1_down.extra_attempts + liv + p2_down.extra_attempts,
                up_floats: 2 * du * (prt + p1_up.extra_attempts) + est,
                up_msgs: prt + p1_up.extra_attempts + est,
                rounds: 1,
            },
        )?;
        let sub = subtree_cost(cfg, du, n0, 0, per_group as u64);
        let phase2 = est * per_group as u64 * n0;
        check_link(
            k,
            &delta,
            Link::ClientEdge,
            "ClientEdge",
            LinkCost {
                down_floats: prt * sub.down_floats + du * phase2,
                down_msgs: prt * sub.down_msgs + phase2,
                up_floats: prt * sub.up_floats + phase2,
                up_msgs: prt * sub.up_msgs + phase2,
                rounds: prt * sub.rounds + 1,
            },
        )?;
        check_link(
            k,
            &delta,
            Link::ClientCloud,
            "ClientCloud",
            LinkCost::default(),
        )?;

        p = p_new;
        report.rounds += 1;
    }
    report.events = cur.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::traced_opts;
    use hm_core::algorithms::{
        Algorithm, HierFavg, HierMinimax, MultiLevelMinimax, RunOpts, UpperLevel,
    };
    use hm_data::scenarios::tiny_problem;

    fn problem(n_edges: usize, n0: usize, seed: u64) -> FederatedProblem {
        FederatedProblem::logistic_from_scenario(&tiny_problem(n_edges, n0, seed))
    }

    #[test]
    fn valid_hierminimax_trace_passes() {
        let fp = problem(3, 2, 1);
        let cfg = HierMinimaxConfig {
            rounds: 3,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let report = check_hierminimax_trace(&fp, &cfg, 42, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 3);
        // 3 rounds × τ2 blocks × 2 distinct-at-most edges × 2 clients…
        assert!(report.local_steps > 0);
        assert!(report.checkpoints > 0);
    }

    #[test]
    fn valid_hierfavg_trace_passes() {
        let fp = problem(3, 2, 2);
        let cfg = HierFavgConfig {
            rounds: 3,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierFavg::new(cfg.clone()).run(&fp, 7);
        let report = check_hierfavg_trace(&fp, &cfg, 7, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 3);
        assert_eq!(report.checkpoints, 0);
    }

    #[test]
    fn valid_multilevel_trace_passes() {
        let fp = problem(4, 2, 3);
        let cfg = MultiLevelConfig {
            rounds: 3,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = MultiLevelMinimax::new(cfg.clone()).run(&fp, 11);
        let report = check_multilevel_trace(&fp, &cfg, 11, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 3);
    }

    /// A fault plan hitting every class replays cleanly: the checker
    /// consumes the interleaved `EdgeFault` events, recomputes survivor
    /// sets, and the retry-aware comm closed form matches the meter.
    #[test]
    fn faulty_hierminimax_trace_passes_and_counts_faults() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 6,
            opts: RunOpts {
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
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let report = check_hierminimax_trace(&fp, &cfg, 42, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 6);
        assert!(report.faults > 0, "plan rates high enough to always fire");
        // Every EdgeFault event in the trace was consumed by the replay.
        let traced_faults = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, Event::EdgeFault { .. }))
            .count();
        assert_eq!(report.faults, traced_faults);
        assert!(r.faults.outages > 0 || r.faults.gave_up > 0);
    }

    #[test]
    fn faulty_hierfavg_trace_passes() {
        let fp = problem(3, 2, 5);
        let cfg = HierFavgConfig {
            rounds: 5,
            dropout: 0.25,
            opts: RunOpts {
                fault: FaultPlan {
                    edge_outage: 0.4,
                    msg_loss: 0.3,
                    max_retries: 0,
                    ..FaultPlan::default()
                },
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierFavg::new(cfg.clone()).run(&fp, 19);
        let report = check_hierfavg_trace(&fp, &cfg, 19, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 5);
        assert!(report.faults > 0);
    }

    #[test]
    fn faulty_multilevel_trace_passes_cloud_replay() {
        let fp = problem(4, 2, 6);
        let cfg = MultiLevelConfig {
            rounds: 5,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            opts: RunOpts {
                fault: FaultPlan {
                    edge_outage: 0.35,
                    msg_loss: 0.3,
                    max_retries: 2,
                    ..FaultPlan::default()
                },
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = MultiLevelMinimax::new(cfg.clone()).run(&fp, 13);
        let report = check_multilevel_trace(&fp, &cfg, 13, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 5);
        assert!(report.faults > 0);
    }

    /// Dropping a fault event desynchronizes the replay: the checker must
    /// reject the trace rather than silently mis-attribute survivors.
    #[test]
    fn missing_fault_event_is_rejected() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 6,
            opts: RunOpts {
                fault: FaultPlan {
                    edge_outage: 0.5,
                    ..FaultPlan::default()
                },
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::EdgeFault { .. }))
            .expect("outage rate 0.5 over 6 rounds fires");
        events.remove(idx);
        let err = check_hierminimax_trace(&fp, &cfg, 42, &events).unwrap_err();
        assert!(
            matches!(
                err,
                ConformanceError::FaultMismatch { .. }
                    | ConformanceError::UnexpectedEvent { .. }
                    | ConformanceError::BroadcastMismatch { .. }
            ),
            "expected replay desync, got {err}"
        );
    }

    /// A forged fault event (claiming an outage the keyed stream never
    /// drew) is caught as a fault mismatch.
    #[test]
    fn forged_fault_event_is_rejected() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 5);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::CloudBroadcast { .. }))
            .unwrap();
        events.insert(
            idx,
            Event::EdgeFault {
                round: 0,
                level: 0,
                edge: 0,
                kind: FaultKind::EdgeOutage,
                attempts: 0,
            },
        );
        let err = check_hierminimax_trace(&fp, &cfg, 5, &events).unwrap_err();
        assert!(
            matches!(
                err,
                ConformanceError::FaultMismatch { .. } | ConformanceError::UnexpectedEvent { .. }
            ),
            "expected fault mismatch, got {err}"
        );
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let fp = problem(3, 2, 1);
        let cfg = HierMinimaxConfig {
            rounds: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 5);
        let mut events = r.trace.events();
        events.pop();
        let err = check_hierminimax_trace(&fp, &cfg, 5, &events).unwrap_err();
        assert!(matches!(err, ConformanceError::TraceEnded { .. }), "{err}");
    }

    #[test]
    fn trailing_events_are_rejected() {
        let fp = problem(3, 2, 1);
        let cfg = HierMinimaxConfig {
            rounds: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 5);
        let mut events = r.trace.events();
        events.push(Event::GlobalAggregation { round: 2 });
        let err = check_hierminimax_trace(&fp, &cfg, 5, &events).unwrap_err();
        assert_eq!(err, ConformanceError::TrailingEvents { count: 1 });
    }

    fn byzantine_plan(rate: f32) -> FaultPlan {
        FaultPlan {
            corrupt_rate: rate,
            attack: hm_simnet::AttackModel::SignFlip,
            ..FaultPlan::default()
        }
    }

    /// An adversarial trace replays cleanly and the traced per-round
    /// corrupted counts sum to the run's own adversary accounting (a
    /// closed-form cross-check of the keyed corruption stream).
    #[test]
    fn adversarial_hierminimax_trace_passes_and_counts_corruption() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 5,
            opts: RunOpts {
                fault: byzantine_plan(0.3),
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let report = check_hierminimax_trace(&fp, &cfg, 42, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.faults, 5, "one validated AdversaryRound per round");
        let traced: u64 = r
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::AdversaryRound { corrupted, .. } => Some(*corrupted),
                _ => None,
            })
            .sum();
        assert!(traced > 0, "30% corruption over 5 rounds fires");
        assert_eq!(traced, r.quarantine.corrupted_updates);
    }

    /// Corruption composes with crash/straggler faults: the corrupted
    /// count is drawn over the *surviving* slots only, and the replay
    /// still matches with both fault classes active.
    #[test]
    fn adversarial_trace_with_crashes_passes() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 6,
            opts: RunOpts {
                fault: FaultPlan {
                    client_crash: 0.3,
                    straggler_rate: 0.2,
                    straggler_slowdown: 3.0,
                    deadline_factor: 1.5,
                    ..byzantine_plan(0.4)
                },
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 9);
        let report = check_hierminimax_trace(&fp, &cfg, 9, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 6);
    }

    #[test]
    fn adversarial_hierfavg_trace_passes() {
        let fp = problem(3, 2, 5);
        let cfg = HierFavgConfig {
            rounds: 4,
            opts: RunOpts {
                fault: byzantine_plan(0.25),
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierFavg::new(cfg.clone()).run(&fp, 19);
        let report = check_hierfavg_trace(&fp, &cfg, 19, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 4);
        assert_eq!(report.faults, 4);
    }

    #[test]
    fn adversarial_multilevel_trace_passes() {
        let fp = problem(4, 2, 6);
        let cfg = MultiLevelConfig {
            rounds: 4,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            opts: RunOpts {
                fault: byzantine_plan(0.25),
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = MultiLevelMinimax::new(cfg.clone()).run(&fp, 13);
        let report = check_multilevel_trace(&fp, &cfg, 13, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 4);
        assert_eq!(report.faults, 4);
    }

    /// Inflating a traced corrupted count forges adversary accounting the
    /// keyed stream never produced; the replay must reject it.
    #[test]
    fn forged_adversary_count_is_rejected() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 5,
            opts: RunOpts {
                fault: byzantine_plan(0.3),
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let mut events = r.trace.events();
        let slot = events
            .iter_mut()
            .find_map(|e| match e {
                Event::AdversaryRound { corrupted, .. } => Some(corrupted),
                _ => None,
            })
            .expect("adversarial run traces AdversaryRound");
        *slot += 1;
        let err = check_hierminimax_trace(&fp, &cfg, 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
    }

    /// Deleting an AdversaryRound hides corruption from the log; the
    /// replay still expects the event and must reject the trace.
    #[test]
    fn missing_adversary_event_is_rejected() {
        let fp = problem(3, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 5,
            opts: RunOpts {
                fault: byzantine_plan(0.3),
                ..traced_opts()
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::AdversaryRound { .. }))
            .unwrap();
        events.remove(idx);
        let err = check_hierminimax_trace(&fp, &cfg, 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::FaultMismatch { .. }),
            "{err}"
        );
    }

    /// An honest (zero-rate) trace must not carry adversary events: the
    /// checker never consumes them, so an injected one desynchronizes.
    #[test]
    fn injected_adversary_event_in_honest_trace_is_rejected() {
        let fp = problem(3, 2, 1);
        let cfg = HierMinimaxConfig {
            rounds: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 5);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::RoundComm { .. }))
            .unwrap();
        events.insert(
            idx,
            Event::AdversaryRound {
                round: 0,
                corrupted: 2,
                attack: "sign-flip",
            },
        );
        let err = check_hierminimax_trace(&fp, &cfg, 5, &events).unwrap_err();
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
            ..traced_opts()
        }
    }

    /// A chaos-churn trace replays cleanly: the checker's topology mirror
    /// re-derives every leave, join, edge failure and re-homing move from
    /// the keyed churn stream, tracks roster-based participation, and the
    /// membership-aware comm closed form matches the meter.
    #[test]
    fn churn_hierminimax_trace_passes() {
        let fp = problem(4, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 6,
            opts: churn_opts("chaos-churn"),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        assert!(r.churn.total() > 0, "chaos-churn over 6 rounds fires");
        let report = check_hierminimax_trace(&fp, &cfg, 42, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 6);
        assert!(report.local_steps > 0);
    }

    #[test]
    fn churn_hierfavg_trace_passes() {
        let fp = problem(4, 2, 5);
        let cfg = HierFavgConfig {
            rounds: 6,
            opts: churn_opts("mild"),
            ..Default::default()
        };
        let r = HierFavg::new(cfg.clone()).run(&fp, 19);
        let report = check_hierfavg_trace(&fp, &cfg, 19, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 6);
    }

    /// Edge failover exercises the headline path: a failed edge's clients
    /// re-home onto survivors, the fairness weights leave the dead
    /// coordinate, and the replay still matches end to end.
    #[test]
    fn edge_failover_trace_passes_with_rehoming() {
        let fp = problem(4, 2, 6);
        let cfg = HierMinimaxConfig {
            rounds: 10,
            opts: churn_opts("edge-failover"),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 7);
        assert!(r.churn.rehomed > 0, "15% failure rate over 10 rounds fires");
        let report = check_hierminimax_trace(&fp, &cfg, 7, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 10);
    }

    /// Churn composes with message-level faults: delivery replays run over
    /// the roster-derived survivor sets and still match.
    #[test]
    fn churn_with_faults_trace_passes() {
        let fp = problem(4, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 5,
            opts: RunOpts {
                fault: FaultPlan {
                    client_crash: 0.2,
                    msg_loss: 0.25,
                    max_retries: 1,
                    ..FaultPlan::default()
                },
                ..churn_opts("chaos-churn")
            },
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 23);
        let report = check_hierminimax_trace(&fp, &cfg, 23, &r.trace.events()).unwrap();
        assert_eq!(report.rounds, 5);
    }

    /// A forged re-homing move (a transition the keyed churn stream never
    /// drew) is rejected as a churn mismatch.
    #[test]
    fn forged_rehoming_move_is_rejected() {
        let fp = problem(4, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 3,
            opts: churn_opts("chaos-churn"),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::ChurnRound { .. }))
            .expect("active plan emits ChurnRound every round");
        if let Event::ChurnRound { rehomed, .. } = &mut events[idx] {
            rehomed.push((0, 1, 2));
        }
        let err = check_hierminimax_trace(&fp, &cfg, 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::ChurnMismatch { .. }),
            "{err}"
        );
    }

    /// A forged leave is likewise rejected.
    #[test]
    fn forged_leave_is_rejected() {
        let fp = problem(4, 2, 5);
        let cfg = HierFavgConfig {
            rounds: 3,
            opts: churn_opts("mild"),
            ..Default::default()
        };
        let r = HierFavg::new(cfg.clone()).run(&fp, 19);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::ChurnRound { .. }))
            .unwrap();
        if let Event::ChurnRound { left, .. } = &mut events[idx] {
            left.push(0);
        }
        let err = check_hierfavg_trace(&fp, &cfg, 19, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::ChurnMismatch { .. }),
            "{err}"
        );
    }

    /// Dropping a ChurnRound desynchronizes the replay immediately.
    #[test]
    fn missing_churn_round_is_rejected() {
        let fp = problem(4, 2, 4);
        let cfg = HierMinimaxConfig {
            rounds: 3,
            opts: churn_opts("chaos-churn"),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 42);
        let mut events = r.trace.events();
        let idx = events
            .iter()
            .position(|e| matches!(e, Event::ChurnRound { .. }))
            .unwrap();
        events.remove(idx);
        let err = check_hierminimax_trace(&fp, &cfg, 42, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::ChurnMismatch { .. }),
            "{err}"
        );
    }

    /// A ChurnRound in a churnless trace is an unexpected event — runs
    /// without an active plan must not claim membership transitions.
    #[test]
    fn churn_event_in_churnless_trace_is_rejected() {
        let fp = problem(3, 2, 1);
        let cfg = HierMinimaxConfig {
            rounds: 2,
            opts: traced_opts(),
            ..Default::default()
        };
        let r = HierMinimax::new(cfg.clone()).run(&fp, 5);
        let mut events = r.trace.events();
        events.insert(
            0,
            Event::ChurnRound {
                round: 0,
                left: vec![],
                failed_edges: vec![],
                rehomed: vec![],
                joined: vec![],
            },
        );
        let err = check_hierminimax_trace(&fp, &cfg, 5, &events).unwrap_err();
        assert!(
            matches!(err, ConformanceError::UnexpectedEvent { .. }),
            "{err}"
        );
    }
}
