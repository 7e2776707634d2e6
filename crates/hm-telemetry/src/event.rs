//! Telemetry event types and their JSONL wire format, both directions.
//!
//! One event = one JSON object = one line. Every object carries an `"ev"`
//! kind tag; the rest of the fields are fixed per kind and documented in
//! DESIGN.md §10. Serialization is deterministic (fixed key order), so
//! streams can be compared textually in tests. [`TelemetryEvent::from_json`]
//! is its inverse and the one reader of event lines: the schema validator,
//! `hierminimax report` and the tests all decode through it.

use crate::json::{parse, Json, ObjWriter};
use crate::profile::{phases_to_json, PhaseAgg};
use hm_simnet::CommStats;

/// A structured event emitted by an algorithm run.
///
/// All payloads except the `elapsed_s` wall-clock fields are pure functions
/// of the run (deterministic under a fixed seed). Vectors are cloned at
/// emission time — emission happens at round boundaries, never inside the
/// allocation-free training hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Run preamble: which algorithm, over what problem, with what seed.
    RunStart {
        /// Algorithm display name (e.g. `"HierMinimax"`).
        algorithm: String,
        /// Planned number of rounds.
        rounds: usize,
        /// Number of edges (groups for flat methods).
        n_edges: usize,
        /// Model parameter count.
        num_params: usize,
        /// Run seed.
        seed: u64,
    },
    /// A round began.
    RoundStart {
        /// Round index, 0-based.
        round: usize,
    },
    /// Phase-1 sampling outcome: the participating edge multiset and, for
    /// checkpoint-based methods, the sampled checkpoint `(c1, c2)`.
    Phase1Sampled {
        /// Round index.
        round: usize,
        /// Sampled edge indices (with multiplicity, in draw order). For
        /// flat methods this is the sampled client/group set.
        edges: Vec<usize>,
        /// Sampled checkpoint `(c1, c2)`; `None` for methods without one.
        checkpoint: Option<(usize, usize)>,
    },
    /// One client-edge aggregation block completed.
    BlockAggregated {
        /// Round index (for `MultiLevel`: a position tag, see DESIGN §10).
        round: usize,
        /// Edge that aggregated.
        edge: usize,
        /// Block index `t2` within the round, 0-based.
        t2: usize,
        /// Global ids of the clients whose uploads the edge aggregated
        /// (those that survived crashes and the straggler deadline), in
        /// slot order.
        clients: Vec<usize>,
    },
    /// Phase 1 (primal work) of a round finished.
    Phase1Done {
        /// Round index.
        round: usize,
        /// [`model_digest`] of the aggregated global model `w^(k+1)`.
        w_digest: u64,
        /// Non-finite entries of `w^(k+1)`.
        nonfinite: usize,
        /// Real elapsed seconds of phase 1 (monotonic clock; `0.0` when the
        /// handle is disabled).
        elapsed_s: f64,
    },
    /// Phase-2 dual update: loss estimates on the uniform set and the new
    /// weight vector `p^(k+1)`.
    DualUpdate {
        /// Round index.
        round: usize,
        /// The edges of the uniformly sampled set `U^(k)` whose loss
        /// estimate arrived (the rest were out or unreachable).
        edges: Vec<usize>,
        /// Loss estimates for each estimating edge, aligned with `edges`.
        losses: Vec<f64>,
        /// Post-projection weights `p^(k+1)` over all edges.
        p: Vec<f32>,
        /// Real elapsed seconds of phase 2.
        elapsed_s: f64,
    },
    /// An evaluation snapshot was taken.
    Eval {
        /// Round index.
        round: usize,
        /// Average accuracy over edges.
        average: f64,
        /// Worst edge accuracy.
        worst: f64,
        /// Accuracy variance in percentage points.
        variance_pp: f64,
        /// Per-edge accuracies.
        per_edge_accuracy: Vec<f64>,
    },
    /// An injected edge-level fault took effect at a cloud-link protocol
    /// step (outage, retried delivery, exhausted retries). Client-level
    /// faults (crashes, deadline misses) are high-volume and appear only
    /// aggregated in [`TelemetryEvent::FaultSummary`].
    Fault {
        /// Round index.
        round: usize,
        /// Fault class tag (`hm_simnet::FaultKind::as_str`).
        kind: String,
        /// Hierarchy level of the faulted entity (0 = cloud's children).
        level: usize,
        /// Edge (or top-level group) id.
        edge: usize,
        /// Delivery attempts made (0 for outages).
        attempts: usize,
    },
    /// Per-round fault bookkeeping deltas (emitted once per round by runs
    /// with an active fault plan, before `round_end`).
    FaultSummary {
        /// Round index.
        round: usize,
        /// Client-crash events this round.
        crashes: u64,
        /// Edge-outage observations this round.
        outages: u64,
        /// Message retransmissions this round.
        retries: u64,
        /// Messages abandoned after exhausting retries this round.
        gave_up: u64,
        /// Clients cut by the straggler deadline this round.
        deadline_missed: u64,
        /// Simulated seconds of retry backoff this round.
        backoff_s: f64,
        /// Extra time slots waiting for in-deadline stragglers this round.
        straggler_slots: f64,
    },
    /// Per-round Byzantine-adversary bookkeeping delta (emitted once per
    /// round by runs with a non-zero corruption rate, before
    /// `fault_summary`/`round_end`). Emitted *unsequenced*, like
    /// [`TelemetryEvent::Span`], so adversary-off streams keep their
    /// historical sequence numbers.
    Adversary {
        /// Round index.
        round: usize,
        /// Corrupted uploads this round.
        corrupted: u64,
        /// Attack model tag (`hm_simnet::AttackModel::as_str`).
        attack: String,
    },
    /// A client was quarantined by the update-norm outlier pass. Emitted
    /// *unsequenced*.
    Quarantine {
        /// Round whose observations triggered the bench.
        round: usize,
        /// Global client id.
        client: usize,
        /// First round the client may participate again.
        until: usize,
    },
    /// Per-round membership-churn accounting delta (emitted once per
    /// round, at round start, by runs with an active churn plan).
    /// Emitted *unsequenced*, like [`TelemetryEvent::Adversary`], so
    /// churn-off streams keep their historical sequence numbers.
    Churn {
        /// Round index.
        round: usize,
        /// `(client, home_edge)` of each client that joined this round.
        joined: Vec<(usize, usize)>,
        /// Clients that permanently left this round.
        left: Vec<usize>,
        /// Edge servers that failed permanently this round, ascending.
        failed_edges: Vec<usize>,
        /// Clients re-homed off a failed edge this round (one `rehome`
        /// event each follows).
        rehomed: u64,
    },
    /// A client was re-homed from a failed edge onto a survivor.
    /// Emitted *unsequenced*, one event per move, in assignment order.
    Rehome {
        /// Round index.
        round: usize,
        /// Global client id.
        client: usize,
        /// The failed edge the client was homed at.
        from_edge: usize,
        /// The surviving edge that absorbed the client.
        to_edge: usize,
    },
    /// Which client→edge aggregation rule the run used (emitted once,
    /// *unsequenced*, right after the preamble, and only when the rule is
    /// not the default `mean`).
    AggregatorSummary {
        /// Aggregator tag (`hm_tensor::Aggregator::as_str`).
        aggregator: String,
        /// The rule's knob (`beta` / `tau`), `0.0` when it has none.
        param: f64,
    },
    /// A round finished.
    RoundEnd {
        /// Round index.
        round: usize,
        /// Cumulative local-SGD time slots through this round.
        slots: usize,
        /// Communication in this round alone.
        comm_delta: CommStats,
        /// Cumulative communication through this round.
        comm_total: CommStats,
        /// `LatencyModel` simulated seconds for the run prefix.
        sim_s: f64,
        /// Real elapsed seconds of this round.
        elapsed_s: f64,
    },
    /// A crash-consistent snapshot was written after a round completed.
    ///
    /// `seq` is the number of telemetry events emitted by this run *up to
    /// and including this event* — the same value stored in the snapshot —
    /// so a validator can check sequence continuity across a crash/resume
    /// splice point.
    Checkpoint {
        /// Round index (0-based) the snapshot covers through.
        round: usize,
        /// Events emitted so far, including this one.
        seq: u64,
    },
    /// Preamble of a run resumed from a snapshot, in place of
    /// [`TelemetryEvent::RunStart`]. Emitted *unsequenced* (it does not
    /// advance the event counter), so the seq values of later `checkpoint`
    /// events are bit-identical to the uninterrupted run's.
    RunResume {
        /// Algorithm display name.
        algorithm: String,
        /// Planned number of rounds (total, not remaining).
        rounds: usize,
        /// First round this resumed run executes.
        next_round: usize,
        /// Run seed.
        seed: u64,
        /// Event count inherited from the snapshot (the writing run's
        /// count through its `checkpoint` event).
        seq: u64,
    },
    /// A profiled wall-clock span (see `crate::profile`). Emitted
    /// *unsequenced*, like [`TelemetryEvent::RunResume`]: spans are pure
    /// measurement, so a profiled run's sequenced stream stays
    /// bit-identical to the unprofiled run's.
    Span {
        /// Phase tag (`crate::profile::Phase::as_str`).
        phase: String,
        /// Round the span belongs to; `None` for run-scoped spans.
        round: Option<usize>,
        /// Entity (edge index) the span belongs to, when per-entity.
        entity: Option<usize>,
        /// Measured wall-clock seconds (monotonic).
        elapsed_s: f64,
    },
    /// End-of-run per-phase aggregate of every recorded span, emitted
    /// *unsequenced* immediately before [`TelemetryEvent::RunEnd`].
    ProfileSummary {
        /// One aggregate per phase, in canonical phase order.
        phases: Vec<PhaseAgg>,
    },
    /// The run finished.
    RunEnd {
        /// Rounds actually executed.
        rounds: usize,
        /// Total local-SGD time slots.
        slots: usize,
        /// Final communication totals.
        comm_total: CommStats,
        /// `LatencyModel` simulated seconds for the whole run.
        sim_s: f64,
        /// Real elapsed seconds of the whole run.
        elapsed_s: f64,
    },
}

/// Digest of a model's bits and the count of its non-finite entries, in
/// one pass: FNV-1a over each entry's `f32` bit pattern in four
/// interleaved lanes, folded together with the length.
///
/// Every step is a bijection of the lane state, so changing any entry's
/// bits (by one ULP, or `0.0` to `-0.0`) changes the digest. This is the
/// `w_digest` of `phase1_done`; tests compare it with a reference model's.
pub fn model_digest(w: &[f32]) -> (u64, usize) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; 4];
    let mut nonfinite = 0;
    let mut chunks = w.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, u64::from(x.to_bits()));
            nonfinite += usize::from(!x.is_finite());
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = step(*lane, u64::from(x.to_bits()));
        nonfinite += usize::from(!x.is_finite());
    }
    let digest = lanes
        .iter()
        .fold(step(OFFSET, w.len() as u64), |h, &lane| step(h, lane));
    (digest, nonfinite)
}

impl TelemetryEvent {
    /// The `"ev"` kind tag this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::RunStart { .. } => "run_start",
            TelemetryEvent::RoundStart { .. } => "round_start",
            TelemetryEvent::Phase1Sampled { .. } => "phase1",
            TelemetryEvent::BlockAggregated { .. } => "block_agg",
            TelemetryEvent::Phase1Done { .. } => "phase1_done",
            TelemetryEvent::DualUpdate { .. } => "dual_update",
            TelemetryEvent::Eval { .. } => "eval",
            TelemetryEvent::Fault { .. } => "fault",
            TelemetryEvent::FaultSummary { .. } => "fault_summary",
            TelemetryEvent::Checkpoint { .. } => "checkpoint",
            TelemetryEvent::RunResume { .. } => "run_resume",
            TelemetryEvent::Span { .. } => "span",
            TelemetryEvent::ProfileSummary { .. } => "profile_summary",
            TelemetryEvent::Adversary { .. } => "adversary",
            TelemetryEvent::Quarantine { .. } => "quarantine",
            TelemetryEvent::Churn { .. } => "churn",
            TelemetryEvent::Rehome { .. } => "rehome",
            TelemetryEvent::AggregatorSummary { .. } => "aggregator_summary",
            TelemetryEvent::RoundEnd { .. } => "round_end",
            TelemetryEvent::RunEnd { .. } => "run_end",
        }
    }

    /// Whether emitting this event advances the run's sequence count, the
    /// `seq` that `checkpoint` and `run_resume` carry. The resume preamble
    /// and the observers (profiling, adversary, quarantine, churn, the
    /// aggregator rule) do not, so switching any of them on leaves every
    /// sequenced event's position unchanged. [`crate::Telemetry::record`]
    /// and the stream validator both read this.
    pub fn is_sequenced(&self) -> bool {
        !matches!(
            self,
            TelemetryEvent::RunResume { .. }
                | TelemetryEvent::Span { .. }
                | TelemetryEvent::ProfileSummary { .. }
                | TelemetryEvent::Adversary { .. }
                | TelemetryEvent::Quarantine { .. }
                | TelemetryEvent::Churn { .. }
                | TelemetryEvent::Rehome { .. }
                | TelemetryEvent::AggregatorSummary { .. }
        )
    }

    /// Serialize to a single JSON object (one JSONL line, no trailing
    /// newline). Key order is fixed, so equal events serialize equally.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("ev", self.kind());
        match self {
            TelemetryEvent::RunStart {
                algorithm,
                rounds,
                n_edges,
                num_params,
                seed,
            } => {
                w.str("algorithm", algorithm)
                    .usize("rounds", *rounds)
                    .usize("n_edges", *n_edges)
                    .usize("num_params", *num_params)
                    .u64("seed", *seed);
            }
            TelemetryEvent::RoundStart { round } => {
                w.usize("round", *round);
            }
            TelemetryEvent::Phase1Sampled {
                round,
                edges,
                checkpoint,
            } => {
                w.usize("round", *round)
                    .arr_usize("edges", edges)
                    .opt_usize("c1", checkpoint.map(|c| c.0))
                    .opt_usize("c2", checkpoint.map(|c| c.1));
            }
            TelemetryEvent::BlockAggregated {
                round,
                edge,
                t2,
                clients,
            } => {
                w.usize("round", *round)
                    .usize("edge", *edge)
                    .usize("t2", *t2)
                    .arr_usize("clients", clients);
            }
            TelemetryEvent::Phase1Done {
                round,
                w_digest,
                nonfinite,
                elapsed_s,
            } => {
                w.usize("round", *round)
                    .str("w_digest", &format!("{w_digest:016x}"))
                    .usize("nonfinite", *nonfinite)
                    .f64("elapsed_s", *elapsed_s);
            }
            TelemetryEvent::DualUpdate {
                round,
                edges,
                losses,
                p,
                elapsed_s,
            } => {
                w.usize("round", *round)
                    .arr_usize("edges", edges)
                    .arr_f64("losses", losses)
                    .arr_f32("p", p)
                    .f64("elapsed_s", *elapsed_s);
            }
            TelemetryEvent::Eval {
                round,
                average,
                worst,
                variance_pp,
                per_edge_accuracy,
            } => {
                w.usize("round", *round)
                    .f64("average", *average)
                    .f64("worst", *worst)
                    .f64("variance_pp", *variance_pp)
                    .arr_f64("per_edge_accuracy", per_edge_accuracy);
            }
            TelemetryEvent::Fault {
                round,
                kind,
                level,
                edge,
                attempts,
            } => {
                w.usize("round", *round)
                    .str("kind", kind)
                    .usize("level", *level)
                    .usize("edge", *edge)
                    .usize("attempts", *attempts);
            }
            TelemetryEvent::FaultSummary {
                round,
                crashes,
                outages,
                retries,
                gave_up,
                deadline_missed,
                backoff_s,
                straggler_slots,
            } => {
                w.usize("round", *round)
                    .u64("crashes", *crashes)
                    .u64("outages", *outages)
                    .u64("retries", *retries)
                    .u64("gave_up", *gave_up)
                    .u64("deadline_missed", *deadline_missed)
                    .f64("backoff_s", *backoff_s)
                    .f64("straggler_slots", *straggler_slots);
            }
            TelemetryEvent::Checkpoint { round, seq } => {
                w.usize("round", *round).u64("seq", *seq);
            }
            TelemetryEvent::RunResume {
                algorithm,
                rounds,
                next_round,
                seed,
                seq,
            } => {
                w.str("algorithm", algorithm)
                    .usize("rounds", *rounds)
                    .usize("next_round", *next_round)
                    .u64("seed", *seed)
                    .u64("seq", *seq);
            }
            TelemetryEvent::Span {
                phase,
                round,
                entity,
                elapsed_s,
            } => {
                w.str("phase", phase)
                    .opt_usize("round", *round)
                    .opt_usize("entity", *entity)
                    .f64("elapsed_s", *elapsed_s);
            }
            TelemetryEvent::ProfileSummary { phases } => {
                w.raw("phases", &phases_to_json(phases));
            }
            TelemetryEvent::Adversary {
                round,
                corrupted,
                attack,
            } => {
                w.usize("round", *round)
                    .u64("corrupted", *corrupted)
                    .str("attack", attack);
            }
            TelemetryEvent::Quarantine {
                round,
                client,
                until,
            } => {
                w.usize("round", *round)
                    .usize("client", *client)
                    .usize("until", *until);
            }
            TelemetryEvent::Churn {
                round,
                joined,
                left,
                failed_edges,
                rehomed,
            } => {
                w.usize("round", *round)
                    .arr_pairs("joined", joined)
                    .arr_usize("left", left)
                    .arr_usize("failed_edges", failed_edges)
                    .u64("rehomed", *rehomed);
            }
            TelemetryEvent::Rehome {
                round,
                client,
                from_edge,
                to_edge,
            } => {
                w.usize("round", *round)
                    .usize("client", *client)
                    .usize("from_edge", *from_edge)
                    .usize("to_edge", *to_edge);
            }
            TelemetryEvent::AggregatorSummary { aggregator, param } => {
                w.str("aggregator", aggregator).f64("param", *param);
            }
            TelemetryEvent::RoundEnd {
                round,
                slots,
                comm_delta,
                comm_total,
                sim_s,
                elapsed_s,
            } => {
                w.usize("round", *round)
                    .usize("slots", *slots)
                    .raw("comm_delta", &comm_to_json(comm_delta))
                    .raw("comm_total", &comm_to_json(comm_total))
                    .f64("sim_s", *sim_s)
                    .f64("elapsed_s", *elapsed_s);
            }
            TelemetryEvent::RunEnd {
                rounds,
                slots,
                comm_total,
                sim_s,
                elapsed_s,
            } => {
                w.usize("rounds", *rounds)
                    .usize("slots", *slots)
                    .raw("comm_total", &comm_to_json(comm_total))
                    .f64("sim_s", *sim_s)
                    .f64("elapsed_s", *elapsed_s);
            }
        }
        w.finish()
    }

    /// Decode one JSONL line: the inverse of [`TelemetryEvent::to_json`].
    /// The object must hold exactly its kind's keys plus `"ev"`, each of
    /// the type the encoder writes, checked in the encoder's key order.
    /// Counters are read from their raw digits; a `null` number decodes to
    /// NaN (non-finite values encode as `null`), so a decoded event
    /// re-encodes to the same line but NaN breaks `==`.
    ///
    /// # Errors
    /// [`DecodeError::UnknownKind`] for a well-formed object whose `"ev"`
    /// this build does not know (a tolerant reader skips it), and
    /// [`DecodeError::Invalid`] for anything else.
    pub fn from_json(line: &str) -> Result<TelemetryEvent, DecodeError> {
        let v = parse(line).map_err(|e| invalid(format!("not valid JSON: {e}")))?;
        let Json::Obj(keys) = &v else {
            return Err(invalid("not a JSON object"));
        };
        let kind = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("missing string field \"ev\""))?;
        let mut f = Fields {
            kind,
            obj: &v,
            read: Vec::new(),
        };
        let event = match kind {
            "run_start" => TelemetryEvent::RunStart {
                algorithm: f.get("algorithm", string)?,
                rounds: f.get("rounds", index)?,
                n_edges: f.get("n_edges", index)?,
                num_params: f.get("num_params", index)?,
                seed: f.get("seed", uint)?,
            },
            "round_start" => TelemetryEvent::RoundStart {
                round: f.get("round", index)?,
            },
            "phase1" => TelemetryEvent::Phase1Sampled {
                round: f.get("round", index)?,
                edges: f.get("edges", indices)?,
                checkpoint: match (f.get("c1", opt_index)?, f.get("c2", opt_index)?) {
                    (Some(c1), Some(c2)) => Some((c1, c2)),
                    (None, None) => None,
                    _ => {
                        return Err(invalid(format!(
                            "{kind}: c1 and c2 must be both null or both integers"
                        )))
                    }
                },
            },
            "block_agg" => TelemetryEvent::BlockAggregated {
                round: f.get("round", index)?,
                edge: f.get("edge", index)?,
                t2: f.get("t2", index)?,
                clients: f.get("clients", indices)?,
            },
            "phase1_done" => TelemetryEvent::Phase1Done {
                round: f.get("round", index)?,
                w_digest: f.get("w_digest", hex64)?,
                nonfinite: f.get("nonfinite", index)?,
                elapsed_s: f.get("elapsed_s", num)?,
            },
            "dual_update" => TelemetryEvent::DualUpdate {
                round: f.get("round", index)?,
                edges: f.get("edges", indices)?,
                losses: f.get("losses", nums)?,
                p: f.get("p", nums)?.into_iter().map(|x| x as f32).collect(),
                elapsed_s: f.get("elapsed_s", num)?,
            },
            "eval" => TelemetryEvent::Eval {
                round: f.get("round", index)?,
                average: f.get("average", num)?,
                worst: f.get("worst", num)?,
                variance_pp: f.get("variance_pp", num)?,
                per_edge_accuracy: f.get("per_edge_accuracy", nums)?,
            },
            "fault" => TelemetryEvent::Fault {
                round: f.get("round", index)?,
                kind: f.get("kind", string)?,
                level: f.get("level", index)?,
                edge: f.get("edge", index)?,
                attempts: f.get("attempts", index)?,
            },
            "fault_summary" => TelemetryEvent::FaultSummary {
                round: f.get("round", index)?,
                crashes: f.get("crashes", uint)?,
                outages: f.get("outages", uint)?,
                retries: f.get("retries", uint)?,
                gave_up: f.get("gave_up", uint)?,
                deadline_missed: f.get("deadline_missed", uint)?,
                backoff_s: f.get("backoff_s", num)?,
                straggler_slots: f.get("straggler_slots", num)?,
            },
            "checkpoint" => TelemetryEvent::Checkpoint {
                round: f.get("round", index)?,
                seq: f.get("seq", uint)?,
            },
            "run_resume" => TelemetryEvent::RunResume {
                algorithm: f.get("algorithm", string)?,
                rounds: f.get("rounds", index)?,
                next_round: f.get("next_round", index)?,
                seed: f.get("seed", uint)?,
                seq: f.get("seq", uint)?,
            },
            "span" => TelemetryEvent::Span {
                phase: f.get("phase", string)?,
                round: f.get("round", opt_index)?,
                entity: f.get("entity", opt_index)?,
                elapsed_s: f.get("elapsed_s", num)?,
            },
            "profile_summary" => TelemetryEvent::ProfileSummary {
                phases: f.get("phases", phases)?,
            },
            "adversary" => TelemetryEvent::Adversary {
                round: f.get("round", index)?,
                corrupted: f.get("corrupted", uint)?,
                attack: f.get("attack", string)?,
            },
            "quarantine" => TelemetryEvent::Quarantine {
                round: f.get("round", index)?,
                client: f.get("client", index)?,
                until: f.get("until", index)?,
            },
            "churn" => TelemetryEvent::Churn {
                round: f.get("round", index)?,
                joined: f.get("joined", pairs)?,
                left: f.get("left", indices)?,
                failed_edges: f.get("failed_edges", indices)?,
                rehomed: f.get("rehomed", uint)?,
            },
            "rehome" => TelemetryEvent::Rehome {
                round: f.get("round", index)?,
                client: f.get("client", index)?,
                from_edge: f.get("from_edge", index)?,
                to_edge: f.get("to_edge", index)?,
            },
            "aggregator_summary" => TelemetryEvent::AggregatorSummary {
                aggregator: f.get("aggregator", string)?,
                param: f.get("param", num)?,
            },
            "round_end" => TelemetryEvent::RoundEnd {
                round: f.get("round", index)?,
                slots: f.get("slots", index)?,
                comm_delta: f.get("comm_delta", comm)?,
                comm_total: f.get("comm_total", comm)?,
                sim_s: f.get("sim_s", num)?,
                elapsed_s: f.get("elapsed_s", num)?,
            },
            "run_end" => TelemetryEvent::RunEnd {
                rounds: f.get("rounds", index)?,
                slots: f.get("slots", index)?,
                comm_total: f.get("comm_total", comm)?,
                sim_s: f.get("sim_s", num)?,
                elapsed_s: f.get("elapsed_s", num)?,
            },
            _ => return Err(DecodeError::UnknownKind(kind.to_string())),
        };
        // "ev" plus the fields read, nothing else.
        if keys.len() != f.read.len() + 1 {
            let extra: Vec<&String> = keys
                .iter()
                .map(|(k, _)| k)
                .filter(|k| k.as_str() != "ev" && !f.read.contains(&k.as_str()))
                .collect();
            return Err(invalid(format!("{kind}: unknown fields {extra:?}")));
        }
        Ok(event)
    }
}

/// Why a line did not decode into a [`TelemetryEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A well-formed object whose `"ev"` kind this build does not know.
    UnknownKind(String),
    /// Anything else: not JSON, not an object, no string `"ev"`, or a
    /// missing, mistyped or unknown field. Holds the message.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownKind(kind) => write!(f, "unknown event kind {kind:?}"),
            DecodeError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DecodeError {}

fn invalid(msg: impl Into<String>) -> DecodeError {
    DecodeError::Invalid(msg.into())
}

/// The fields of one event object, read by name; remembers what was read
/// so the leftovers can be named.
struct Fields<'a> {
    kind: &'a str,
    obj: &'a Json,
    read: Vec<&'static str>,
}

impl Fields<'_> {
    fn get<T>(
        &mut self,
        name: &'static str,
        decode: fn(&Json) -> Wire<T>,
    ) -> Result<T, DecodeError> {
        self.read.push(name);
        let kind = self.kind;
        let v = self
            .obj
            .get(name)
            .ok_or_else(|| invalid(format!("{kind}: missing field {name:?}")))?;
        decode(v).map_err(|e| invalid(format!("{kind}: field {name:?}: {e}")))
    }
}

/// A decoded field value, or what is wrong with it.
type Wire<T> = Result<T, String>;

/// `got`, or a failure naming what `v` should have been.
fn want<T>(got: Option<T>, what: &str, v: &Json) -> Wire<T> {
    got.ok_or_else(|| format!("expected {what}, got {v:?}"))
}

fn as_index(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn as_num(v: &Json) -> Option<f64> {
    if v.is_null() {
        Some(f64::NAN)
    } else {
        v.as_f64()
    }
}

/// Every item of array `v` through `item`.
fn items<T>(v: &Json, item: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(item).collect()
}

fn uint(v: &Json) -> Wire<u64> {
    want(v.as_u64(), "a non-negative integer", v)
}

fn index(v: &Json) -> Wire<usize> {
    want(as_index(v), "a non-negative integer", v)
}

fn opt_index(v: &Json) -> Wire<Option<usize>> {
    let got = if v.is_null() {
        Some(None)
    } else {
        as_index(v).map(Some)
    };
    want(got, "a non-negative integer or null", v)
}

fn num(v: &Json) -> Wire<f64> {
    want(as_num(v), "a number or null", v)
}

fn string(v: &Json) -> Wire<String> {
    want(v.as_str().map(String::from), "a string", v)
}

fn indices(v: &Json) -> Wire<Vec<usize>> {
    want(items(v, as_index), "an array of non-negative integers", v)
}

fn nums(v: &Json) -> Wire<Vec<f64>> {
    want(items(v, as_num), "an array of numbers", v)
}

fn pairs(v: &Json) -> Wire<Vec<(usize, usize)>> {
    let pair = |x: &Json| match items(x, as_index)?.as_slice() {
        &[a, b] => Some((a, b)),
        _ => None,
    };
    want(items(v, pair), "an array of [integer, integer] pairs", v)
}

fn hex64(v: &Json) -> Wire<u64> {
    let hex = v
        .as_str()
        .filter(|s| s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')));
    want(
        hex.and_then(|s| u64::from_str_radix(s, 16).ok()),
        "16 lowercase hex digits",
        v,
    )
}

/// The keys of a comm object, in [`CommStats::parts`] order; each holds
/// one count per link, in `hm_simnet::Link::all` order
/// (`[client_edge, edge_cloud, client_cloud]`).
const COMM_KEYS: [&str; 5] = ["up_floats", "down_floats", "up_msgs", "down_msgs", "rounds"];

fn comm_to_json(s: &CommStats) -> String {
    let mut w = ObjWriter::new();
    for (key, row) in COMM_KEYS.into_iter().zip(s.parts()) {
        w.arr_u64(key, &row);
    }
    w.finish()
}

fn comm(v: &Json) -> Wire<CommStats> {
    let Json::Obj(keys) = v else {
        return want(None, "a comm object", v);
    };
    let mut parts = [[0; 3]; 5];
    for (key, row) in COMM_KEYS.into_iter().zip(&mut parts) {
        let counts = v
            .get(key)
            .filter(|c| c.as_arr().is_some())
            .ok_or_else(|| format!("comm key {key:?} missing"))?;
        *row = items(counts, Json::as_u64)
            .and_then(|c| c.try_into().ok())
            .ok_or_else(|| format!("comm key {key:?} must be 3 non-negative integers"))?;
    }
    if keys.len() != COMM_KEYS.len() {
        return Err("unknown comm keys".into());
    }
    Ok(CommStats::from_parts(parts))
}

/// A `profile_summary` phase list, as [`phases_to_json`] writes it: one
/// object per aggregate, fixed keys.
fn phases(v: &Json) -> Wire<Vec<PhaseAgg>> {
    let list = want(v.as_arr(), "an array of phase aggregates", v)?;
    list.iter()
        .map(|item| {
            let Json::Obj(keys) = item else {
                return want(None, "an array of phase aggregate objects", v);
            };
            let agg = PhaseAgg {
                phase: phase_key(item, "phase", string)?,
                count: phase_key(item, "count", uint)?,
                total_s: phase_key(item, "total_s", num)?,
                min_s: phase_key(item, "min_s", num)?,
                max_s: phase_key(item, "max_s", num)?,
                p50_s: phase_key(item, "p50_s", num)?,
                p90_s: phase_key(item, "p90_s", num)?,
                p99_s: phase_key(item, "p99_s", num)?,
            };
            if keys.len() != 8 {
                return Err("unknown phase keys".into());
            }
            Ok(agg)
        })
        .collect()
}

fn phase_key<T>(item: &Json, key: &str, decode: fn(&Json) -> Wire<T>) -> Wire<T> {
    let v = item
        .get(key)
        .ok_or_else(|| format!("phase key {key:?} missing"))?;
    decode(v).map_err(|e| format!("field {key:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_simnet::{CommMeter, Link};
    use std::collections::BTreeSet;

    /// Distinct counts on all three links, so a swapped link shows.
    fn sample_stats() -> CommStats {
        let m = CommMeter::new();
        m.record_gather(Link::ClientEdge, 10, 4);
        m.record_broadcast(Link::EdgeCloud, 100, 2);
        m.record_round(Link::EdgeCloud);
        m.record_gather(Link::ClientCloud, 3, 5);
        m.snapshot()
    }

    /// One event of every kind, plus a flat method's `phase1` with no
    /// checkpoint.
    fn every_kind() -> Vec<TelemetryEvent> {
        let s = sample_stats();
        vec![
            TelemetryEvent::RunStart {
                algorithm: "HierMinimax".into(),
                rounds: 5,
                n_edges: 3,
                num_params: 77,
                seed: 42,
            },
            TelemetryEvent::RoundStart { round: 0 },
            TelemetryEvent::Phase1Sampled {
                round: 0,
                edges: vec![2, 0, 2],
                checkpoint: Some((1, 0)),
            },
            TelemetryEvent::Phase1Sampled {
                round: 3,
                edges: vec![0, 1],
                checkpoint: None,
            },
            TelemetryEvent::BlockAggregated {
                round: 0,
                edge: 2,
                t2: 1,
                clients: vec![4, 5],
            },
            TelemetryEvent::Phase1Done {
                round: 0,
                w_digest: 0x0123_4567_89ab_cdef,
                nonfinite: 0,
                elapsed_s: 0.01,
            },
            TelemetryEvent::DualUpdate {
                round: 0,
                edges: vec![1],
                losses: vec![0.7],
                p: vec![0.1, 0.333_333_34, 1.0 / 7.0],
                elapsed_s: 0.002,
            },
            TelemetryEvent::Eval {
                round: 0,
                average: 0.9,
                worst: 0.8,
                variance_pp: 1.5,
                per_edge_accuracy: vec![0.8, 0.95, 0.95],
            },
            TelemetryEvent::Fault {
                round: 0,
                kind: "edge_outage".into(),
                level: 0,
                edge: 2,
                attempts: 0,
            },
            TelemetryEvent::FaultSummary {
                round: 0,
                crashes: 3,
                outages: 1,
                retries: 2,
                gave_up: 0,
                deadline_missed: 1,
                backoff_s: 0.3,
                straggler_slots: 1.5,
            },
            TelemetryEvent::Checkpoint { round: 0, seq: 11 },
            TelemetryEvent::RunResume {
                algorithm: "HierMinimax".into(),
                rounds: 5,
                next_round: 1,
                seed: 42,
                seq: 11,
            },
            TelemetryEvent::Span {
                phase: "local_sgd_chain".into(),
                round: Some(0),
                entity: Some(2),
                elapsed_s: 0.003,
            },
            TelemetryEvent::ProfileSummary {
                phases: vec![PhaseAgg {
                    phase: "round".into(),
                    count: 1,
                    total_s: 0.02,
                    min_s: 0.02,
                    max_s: 0.02,
                    p50_s: 0.02,
                    p90_s: 0.02,
                    p99_s: 0.02,
                }],
            },
            TelemetryEvent::Adversary {
                round: 0,
                corrupted: 5,
                attack: "sign-flip".into(),
            },
            TelemetryEvent::Quarantine {
                round: 0,
                client: 7,
                until: 4,
            },
            TelemetryEvent::Churn {
                round: 0,
                joined: vec![(8, 0), (9, 2)],
                left: vec![3],
                failed_edges: vec![1],
                rehomed: 3,
            },
            TelemetryEvent::Rehome {
                round: 0,
                client: 5,
                from_edge: 1,
                to_edge: 2,
            },
            TelemetryEvent::AggregatorSummary {
                aggregator: "trimmed-mean".into(),
                param: 0.2,
            },
            TelemetryEvent::RoundEnd {
                round: 0,
                slots: 6,
                comm_delta: s,
                comm_total: s,
                sim_s: 0.4,
                elapsed_s: 0.02,
            },
            TelemetryEvent::RunEnd {
                rounds: 1,
                slots: 6,
                comm_total: s,
                sim_s: 0.4,
                elapsed_s: 0.02,
            },
        ]
    }

    /// Every kind decodes back to the event it was encoded from, and that
    /// event re-encodes to the same line: the null checkpoint comes back
    /// as `None`, the bits of `p` survive the f32 narrowing, and the comm
    /// arrays come back as the same `CommStats`.
    #[test]
    fn every_kind_round_trips() {
        let events = every_kind();
        let kinds: BTreeSet<&str> = events.iter().map(TelemetryEvent::kind).collect();
        assert_eq!(kinds.len(), 20);
        for e in &events {
            let line = e.to_json();
            let back =
                TelemetryEvent::from_json(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(&back, e, "{line}");
            assert_eq!(back.to_json(), line);
        }
        // The comm arrays are per link, in `Link::all` order.
        let end = events.last().unwrap().to_json();
        assert!(
            end.contains(
                r#""comm_total":{"up_floats":[40,0,15],"down_floats":[0,200,0],"up_msgs":[4,0,5],"down_msgs":[0,2,0],"rounds":[0,1,0]}"#
            ),
            "{end}"
        );
    }

    /// Non-finite numbers travel as `null`, decode to NaN and re-encode to
    /// the same line.
    #[test]
    fn null_numbers_decode_to_nan() {
        let line = r#"{"ev":"aggregator_summary","aggregator":"norm-clip","param":null}"#;
        let back = TelemetryEvent::from_json(line).unwrap();
        assert!(matches!(back, TelemetryEvent::AggregatorSummary { param, .. } if param.is_nan()));
        assert_eq!(back.to_json(), line);
    }

    /// Thirteen entries cover all four lanes and a one-entry remainder.
    #[test]
    fn model_digest_sees_one_ulp_at_every_index() {
        let w: Vec<f32> = (0..13).map(|i| 0.25 * i as f32 - 1.0).collect();
        let (base, nonfinite) = model_digest(&w);
        assert_eq!(nonfinite, 0);
        for i in 0..w.len() {
            let mut v = w.clone();
            v[i] = f32::from_bits(v[i].to_bits() + 1);
            assert_ne!(model_digest(&v).0, base, "one ULP at index {i}");
        }
        assert_ne!(model_digest(&w[..12]).0, base, "length is folded in");
    }

    #[test]
    fn model_digest_counts_every_non_finite_entry() {
        let w = [1.0, f32::NAN, 2.0, f32::INFINITY, f32::NEG_INFINITY, 0.0];
        assert_eq!(model_digest(&w).1, 3);
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(model_digest(&[0.5, x]).1, 1, "{x}");
        }
    }

    #[test]
    fn model_digest_tells_signed_zeros_apart() {
        assert_ne!(model_digest(&[0.0]).0, model_digest(&[-0.0]).0);
    }

    #[test]
    fn phase1_done_writes_the_digest_as_hex() {
        let e = TelemetryEvent::Phase1Done {
            round: 0,
            w_digest: 0xab,
            nonfinite: 0,
            elapsed_s: 0.0,
        };
        let v = parse(&e.to_json()).unwrap();
        assert_eq!(
            v.get("w_digest").unwrap().as_str(),
            Some("00000000000000ab")
        );
    }
}
