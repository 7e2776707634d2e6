//! Schema validation for telemetry streams.
//!
//! A line is valid when it decodes: [`TelemetryEvent::from_json`] holds the
//! one statement of the event grammar (DESIGN.md §10). [`validate_stream`]
//! checks the stream grammar on the decoded events — run segments opened
//! by `run_start` and closed by `run_end`, `round_end` indices consecutive
//! from the segment's first round, and `seq` continuity across
//! `checkpoint` events and resume splices — while tolerating unknown
//! (future) event kinds as unsequenced lines; [`validate_stream_strict`]
//! rejects them. CI validates its own streams in the strict form.

use crate::event::{DecodeError, TelemetryEvent};
use std::collections::BTreeMap;

/// Why a line or stream failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number (0 for single-line validation).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for SchemaError {}

/// Summary of a validated stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Non-empty lines validated.
    pub lines: usize,
    /// Complete `run_start` … `run_end` segments.
    pub runs: usize,
    /// Event counts by kind tag.
    pub events_by_kind: BTreeMap<String, usize>,
}

/// Validate a whole JSONL stream (possibly several concatenated runs).
///
/// Every non-empty line must decode ([`TelemetryEvent::from_json`]);
/// additionally each run segment must open with `run_start` (or
/// `run_resume`, see below), close with `run_end`, and have `round_end`
/// indices consecutive from the segment's starting round with a matching
/// final count.
///
/// Crash/resume support: a `run_resume` line either *opens* a segment (a
/// resumed run's own stream, validated standalone) or *continues* an open
/// one (a spliced stream: pre-crash prefix cut at its last `checkpoint`
/// event, then the resumed suffix). In both cases continuity is enforced —
/// `next_round` must equal the rounds completed so far and `seq` must
/// equal the running count of sequenced events
/// ([`TelemetryEvent::is_sequenced`]), so a forged splice that skips or
/// repeats a round is rejected. `checkpoint` events themselves must carry
/// a `seq` matching the running count and cover the round that just
/// ended.
///
/// Version tolerance: an *unknown* event kind is accepted as long as the
/// line is a well-formed JSON object with a string `"ev"` tag. Unknown
/// kinds are counted in the summary but treated as **unsequenced** — they
/// do not advance the running event count, so sequence continuity checks
/// still hold across them. This makes new event kinds a non-breaking
/// schema change, with one emitter-side obligation: new kinds must be
/// unsequenced (as `run_resume`, `span`, and `profile_summary` are),
/// otherwise older validators would flag a seq gap at the next
/// checkpoint. Use [`validate_stream_strict`] to reject unknown kinds.
pub fn validate_stream(text: &str) -> Result<StreamSummary, SchemaError> {
    validate(text, false, |_| {})
}

/// [`validate_stream`] in strict mode: unknown event kinds are rejected
/// instead of being skipped as unsequenced. Use this to pin a stream to
/// exactly the event grammar this build knows about (CI does, via
/// `validate-telemetry --strict`).
pub fn validate_stream_strict(text: &str) -> Result<StreamSummary, SchemaError> {
    validate(text, true, |_| {})
}

/// [`validate_stream`], handing each decoded event to `visit` in stream
/// order, so a reader decodes the stream once; lines of unknown kinds have
/// no event. If the stream turns out invalid, the events already visited
/// are a prefix of it.
pub fn validate_stream_with(
    text: &str,
    visit: impl FnMut(TelemetryEvent),
) -> Result<StreamSummary, SchemaError> {
    validate(text, false, visit)
}

fn validate(
    text: &str,
    strict: bool,
    mut visit: impl FnMut(TelemetryEvent),
) -> Result<StreamSummary, SchemaError> {
    let mut summary = StreamSummary::default();
    let mut in_run = false;
    let mut rounds_seen = 0usize;
    // Sequenced events in the logical run so far (a resumed segment
    // inherits the count from its run_resume preamble, which — like the
    // emitter — does not count itself).
    let mut seq_count = 0u64;
    let at = |line_no: usize, msg: String| SchemaError { line: line_no, msg };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let event = match TelemetryEvent::from_json(raw) {
            Ok(event) => event,
            Err(DecodeError::UnknownKind(kind)) if !strict => {
                // Forward-compat: unknown kinds are unsequenced observers.
                summary.lines += 1;
                *summary.events_by_kind.entry(kind).or_insert(0) += 1;
                continue;
            }
            Err(e) => return Err(at(line_no, e.to_string())),
        };
        let kind = event.kind();
        summary.lines += 1;
        *summary.events_by_kind.entry(kind.to_string()).or_insert(0) += 1;

        match event {
            TelemetryEvent::RunStart { .. } => {
                if in_run {
                    return Err(at(line_no, "run_start inside an open run".into()));
                }
                in_run = true;
                rounds_seen = 0;
                seq_count = 0;
            }
            TelemetryEvent::RunResume {
                next_round, seq, ..
            } => {
                if in_run {
                    // Splice point: the prefix must end exactly at the
                    // checkpoint this resume was loaded from.
                    if next_round != rounds_seen {
                        return Err(at(
                            line_no,
                            format!(
                                "run_resume next_round {next_round} but {rounds_seen} rounds completed before the splice"
                            ),
                        ));
                    }
                    if seq != seq_count {
                        return Err(at(
                            line_no,
                            format!(
                                "run_resume seq {seq} but {seq_count} events precede the splice"
                            ),
                        ));
                    }
                } else {
                    if next_round == 0 {
                        return Err(at(line_no, "run_resume with next_round 0".into()));
                    }
                    in_run = true;
                    rounds_seen = next_round;
                    seq_count = seq;
                }
            }
            TelemetryEvent::RunEnd { .. } if !in_run => {
                return Err(at(line_no, "run_end without run_start".into()));
            }
            _ if !in_run => return Err(at(line_no, format!("{kind} outside a run"))),
            _ => {}
        }
        if event.is_sequenced() {
            seq_count += 1;
        }
        match event {
            TelemetryEvent::Checkpoint { round, seq } => {
                if rounds_seen == 0 || round != rounds_seen - 1 {
                    return Err(at(
                        line_no,
                        format!(
                            "checkpoint covers round {round} but {rounds_seen} rounds completed"
                        ),
                    ));
                }
                if seq != seq_count {
                    return Err(at(
                        line_no,
                        format!("checkpoint seq {seq}, expected {seq_count}"),
                    ));
                }
            }
            TelemetryEvent::RoundEnd { round, .. } => {
                if round != rounds_seen {
                    return Err(at(
                        line_no,
                        format!("round_end index {round}, expected {rounds_seen}"),
                    ));
                }
                rounds_seen += 1;
            }
            TelemetryEvent::RunEnd { rounds, .. } => {
                if rounds != rounds_seen {
                    return Err(at(
                        line_no,
                        format!("run_end declares {rounds} rounds but {rounds_seen} round_end events were seen"),
                    ));
                }
                in_run = false;
                summary.runs += 1;
            }
            _ => {}
        }
        visit(event);
    }
    if in_run {
        return Err(SchemaError {
            line: 0,
            msg: "stream ends inside an open run (no run_end)".into(),
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use hm_simnet::CommMeter;

    /// The decoder's verdict on one line, with its message on failure.
    fn decode(line: &str) -> Result<TelemetryEvent, String> {
        TelemetryEvent::from_json(line).map_err(|e| e.to_string())
    }

    fn stats() -> hm_simnet::CommStats {
        CommMeter::new().snapshot()
    }

    fn tiny_stream() -> String {
        let events = [
            TelemetryEvent::RunStart {
                algorithm: "HierMinimax".into(),
                rounds: 2,
                n_edges: 3,
                num_params: 10,
                seed: 1,
            },
            TelemetryEvent::RoundStart { round: 0 },
            TelemetryEvent::Phase1Sampled {
                round: 0,
                edges: vec![0, 2],
                checkpoint: Some((0, 1)),
            },
            TelemetryEvent::BlockAggregated {
                round: 0,
                edge: 0,
                t2: 0,
                clients: vec![0, 1],
            },
            TelemetryEvent::Phase1Done {
                round: 0,
                w_digest: 7,
                nonfinite: 0,
                elapsed_s: 0.1,
            },
            TelemetryEvent::DualUpdate {
                round: 0,
                edges: vec![1],
                losses: vec![0.5],
                p: vec![0.4, 0.3, 0.3],
                elapsed_s: 0.01,
            },
            TelemetryEvent::Eval {
                round: 0,
                average: 0.8,
                worst: 0.7,
                variance_pp: 2.0,
                per_edge_accuracy: vec![0.7, 0.85, 0.85],
            },
            TelemetryEvent::Fault {
                round: 0,
                kind: "msg_gave_up".into(),
                level: 0,
                edge: 1,
                attempts: 3,
            },
            TelemetryEvent::FaultSummary {
                round: 0,
                crashes: 1,
                outages: 0,
                retries: 2,
                gave_up: 1,
                deadline_missed: 0,
                backoff_s: 0.15,
                straggler_slots: 0.0,
            },
            TelemetryEvent::RoundEnd {
                round: 0,
                slots: 4,
                comm_delta: stats(),
                comm_total: stats(),
                sim_s: 0.2,
                elapsed_s: 0.11,
            },
            TelemetryEvent::RoundStart { round: 1 },
            TelemetryEvent::RoundEnd {
                round: 1,
                slots: 8,
                comm_delta: stats(),
                comm_total: stats(),
                sim_s: 0.4,
                elapsed_s: 0.1,
            },
            TelemetryEvent::RunEnd {
                rounds: 2,
                slots: 8,
                comm_total: stats(),
                sim_s: 0.4,
                elapsed_s: 0.25,
            },
        ];
        events
            .iter()
            .map(|e| e.to_json())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn every_emitted_event_validates() {
        for line in tiny_stream().lines() {
            decode(line).unwrap();
        }
    }

    #[test]
    fn stream_of_a_well_formed_run_validates() {
        let summary = validate_stream(&tiny_stream()).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.lines, 13);
        assert_eq!(summary.events_by_kind["round_end"], 2);
        assert_eq!(summary.events_by_kind["dual_update"], 1);
        assert_eq!(summary.events_by_kind["fault"], 1);
        assert_eq!(summary.events_by_kind["fault_summary"], 1);
    }

    #[test]
    fn concatenated_runs_validate() {
        let two = format!("{}\n{}", tiny_stream(), tiny_stream());
        let summary = validate_stream(&two).unwrap();
        assert_eq!(summary.runs, 2);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let spaced = tiny_stream().replace('\n', "\n\n");
        let summary = validate_stream(&spaced).unwrap();
        assert_eq!(summary.lines, 13);
    }

    #[test]
    fn rejects_unknown_kind() {
        let e = decode(r#"{"ev":"mystery","round":0}"#).unwrap_err();
        assert!(e.contains("unknown event kind"));
    }

    #[test]
    fn stream_tolerates_unknown_kinds_by_default() {
        let mut lines: Vec<String> = tiny_stream().lines().map(String::from).collect();
        lines.insert(3, r#"{"ev":"gpu_util","round":0,"pct":93.5}"#.into());
        let text = lines.join("\n");
        let summary = validate_stream(&text).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.events_by_kind["gpu_util"], 1);
        assert_eq!(summary.lines, 14);
    }

    #[test]
    fn strict_stream_rejects_unknown_kinds() {
        let mut lines: Vec<String> = tiny_stream().lines().map(String::from).collect();
        lines.insert(3, r#"{"ev":"gpu_util","round":0,"pct":93.5}"#.into());
        let e = validate_stream_strict(&lines.join("\n")).unwrap_err();
        assert!(e.msg.contains("unknown event kind"), "{}", e.msg);
        assert_eq!(e.line, 4);
    }

    #[test]
    fn tolerant_stream_still_rejects_malformed_lines() {
        // Bad JSON is never tolerated.
        let e = validate_stream("{\"ev\":\"future").unwrap_err();
        assert!(e.msg.contains("not valid JSON"), "{}", e.msg);
        // Nor is a missing/non-string "ev" tag.
        let e = validate_stream(r#"{"round":0}"#).unwrap_err();
        assert!(e.msg.contains("\"ev\""), "{}", e.msg);
        // Nor a *known* kind with a field error — tolerance is only for
        // kinds this build has never heard of.
        let stream = tiny_stream().replace(
            "\"ev\":\"round_start\",\"round\":0",
            "\"ev\":\"round_start\",\"round\":\"zero\"",
        );
        let e = validate_stream(&stream).unwrap_err();
        assert!(e.msg.contains("non-negative integer"), "{}", e.msg);
    }

    #[test]
    fn unknown_kinds_do_not_break_seq_continuity() {
        // Insert an unknown event *before* the checkpoint: the checkpoint's
        // seq must still match, i.e. the unknown line counted as
        // unsequenced.
        let mut lines: Vec<String> = checkpointed_stream().lines().map(String::from).collect();
        lines.insert(9, r#"{"ev":"gpu_util","pct":50}"#.into());
        let summary = validate_stream(&lines.join("\n")).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.events_by_kind["checkpoint"], 1);
    }

    #[test]
    fn span_and_profile_summary_are_unsequenced() {
        // Same continuity argument for the known unsequenced kinds: spans
        // before a checkpoint must not perturb its expected seq.
        let span = TelemetryEvent::Span {
            phase: "round".into(),
            round: Some(0),
            entity: None,
            elapsed_s: 0.125,
        };
        let summary = TelemetryEvent::ProfileSummary {
            phases: vec![crate::profile::PhaseAgg {
                phase: "round".into(),
                count: 1,
                total_s: 0.125,
                min_s: 0.125,
                max_s: 0.125,
                p50_s: 0.125,
                p90_s: 0.125,
                p99_s: 0.125,
            }],
        };
        let mut lines: Vec<String> = checkpointed_stream().lines().map(String::from).collect();
        lines.insert(9, span.to_json());
        let end = lines.len() - 1;
        lines.insert(end, summary.to_json());
        let text = lines.join("\n");
        for validate in [validate_stream, validate_stream_strict] {
            let s = validate(&text).unwrap();
            assert_eq!(s.runs, 1);
            assert_eq!(s.events_by_kind["span"], 1);
            assert_eq!(s.events_by_kind["profile_summary"], 1);
        }
    }

    #[test]
    fn adversary_kinds_are_unsequenced() {
        // The Byzantine events must not perturb checkpoint seq values —
        // same continuity argument as spans, in both validators.
        let adversary = TelemetryEvent::Adversary {
            round: 0,
            corrupted: 3,
            attack: "sign-flip".into(),
        };
        let quarantine = TelemetryEvent::Quarantine {
            round: 0,
            client: 2,
            until: 5,
        };
        let agg = TelemetryEvent::AggregatorSummary {
            aggregator: "trimmed-mean".into(),
            param: 0.2,
        };
        let mut lines: Vec<String> = checkpointed_stream().lines().map(String::from).collect();
        lines.insert(9, adversary.to_json());
        lines.insert(10, quarantine.to_json());
        lines.insert(1, agg.to_json());
        let text = lines.join("\n");
        for validate in [validate_stream, validate_stream_strict] {
            let s = validate(&text).unwrap();
            assert_eq!(s.runs, 1);
            assert_eq!(s.events_by_kind["adversary"], 1);
            assert_eq!(s.events_by_kind["quarantine"], 1);
            assert_eq!(s.events_by_kind["aggregator_summary"], 1);
        }
    }

    #[test]
    fn churn_kinds_are_unsequenced() {
        // Churn/rehome must not perturb checkpoint seq values — the same
        // continuity argument as spans and adversary events, so churn-off
        // streams keep their historical sequence numbers.
        let churn = TelemetryEvent::Churn {
            round: 0,
            joined: vec![(6, 0)],
            left: vec![],
            failed_edges: vec![1],
            rehomed: 2,
        };
        let rehome = TelemetryEvent::Rehome {
            round: 0,
            client: 4,
            from_edge: 1,
            to_edge: 0,
        };
        let mut lines: Vec<String> = checkpointed_stream().lines().map(String::from).collect();
        lines.insert(9, churn.to_json());
        lines.insert(10, rehome.to_json());
        let text = lines.join("\n");
        for validate in [validate_stream, validate_stream_strict] {
            let s = validate(&text).unwrap();
            assert_eq!(s.runs, 1);
            assert_eq!(s.events_by_kind["churn"], 1);
            assert_eq!(s.events_by_kind["rehome"], 1);
        }
    }

    #[test]
    fn span_outside_a_run_is_rejected() {
        let line = TelemetryEvent::Span {
            phase: "round".into(),
            round: None,
            entity: None,
            elapsed_s: 0.0,
        }
        .to_json();
        let e = validate_stream(&line).unwrap_err();
        assert!(e.msg.contains("outside a run"), "{}", e.msg);
    }

    #[test]
    fn rejects_malformed_phase_aggregates() {
        let missing = r#"{"ev":"profile_summary","phases":[{"phase":"round"}]}"#;
        let e = decode(missing).unwrap_err();
        assert!(e.contains("phase key"), "{e}");
        let extra = r#"{"ev":"profile_summary","phases":[{"phase":"round","count":1,"total_s":1,"min_s":1,"max_s":1,"p50_s":1,"p90_s":1,"p99_s":1,"zz":0}]}"#;
        let e = decode(extra).unwrap_err();
        assert!(e.contains("unknown phase keys"), "{e}");
        let not_obj = r#"{"ev":"profile_summary","phases":[3]}"#;
        assert!(decode(not_obj).is_err());
    }

    #[test]
    fn rejects_missing_field() {
        let e = decode(r#"{"ev":"round_start"}"#).unwrap_err();
        assert!(e.contains("missing field"));
    }

    #[test]
    fn rejects_wrong_type() {
        let e = decode(r#"{"ev":"round_start","round":"zero"}"#).unwrap_err();
        assert!(e.contains("expected a non-negative integer"));
    }

    #[test]
    fn rejects_malformed_digest_and_pairs() {
        let done = |digest: &str| {
            format!(
                r#"{{"ev":"phase1_done","round":0,"w_digest":{digest},"nonfinite":0,"elapsed_s":0}}"#
            )
        };
        decode(&done(r#""00000000000000ab""#)).unwrap();
        for bad in [r#""ab""#, r#""00000000000000AB""#, "171"] {
            let e = decode(&done(bad)).unwrap_err();
            assert!(e.contains("16 lowercase hex digits"), "{bad}: {e}");
        }
        let churn = |joined: &str| {
            format!(
                r#"{{"ev":"churn","round":0,"joined":{joined},"left":[],"failed_edges":[],"rehomed":0}}"#
            )
        };
        decode(&churn("[[6,0],[7,1]]")).unwrap();
        for bad in ["[6,0]", "[[6]]", "[[6,0,1]]", r#"[["6",0]]"#] {
            let e = decode(&churn(bad)).unwrap_err();
            assert!(e.contains("pairs"), "{bad}: {e}");
        }
    }

    #[test]
    fn rejects_a_mixed_checkpoint_pair() {
        let phase1 = |c1: &str, c2: &str| {
            format!(r#"{{"ev":"phase1","round":0,"edges":[1],"c1":{c1},"c2":{c2}}}"#)
        };
        decode(&phase1("1", "0")).unwrap();
        decode(&phase1("null", "null")).unwrap();
        for (c1, c2) in [("null", "0"), ("1", "null")] {
            let e = decode(&phase1(c1, c2)).unwrap_err();
            assert!(e.contains("both null or both integers"), "{e}");
        }
    }

    #[test]
    fn rejects_unknown_field() {
        let e = decode(r#"{"ev":"round_start","round":0,"extra":1}"#).unwrap_err();
        assert!(e.contains("unknown fields"));
    }

    #[test]
    fn rejects_negative_round() {
        let e = decode(r#"{"ev":"round_start","round":-1}"#).unwrap_err();
        assert!(e.contains("non-negative"));
    }

    #[test]
    fn rejects_malformed_comm_object() {
        let line = r#"{"ev":"run_end","rounds":0,"slots":0,"comm_total":{"up_floats":[0,0]},"sim_s":0,"elapsed_s":0}"#;
        let e = decode(line).unwrap_err();
        assert!(e.contains("comm key"), "{e}");
    }

    #[test]
    fn stream_rejects_out_of_order_rounds() {
        let stream = tiny_stream().replace(
            "\"ev\":\"round_end\",\"round\":1",
            "\"ev\":\"round_end\",\"round\":5",
        );
        let e = validate_stream(&stream).unwrap_err();
        assert!(e.msg.contains("expected 1"), "{}", e.msg);
        assert!(e.line > 0);
    }

    #[test]
    fn stream_rejects_round_count_mismatch() {
        let stream = tiny_stream().replace(
            "\"ev\":\"run_end\",\"rounds\":2",
            "\"ev\":\"run_end\",\"rounds\":3",
        );
        let e = validate_stream(&stream).unwrap_err();
        assert!(e.msg.contains("declares 3 rounds"), "{}", e.msg);
    }

    /// `tiny_stream` with a `checkpoint` inserted after round 0's
    /// `round_end` (which is the stream's 10th event, so the checkpoint is
    /// the 11th).
    fn checkpointed_stream() -> String {
        let mut lines: Vec<String> = tiny_stream().lines().map(String::from).collect();
        let ckpt = TelemetryEvent::Checkpoint { round: 0, seq: 11 };
        lines.insert(10, ckpt.to_json());
        lines.join("\n")
    }

    /// The suffix a run resumed from that checkpoint emits: an unsequenced
    /// `run_resume`, then round 1 and the closing `run_end`.
    fn resumed_suffix() -> String {
        let mut lines = vec![TelemetryEvent::RunResume {
            algorithm: "HierMinimax".into(),
            rounds: 2,
            next_round: 1,
            seed: 1,
            seq: 11,
        }
        .to_json()];
        // Rounds 1.. of tiny_stream (events 11..13).
        lines.extend(tiny_stream().lines().skip(10).map(String::from));
        lines.join("\n")
    }

    #[test]
    fn stream_with_checkpoints_validates() {
        let summary = validate_stream(&checkpointed_stream()).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.events_by_kind["checkpoint"], 1);
    }

    #[test]
    fn stream_rejects_checkpoint_with_wrong_seq() {
        let stream = checkpointed_stream().replace("\"seq\":11", "\"seq\":12");
        let e = validate_stream(&stream).unwrap_err();
        assert!(
            e.msg.contains("checkpoint seq 12, expected 11"),
            "{}",
            e.msg
        );
    }

    #[test]
    fn stream_rejects_checkpoint_for_wrong_round() {
        let stream = checkpointed_stream().replace(
            "{\"ev\":\"checkpoint\",\"round\":0",
            "{\"ev\":\"checkpoint\",\"round\":1",
        );
        let e = validate_stream(&stream).unwrap_err();
        assert!(e.msg.contains("checkpoint covers round 1"), "{}", e.msg);
    }

    #[test]
    fn resumed_stream_validates_standalone() {
        let summary = validate_stream(&resumed_suffix()).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.events_by_kind["run_resume"], 1);
    }

    #[test]
    fn spliced_stream_validates() {
        // Prefix cut right after the checkpoint + resumed suffix.
        let prefix = checkpointed_stream()
            .lines()
            .take(11)
            .collect::<Vec<_>>()
            .join("\n");
        let spliced = format!("{prefix}\n{}", resumed_suffix());
        let summary = validate_stream(&spliced).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.events_by_kind["round_end"], 2);
    }

    #[test]
    fn forged_splice_round_skip_is_rejected() {
        let prefix = checkpointed_stream()
            .lines()
            .take(11)
            .collect::<Vec<_>>()
            .join("\n");
        let forged = resumed_suffix().replace("\"next_round\":1", "\"next_round\":2");
        let e = validate_stream(&format!("{prefix}\n{forged}")).unwrap_err();
        assert!(e.msg.contains("run_resume next_round 2"), "{}", e.msg);
    }

    #[test]
    fn forged_splice_seq_gap_is_rejected() {
        let prefix = checkpointed_stream()
            .lines()
            .take(11)
            .collect::<Vec<_>>()
            .join("\n");
        let forged = resumed_suffix().replace("\"seq\":11", "\"seq\":13");
        let e = validate_stream(&format!("{prefix}\n{forged}")).unwrap_err();
        assert!(e.msg.contains("run_resume seq 13"), "{}", e.msg);
    }

    #[test]
    fn standalone_resume_from_round_zero_is_rejected() {
        let bogus = resumed_suffix().replace("\"next_round\":1", "\"next_round\":0");
        // next_round 0 makes no sense standalone (nothing was completed)
        // and mismatches the suffix rounds anyway.
        let e = validate_stream(&bogus).unwrap_err();
        assert!(e.msg.contains("next_round 0"), "{}", e.msg);
    }

    #[test]
    fn stream_rejects_events_outside_a_run() {
        let e = validate_stream(r#"{"ev":"round_start","round":0}"#).unwrap_err();
        assert!(e.msg.contains("outside a run"));
    }

    #[test]
    fn stream_rejects_unclosed_run() {
        let open = tiny_stream();
        let open = open.rsplit_once('\n').unwrap().0;
        let e = validate_stream(open).unwrap_err();
        assert!(e.msg.contains("no run_end"));
    }
}
