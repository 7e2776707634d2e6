//! Schema validation for telemetry streams.
//!
//! [`validate_line`] checks one JSONL line against the fixed event grammar
//! (DESIGN.md §10): known `"ev"` tag, every required field present with the
//! right type, no unknown fields. [`validate_stream`] additionally enforces
//! stream-level invariants — a `run_start` preamble, `round_end` indices
//! consecutive from 0, a closing `run_end` whose round count matches —
//! while tolerating unknown (future) event kinds as unsequenced lines;
//! [`validate_stream_strict`] rejects them. CI's telemetry smoke job runs
//! the strict form over every emitted stream.

use crate::json::{parse, Json};
use std::collections::BTreeMap;

/// Field type expected by the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// JSON string.
    Str,
    /// Non-negative integer.
    UInt,
    /// Any number, or `null` (non-finite floats serialize as `null`).
    Num,
    /// Array of non-negative integers.
    ArrUInt,
    /// Array of `[a, b]` pairs of non-negative integers.
    ArrPairUInt,
    /// A 64-bit digest: a string of 16 lowercase hex digits.
    Hex64,
    /// Array of numbers/nulls.
    ArrNum,
    /// Non-negative integer or `null` (checkpoint coordinates).
    NullableUInt,
    /// A `CommStats` object: five length-3 arrays of non-negative integers.
    Comm,
    /// A `profile_summary` phase list: array of per-phase aggregate
    /// objects (see `crate::profile::PhaseAgg`).
    Phases,
}

/// Required fields (besides `"ev"`) for each event kind.
fn fields_for(kind: &str) -> Option<&'static [(&'static str, Ty)]> {
    Some(match kind {
        "run_start" => &[
            ("algorithm", Ty::Str),
            ("rounds", Ty::UInt),
            ("n_edges", Ty::UInt),
            ("num_params", Ty::UInt),
            ("seed", Ty::UInt),
        ],
        "round_start" => &[("round", Ty::UInt)],
        "phase1" => &[
            ("round", Ty::UInt),
            ("edges", Ty::ArrUInt),
            ("c1", Ty::NullableUInt),
            ("c2", Ty::NullableUInt),
        ],
        "block_agg" => &[
            ("round", Ty::UInt),
            ("edge", Ty::UInt),
            ("t2", Ty::UInt),
            ("clients", Ty::ArrUInt),
        ],
        "phase1_done" => &[
            ("round", Ty::UInt),
            ("w_digest", Ty::Hex64),
            ("nonfinite", Ty::UInt),
            ("elapsed_s", Ty::Num),
        ],
        "dual_update" => &[
            ("round", Ty::UInt),
            ("edges", Ty::ArrUInt),
            ("losses", Ty::ArrNum),
            ("p", Ty::ArrNum),
            ("elapsed_s", Ty::Num),
        ],
        "eval" => &[
            ("round", Ty::UInt),
            ("average", Ty::Num),
            ("worst", Ty::Num),
            ("variance_pp", Ty::Num),
            ("per_edge_accuracy", Ty::ArrNum),
        ],
        "fault" => &[
            ("round", Ty::UInt),
            ("kind", Ty::Str),
            ("level", Ty::UInt),
            ("edge", Ty::UInt),
            ("attempts", Ty::UInt),
        ],
        "fault_summary" => &[
            ("round", Ty::UInt),
            ("crashes", Ty::UInt),
            ("outages", Ty::UInt),
            ("retries", Ty::UInt),
            ("gave_up", Ty::UInt),
            ("deadline_missed", Ty::UInt),
            ("backoff_s", Ty::Num),
            ("straggler_slots", Ty::Num),
        ],
        "checkpoint" => &[("round", Ty::UInt), ("seq", Ty::UInt)],
        "span" => &[
            ("phase", Ty::Str),
            ("round", Ty::NullableUInt),
            ("entity", Ty::NullableUInt),
            ("elapsed_s", Ty::Num),
        ],
        "profile_summary" => &[("phases", Ty::Phases)],
        "adversary" => &[
            ("round", Ty::UInt),
            ("corrupted", Ty::UInt),
            ("attack", Ty::Str),
        ],
        "quarantine" => &[
            ("round", Ty::UInt),
            ("client", Ty::UInt),
            ("until", Ty::UInt),
        ],
        "churn" => &[
            ("round", Ty::UInt),
            ("joined", Ty::ArrPairUInt),
            ("left", Ty::ArrUInt),
            ("failed_edges", Ty::ArrUInt),
            ("rehomed", Ty::UInt),
        ],
        "rehome" => &[
            ("round", Ty::UInt),
            ("client", Ty::UInt),
            ("from_edge", Ty::UInt),
            ("to_edge", Ty::UInt),
        ],
        "aggregator_summary" => &[("aggregator", Ty::Str), ("param", Ty::Num)],
        "run_resume" => &[
            ("algorithm", Ty::Str),
            ("rounds", Ty::UInt),
            ("next_round", Ty::UInt),
            ("seed", Ty::UInt),
            ("seq", Ty::UInt),
        ],
        "round_end" => &[
            ("round", Ty::UInt),
            ("slots", Ty::UInt),
            ("comm_delta", Ty::Comm),
            ("comm_total", Ty::Comm),
            ("sim_s", Ty::Num),
            ("elapsed_s", Ty::Num),
        ],
        "run_end" => &[
            ("rounds", Ty::UInt),
            ("slots", Ty::UInt),
            ("comm_total", Ty::Comm),
            ("sim_s", Ty::Num),
            ("elapsed_s", Ty::Num),
        ],
        _ => return None,
    })
}

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

fn err(msg: impl Into<String>) -> SchemaError {
    SchemaError {
        line: 0,
        msg: msg.into(),
    }
}

fn check_ty(value: &Json, ty: Ty, field: &str) -> Result<(), SchemaError> {
    let fail = |want: &str| {
        Err(err(format!(
            "field {field:?}: expected {want}, got {value:?}"
        )))
    };
    match ty {
        Ty::Str => match value {
            Json::Str(_) => Ok(()),
            _ => fail("a string"),
        },
        Ty::UInt => match value.as_u64() {
            Some(_) => Ok(()),
            None => fail("a non-negative integer"),
        },
        Ty::Num => match value {
            Json::Num(_) | Json::Null => Ok(()),
            _ => fail("a number or null"),
        },
        Ty::NullableUInt => match value {
            Json::Null => Ok(()),
            _ if value.as_u64().is_some() => Ok(()),
            _ => fail("a non-negative integer or null"),
        },
        Ty::ArrUInt => match value.as_arr() {
            Some(items) if items.iter().all(|x| x.as_u64().is_some()) => Ok(()),
            _ => fail("an array of non-negative integers"),
        },
        Ty::ArrPairUInt => match value.as_arr() {
            Some(items)
                if items.iter().all(|x| {
                    x.as_arr().is_some_and(|pair| {
                        pair.len() == 2 && pair.iter().all(|v| v.as_u64().is_some())
                    })
                }) =>
            {
                Ok(())
            }
            _ => fail("an array of [integer, integer] pairs"),
        },
        Ty::Hex64 => match value.as_str() {
            Some(s)
                if s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) =>
            {
                Ok(())
            }
            _ => fail("16 lowercase hex digits"),
        },
        Ty::ArrNum => match value.as_arr() {
            Some(items) if items.iter().all(|x| matches!(x, Json::Num(_) | Json::Null)) => Ok(()),
            _ => fail("an array of numbers"),
        },
        Ty::Comm => {
            let obj = match value {
                Json::Obj(_) => value,
                _ => return fail("a comm object"),
            };
            const KEYS: [&str; 5] = ["up_floats", "down_floats", "up_msgs", "down_msgs", "rounds"];
            for key in KEYS {
                let arr = obj
                    .get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err(format!("field {field:?}: comm key {key:?} missing")))?;
                if arr.len() != 3 || arr.iter().any(|x| x.as_u64().is_none()) {
                    return Err(err(format!(
                        "field {field:?}: comm key {key:?} must be 3 non-negative integers"
                    )));
                }
            }
            if let Json::Obj(fields) = obj {
                if fields.len() != KEYS.len() {
                    return Err(err(format!("field {field:?}: unknown comm keys")));
                }
            }
            Ok(())
        }
        Ty::Phases => {
            let items = match value.as_arr() {
                Some(items) => items,
                None => return fail("an array of phase aggregates"),
            };
            const KEYS: [(&str, Ty); 8] = [
                ("phase", Ty::Str),
                ("count", Ty::UInt),
                ("total_s", Ty::Num),
                ("min_s", Ty::Num),
                ("max_s", Ty::Num),
                ("p50_s", Ty::Num),
                ("p90_s", Ty::Num),
                ("p99_s", Ty::Num),
            ];
            for item in items {
                let fields = match item {
                    Json::Obj(fields) => fields,
                    _ => return fail("an array of phase aggregate objects"),
                };
                for (key, ty) in KEYS {
                    let v = item.get(key).ok_or_else(|| {
                        err(format!("field {field:?}: phase key {key:?} missing"))
                    })?;
                    check_ty(v, ty, key).map_err(|e| err(format!("field {field:?}: {}", e.msg)))?;
                }
                if fields.len() != KEYS.len() {
                    return Err(err(format!("field {field:?}: unknown phase keys")));
                }
            }
            Ok(())
        }
    }
}

/// Validate one JSONL line. Returns the event kind on success.
pub fn validate_line(line: &str) -> Result<String, SchemaError> {
    let v = parse(line).map_err(|e| err(format!("not valid JSON: {e}")))?;
    let fields = match &v {
        Json::Obj(fields) => fields,
        _ => return Err(err("not a JSON object")),
    };
    let kind = v
        .get("ev")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing string field \"ev\""))?
        .to_string();
    let spec = fields_for(&kind).ok_or_else(|| err(format!("unknown event kind {kind:?}")))?;
    for (name, ty) in spec {
        let value = v
            .get(name)
            .ok_or_else(|| err(format!("{kind}: missing field {name:?}")))?;
        check_ty(value, *ty, name).map_err(|e| err(format!("{kind}: {}", e.msg)))?;
    }
    // "ev" plus the spec'd fields — nothing else.
    if fields.len() != spec.len() + 1 {
        let known: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
        let extra: Vec<&String> = fields
            .iter()
            .map(|(k, _)| k)
            .filter(|k| k.as_str() != "ev" && !known.contains(&k.as_str()))
            .collect();
        return Err(err(format!("{kind}: unknown fields {extra:?}")));
    }
    Ok(kind)
}

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
/// Every non-empty line must pass [`validate_line`]; additionally each run
/// segment must open with `run_start` (or `run_resume`, see below), close
/// with `run_end`, and have `round_end` indices consecutive from the
/// segment's starting round with a matching final count.
///
/// Crash/resume support: a `run_resume` line either *opens* a segment (a
/// resumed run's own stream, validated standalone) or *continues* an open
/// one (a spliced stream: pre-crash prefix cut at its last `checkpoint`
/// event, then the resumed suffix). In both cases continuity is enforced —
/// `next_round` must equal the rounds completed so far and `seq` must
/// equal the running event count, so a forged splice that skips or
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
/// emitted unsequenced (as `run_resume`, `span`, and `profile_summary`
/// are), otherwise older validators would flag a seq gap at the next
/// checkpoint. Use [`validate_stream_strict`] to reject unknown kinds.
pub fn validate_stream(text: &str) -> Result<StreamSummary, SchemaError> {
    validate_stream_impl(text, false)
}

/// [`validate_stream`] in strict mode: every line must additionally pass
/// [`validate_line`] — unknown event kinds are rejected instead of being
/// skipped as unsequenced. Use this to pin a stream to exactly the event
/// grammar this build knows about (CI does, via
/// `validate-telemetry --strict`).
pub fn validate_stream_strict(text: &str) -> Result<StreamSummary, SchemaError> {
    validate_stream_impl(text, true)
}

/// Accept `raw` as a tolerated unknown-kind line: a well-formed JSON
/// object whose `"ev"` is a string *not* in the known-kind table. Known
/// kinds return `None` (their field errors must surface).
fn tolerated_unknown_kind(raw: &str) -> Option<String> {
    let v = parse(raw).ok()?;
    let kind = v.get("ev")?.as_str()?.to_string();
    if fields_for(&kind).is_none() {
        Some(kind)
    } else {
        None
    }
}

fn validate_stream_impl(text: &str, strict: bool) -> Result<StreamSummary, SchemaError> {
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
        let (kind, known) = match validate_line(raw) {
            Ok(kind) => (kind, true),
            Err(e) if !strict => match tolerated_unknown_kind(raw) {
                Some(kind) => (kind, false),
                None => return Err(at(line_no, e.msg)),
            },
            Err(e) => return Err(at(line_no, e.msg)),
        };
        summary.lines += 1;
        *summary.events_by_kind.entry(kind.clone()).or_insert(0) += 1;
        if !known {
            // Forward-compat: unknown kinds are unsequenced observers.
            continue;
        }

        match kind.as_str() {
            "run_start" => {
                if in_run {
                    return Err(at(line_no, "run_start inside an open run".into()));
                }
                in_run = true;
                rounds_seen = 0;
                seq_count = 1; // run_start counts itself
            }
            "run_resume" => {
                let v = parse(raw).expect("validated above");
                let next_round = v
                    .get("next_round")
                    .and_then(Json::as_u64)
                    .expect("validated") as usize;
                let seq = v.get("seq").and_then(Json::as_u64).expect("validated");
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
                // Unsequenced either way: seq_count unchanged.
            }
            "checkpoint" => {
                if !in_run {
                    return Err(at(line_no, "checkpoint outside a run".into()));
                }
                seq_count += 1;
                let v = parse(raw).expect("validated above");
                let round = v.get("round").and_then(Json::as_u64).expect("validated") as usize;
                let seq = v.get("seq").and_then(Json::as_u64).expect("validated");
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
            "run_end" => {
                if !in_run {
                    return Err(at(line_no, "run_end without run_start".into()));
                }
                seq_count += 1;
                let v = parse(raw).expect("validated above");
                let declared = v.get("rounds").and_then(Json::as_u64).expect("validated") as usize;
                if declared != rounds_seen {
                    return Err(at(
                        line_no,
                        format!("run_end declares {declared} rounds but {rounds_seen} round_end events were seen"),
                    ));
                }
                in_run = false;
                summary.runs += 1;
            }
            "round_end" => {
                if !in_run {
                    return Err(at(line_no, "round_end outside a run".into()));
                }
                seq_count += 1;
                let v = parse(raw).expect("validated above");
                let round = v.get("round").and_then(Json::as_u64).expect("validated") as usize;
                if round != rounds_seen {
                    return Err(at(
                        line_no,
                        format!("round_end index {round}, expected {rounds_seen}"),
                    ));
                }
                rounds_seen += 1;
            }
            "span" | "profile_summary" | "adversary" | "quarantine" | "aggregator_summary"
            | "churn" | "rehome" => {
                if !in_run {
                    return Err(at(line_no, format!("{kind} outside a run")));
                }
                // Unsequenced, like run_resume: seq_count unchanged.
            }
            _ => {
                if !in_run {
                    return Err(at(line_no, format!("{kind} outside a run")));
                }
                seq_count += 1;
            }
        }
    }
    if in_run {
        return Err(err("stream ends inside an open run (no run_end)"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;
    use hm_simnet::CommMeter;

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
            validate_line(line).unwrap();
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
        let e = validate_line(r#"{"ev":"mystery","round":0}"#).unwrap_err();
        assert!(e.msg.contains("unknown event kind"));
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
        let e = validate_line(missing).unwrap_err();
        assert!(e.msg.contains("phase key"), "{}", e.msg);
        let extra = r#"{"ev":"profile_summary","phases":[{"phase":"round","count":1,"total_s":1,"min_s":1,"max_s":1,"p50_s":1,"p90_s":1,"p99_s":1,"zz":0}]}"#;
        let e = validate_line(extra).unwrap_err();
        assert!(e.msg.contains("unknown phase keys"), "{}", e.msg);
        let not_obj = r#"{"ev":"profile_summary","phases":[3]}"#;
        assert!(validate_line(not_obj).is_err());
    }

    #[test]
    fn rejects_missing_field() {
        let e = validate_line(r#"{"ev":"round_start"}"#).unwrap_err();
        assert!(e.msg.contains("missing field"));
    }

    #[test]
    fn rejects_wrong_type() {
        let e = validate_line(r#"{"ev":"round_start","round":"zero"}"#).unwrap_err();
        assert!(e.msg.contains("expected a non-negative integer"));
    }

    #[test]
    fn rejects_malformed_digest_and_pairs() {
        let done = |digest: &str| {
            format!(
                r#"{{"ev":"phase1_done","round":0,"w_digest":{digest},"nonfinite":0,"elapsed_s":0}}"#
            )
        };
        validate_line(&done(r#""00000000000000ab""#)).unwrap();
        for bad in [r#""ab""#, r#""00000000000000AB""#, "171"] {
            let e = validate_line(&done(bad)).unwrap_err();
            assert!(e.msg.contains("16 lowercase hex digits"), "{bad}: {e}");
        }
        let churn = |joined: &str| {
            format!(
                r#"{{"ev":"churn","round":0,"joined":{joined},"left":[],"failed_edges":[],"rehomed":0}}"#
            )
        };
        validate_line(&churn("[[6,0],[7,1]]")).unwrap();
        for bad in ["[6,0]", "[[6]]", "[[6,0,1]]", r#"[["6",0]]"#] {
            let e = validate_line(&churn(bad)).unwrap_err();
            assert!(e.msg.contains("pairs"), "{bad}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_field() {
        let e = validate_line(r#"{"ev":"round_start","round":0,"extra":1}"#).unwrap_err();
        assert!(e.msg.contains("unknown fields"));
    }

    #[test]
    fn rejects_negative_round() {
        let e = validate_line(r#"{"ev":"round_start","round":-1}"#).unwrap_err();
        assert!(e.msg.contains("non-negative"));
    }

    #[test]
    fn rejects_malformed_comm_object() {
        let line = r#"{"ev":"run_end","rounds":0,"slots":0,"comm_total":{"up_floats":[0,0]},"sim_s":0,"elapsed_s":0}"#;
        let e = validate_line(line).unwrap_err();
        assert!(e.msg.contains("comm key"), "{}", e.msg);
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
