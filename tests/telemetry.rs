//! Telemetry-layer invariants, cross-checked against the run's history
//! and the `hm-testkit` conformance automaton, which replays the stream
//! against Algorithm 1:
//!
//! - per-round `comm_delta` in the telemetry stream equals the history's
//!   per-round meter delta, and the deltas telescope to the final meter
//!   totals;
//! - the JSONL file a HierMinimax run writes passes the schema validator
//!   and its `dual_update` lines reproduce the `p^(k)` trajectory from
//!   history;
//! - enabling telemetry cannot perturb a run (bit-identical iterates);
//! - every algorithm emits a well-formed `run_start` … `run_end` stream
//!   with one `round_end` per training round;
//! - every line the eight algorithms write decodes back to an event that
//!   re-encodes to the same line, and a decoded JSONL file is the run's
//!   in-memory stream and replays through the conformance automaton.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use hierminimax::checkpoint::{read_snapshot, snapshot_path};
use hierminimax::core::algorithms::{Algorithm, Hyper, Method, MethodRun, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::CheckpointOpts;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{AttackModel, ChurnPlan, CommStats, FaultPlan, Parallelism, Quantizer};
use hierminimax::telemetry::{validate_stream, MemorySink, Profiler, Telemetry, TelemetryEvent};
use hierminimax::tensor::Aggregator;
use hm_testkit::{check_stream, scrub, Protocol};

fn opts_with(telemetry: Telemetry) -> RunOpts {
    RunOpts {
        eval_every: 1,
        parallelism: Parallelism::Sequential,
        telemetry,
        ..Default::default()
    }
}

/// `method`'s hyper-parameters: `rounds` rounds on two edges, four
/// clients or two groups of two edges, uploading through `quantizer` where
/// the method has a codec.
fn hyper(method: Method, rounds: usize, quantizer: Quantizer) -> Hyper {
    let (m, eta_p) = match method {
        Method::HierMinimax | Method::HierFavg => (2, 0.05),
        Method::MultiLevel => (2, 0.01),
        _ => (4, 0.1),
    };
    Hyper {
        rounds,
        m,
        eta_w: 0.1,
        eta_p,
        loss_batch: 4,
        quantizer,
        ..Hyper::default()
    }
}

/// HierMinimax's exact-upload run of `rounds` rounds.
fn hm_hyper(rounds: usize) -> Hyper {
    hyper(Method::HierMinimax, rounds, Quantizer::Exact)
}

/// Builds an algorithm from its run options.
type Factory = Box<dyn Fn(RunOpts) -> MethodRun>;

/// The eight algorithms under the names their streams carry, each running
/// `rounds` rounds; HierMinimax and HierFAVG upload through `quantizer`.
fn algorithms(rounds: usize, quantizer: Quantizer) -> Vec<(&'static str, Factory)> {
    Method::ALL
        .into_iter()
        .map(|m| {
            let h = hyper(m, rounds, quantizer);
            (m.name(), Box::new(move |opts| m.build(&h, opts)) as Factory)
        })
        .collect()
}

fn round_ends(events: &[TelemetryEvent]) -> Vec<&TelemetryEvent> {
    events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::RoundEnd { .. }))
        .collect()
}

/// The telemetry stream replays through the conformance automaton (whose
/// closed form checks every `comm_delta`), and each round's `comm_delta`
/// also equals the per-round delta of the history's meter snapshots.
#[test]
fn round_comm_deltas_match_trace_and_conformance_automaton() {
    let sc = tiny_problem(3, 2, 21);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let sink = Arc::new(MemorySink::new());
    let (h, opts) = (hm_hyper(5), opts_with(Telemetry::with_sink(sink.clone())));
    let seed = 77;
    let r = Method::HierMinimax.build(&h, opts.clone()).run(&fp, seed);

    let events = sink.events();
    let pr = Protocol::new(Method::HierMinimax, &h, &opts);
    let report =
        check_stream(&fp, pr, seed, &events).unwrap_or_else(|e| panic!("conformance: {e}"));
    assert_eq!(report.rounds, h.rounds);

    let ends = round_ends(&events);
    assert_eq!(ends.len(), report.rounds);

    let mut prev = CommStats::default();
    let history_deltas: Vec<CommStats> = r
        .history
        .rounds
        .iter()
        .map(|rec| {
            let delta = rec.comm.since(&prev);
            prev = rec.comm;
            delta
        })
        .collect();
    assert_eq!(history_deltas.len(), ends.len());

    let mut last_sim = 0.0_f64;
    for (k, (end, history_delta)) in ends.iter().zip(&history_deltas).enumerate() {
        let TelemetryEvent::RoundEnd {
            round,
            comm_delta,
            comm_total,
            sim_s,
            ..
        } = end
        else {
            unreachable!()
        };
        assert_eq!(*round, k);
        assert_eq!(comm_delta, history_delta, "round {k} delta");
        // Cumulative totals never decrease, so simulated time is monotone.
        assert!(*sim_s >= last_sim, "round {k}: sim_s went backwards");
        last_sim = *sim_s;
        // The deltas telescope: total through round k == sum of deltas,
        // which the `since` contract guarantees; spot-check the endpoint.
        if k + 1 == ends.len() {
            assert_eq!(comm_total, &r.comm);
        }
    }

    let Some(TelemetryEvent::RunEnd {
        rounds, comm_total, ..
    }) = events.last()
    else {
        panic!("stream must end with run_end, got {:?}", events.last());
    };
    assert_eq!(*rounds, h.rounds);
    assert_eq!(comm_total, &r.comm);
}

/// A JSONL file written by a run validates against the schema and its
/// `dual_update` lines carry exactly the `p^(k)` trajectory that history
/// records (f32 values survive the JSON round trip bit-exactly).
#[test]
fn jsonl_stream_validates_and_p_trajectory_matches_history() {
    let dir = std::env::temp_dir().join(format!("hm-telemetry-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sc = tiny_problem(3, 2, 22);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let rounds = 4;
    let wanted = ["HierMinimax"];
    for (name, make) in algorithms(rounds, Quantizer::Exact) {
        if !wanted.contains(&name) {
            continue;
        }
        let path = dir.join(format!("{name}.jsonl"));
        let tel = Telemetry::jsonl(&path).unwrap();
        let r = make(opts_with(tel)).run(&fp, 5);

        let body = std::fs::read_to_string(&path).unwrap();
        let summary = validate_stream(&body).unwrap_or_else(|e| panic!("{name}: {e}\n{body}"));
        assert_eq!(summary.runs, 1, "{name}");
        assert_eq!(
            summary.events_by_kind.get("round_end"),
            Some(&rounds),
            "{name}"
        );
        assert_eq!(
            summary.events_by_kind.get("dual_update"),
            Some(&rounds),
            "{name}"
        );

        let p_lines: Vec<Vec<f32>> = body
            .lines()
            .filter_map(|line| match TelemetryEvent::from_json(line).unwrap() {
                TelemetryEvent::DualUpdate { p, .. } => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(p_lines.len(), r.history.rounds.len(), "{name}");
        for (k, (from_stream, rec)) in p_lines.iter().zip(&r.history.rounds).enumerate() {
            assert_eq!(from_stream, &rec.p, "{name}: p^({k}) diverged");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Telemetry is pure observation: running with a sink attached produces
/// bit-identical iterates to running with the disabled handle.
#[test]
fn enabling_telemetry_is_bit_identical_to_disabled() {
    let sc = tiny_problem(3, 2, 23);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let run = |telemetry| {
        let opts = opts_with(telemetry);
        Method::HierMinimax.build(&hm_hyper(4), opts).run(&fp, 9)
    };
    let off = run(Telemetry::disabled());
    let sink = Arc::new(MemorySink::new());
    let on = run(Telemetry::with_sink(sink.clone()));
    assert!(!sink.is_empty());
    assert_eq!(off.final_w, on.final_w);
    assert_eq!(off.final_p, on.final_p);
    assert_eq!(off.avg_w, on.avg_w);
    assert_eq!(off.avg_p, on.avg_p);
}

/// Every wired algorithm emits `run_start` first, `run_end` last, one
/// `round_end` per training round with consecutive indices, and final
/// totals matching the run's own communication counters.
#[test]
fn all_algorithms_emit_consistent_streams() {
    let sc = tiny_problem(4, 2, 24);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let rounds = 3;

    for (name, make) in algorithms(rounds, Quantizer::Exact) {
        let sink = Arc::new(MemorySink::new());
        let r = make(opts_with(Telemetry::with_sink(sink.clone()))).run(&fp, 7);
        let events = sink.events();
        let Some(TelemetryEvent::RunStart {
            algorithm,
            rounds: planned,
            ..
        }) = events.first()
        else {
            panic!("{name}: first event {:?}", events.first());
        };
        assert_eq!(algorithm, name);
        assert_eq!(*planned, rounds);
        let ends = round_ends(&events);
        assert_eq!(ends.len(), rounds, "{name}");
        for (k, e) in ends.iter().enumerate() {
            let TelemetryEvent::RoundEnd { round, .. } = e else {
                unreachable!()
            };
            assert_eq!(*round, k, "{name}");
        }
        let Some(TelemetryEvent::RunEnd {
            rounds: done,
            comm_total,
            ..
        }) = events.last()
        else {
            panic!("{name}: last event {:?}", events.last());
        };
        assert_eq!(*done, rounds, "{name}");
        assert_eq!(comm_total, &r.comm, "{name}: run_end totals");
    }
}

/// Run `make` on `fp` under `opts` with a memory sink, a fresh profiler
/// and a snapshot after every round into `dir`, resuming from the
/// round-`from` snapshot of `name` there when given; returns the stream.
fn profiled_stream(
    name: &str,
    make: &Factory,
    opts: &RunOpts,
    fp: &FederatedProblem,
    dir: &Path,
    from: Option<usize>,
) -> Vec<TelemetryEvent> {
    let sink = Arc::new(MemorySink::new());
    let mut opts = opts.clone();
    opts.telemetry = Telemetry::with_sink(sink.clone());
    opts.profile = Profiler::enabled();
    opts.checkpoint = CheckpointOpts::writing(dir, 1);
    if let Some(round) = from {
        let snap = read_snapshot(&snapshot_path(dir, name, round)).unwrap();
        opts.checkpoint.resume = Some(Arc::new(snap));
    }
    make(opts).run(fp, 3);
    sink.events()
}

/// The eight algorithms, each with the options it honours on top of
/// profiling and checkpoints, write every event kind between them, and a
/// resumed run of each adds its `run_resume`. Every line decodes back to
/// an event that re-encodes to the same line.
#[test]
fn every_emitted_line_round_trips_through_the_decoder() {
    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 25));
    let rounds = 6;
    let tree = RunOpts {
        eval_every: 1,
        parallelism: Parallelism::Sequential,
        fault: FaultPlan {
            corrupt_rate: 0.2,
            attack: AttackModel::SignFlip,
            ..FaultPlan::preset("chaos").unwrap()
        },
        aggregator: Aggregator::TrimmedMean { beta: 0.2 },
        max_stale_rounds: rounds,
        ..Default::default()
    };
    let edges = RunOpts {
        quarantine_z: 1.0,
        ..tree.clone()
    };
    let hier = RunOpts {
        churn: ChurnPlan::preset("chaos-churn").unwrap(),
        ..edges.clone()
    };
    let qffl = RunOpts {
        aggregator: Aggregator::Mean,
        ..edges.clone()
    };
    let opts_for = |name: &str| match name {
        "HierMinimax" | "HierFAVG" => &hier,
        "MultiLevelMinimax" => &tree,
        "q-FedAvg" => &qffl,
        _ => &edges,
    };

    let dir = std::env::temp_dir().join(format!("hm-telemetry-rt-{}", std::process::id()));
    let mut kinds = BTreeSet::new();
    for (name, make) in algorithms(rounds, Quantizer::Stochastic { bits: 8 }) {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = opts_for(name);
        let written = profiled_stream(name, &make, opts, &fp, &dir, None);
        let resumed = profiled_stream(name, &make, opts, &fp, &dir, Some(rounds / 2));
        for event in written.iter().chain(&resumed) {
            let line = event.to_json();
            let back =
                TelemetryEvent::from_json(&line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            assert_eq!(back.to_json(), line, "{name}");
            kinds.insert(event.kind());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    let all = [
        "run_start",
        "round_start",
        "phase1",
        "block_agg",
        "phase1_done",
        "dual_update",
        "eval",
        "fault",
        "fault_summary",
        "checkpoint",
        "run_resume",
        "span",
        "profile_summary",
        "adversary",
        "quarantine",
        "churn",
        "rehome",
        "aggregator_summary",
        "round_end",
        "run_end",
    ];
    assert_eq!(kinds, BTreeSet::from(all));
}

/// A JSONL file a HierMinimax run writes under chaos faults and mild
/// churn decodes to exactly the run's in-memory stream (wall-clock fields
/// scrubbed), which replays through the conformance automaton, on both
/// executors.
#[test]
fn decoded_jsonl_file_is_the_run_stream_and_conforms() {
    let dir = std::env::temp_dir().join(format!("hm-telemetry-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 3, 26));
    let seed = 8;
    for parallelism in [Parallelism::Sequential, Parallelism::Rayon] {
        let opts = RunOpts {
            eval_every: 2,
            parallelism,
            fault: FaultPlan::preset("chaos").unwrap(),
            churn: ChurnPlan::preset("mild").unwrap(),
            ..Default::default()
        };
        let path = dir.join(format!("{parallelism:?}.jsonl"));
        let h = hm_hyper(8);
        let run = |telemetry| {
            let opts = RunOpts {
                telemetry,
                ..opts.clone()
            };
            Method::HierMinimax.build(&h, opts).run(&fp, seed);
        };
        run(Telemetry::jsonl(&path).unwrap());
        let sink = Arc::new(MemorySink::new());
        run(Telemetry::with_sink(sink.clone()));

        let body = std::fs::read_to_string(&path).unwrap();
        let decoded: Vec<TelemetryEvent> = body
            .lines()
            .map(|line| TelemetryEvent::from_json(line).unwrap())
            .collect();
        let scrubbed = |events: &[TelemetryEvent]| -> Vec<TelemetryEvent> {
            events.iter().cloned().map(scrub).collect()
        };
        assert_eq!(
            scrubbed(&decoded),
            scrubbed(&sink.events()),
            "{parallelism:?}"
        );
        check_stream(
            &fp,
            Protocol::new(Method::HierMinimax, &h, &opts),
            seed,
            &decoded,
        )
        .unwrap_or_else(|e| panic!("{parallelism:?}: conformance: {e}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
