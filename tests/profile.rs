//! Profiling inertness matrix (DESIGN.md §13).
//!
//! The headline guarantee of the profiling layer, enforced here rather
//! than in prose: enabling the profiler cannot perturb a run. A profiled
//! run produces a bit-identical `RunResult` (model, weights, history,
//! comm totals) and `FaultStats`, and its *sequenced* telemetry stream —
//! everything except the unsequenced `span`/`profile_summary` events —
//! is bit-identical to the unprofiled run's.
//!
//! HierMinimax runs the full `{Sequential, Rayon} × {none, chaos}` grid;
//! the other seven algorithms run the default cell. A separate shape test
//! pins that both executors emit the same span sequence (phase, round,
//! entity) — only the measured durations differ.

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, MethodRun, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::{CheckpointOpts, RunResult};
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{FaultPlan, Parallelism};
use hierminimax::telemetry::{MemorySink, Profiler, Telemetry, TelemetryEvent};
use hm_testkit::scrub;
use std::sync::Arc;

const SEED: u64 = 17;
const ROUNDS: usize = 4;

fn problem() -> FederatedProblem {
    let sc = tiny_problem(3, 2, 11);
    FederatedProblem::logistic_from_scenario(&sc)
}

type Factory = Box<dyn Fn(RunOpts) -> MethodRun>;

/// `method`'s hyper-parameters in the matrix: `ROUNDS` rounds, `τ2 = 3`
/// (2 and the three-layer tree for MultiLevel) and four clients for the
/// two-layer baselines.
fn hyper(method: Method) -> Hyper {
    let h = Hyper {
        rounds: ROUNDS,
        tau2: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        loss_batch: 4,
        ..Hyper::default()
    };
    match method {
        Method::HierMinimax | Method::HierFavg => h,
        Method::MultiLevel => Hyper {
            tau2: 2,
            upper: Vec::new(),
            eta_w: 0.05,
            eta_p: 0.02,
            ..h
        },
        _ => Hyper { m: 4, ..h },
    }
}

/// Every algorithm in the workspace, as a factory over `RunOpts` (same
/// configs as the resume matrix in `tests/resume.rs`).
fn all_algorithms() -> Vec<(&'static str, Factory)> {
    Method::ALL
        .into_iter()
        .map(|m| {
            let h = hyper(m);
            (m.name(), Box::new(move |opts| m.build(&h, opts)) as Factory)
        })
        .collect()
}

fn assert_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_w, b.final_w, "{tag}: final_w differs");
    assert_eq!(a.avg_w, b.avg_w, "{tag}: avg_w differs");
    assert_eq!(a.final_p, b.final_p, "{tag}: final_p differs");
    assert_eq!(a.avg_p, b.avg_p, "{tag}: avg_p differs");
    assert_eq!(a.history, b.history, "{tag}: history differs");
    assert_eq!(a.comm, b.comm, "{tag}: comm stats differ");
    assert_eq!(a.faults, b.faults, "{tag}: fault stats differ");
}

/// The sequenced portion of a stream: the unsequenced profiling events
/// (`span`, `profile_summary`) dropped.
fn sequenced(events: &[TelemetryEvent]) -> Vec<TelemetryEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                TelemetryEvent::Span { .. } | TelemetryEvent::ProfileSummary { .. }
            )
        })
        .cloned()
        .collect()
}

fn stream_digest(events: &[TelemetryEvent]) -> String {
    events
        .iter()
        .map(|e| scrub(e.clone()).to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One matrix cell: the profiled run must be bit-identical to the
/// unprofiled one in everything except the unsequenced profiling events.
fn assert_profile_inert(tag: &str, factory: &Factory, base: &RunOpts) {
    let fp = problem();

    let sink_off = Arc::new(MemorySink::new());
    let mut opts_off = base.clone();
    opts_off.telemetry = Telemetry::with_sink(sink_off.clone());
    let plain = factory(opts_off).run(&fp, SEED);

    let sink_on = Arc::new(MemorySink::new());
    let mut opts_on = base.clone();
    opts_on.telemetry = Telemetry::with_sink(sink_on.clone());
    opts_on.profile = Profiler::enabled();
    let profiler = opts_on.profile.clone();
    let profiled = factory(opts_on).run(&fp, SEED);

    assert_identical(tag, &plain, &profiled);

    let on_events = sink_on.events();
    let spans = on_events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::Span { .. }))
        .count();
    assert!(spans > 0, "{tag}: profiled run emitted no spans");
    assert!(
        on_events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::ProfileSummary { .. })),
        "{tag}: profiled run emitted no profile_summary"
    );
    assert!(
        !profiler.summary().is_empty(),
        "{tag}: profiler aggregates are empty"
    );
    assert_eq!(
        stream_digest(&sequenced(&on_events)),
        stream_digest(&sink_off.events()),
        "{tag}: profiling perturbed the sequenced telemetry stream"
    );
}

fn opts(par: Parallelism, fault: &FaultPlan) -> RunOpts {
    RunOpts {
        eval_every: 2,
        parallelism: par,
        fault: fault.clone(),
        ..Default::default()
    }
}

#[test]
fn hierminimax_profile_inert_full_grid() {
    let (name, factory) = all_algorithms().swap_remove(0);
    assert_eq!(name, "HierMinimax");
    let plans = [
        ("none", FaultPlan::preset("none").unwrap()),
        ("chaos", FaultPlan::preset("chaos").unwrap()),
    ];
    for (plan_name, plan) in &plans {
        for par in [Parallelism::Sequential, Parallelism::Rayon] {
            let tag = format!("hmx-{plan_name}-{par:?}").to_lowercase();
            assert_profile_inert(&tag, &factory, &opts(par, plan));
        }
    }
}

#[test]
fn every_algorithm_is_profile_inert() {
    let none = FaultPlan::preset("none").unwrap();
    for (name, factory) in all_algorithms() {
        let tag = format!("inert-{}", name.to_lowercase().replace('-', "_"));
        assert_profile_inert(&tag, &factory, &opts(Parallelism::Sequential, &none));
    }
}

/// The (phase, round, entity) shape of a stream's span events, durations
/// dropped.
fn span_shape(events: &[TelemetryEvent]) -> Vec<(String, Option<usize>, Option<usize>)> {
    events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Span {
                phase,
                round,
                entity,
                ..
            } => Some((phase.clone(), *round, *entity)),
            _ => None,
        })
        .collect()
}

#[test]
fn span_stream_shape_is_parallelism_invariant() {
    // Chains run on different threads under the two executors, but both
    // must emit the same span sequence: one local_sgd_chain span per
    // participating edge, recorded after the join in edge order.
    let (_, factory) = all_algorithms().swap_remove(0);
    let none = FaultPlan::preset("none").unwrap();
    let fp = problem();
    let mut shapes = Vec::new();
    for par in [Parallelism::Sequential, Parallelism::Rayon] {
        let sink = Arc::new(MemorySink::new());
        let mut o = opts(par, &none);
        o.telemetry = Telemetry::with_sink(sink.clone());
        o.profile = Profiler::enabled();
        factory(o).run(&fp, SEED);
        shapes.push((format!("{par:?}"), span_shape(&sink.events())));
    }
    let (ref_tag, ref_shape) = &shapes[0];
    for (tag, shape) in &shapes[1..] {
        assert_eq!(shape, ref_shape, "span shape differs: {tag} vs {ref_tag}");
    }
}

#[test]
fn profiled_phases_cover_the_taxonomy() {
    let (_, factory) = all_algorithms().swap_remove(0);
    let none = FaultPlan::preset("none").unwrap();
    let fp = problem();

    let dir = std::env::temp_dir().join(format!("hm-profile-tax-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts(Parallelism::Sequential, &none);
    o.checkpoint = CheckpointOpts::writing(&dir, 1);
    o.profile = Profiler::enabled();
    let profiler = o.profile.clone();
    factory(o).run(&fp, SEED);
    let _ = std::fs::remove_dir_all(&dir);

    let summary = profiler.summary();
    let count = |tag: &str| {
        summary
            .iter()
            .find(|p| p.phase == tag)
            .map_or(0, |p| p.count)
    };
    assert_eq!(count("round"), ROUNDS as u64);
    assert_eq!(count("phase1_sampling"), ROUNDS as u64);
    assert_eq!(count("dual_update"), ROUNDS as u64);
    assert_eq!(count("aggregation"), ROUNDS as u64);
    assert!(
        count("local_sgd_chain") >= ROUNDS as u64,
        "one span per participating edge per round"
    );
    // eval_every = 2 over 4 rounds: evaluations after rounds 2 and 4.
    assert_eq!(count("eval"), 2);
    // Cadence-1 checkpointing: the final round is never snapshotted.
    assert_eq!(count("checkpoint_write"), ROUNDS as u64 - 1);
    // No fault plan: the retry phase must not appear at all.
    assert_eq!(count("fault_retry"), 0);

    // Aggregate invariants: totals bound the extremes.
    for p in &summary {
        assert!(p.min_s <= p.max_s, "{}: min > max", p.phase);
        assert!(p.total_s >= p.max_s, "{}: total < max", p.phase);
        assert!(
            p.p50_s <= p.p90_s && p.p90_s <= p.p99_s,
            "{}: quantiles out of order",
            p.phase
        );
    }
}

#[test]
fn fault_retry_spans_track_injected_retries() {
    let (_, factory) = all_algorithms().swap_remove(0);
    let chaos = FaultPlan::preset("chaos").unwrap();
    let fp = problem();
    let mut o = opts(Parallelism::Sequential, &chaos);
    o.profile = Profiler::enabled();
    let profiler = o.profile.clone();
    let r = factory(o).run(&fp, SEED);
    let retry_spans = profiler
        .summary()
        .iter()
        .find(|p| p.phase == "fault_retry")
        .map_or(0, |p| p.count);
    if r.faults.retries > 0 {
        assert!(retry_spans > 0, "retries occurred but no fault_retry spans");
    } else {
        assert_eq!(retry_spans, 0, "fault_retry spans without any retries");
    }
}
