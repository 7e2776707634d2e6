//! Protocol-conformance suite: every run's telemetry stream must replay
//! cleanly through the `hm-testkit` automaton, and deliberately corrupted
//! streams must be rejected with the right error.
//!
//! The property tests sweep generated scenarios (topology, periods,
//! participation, client crash rates, fault plans, quantizers, constrained
//! `P` sets)
//! for HierMinimax, HierFAVG and MultiLevel;
//! the pinned corpus below re-checks specs that exercised tricky corners
//! when first generated (total blackout, capped simplex, quantized
//! uploads, degenerate `τ = 1`, lossy links with retries, outage-heavy
//! rounds), so they stay covered regardless of how the generator evolves.

use hierminimax::checkpoint::{read_snapshot, snapshot_path};
use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts, WeightUpdateModel};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::CheckpointOpts;
use hierminimax::simnet::sampling::sample_edges_uniform;
use hierminimax::simnet::{CommStats, FaultPlan, Quantizer};
use hierminimax::telemetry::TelemetryEvent;
use hm_testkit::strategies::{arb_multilevel, arb_scenario, record};
use hm_testkit::{
    check_stream, scrub, splice, ConformanceError, PDomainSpec, Protocol, ScenarioSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

/// `method`'s run of `h` under `opts` on `fp`, recorded: its result and
/// its stream.
fn recorded(
    method: Method,
    h: &Hyper,
    opts: &RunOpts,
    fp: &FederatedProblem,
    seed: u64,
) -> (hierminimax::core::RunResult, Vec<TelemetryEvent>) {
    let mut opts = opts.clone();
    let sink = record(&mut opts);
    let r = method.build(h, opts).run(fp, seed);
    (r, sink.events())
}

/// HierMinimax's protocol on `h` under `opts`.
fn hm<'a>(h: &'a Hyper, opts: &'a RunOpts) -> Protocol<'a> {
    Protocol::new(Method::HierMinimax, h, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated HierMinimax run conforms to the Algorithm-1 model.
    #[test]
    fn hierminimax_traces_conform(spec in arb_scenario()) {
        let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
        let (_, events) = recorded(Method::HierMinimax, &h, &opts, &fp, spec.run_seed);
        let report = check_stream(&fp, hm(&h, &opts), spec.run_seed, &events)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        prop_assert_eq!(report.rounds, spec.rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every generated HierFAVG run conforms to the Phase-1-only model.
    #[test]
    fn hierfavg_traces_conform(spec in arb_scenario()) {
        let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
        let (_, events) = recorded(Method::HierFavg, &h, &opts, &fp, spec.run_seed);
        let pr = Protocol::new(Method::HierFavg, &h, &opts);
        let report = check_stream(&fp, pr, spec.run_seed, &events)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        prop_assert_eq!(report.rounds, spec.rounds);
        prop_assert_eq!(report.checkpoints, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated multi-level run conforms at the cloud level,
    /// including the recursive intermediate-link comm accounting.
    #[test]
    fn multilevel_traces_conform(spec in arb_multilevel()) {
        let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
        let (_, events) = recorded(Method::MultiLevel, &h, &opts, &fp, spec.run_seed);
        let pr = Protocol::new(Method::MultiLevel, &h, &opts);
        let report = check_stream(&fp, pr, spec.run_seed, &events)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        prop_assert_eq!(report.rounds, spec.rounds);
    }
}

/// A plan whose only fault is a per-block client crash `rate`.
fn crashes(rate: f32) -> FaultPlan {
    FaultPlan {
        client_crash: rate,
        ..FaultPlan::default()
    }
}

/// Pinned regression corpus: specs covering corners the generator only
/// hits occasionally. Kept as literal values so a change in the generator
/// (or its seeding) never silently drops them.
fn regression_corpus() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec {
        n_edges: 3,
        clients_per_edge: 2,
        data_seed: 17,
        run_seed: 91,
        rounds: 2,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        quantizer: Quantizer::Exact,
        p_domain: PDomainSpec::Simplex,
        weight_update_model: WeightUpdateModel::RandomCheckpoint,
        fault: FaultPlan::default(),
    };
    vec![
        // Total blackout: every client drops every block.
        ScenarioSpec {
            fault: crashes(1.0),
            ..base.clone()
        },
        // Heavy partial dropout with a quantized uplink.
        ScenarioSpec {
            fault: crashes(0.55),
            quantizer: Quantizer::Stochastic { bits: 2 },
            run_seed: 4242,
            ..base.clone()
        },
        // Capped simplex with all edges participating.
        ScenarioSpec {
            n_edges: 4,
            m_edges: 4,
            p_domain: PDomainSpec::CappedSimplex { lo: 0.02, hi: 0.75 },
            ..base.clone()
        },
        // Degenerate periods: single step, single block, single edge drawn.
        ScenarioSpec {
            tau1: 1,
            tau2: 1,
            m_edges: 1,
            rounds: 3,
            ..base.clone()
        },
        // Ablation Phase-2 models.
        ScenarioSpec {
            weight_update_model: WeightUpdateModel::FinalModel,
            ..base.clone()
        },
        ScenarioSpec {
            weight_update_model: WeightUpdateModel::RoundStart,
            quantizer: Quantizer::Stochastic { bits: 4 },
            ..base.clone()
        },
        // Lossy WAN: retried and given-up deliveries on every channel, so
        // the replay must consume interleaved fault events and the comm
        // check must account every retransmission.
        ScenarioSpec {
            run_seed: 515,
            rounds: 3,
            fault: FaultPlan {
                msg_loss: 0.45,
                max_retries: 2,
                ..FaultPlan::default()
            },
            ..base.clone()
        },
        // Outage-heavy round mix, including all-sampled-edges-out rounds
        // (stale `w^(k)` reuse) plus zero-retry message loss (gave-up at
        // attempt one) and crash/straggler thinning of the edge blocks.
        ScenarioSpec {
            run_seed: 909,
            rounds: 4,
            fault: FaultPlan {
                client_crash: 0.3,
                edge_outage: 0.5,
                msg_loss: 0.25,
                max_retries: 0,
                straggler_rate: 0.3,
                straggler_slowdown: 3.0,
                deadline_factor: 1.5,
                ..FaultPlan::default()
            },
            ..base.clone()
        },
        // Cloud-link faults stacked on quantized uplinks and client
        // crashes.
        ScenarioSpec {
            run_seed: 1717,
            quantizer: Quantizer::Stochastic { bits: 3 },
            fault: FaultPlan {
                client_crash: 0.4,
                edge_outage: 0.3,
                msg_loss: 0.2,
                max_retries: 1,
                ..FaultPlan::default()
            },
            ..base
        },
    ]
}

#[test]
fn regression_corpus_conforms() {
    for spec in regression_corpus() {
        let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
        for method in [Method::HierMinimax, Method::HierFavg] {
            let (_, events) = recorded(method, &h, &opts, &fp, spec.run_seed);
            check_stream(
                &fp,
                Protocol::new(method, &h, &opts),
                spec.run_seed,
                &events,
            )
            .unwrap_or_else(|e| panic!("{spec:?} {method:?}: {e}"));
        }
    }
}

// ---- Negative tests: injected protocol bugs must be caught. -------------

fn valid_run() -> (FederatedProblem, Hyper, RunOpts, u64, Vec<TelemetryEvent>) {
    let spec = ScenarioSpec {
        n_edges: 3,
        clients_per_edge: 2,
        data_seed: 23,
        run_seed: 77,
        rounds: 2,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        quantizer: Quantizer::Exact,
        p_domain: PDomainSpec::Simplex,
        weight_update_model: WeightUpdateModel::RandomCheckpoint,
        fault: FaultPlan::default(),
    };
    let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
    let (_, events) = recorded(Method::HierMinimax, &h, &opts, &fp, spec.run_seed);
    (fp, h, opts, spec.run_seed, events)
}

#[test]
fn off_by_one_checkpoint_is_caught() {
    let (fp, h, opts, seed, mut events) = valid_run();
    // Shift the first checkpoint draw past the end of the block — the
    // classic 1-based-indexing bug.
    let ev = events
        .iter_mut()
        .find(|e| matches!(e, TelemetryEvent::Phase1Sampled { .. }))
        .unwrap();
    if let TelemetryEvent::Phase1Sampled {
        checkpoint: Some((c1, _)),
        ..
    } = ev
    {
        *c1 += h.tau1;
    }
    let err = check_stream(&fp, hm(&h, &opts), seed, &events).unwrap_err();
    assert!(
        matches!(err, ConformanceError::CheckpointOutOfRange { .. }),
        "expected CheckpointOutOfRange, got {err}"
    );
}

#[test]
fn unweighted_phase1_sampling_is_caught() {
    let (fp, h, opts, seed, mut events) = valid_run();
    // Re-draw Phase 1 uniformly instead of ∝ p — the "forgot the weights"
    // bug. Uses the *same* keyed stream, so only the distribution differs.
    let n_edges = 3;
    let ev = events
        .iter_mut()
        .find(|e| matches!(e, TelemetryEvent::Phase1Sampled { .. }))
        .unwrap();
    if let TelemetryEvent::Phase1Sampled { round, edges, .. } = ev {
        let mut rng = hierminimax::data::StreamRng::new(
            seed,
            hierminimax::data::rng::Purpose::EdgeSampling,
            *round as u64,
            0,
        );
        let uniform = sample_edges_uniform(n_edges, edges.len(), &mut rng);
        // The draws must actually differ for the mutation to mean anything;
        // pick a different run_seed if this ever collides.
        assert_ne!(uniform, *edges, "pick a different seed for this test");
        *edges = uniform;
    }
    let err = check_stream(&fp, hm(&h, &opts), seed, &events).unwrap_err();
    assert!(
        matches!(
            err,
            ConformanceError::SamplingMismatch {
                phase: "phase1",
                ..
            }
        ),
        "expected SamplingMismatch, got {err}"
    );
}

#[test]
fn infeasible_weight_update_is_caught() {
    let (fp, h, opts, seed, mut events) = valid_run();
    // Ascent without the projection: p leaves the simplex.
    let ev = events
        .iter_mut()
        .find(|e| matches!(e, TelemetryEvent::DualUpdate { .. }))
        .unwrap();
    if let TelemetryEvent::DualUpdate { p, .. } = ev {
        *p = vec![0.9; p.len()];
    }
    let err = check_stream(&fp, hm(&h, &opts), seed, &events).unwrap_err();
    assert!(
        matches!(err, ConformanceError::InfeasibleWeights { .. }),
        "expected InfeasibleWeights, got {err}"
    );
}

#[test]
fn wrong_comm_accounting_is_caught() {
    let (fp, h, opts, seed, mut events) = valid_run();
    // A meter that never recorded anything: every per-round delta zero.
    let ev = events
        .iter_mut()
        .find(|e| matches!(e, TelemetryEvent::RoundEnd { .. }))
        .unwrap();
    if let TelemetryEvent::RoundEnd { comm_delta, .. } = ev {
        *comm_delta = CommStats::default();
    }
    let err = check_stream(&fp, hm(&h, &opts), seed, &events).unwrap_err();
    assert!(
        matches!(err, ConformanceError::CommMismatch { .. }),
        "expected CommMismatch, got {err}"
    );
}

#[test]
fn reordered_phases_are_caught() {
    let (fp, h, opts, seed, mut events) = valid_run();
    // Swap the first round's opening and its Phase-1 draw: right events,
    // wrong protocol order.
    let open = events
        .iter()
        .position(|e| matches!(e, TelemetryEvent::RoundStart { .. }))
        .unwrap();
    events.swap(open, open + 1);
    let err = check_stream(&fp, hm(&h, &opts), seed, &events).unwrap_err();
    assert!(
        matches!(err, ConformanceError::UnexpectedEvent { .. }),
        "expected UnexpectedEvent, got {err}"
    );
}

// ---- Resumed-run splices (DESIGN.md §12). -------------------------------
//
// A killed run's stream ends at the `checkpoint` event of its last
// snapshot; the run resumed from that snapshot opens with `run_resume`.
// The full-run view is their splice, and the conformance automaton
// replays a spliced stream exactly like an uninterrupted one: an honest
// splice must pass (and, by bit-identity, *equal* the uninterrupted
// stream up to its checkpoint events and wall-clock fields), while a
// forged splice — a skipped or repeated round — must be rejected.

/// The stream with `checkpoint` events dropped and wall-clock scrubbed:
/// what an honest splice shares with the uninterrupted run.
fn comparable(events: &[TelemetryEvent]) -> Vec<TelemetryEvent> {
    events
        .iter()
        .filter(|e| !matches!(e, TelemetryEvent::Checkpoint { .. }))
        .map(|e| scrub(e.clone()))
        .collect()
}

/// Run `spec` once with per-round checkpoints in a throwaway dir, then
/// resume from the round-`resume_round` snapshot. Returns the
/// checkpointed run's stream and the resumed run's stream.
fn checkpointed_and_resumed(
    spec: &ScenarioSpec,
    resume_round: usize,
    tag: &str,
) -> (Vec<TelemetryEvent>, Vec<TelemetryEvent>) {
    let fp = spec.problem();
    let dir = std::env::temp_dir().join(format!("hm-splice-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (h, seed) = (spec.hyper(), spec.run_seed);
    let ck = RunOpts {
        checkpoint: CheckpointOpts::writing(&dir, 1),
        ..spec.opts()
    };
    let (_, writer) = recorded(Method::HierMinimax, &h, &ck, &fp, seed);

    let snap = read_snapshot(&snapshot_path(&dir, "HierMinimax", resume_round))
        .unwrap_or_else(|e| panic!("{tag}: reading round-{resume_round} snapshot: {e}"));
    let rs = RunOpts {
        checkpoint: CheckpointOpts::resuming(Arc::new(snap)),
        ..spec.opts()
    };
    let (_, resumed) = recorded(Method::HierMinimax, &h, &rs, &fp, seed);

    let _ = std::fs::remove_dir_all(&dir);
    (writer, resumed)
}

fn splice_spec() -> ScenarioSpec {
    ScenarioSpec {
        n_edges: 3,
        clients_per_edge: 2,
        data_seed: 23,
        run_seed: 77,
        rounds: 4,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        quantizer: Quantizer::Exact,
        p_domain: PDomainSpec::Simplex,
        weight_update_model: WeightUpdateModel::RandomCheckpoint,
        fault: FaultPlan::default(),
    }
}

/// The stream of `spec`'s uninterrupted run.
fn uninterrupted(spec: &ScenarioSpec) -> Vec<TelemetryEvent> {
    let (h, opts) = (spec.hyper(), spec.opts());
    recorded(
        Method::HierMinimax,
        &h,
        &opts,
        &spec.problem(),
        spec.run_seed,
    )
    .1
}

#[test]
fn spliced_resumed_trace_conforms_and_matches_uninterrupted() {
    let spec = splice_spec();
    let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
    let full = uninterrupted(&spec);

    for kill_round in 1..spec.rounds {
        let (writer, resumed) = checkpointed_and_resumed(&spec, kill_round, "honest");
        let spliced = splice(&writer, &resumed, kill_round);
        assert_eq!(
            comparable(&spliced),
            comparable(&full),
            "splice at round {kill_round} diverges from the uninterrupted stream"
        );
        let report = check_stream(&fp, hm(&h, &opts), spec.run_seed, &spliced)
            .unwrap_or_else(|e| panic!("splice at round {kill_round}: {e}"));
        assert_eq!(report.rounds, spec.rounds);
    }
}

#[test]
fn forged_splice_skipping_a_round_is_rejected() {
    let spec = splice_spec();
    let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
    // Writer cut before round 1, resumed at round 2: round 1 is missing
    // from the spliced stream.
    let (writer, resumed) = checkpointed_and_resumed(&spec, 2, "skip");
    let forged = splice(&writer, &resumed, 1);
    let err = check_stream(&fp, hm(&h, &opts), spec.run_seed, &forged).unwrap_err();
    assert!(
        matches!(
            err,
            ConformanceError::UnexpectedEvent { .. } | ConformanceError::SamplingMismatch { .. }
        ),
        "expected the skipped round to desync the replay, got {err}"
    );
}

#[test]
fn forged_splice_repeating_a_round_is_rejected() {
    let spec = splice_spec();
    let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
    // Writer kept through round 1, resumed at round 1: round 1 appears
    // twice in the spliced stream.
    let (writer, resumed) = checkpointed_and_resumed(&spec, 1, "repeat");
    let forged = splice(&writer, &resumed, 2);
    let err = check_stream(&fp, hm(&h, &opts), spec.run_seed, &forged).unwrap_err();
    assert!(
        matches!(
            err,
            ConformanceError::UnexpectedEvent { .. } | ConformanceError::SamplingMismatch { .. }
        ),
        "expected the repeated round to desync the replay, got {err}"
    );
}

/// Pinned resumed-run corpus: scenario + kill-round pairs whose spliced
/// streams must keep replaying cleanly. One entry stresses the fault
/// machinery across the resume boundary (lossy links with retries), the
/// other stresses quantized uplinks plus client crashes.
fn resumed_regression_corpus() -> Vec<(ScenarioSpec, usize)> {
    vec![
        (
            ScenarioSpec {
                run_seed: 515,
                rounds: 3,
                fault: FaultPlan {
                    msg_loss: 0.45,
                    max_retries: 2,
                    ..FaultPlan::default()
                },
                ..splice_spec()
            },
            1,
        ),
        (
            ScenarioSpec {
                run_seed: 1717,
                rounds: 3,
                fault: crashes(0.4),
                quantizer: Quantizer::Stochastic { bits: 3 },
                ..splice_spec()
            },
            2,
        ),
    ]
}

#[test]
fn resumed_regression_corpus_conforms() {
    for (i, (spec, kill_round)) in resumed_regression_corpus().into_iter().enumerate() {
        let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
        let full = uninterrupted(&spec);
        let tag = format!("corpus-{i}");
        let (writer, resumed) = checkpointed_and_resumed(&spec, kill_round, &tag);
        let spliced = splice(&writer, &resumed, kill_round);
        assert_eq!(
            comparable(&spliced),
            comparable(&full),
            "{spec:?} kill {kill_round}: splice diverges"
        );
        check_stream(&fp, hm(&h, &opts), spec.run_seed, &spliced)
            .unwrap_or_else(|e| panic!("{spec:?} kill {kill_round}: {e}"));
    }
}

// ---- Churn splices (DESIGN.md §15). --------------------------------------
//
// The `churn` snapshot section restores the active topology, rosters and
// joiner provenance, so a killed-and-resumed churn run splices into the
// uninterrupted stream and the membership-aware automaton replays it — the
// end-to-end proof that every transition (and the re-homed participation
// and comm accounting that follow it) survives the resume boundary.

#[test]
fn spliced_churn_trace_conforms_and_matches_uninterrupted() {
    use hierminimax::data::scenarios::tiny_problem;
    use hierminimax::simnet::ChurnPlan;

    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 23));
    let rounds = 6;
    let h = Hyper {
        rounds,
        eta_w: 0.05,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        ..Hyper::default()
    };
    let opts = RunOpts {
        churn: ChurnPlan::preset("chaos-churn").unwrap(),
        ..Default::default()
    };
    let seed = 42;
    let (full_run, full) = recorded(Method::HierMinimax, &h, &opts, &fp, seed);
    assert!(full_run.churn.rehomed > 0, "chaos-churn must re-home here");
    check_stream(&fp, hm(&h, &opts), seed, &full).unwrap();

    let dir = std::env::temp_dir().join(format!("hm-churn-splice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = RunOpts {
        checkpoint: CheckpointOpts::writing(&dir, 1),
        ..opts.clone()
    };
    let (_, writer) = recorded(Method::HierMinimax, &h, &ck, &fp, seed);

    for kill_round in 1..rounds {
        let snap = read_snapshot(&snapshot_path(&dir, "HierMinimax", kill_round))
            .unwrap_or_else(|e| panic!("reading round-{kill_round} snapshot: {e}"));
        let rs = RunOpts {
            checkpoint: CheckpointOpts::resuming(Arc::new(snap)),
            ..opts.clone()
        };
        let (_, resumed) = recorded(Method::HierMinimax, &h, &rs, &fp, seed);
        let spliced = splice(&writer, &resumed, kill_round);
        assert_eq!(
            comparable(&spliced),
            comparable(&full),
            "churn splice at round {kill_round} diverges from the uninterrupted stream"
        );
        let report = check_stream(&fp, hm(&h, &opts), seed, &spliced)
            .unwrap_or_else(|e| panic!("churn splice at round {kill_round}: {e}"));
        assert_eq!(report.rounds, rounds);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
