//! Telemetry-layer invariants, cross-checked against the run's history
//! and the `hm-testkit` conformance automaton, which replays the stream
//! against Algorithm 1:
//!
//! - per-round `comm_delta` in the telemetry stream equals the history's
//!   per-round meter delta, and the deltas telescope to the final meter
//!   totals;
//! - the JSONL file a HierMinimax or over-selection run writes passes the
//!   schema validator and its `dual_update` lines reproduce the `p^(k)`
//!   trajectory from history;
//! - enabling telemetry cannot perturb a run (bit-identical iterates);
//! - every algorithm emits a well-formed `run_start` … `run_end` stream
//!   with one `round_end` per training round.

use std::sync::Arc;

use hierminimax::core::algorithms::{
    AflConfig, Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, FedProx, FedProxConfig, HierFavg,
    HierFavgConfig, HierMinimax, HierMinimaxConfig, MultiLevelConfig, MultiLevelMinimax,
    OverselectConfig, OverselectMinimax, QFedAvg, QfflConfig, RunOpts, StochasticAfl, UpperLevel,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{CommStats, Parallelism, Quantizer};
use hierminimax::telemetry::{
    comm_to_json, json, validate_stream, MemorySink, Telemetry, TelemetryEvent,
};
use hm_testkit::check_stream;

fn opts_with(telemetry: Telemetry) -> RunOpts {
    RunOpts {
        eval_every: 1,
        parallelism: Parallelism::Sequential,
        telemetry,
        ..Default::default()
    }
}

fn hm_cfg(rounds: usize, opts: RunOpts) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Quantizer::Exact,
        dropout: 0.0,
        tau2_per_edge: None,
        opts,
    }
}

/// Over-selection of 3 draws down to 2 on `fp`, edge `e` taking
/// `1 + e/2` seconds per slot.
fn overselect(fp: &FederatedProblem, rounds: usize, opts: RunOpts) -> OverselectMinimax {
    OverselectMinimax::new(OverselectConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        m_over: 3,
        seconds_per_slot: (0..fp.num_edges()).map(|e| 1.0 + 0.5 * e as f64).collect(),
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        dropout: 0.0,
        opts,
    })
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
    let cfg = hm_cfg(5, opts_with(Telemetry::with_sink(sink.clone())));
    let seed = 77;
    let r = HierMinimax::new(cfg.clone()).run(&fp, seed);

    let events = sink.events();
    let report =
        check_stream(&fp, &cfg, seed, &events).unwrap_or_else(|e| panic!("conformance: {e}"));
    assert_eq!(report.rounds, cfg.rounds);

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
        assert_eq!(
            comm_to_json(comm_delta),
            comm_to_json(history_delta),
            "round {k} delta"
        );
        // Cumulative totals never decrease, so simulated time is monotone.
        assert!(*sim_s >= last_sim, "round {k}: sim_s went backwards");
        last_sim = *sim_s;
        // The deltas telescope: total through round k == sum of deltas,
        // which the `since` contract guarantees; spot-check the endpoint.
        if k + 1 == ends.len() {
            assert_eq!(comm_to_json(comm_total), comm_to_json(&r.comm));
        }
    }

    let Some(TelemetryEvent::RunEnd {
        rounds, comm_total, ..
    }) = events.last()
    else {
        panic!("stream must end with run_end, got {:?}", events.last());
    };
    assert_eq!(*rounds, cfg.rounds);
    assert_eq!(comm_to_json(comm_total), comm_to_json(&r.comm));
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
    type Factory = fn(&FederatedProblem, usize, RunOpts) -> Box<dyn Algorithm>;
    let algorithms: [(&str, Factory); 2] = [
        ("hierminimax", |_, r, o| {
            Box::new(HierMinimax::new(hm_cfg(r, o)))
        }),
        ("overselect", |fp, r, o| Box::new(overselect(fp, r, o))),
    ];
    for (name, factory) in algorithms {
        let path = dir.join(format!("{name}.jsonl"));
        let tel = Telemetry::jsonl(&path).unwrap();
        let r = factory(&fp, rounds, opts_with(tel)).run(&fp, 5);

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
            .filter_map(|line| {
                let v = json::parse(line).unwrap();
                if v.get("ev").unwrap().as_str() != Some("dual_update") {
                    return None;
                }
                Some(
                    v.get("p")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|x| x.as_f64().unwrap() as f32)
                        .collect(),
                )
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
    let off = HierMinimax::new(hm_cfg(4, opts_with(Telemetry::disabled()))).run(&fp, 9);
    let sink = Arc::new(MemorySink::new());
    let on = HierMinimax::new(hm_cfg(4, opts_with(Telemetry::with_sink(sink.clone())))).run(&fp, 9);
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

    let run_with = |name: &str, f: &dyn Fn(RunOpts) -> hierminimax::core::RunResult| {
        let sink = Arc::new(MemorySink::new());
        let r = f(opts_with(Telemetry::with_sink(sink.clone())));
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
        assert_eq!(
            comm_to_json(comm_total),
            comm_to_json(&r.comm),
            "{name}: run_end totals"
        );
    };

    run_with("HierMinimax", &|opts| {
        HierMinimax::new(hm_cfg(rounds, opts)).run(&fp, 7)
    });
    run_with("HierFAVG", &|opts| {
        HierFavg::new(HierFavgConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            batch_size: 2,
            quantizer: Quantizer::Exact,
            dropout: 0.0,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("FedAvg", &|opts| {
        FedAvg::new(FedAvgConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            batch_size: 2,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("FedProx", &|opts| {
        FedProx::new(FedProxConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            mu: 0.1,
            eta_w: 0.1,
            batch_size: 2,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("q-FedAvg", &|opts| {
        QFedAvg::new(QfflConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            q: 1.0,
            eta_w: 0.1,
            batch_size: 2,
            loss_batch: 4,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("DRFA", &|opts| {
        Drfa::new(DrfaConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            eta_q: 0.1,
            batch_size: 2,
            loss_batch: 4,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("Stochastic-AFL", &|opts| {
        StochasticAfl::new(AflConfig {
            rounds,
            m_clients: 4,
            eta_w: 0.1,
            eta_q: 0.1,
            batch_size: 2,
            loss_batch: 4,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("MultiLevelMinimax", &|opts| {
        MultiLevelMinimax::new(MultiLevelConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            eta_w: 0.1,
            eta_p: 0.01,
            batch_size: 2,
            loss_batch: 4,
            dropout: 0.0,
            opts,
        })
        .run(&fp, 7)
    });
    run_with("Overselect", &|opts| {
        overselect(&fp, rounds, opts).run(&fp, 7)
    });
}
