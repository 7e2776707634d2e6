//! Differential tests: the optimized algorithm implementations must be
//! **bit-identical** to the deliberately naive reference oracle in
//! `hm-testkit` — same keyed RNG streams, same accumulation order, same
//! projections, so every `assert_eq!` below is on raw bits with no
//! tolerance: each round's model through its streamed digest
//! (`phase1_done.w_digest`), each round's weights through `dual_update.p`,
//! and the final `w` and `p` in full. Any refactor of the hot path (fused steps, workspaces,
//! scratch reuse, the fault prepass, per-edge task chains) that changes
//! even one ULP anywhere fails here.
//!
//! A second reference for the flat two-layer baselines is the hierarchical
//! round driver itself: on edges of one client, FedAvg, DRFA and
//! Stochastic-AFL are special cases of HierFAVG and HierMinimax, and the
//! two implementations must agree bit for bit while no client drops.

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts, WeightUpdateModel};
use hierminimax::core::RunResult;
use hierminimax::simnet::{FaultPlan, Parallelism, Quantizer};
use hierminimax::telemetry::{model_digest, TelemetryEvent};
use hm_testkit::strategies::{
    arb_aggregator, arb_client_fault_plan, arb_scenario, case_opts, record,
};
use hm_testkit::{
    reference_drfa_round, reference_fedavg_round, reference_hierminimax_run, reference_init_w,
    PDomainSpec, ReferenceRound, ScenarioSpec,
};
use proptest::prelude::*;

/// Per-round model digests and weights pulled out of a stream.
fn streamed_iterates(events: &[TelemetryEvent]) -> (Vec<u64>, Vec<Vec<f32>>) {
    let mut ws = Vec::new();
    let mut ps = Vec::new();
    for e in events {
        match e {
            TelemetryEvent::Phase1Done { w_digest, .. } => ws.push(*w_digest),
            TelemetryEvent::DualUpdate { p, .. } => ps.push(p.clone()),
            _ => {}
        }
    }
    (ws, ps)
}

/// The digest the stream carries for model `w`.
fn digest(w: &[f32]) -> u64 {
    model_digest(w).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HierMinimax's per-round global model and edge weights match the
    /// naive reference round-for-round, bit-for-bit, under client-level
    /// faults (crashes, stragglers, Byzantine corruption)
    /// and every aggregation rule. Cloud-link faults, which the oracle
    /// does not model, are covered by the conformance replay, the fault
    /// suite and the pinned-bits cases.
    #[test]
    fn hierminimax_matches_reference(
        spec in arb_scenario(),
        fault in arb_client_fault_plan(),
        aggregator in arb_aggregator(),
    ) {
        // The scenario's crash rate applies where the client plan has none.
        let client_crash = if fault.client_crash == 0.0 {
            spec.fault.client_crash
        } else {
            fault.client_crash
        };
        let spec = hm_testkit::ScenarioSpec {
            fault: FaultPlan {
                client_crash,
                ..fault
            },
            ..spec
        };
        let (fp, h) = (spec.problem(), spec.hyper());
        let opts = RunOpts { aggregator, ..spec.opts() };
        let mut recorded = opts.clone();
        let sink = record(&mut recorded);
        let r = Method::HierMinimax.build(&h, recorded).run(&fp, spec.run_seed);
        let (ws, ps) = streamed_iterates(&sink.events());
        let reference: Vec<ReferenceRound> =
            reference_hierminimax_run(&fp, &h, &opts, spec.run_seed);

        prop_assert_eq!(ws.len(), reference.len());
        prop_assert_eq!(ps.len(), reference.len());
        for (k, rr) in reference.iter().enumerate() {
            prop_assert_eq!(ws[k], digest(&rr.w), "w diverged at round {} ({:?})", k, spec);
            prop_assert_eq!(&ps[k], &rr.p, "p diverged at round {} ({:?})", k, spec);
        }
        let last = reference.last().unwrap();
        prop_assert_eq!(&r.final_w, &last.w);
        prop_assert_eq!(&r.final_p, &last.p);
    }
}

/// `spec`'s hyper-parameters for a two-layer baseline: its clients
/// sampled `1 + (m_E · N_0) mod N` at a time.
fn flat_hyper(spec: &ScenarioSpec) -> Hyper {
    let n_clients = spec.n_edges * spec.clients_per_edge;
    Hyper {
        m: 1 + (spec.m_edges * spec.clients_per_edge) % n_clients,
        ..spec.hyper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FedAvg's per-round global model matches the naive reference.
    #[test]
    fn fedavg_matches_reference(spec in arb_scenario()) {
        let fp = spec.problem();
        let h = flat_hyper(&spec);
        let mut opts = case_opts();
        let sink = record(&mut opts);
        let r = Method::FedAvg.build(&h, opts).run(&fp, spec.run_seed);
        let (ws, _) = streamed_iterates(&sink.events());
        prop_assert_eq!(ws.len(), h.rounds);

        let mut w = reference_init_w(&fp, spec.run_seed);
        for (k, &streamed) in ws.iter().enumerate() {
            w = reference_fedavg_round(&fp, &h, spec.run_seed, k, &w);
            prop_assert_eq!(streamed, digest(&w), "w diverged at round {} ({:?})", k, spec);
        }
        prop_assert_eq!(&r.final_w, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DRFA's per-round global model and per-edge weight vector match the
    /// naive reference, with the client-level `q` threaded between rounds.
    #[test]
    fn drfa_matches_reference(spec in arb_scenario()) {
        let fp = spec.problem();
        let n_clients = spec.n_edges * spec.clients_per_edge;
        let h = flat_hyper(&spec);
        let mut opts = case_opts();
        let sink = record(&mut opts);
        let r = Method::Drfa.build(&h, opts).run(&fp, spec.run_seed);
        let (ws, ps) = streamed_iterates(&sink.events());
        prop_assert_eq!(ws.len(), h.rounds);
        prop_assert_eq!(ps.len(), h.rounds);

        let mut w = reference_init_w(&fp, spec.run_seed);
        let mut q = vec![1.0_f32 / n_clients as f32; n_clients];
        for k in 0..h.rounds {
            let (w_next, q_next, p_edge) =
                reference_drfa_round(&fp, &h, spec.run_seed, k, &w, &q);
            prop_assert_eq!(ws[k], digest(&w_next), "w diverged at round {} ({:?})", k, spec);
            prop_assert_eq!(&ps[k], &p_edge, "p diverged at round {} ({:?})", k, spec);
            w = w_next;
            q = q_next;
        }
        prop_assert_eq!(&r.final_w, &w);
    }
}

/// `final_w`, `avg_w`, `final_p`, `avg_p`, each round's recorded `p`
/// and per-edge accuracy, and the fault and quarantine counters of `flat`
/// and `hier`, bit for bit.
fn assert_same_run(
    what: &str,
    flat: &RunResult,
    hier: &RunResult,
    spec: &ScenarioSpec,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &flat.final_w,
        &hier.final_w,
        "{}: final_w ({:?})",
        what,
        spec
    );
    prop_assert_eq!(&flat.avg_w, &hier.avg_w, "{}: avg_w ({:?})", what, spec);
    prop_assert_eq!(
        &flat.final_p,
        &hier.final_p,
        "{}: final_p ({:?})",
        what,
        spec
    );
    prop_assert_eq!(&flat.avg_p, &hier.avg_p, "{}: avg_p ({:?})", what, spec);
    prop_assert_eq!(&flat.faults, &hier.faults, "{}: faults ({:?})", what, spec);
    prop_assert_eq!(
        &flat.quarantine,
        &hier.quarantine,
        "{}: quarantine ({:?})",
        what,
        spec
    );
    prop_assert_eq!(flat.history.rounds.len(), hier.history.rounds.len());
    for (a, b) in flat.history.rounds.iter().zip(&hier.history.rounds) {
        prop_assert_eq!(&a.p, &b.p, "{}: p at round {} ({:?})", what, a.round, spec);
        let acc = |r: &hierminimax::core::history::RoundRecord| {
            r.eval.as_ref().map(|e| e.per_edge_accuracy.clone())
        };
        prop_assert_eq!(
            acc(a),
            acc(b),
            "{}: accuracy at round {} ({:?})",
            what,
            a.round,
            spec
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On edges of one client, with the simplex `P`: FedAvg is HierFAVG
    /// with `τ2 = 1`, DRFA is HierMinimax with `τ2 = 1`, and
    /// Stochastic-AFL is HierMinimax with `τ1 = τ2 = 1` estimating its
    /// losses on the round-start model — under the scenario's cloud-link
    /// faults, drawn Byzantine uploads and every aggregation rule. Every
    /// round is evaluated, and the executor alternates with the run seed.
    /// Left out are what a one-client edge does differently by design:
    /// crashes, missed deadlines and quarantine (a client unit whose
    /// client drops uploads nothing, where the edge forwards its
    /// block-start model; `tests/faults.rs` checks the client-unit rule),
    /// and the codec (a client unit has none, while an edge of one client
    /// would apply it twice).
    #[test]
    fn flat_baselines_match_hierarchical_on_one_client_edges(
        spec in arb_scenario(),
        adversary in arb_client_fault_plan(),
        aggregator in arb_aggregator(),
    ) {
        let fault = FaultPlan {
            edge_outage: spec.fault.edge_outage,
            msg_loss: spec.fault.msg_loss,
            max_retries: spec.fault.max_retries,
            backoff_base_s: spec.fault.backoff_base_s,
            backoff_jitter: spec.fault.backoff_jitter,
            corrupt_rate: adversary.corrupt_rate,
            attack: adversary.attack,
            attack_scale: adversary.attack_scale,
            ..FaultPlan::default()
        };
        let spec = ScenarioSpec {
            clients_per_edge: 1,
            tau2: 1,
            fault: fault.clone(),
            quantizer: Quantizer::Exact,
            p_domain: PDomainSpec::Simplex,
            ..spec
        };
        let fp = spec.problem();
        let opts = RunOpts {
            eval_every: 1,
            parallelism: if spec.run_seed.is_multiple_of(2) {
                Parallelism::Sequential
            } else {
                Parallelism::Rayon
            },
            fault,
            aggregator,
            ..case_opts()
        };
        let (h, seed) = (spec.hyper(), spec.run_seed);
        let run = |m: Method, h: &Hyper, opts: &RunOpts| m.build(h, opts.clone()).run(&fp, seed);

        let fedavg = run(Method::FedAvg, &h, &opts);
        let hierfavg = run(Method::HierFavg, &h, &opts);
        assert_same_run("FedAvg vs HierFAVG", &fedavg, &hierfavg, &spec)?;

        let drfa = run(Method::Drfa, &h, &opts);
        let checkpoint = Hyper {
            weight_update_model: WeightUpdateModel::RandomCheckpoint,
            ..h.clone()
        };
        let hier = run(Method::HierMinimax, &checkpoint, &opts);
        assert_same_run("DRFA vs HierMinimax", &drfa, &hier, &spec)?;

        // A Stochastic-AFL client that took part in Phase 1 already holds
        // the round-start model and is sent nothing in Phase 2, where the
        // edge of one client gets it again: message loss would part them.
        let opts = RunOpts {
            fault: FaultPlan {
                msg_loss: 0.0,
                ..opts.fault.clone()
            },
            ..opts
        };
        let afl = run(Method::StochasticAfl, &h, &opts);
        let round_start = Hyper {
            tau1: 1,
            weight_update_model: WeightUpdateModel::RoundStart,
            ..h
        };
        let hier = run(Method::HierMinimax, &round_start, &opts);
        assert_same_run("Stochastic-AFL vs HierMinimax", &afl, &hier, &spec)?;
    }
}

/// The reference oracle is itself deterministic and seed-sensitive: the
/// cheapest smoke test that the differential suite can actually fail.
#[test]
fn reference_is_seed_sensitive() {
    let spec = hm_testkit::ScenarioSpec {
        n_edges: 3,
        clients_per_edge: 2,
        data_seed: 5,
        run_seed: 11,
        rounds: 1,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        quantizer: hierminimax::simnet::Quantizer::Exact,
        p_domain: hm_testkit::PDomainSpec::Simplex,
        weight_update_model: hierminimax::core::algorithms::WeightUpdateModel::RandomCheckpoint,
        fault: hierminimax::simnet::FaultPlan::default(),
    };
    let (fp, h, opts) = (spec.problem(), spec.hyper(), spec.opts());
    let a = reference_hierminimax_run(&fp, &h, &opts, 11);
    let b = reference_hierminimax_run(&fp, &h, &opts, 11);
    let c = reference_hierminimax_run(&fp, &h, &opts, 12);
    assert_eq!(a, b);
    assert_ne!(a, c, "different seeds must produce different runs");
}
