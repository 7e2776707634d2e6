//! Fault-injection semantics across the round driver's paths: graceful
//! degradation (stale models, survivor renormalization, two-layer
//! clients that drop or are benched sending nothing), retry/timeout
//! accounting against the closed form, and strict determinism — the same
//! seeded plan produces bit-identical runs across execution modes.

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, MethodRun, RunError, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{FaultPlan, Link, MsgChannel, Parallelism};
use hm_testkit::strategies::record;
use hm_testkit::{check_stream, reference_init_w, Protocol};

fn opts(fault: FaultPlan, par: Parallelism) -> RunOpts {
    RunOpts {
        eval_every: 0,
        parallelism: par,
        fault,
        ..Default::default()
    }
}

/// `rounds` rounds on two edges (MultiLevel: one group of two) at
/// `η_w = 0.1`, `η_p = 0.01`.
fn hyper(rounds: usize) -> Hyper {
    Hyper {
        rounds,
        eta_w: 0.1,
        eta_p: 0.01,
        loss_batch: 4,
        ..Hyper::default()
    }
}

/// HierMinimax's sequential run of `h` under `fault`.
fn hmx(h: &Hyper, fault: FaultPlan) -> MethodRun {
    Method::HierMinimax.build(h, opts(fault, Parallelism::Sequential))
}

/// A plan whose rates are all zero must not perturb the run at all, even
/// with every non-rate knob (retries, backoff, deadlines) cranked: the
/// zero-rate fast paths make no RNG draws, so iterates, communication and
/// sampling stay bit-identical to the fault-off default.
#[test]
fn zero_rate_plan_is_bit_identical_to_fault_off() {
    let sc = tiny_problem(3, 2, 41);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let off = hmx(&hyper(8), FaultPlan::default()).run(&fp, 3);
    let zeroed = FaultPlan {
        max_retries: 7,
        backoff_base_s: 1.5,
        straggler_slowdown: 5.0,
        deadline_factor: 9.0,
        ..FaultPlan::default()
    };
    let on = hmx(&hyper(8), zeroed).run(&fp, 3);
    assert_eq!(off.final_w, on.final_w);
    assert_eq!(off.final_p, on.final_p);
    assert_eq!(off.avg_w, on.avg_w);
    assert_eq!(off.comm, on.comm);
    assert_eq!(on.faults, Default::default());
}

/// Every sampled edge out every round: the cloud never receives an
/// update, so `w^(k)` must stay bit-identical to the initialization, and
/// the dual weights must remain a feasible distribution throughout (the
/// run's stream replays through the conformance automaton, which checks
/// feasibility round by round).
#[test]
fn all_sampled_edges_out_keeps_model_stale_and_p_feasible() {
    let sc = tiny_problem(3, 2, 42);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let blackout = FaultPlan {
        edge_outage: 1.0,
        ..FaultPlan::default()
    };
    let (h, mut o) = (hyper(4), opts(blackout, Parallelism::Sequential));
    let sink = record(&mut o);
    let r = Method::HierMinimax.build(&h, o.clone()).run(&fp, 7);
    let init = reference_init_w(&fp, 7);
    assert_eq!(r.final_w, init, "no surviving edge may move the model");
    let report = check_stream(
        &fp,
        Protocol::new(Method::HierMinimax, &h, &o),
        7,
        &sink.events(),
    )
    .unwrap_or_else(|e| panic!("conformance under blackout: {e}"));
    assert_eq!(report.rounds, 4);
    assert!(report.faults > 0);
    let sum: f32 = r.final_p.iter().sum();
    assert!((sum - 1.0).abs() < 1e-4, "p left the simplex: {sum}");
    assert!(r.faults.outages > 0);
}

/// Survivor-only averaging renormalizes the aggregation weights to sum to
/// one: with `η_w = 0` every surviving client reports the broadcast model
/// unchanged, so any weight mass lost to crashed clients would show up as
/// the average drifting off the initialization.
#[test]
fn survivor_renormalization_sums_to_one() {
    let sc = tiny_problem(3, 2, 43);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let crashy = FaultPlan {
        client_crash: 0.4,
        ..FaultPlan::default()
    };
    let h = Hyper {
        eta_w: 0.0,
        ..hyper(6)
    };
    let r = hmx(&h, crashy).run(&fp, 11);
    assert!(r.faults.crashes > 0, "crash rate 0.4 must fire");
    let init = reference_init_w(&fp, 11);
    let drift = r
        .final_w
        .iter()
        .zip(&init)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f32, f32::max);
    assert!(
        drift < 1e-5,
        "renormalized survivor weights must sum to 1 (drift {drift})"
    );
}

/// A two-layer baseline's client talks to the cloud directly, so a client
/// that crashes uploads nothing — no edge forwards a model for it. Every
/// surviving participant is billed one `ClientCloud` upload, and with
/// every client down no report arrives: the model never moves and each
/// round counts toward the `max_stale_rounds` cap.
#[test]
fn crashed_baseline_clients_upload_nothing() {
    let sc = tiny_problem(3, 2, 47);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let (rounds, m) = (6, 4);
    let fedavg = |client_crash: f32, max_stale_rounds: usize| {
        let fault = FaultPlan {
            client_crash,
            ..FaultPlan::default()
        };
        let o = RunOpts {
            max_stale_rounds,
            ..opts(fault, Parallelism::Sequential)
        };
        Method::FedAvg.build(&Hyper { m, ..hyper(rounds) }, o)
    };
    let sent = (rounds * m) as u64;

    let r = fedavg(0.4, 0).run(&fp, 5);
    assert!(r.faults.crashes > 0 && r.faults.crashes < sent);
    assert_eq!(r.comm.downlink_msgs(Link::ClientCloud), sent);
    assert_eq!(
        r.comm.uplink_msgs(Link::ClientCloud),
        sent - r.faults.crashes,
        "one upload per surviving client"
    );

    let r = fedavg(1.0, 0).run(&fp, 5);
    assert_eq!(r.faults.crashes, sent);
    assert_eq!(r.comm.uplink_msgs(Link::ClientCloud), 0);
    assert_eq!(r.comm.uplink_floats(Link::ClientCloud), 0);
    assert_eq!(r.final_w, reference_init_w(&fp, 5));

    let err = fedavg(1.0, 2)
        .try_run(&fp, 5)
        .expect_err("three stale rounds exceed a cap of two");
    assert_eq!(
        err,
        RunError::StaleRoundsExceeded {
            round: 2,
            consecutive: 3,
            limit: 2,
        }
    );
}

/// The cloud sends a benched two-layer client nothing: like a client
/// that was never sampled it draws no fault stream, so every sampled
/// client that is not benched is billed one broadcast and one upload, and
/// each benched one counts one excluded upload.
#[test]
fn benched_baseline_clients_are_sent_nothing() {
    let sc = tiny_problem(4, 2, 48);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let (rounds, m) = (8, 6);
    let byzantine = FaultPlan::preset("byzantine").expect("byzantine preset exists");
    let o = RunOpts {
        quarantine_z: 1.0,
        quarantine_window: 2,
        ..opts(byzantine, Parallelism::Sequential)
    };
    let r = Method::FedAvg
        .build(&Hyper { m, ..hyper(rounds) }, o)
        .run(&fp, 9);
    let benched = r.quarantine.excluded_uploads;
    assert!(benched > 0, "no sampled client was benched");
    let sent = (rounds * m) as u64 - benched;
    assert_eq!(r.comm.downlink_msgs(Link::ClientCloud), sent);
    assert_eq!(r.comm.uplink_msgs(Link::ClientCloud), sent);
}

/// Retry-exhausted rounds match the closed-form meter deltas: on a
/// single-edge topology the whole WAN exchange is three messages per
/// round, so the expected `EdgeCloud` totals can be recomputed exactly
/// from the plan's own delivery streams (every attempt retransmits the
/// full payload; a gave-up uplink still consumed its attempts).
#[test]
fn retry_exhausted_rounds_match_closed_form_comm() {
    let sc = tiny_problem(1, 2, 44);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let lossy = FaultPlan {
        msg_loss: 0.4,
        max_retries: 1,
        ..FaultPlan::default()
    };
    let rounds = 12;
    let seed = 23;
    let r = hmx(
        &Hyper {
            m: 1,
            ..hyper(rounds)
        },
        lossy.clone(),
    )
    .run(&fp, seed);
    assert!(r.faults.retries > 0, "loss 0.4 over 36 messages must retry");
    assert!(r.faults.gave_up > 0, "max_retries 1 must exhaust sometimes");

    let d = fp.num_params() as u64;
    let (mut down_f, mut down_m, mut up_f, mut up_m) = (0_u64, 0_u64, 0_u64, 0_u64);
    for k in 0..rounds as u64 {
        // Phase 1 down: model + (c1, c2), one attempt per transmission.
        let dv = lossy.delivery(seed, k, 0, MsgChannel::Phase1Down, 0);
        down_f += (d + 2) * u64::from(dv.attempts);
        down_m += u64::from(dv.attempts);
        if dv.delivered {
            // Phase 1 up: (w_final, w_checkpoint), metered per attempt
            // whether or not the message ultimately arrives.
            let dv = lossy.delivery(seed, k, 0, MsgChannel::Phase1Up, 0);
            up_f += 2 * d * u64::from(dv.attempts);
            up_m += u64::from(dv.attempts);
        }
        // Phase 2 down: checkpoint model to the estimate edge; the scalar
        // reply rides the reliable control channel (one float, no retry).
        let dv = lossy.delivery(seed, k, 0, MsgChannel::Phase2Down, 0);
        down_f += d * u64::from(dv.attempts);
        down_m += u64::from(dv.attempts);
        if dv.delivered {
            up_f += 1;
            up_m += 1;
        }
    }
    assert_eq!(r.comm.downlink_floats(Link::EdgeCloud), down_f);
    assert_eq!(r.comm.downlink_msgs(Link::EdgeCloud), down_m);
    assert_eq!(r.comm.uplink_floats(Link::EdgeCloud), up_f);
    assert_eq!(r.comm.uplink_msgs(Link::EdgeCloud), up_m);
}

/// The chaos preset — every fault class at once — is bit-identical across
/// execution modes and reruns: fault draws key on (seed, purpose, round,
/// entity), never on scheduling.
#[test]
fn chaos_preset_is_deterministic_across_parallelism() {
    let sc = tiny_problem(3, 2, 45);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let chaos = FaultPlan::preset("chaos").expect("chaos preset exists");
    let seq = hmx(&hyper(10), chaos.clone()).run(&fp, 17);
    let par = Method::HierMinimax
        .build(&hyper(10), opts(chaos.clone(), Parallelism::Rayon))
        .run(&fp, 17);
    assert_eq!(seq.final_w, par.final_w);
    assert_eq!(seq.final_p, par.final_p);
    assert_eq!(seq.comm, par.comm);
    assert_eq!(seq.faults, par.faults);
    // And a rerun of the same mode reproduces itself exactly.
    let again = hmx(&hyper(10), chaos).run(&fp, 17);
    assert_eq!(seq.final_w, again.final_w);
    assert_eq!(seq.faults, again.faults);
}

/// Every hierarchical path degrades gracefully under heavy faults: runs
/// terminate, parameters stay finite, dual weights stay distributions,
/// and the injector's books record the damage.
#[test]
fn all_hierarchical_paths_survive_heavy_faults() {
    let sc = tiny_problem(4, 2, 46);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let chaos = FaultPlan::preset("chaos").expect("chaos preset exists");

    let hf = Method::HierFavg
        .build(&hyper(8), opts(chaos, Parallelism::Rayon))
        .run(&fp, 29);
    assert!(hf.final_w.iter().all(|x| x.is_finite()));
    let hf_hits = hf.faults.crashes + hf.faults.outages + hf.faults.gave_up;
    assert!(hf_hits > 0, "chaos preset must hit HierFAVG");

    // Multi-level: cloud-link faults plus client crashes inside subtrees.
    let cloud_faults = FaultPlan {
        client_crash: 0.2,
        edge_outage: 0.3,
        msg_loss: 0.3,
        max_retries: 1,
        ..FaultPlan::default()
    };
    let ml = Method::MultiLevel
        .build(&hyper(6), opts(cloud_faults, Parallelism::Sequential))
        .run(&fp, 31);
    assert!(ml.final_w.iter().all(|x| x.is_finite()));
    let psum: f32 = ml.final_p.iter().sum();
    assert!((psum - 1.0).abs() < 1e-4, "multi-level p left P: {psum}");
    assert!(ml.faults.outages + ml.faults.gave_up + ml.faults.crashes > 0);
}
