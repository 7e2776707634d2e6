//! Byzantine-adversary guarantees at the full-run level (DESIGN.md §14).
//!
//! Four contracts are pinned here:
//!
//! 1. **Zero-rate inertness** — a plan whose `corrupt_rate` is zero makes
//!    no adversary-stream draws, and `Aggregator::Mean` routes through the
//!    exact legacy averaging kernels: runs with the adversary knobs at
//!    their defaults are bit-identical to `RunOpts::default()` runs on
//!    both executors.
//! 2. **Adversarial determinism** — corrupted runs draw every corruption
//!    bit and payload from keyed streams, so attacked runs (any attack ×
//!    any robust aggregator, quarantine on) are bit-identical across both
//!    executors, down to the adversary counters.
//! 3. **Resume carries quarantine state** — a run killed at any cloud
//!    round resumes bit-identically with the adversary active and the
//!    z-score quarantine enabled: exclusion windows and cumulative
//!    `QuarantineStats` restore from the snapshot's quarantine section.
//! 4. **The attack-success oracle** — under the canonical sign-flip
//!    attack at 20% corruption, plain mean aggregation drifts ≥ 10× as
//!    far from its honest trajectory as the trimmed mean does (the same
//!    pinned floor the `byzantine` bench gates on).

use hierminimax::checkpoint::{read_snapshot, snapshot_path};
use hierminimax::core::algorithms::{
    Algorithm, HierMinimax, HierMinimaxConfig, Hyper, Method, RunOpts,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::{CheckpointOpts, RunResult};
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{AttackModel, FaultPlan, Parallelism};
use hierminimax::tensor::Aggregator;
use std::sync::Arc;

const SEED: u64 = 23;
const ROUNDS: usize = 4;

fn problem() -> FederatedProblem {
    FederatedProblem::logistic_from_scenario(&tiny_problem(4, 4, 7))
}

fn byzantine_plan(attack: AttackModel) -> FaultPlan {
    FaultPlan {
        corrupt_rate: 0.2,
        attack,
        attack_scale: 8.0,
        ..FaultPlan::default()
    }
}

fn opts(par: Parallelism, plan: FaultPlan, agg: Aggregator) -> RunOpts {
    RunOpts {
        eval_every: 2,
        parallelism: par,
        fault: plan,
        aggregator: agg,
        ..Default::default()
    }
}

fn hierminimax(rounds: usize, opts: RunOpts) -> HierMinimax {
    HierMinimax::new(HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 3,
        m_edges: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts,
    })
}

fn assert_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_w, b.final_w, "{tag}: final_w differs");
    assert_eq!(a.avg_w, b.avg_w, "{tag}: avg_w differs");
    assert_eq!(a.final_p, b.final_p, "{tag}: final_p differs");
    assert_eq!(a.avg_p, b.avg_p, "{tag}: avg_p differs");
    assert_eq!(a.history, b.history, "{tag}: history differs");
    assert_eq!(a.comm, b.comm, "{tag}: comm stats differ");
    assert_eq!(a.faults, b.faults, "{tag}: fault stats differ");
    assert_eq!(a.quarantine, b.quarantine, "{tag}: adversary stats differ");
}

const EXECUTORS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Rayon];

#[test]
fn zero_rate_adversary_knobs_are_inert() {
    // The frozen reference: `RunOpts::default()` predates the adversary
    // layer entirely. Spelling out a zero-rate plan and the Mean
    // aggregator must not change a single bit, on either executor, and
    // must record no adversary activity.
    let fp = problem();
    for par in EXECUTORS {
        let tag = format!("{par:?}");
        let baseline = hierminimax(
            ROUNDS,
            RunOpts {
                eval_every: 2,
                parallelism: par,
                ..Default::default()
            },
        )
        .run(&fp, SEED);
        let spelled = hierminimax(
            ROUNDS,
            opts(
                par,
                FaultPlan {
                    corrupt_rate: 0.0,
                    attack: AttackModel::Collude,
                    attack_scale: 100.0,
                    ..FaultPlan::default()
                },
                Aggregator::Mean,
            ),
        )
        .run(&fp, SEED);
        assert_identical(&tag, &baseline, &spelled);
        assert_eq!(spelled.quarantine.total(), 0, "{tag}: phantom adversary");
    }
}

#[test]
fn adversarial_runs_are_bit_identical_across_executors() {
    let fp = problem();
    let cells = [
        (AttackModel::SignFlip, Aggregator::Mean),
        (
            AttackModel::SignFlip,
            Aggregator::TrimmedMean { beta: 0.25 },
        ),
        (AttackModel::Noise, Aggregator::CoordinateMedian),
        (AttackModel::Collude, Aggregator::NormClip { tau: 1.0 }),
    ];
    for (attack, agg) in cells {
        let mut quarantined = opts(Parallelism::Sequential, byzantine_plan(attack), agg);
        quarantined.quarantine_z = 2.0;
        quarantined.quarantine_window = 2;
        let reference = hierminimax(ROUNDS, quarantined).run(&fp, SEED);
        assert!(
            reference.quarantine.corrupted_updates > 0,
            "{}/{}: 20% corruption over {ROUNDS} rounds must fire",
            attack.as_str(),
            agg.as_str()
        );
        for par in EXECUTORS {
            let mut o = opts(par, byzantine_plan(attack), agg);
            o.quarantine_z = 2.0;
            o.quarantine_window = 2;
            let r = hierminimax(ROUNDS, o).run(&fp, SEED);
            let tag = format!("{}/{} [{par:?}]", attack.as_str(), agg.as_str());
            assert_identical(&tag, &reference, &r);
        }
    }
}

#[test]
fn resume_carries_quarantine_state_bit_identically() {
    // An aggressive adversary plus a tight z-score threshold, so both the
    // corruption counters and actual quarantine sentences (exclusion
    // windows spanning the kill point) must survive the snapshot.
    let fp = problem();
    let base = {
        let mut o = opts(
            Parallelism::Sequential,
            byzantine_plan(AttackModel::SignFlip),
            Aggregator::TrimmedMean { beta: 0.25 },
        );
        o.quarantine_z = 1.0;
        o.quarantine_window = 3;
        o
    };
    // `hierminimax(ROUNDS, _)`'s hyper-parameters.
    let h = Hyper {
        rounds: ROUNDS,
        tau2: 3,
        m: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        loss_batch: 4,
        ..Hyper::default()
    };
    for method in [Method::HierMinimax, Method::HierFavg] {
        let (name, factory) = (method.name(), |o: RunOpts| method.build(&h, o));
        let dir = std::env::temp_dir().join(format!(
            "hm-byz-resume-{}-{}",
            name.to_lowercase(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut w_opts = base.clone();
        w_opts.checkpoint = CheckpointOpts::writing(&dir, 1);
        let full = factory(w_opts).run(&fp, SEED);
        assert!(
            full.quarantine.quarantined_clients > 0,
            "{name}: z = 1 under κ = 8 sign-flip must quarantine someone"
        );
        assert!(
            full.quarantine.excluded_uploads > 0,
            "{name}: a quarantined client must sit out at least one block"
        );

        for kill in 1..ROUNDS {
            let snap = read_snapshot(&snapshot_path(&dir, name, kill))
                .unwrap_or_else(|e| panic!("{name}: reading round-{kill} snapshot: {e}"));
            let mut r_opts = base.clone();
            r_opts.checkpoint.resume = Some(Arc::new(snap));
            let resumed = factory(r_opts).run(&fp, SEED);
            assert_identical(&format!("{name}: kill at round {kill}"), &full, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Final-model drift an attack pushes through one aggregator, measured
/// against the same aggregator's honest run (so the aggregator's own
/// honest offset cancels out). The config mirrors the `byzantine` bench
/// cells: every edge participates each round, so honest and attacked
/// trajectories see the same participation and the drift isolates the
/// attack bias rather than sampling divergence.
fn attack_drift(fp: &FederatedProblem, agg: Aggregator, plan: FaultPlan) -> f64 {
    let run = |plan| {
        HierMinimax::new(HierMinimaxConfig {
            rounds: 10,
            tau1: 2,
            tau2: 4,
            m_edges: 4,
            eta_w: 0.05,
            eta_p: 0.01,
            batch_size: 4,
            loss_batch: 4,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts: opts(Parallelism::Sequential, plan, agg),
        })
        .run(fp, SEED)
    };
    let honest = run(FaultPlan::default());
    let attacked = run(plan);
    l2(&attacked.final_w, &honest.final_w)
}

#[test]
fn sign_flip_defeats_mean_but_not_trimmed_mean() {
    // The attack-success oracle: sign-flip at 20% corruption (κ = 10)
    // drags plain averaging at least 10× further off its honest
    // trajectory than the trimmed mean, which discards the corrupted
    // tails. Deterministic, so the floor is a hard bound, not a
    // statistical one.
    let fp = problem();
    let plan = FaultPlan {
        attack_scale: 10.0,
        ..byzantine_plan(AttackModel::SignFlip)
    };
    let mean = attack_drift(&fp, Aggregator::Mean, plan.clone());
    let trimmed = attack_drift(&fp, Aggregator::TrimmedMean { beta: 0.25 }, plan);
    assert!(
        mean >= 10.0 * trimmed,
        "mean drift {mean:.4} < 10 × trimmed drift {trimmed:.4}"
    );
}

#[test]
fn byzantine_preset_is_adversarial_and_nothing_else() {
    let plan = FaultPlan::preset("byzantine").unwrap();
    assert!(plan.has_adversary());
    assert!(
        plan.is_none(),
        "byzantine preset must not inject crashes, outages, loss, or stragglers"
    );
    assert_eq!(plan.attack, AttackModel::SignFlip);
    plan.validate().unwrap();
}
