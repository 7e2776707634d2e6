//! Membership-churn test matrix (DESIGN.md §15).
//!
//! Pins the churn subsystem's headline guarantees:
//!
//! - a zero-rate plan draws nothing and is bit-identical to a run without
//!   churn (the pre-churn build);
//! - active plans are deterministic and give the same bits on both
//!   executors;
//! - a churn run killed at any checkpointed round and resumed from its
//!   snapshot (which carries the `churn` section: topology, rosters,
//!   joiner provenance, stale counter) is bit-identical to the
//!   uninterrupted run, also one killed after joiners have left (the
//!   resumed run re-mints only the joiners still in the member lists);
//! - the availability oracle: under permanent edge failures, re-homing
//!   the failed edge's clients onto survivors delivers at least 1.5× the
//!   client uploads of the stale-fallback baseline (`rehome: false`);
//! - `max_stale_rounds` aborts with the typed [`RunError`] after the
//!   configured number of consecutive all-failed rounds, in every
//!   hierarchical algorithm and across a resume, and `0` never aborts.

use hierminimax::checkpoint::{read_snapshot, snapshot_path};
use hierminimax::core::algorithms::{
    Algorithm, HierFavg, HierFavgConfig, HierMinimax, HierMinimaxConfig, MultiLevelConfig,
    MultiLevelMinimax, RunError, RunOpts, UpperLevel,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::{CheckpointOpts, RunResult};
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{ChurnPlan, FaultPlan, Link, Parallelism};
use hierminimax::telemetry::{MemorySink, Telemetry, TelemetryEvent};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 23;
const ROUNDS: usize = 8;

fn problem() -> FederatedProblem {
    let sc = tiny_problem(4, 2, 11);
    FederatedProblem::logistic_from_scenario(&sc)
}

fn opts(par: Parallelism, plan: &ChurnPlan) -> RunOpts {
    RunOpts {
        eval_every: 2,
        parallelism: par,
        churn: *plan,
        ..Default::default()
    }
}

fn hmx_cfg(rounds: usize, opts: RunOpts) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        opts,
        ..Default::default()
    }
}

fn hfa_cfg(rounds: usize, opts: RunOpts) -> HierFavgConfig {
    HierFavgConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.1,
        batch_size: 2,
        opts,
        ..Default::default()
    }
}

fn assert_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_w, b.final_w, "{tag}: final_w differs");
    assert_eq!(a.avg_w, b.avg_w, "{tag}: avg_w differs");
    assert_eq!(a.final_p, b.final_p, "{tag}: final_p differs");
    assert_eq!(a.avg_p, b.avg_p, "{tag}: avg_p differs");
    assert_eq!(a.history, b.history, "{tag}: history differs");
    assert_eq!(a.comm, b.comm, "{tag}: comm stats differ");
    assert_eq!(a.faults, b.faults, "{tag}: fault stats differ");
    assert_eq!(a.churn, b.churn, "{tag}: churn stats differ");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-churn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- Zero-rate plans are inert. -----------------------------------------

/// A plan whose rates are all zero makes no RNG draws, so the run is
/// bit-identical to one with no churn configured at all — the
/// compatibility contract with pre-churn builds.
#[test]
fn zero_rate_plan_is_bit_identical_to_no_churn() {
    let fp = problem();
    let zero = ChurnPlan {
        leave_rate: 0.0,
        join_rate: 0.0,
        edge_fail_rate: 0.0,
        rehome: true,
    };
    let base = opts(Parallelism::Sequential, &zero);
    let plain = RunOpts {
        churn: ChurnPlan::default(),
        ..base.clone()
    };
    let with_zero = HierMinimax::new(hmx_cfg(ROUNDS, base.clone())).run(&fp, SEED);
    let without = HierMinimax::new(hmx_cfg(ROUNDS, plain.clone())).run(&fp, SEED);
    assert_identical("hierminimax zero-rate", &with_zero, &without);
    assert_eq!(with_zero.churn.total(), 0);

    let with_zero = HierFavg::new(hfa_cfg(ROUNDS, base)).run(&fp, SEED);
    let without = HierFavg::new(hfa_cfg(ROUNDS, plain)).run(&fp, SEED);
    assert_identical("hierfavg zero-rate", &with_zero, &without);
}

// ---- Executor invariance. -----------------------------------------------

/// Both executors produce the same bits under an active plan, and
/// re-running a cell reproduces it.
#[test]
fn churn_is_bit_identical_across_executors() {
    let fp = problem();
    for preset in ["mild", "chaos-churn"] {
        let plan = ChurnPlan::preset(preset).unwrap();
        let mut cells: Vec<(String, RunResult)> = Vec::new();
        for par in [Parallelism::Sequential, Parallelism::Rayon] {
            let tag = format!("{preset}-{par:?}").to_lowercase();
            let o = opts(par, &plan);
            let r = HierMinimax::new(hmx_cfg(ROUNDS, o.clone())).run(&fp, SEED);
            let again = HierMinimax::new(hmx_cfg(ROUNDS, o)).run(&fp, SEED);
            assert_identical(&format!("{tag} rerun"), &r, &again);
            cells.push((tag, r));
        }
        let (ref_tag, reference) = &cells[0];
        assert!(
            reference.churn.total() > 0,
            "{preset} must actually churn over {ROUNDS} rounds"
        );
        for (tag, r) in &cells[1..] {
            assert_identical(&format!("{tag} vs {ref_tag}"), reference, r);
        }
    }
}

// ---- Checkpoint/resume bit-identity under churn. ------------------------

/// Kill at every checkpointed round under an active plan and resume: the
/// snapshot's `churn` section restores the active topology, rosters,
/// joiner shards and stale counter, so the resumed run is bit-identical.
/// Under the leave-heavy plan joiners have already left at the later
/// kills: the snapshot still lists every joiner, and the resumed run
/// re-mints only those still in the member lists.
#[test]
fn churn_run_resumes_bit_identically_from_every_round() {
    let fp = problem();
    let base_total = fp.topology().total_clients();
    let leave_heavy = ChurnPlan {
        leave_rate: 0.3,
        join_rate: 0.5,
        edge_fail_rate: 0.0,
        rehome: true,
    };
    let preset = |name| (name, ChurnPlan::preset(name).unwrap(), ROUNDS);
    let cases = [
        preset("edge-failover"),
        preset("chaos-churn"),
        ("leave-heavy", leave_heavy, 12),
    ];
    for (name, plan, rounds) in cases {
        let base = opts(Parallelism::Sequential, &plan);
        let dir = scratch_dir(&format!("{name}-w"));
        let dir_r = scratch_dir(&format!("{name}-r"));

        let sink = Arc::new(MemorySink::new());
        let mut writer_opts = base.clone();
        writer_opts.checkpoint = CheckpointOpts::writing(&dir, 1);
        writer_opts.telemetry = Telemetry::with_sink(sink.clone());
        let full = HierMinimax::new(hmx_cfg(rounds, writer_opts)).run(&fp, SEED);
        assert!(full.churn.total() > 0, "{name} must fire");

        // Checkpointing must not perturb the run.
        let plain = HierMinimax::new(hmx_cfg(rounds, base.clone())).run(&fp, SEED);
        assert_identical(&format!("{name}: checkpointing perturbed"), &plain, &full);

        if name == "leave-heavy" {
            // A joiner leaves well before the last kill, so the later
            // snapshots name departed joiners.
            let first_departure = sink
                .events()
                .iter()
                .find_map(|e| match e {
                    TelemetryEvent::Churn { round, left, .. }
                        if left.iter().any(|&g| g >= base_total) =>
                    {
                        Some(*round)
                    }
                    _ => None,
                })
                .expect("a joiner must leave during the run");
            assert!(
                first_departure + 2 < rounds,
                "joiners left only at round {first_departure}"
            );
        }

        for kill in 1..rounds {
            let snap = read_snapshot(&snapshot_path(&dir, "HierMinimax", kill))
                .unwrap_or_else(|e| panic!("{name}: reading round-{kill} snapshot: {e}"));
            let mut resumed_opts = base.clone();
            resumed_opts.checkpoint = CheckpointOpts::writing(&dir_r, 1);
            resumed_opts.checkpoint.resume = Some(Arc::new(snap));
            let resumed = HierMinimax::new(hmx_cfg(rounds, resumed_opts)).run(&fp, SEED);
            assert_identical(&format!("{name}: kill at round {kill}"), &full, &resumed);
        }

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_r);
    }
}

// ---- Availability oracle. -----------------------------------------------

/// Under permanent edge failures, re-homing keeps the failed edges'
/// clients delivering through survivors; the stale-fallback baseline
/// strands them. Re-homing must restore at least 1.5× the client uploads.
#[test]
fn rehoming_restores_upload_availability() {
    let fp = problem();
    let rounds = 16;
    let fail = ChurnPlan::preset("edge-failover").unwrap();
    assert!(fail.rehome, "preset re-homes by default");
    let strand = ChurnPlan {
        rehome: false,
        ..fail
    };

    let o = |p: &ChurnPlan| opts(Parallelism::Sequential, p);
    let rehomed = HierMinimax::new(hmx_cfg(rounds, o(&fail))).run(&fp, SEED);
    let stranded = HierMinimax::new(hmx_cfg(rounds, o(&strand))).run(&fp, SEED);

    assert!(rehomed.churn.rehomed > 0, "failures must re-home clients");
    assert_eq!(rehomed.churn.stranded, 0);
    assert!(stranded.churn.stranded > 0, "fallback must strand clients");
    assert_eq!(stranded.churn.rehomed, 0);
    // Identical failure draws on both sides: the rehome knob is policy,
    // not a rate, so the keyed streams coincide.
    assert_eq!(rehomed.churn.edge_failures, stranded.churn.edge_failures);

    let up_re = rehomed.comm.uplink_msgs(Link::ClientEdge);
    let up_st = stranded.comm.uplink_msgs(Link::ClientEdge);
    assert!(
        up_re as f64 >= 1.5 * up_st as f64,
        "re-homing delivered {up_re} uploads vs {up_st} stranded — below the 1.5x floor"
    );
}

// ---- max_stale_rounds. --------------------------------------------------

fn all_out_opts(max_stale_rounds: usize) -> RunOpts {
    RunOpts {
        eval_every: 2,
        fault: FaultPlan {
            edge_outage: 1.0,
            ..FaultPlan::default()
        },
        max_stale_rounds,
        ..Default::default()
    }
}

/// With every sampled edge perpetually outed, the stale counter grows
/// every round and the run aborts with the typed error exactly after
/// `limit + 1` consecutive stale rounds.
#[test]
fn stale_rounds_abort_with_typed_error() {
    let fp = problem();
    let err = HierMinimax::new(hmx_cfg(ROUNDS, all_out_opts(2)))
        .try_run(&fp, SEED)
        .unwrap_err();
    assert_eq!(
        err,
        RunError::StaleRoundsExceeded {
            round: 2,
            consecutive: 3,
            limit: 2,
        }
    );
    let err = HierFavg::new(hfa_cfg(ROUNDS, all_out_opts(1)))
        .try_run(&fp, SEED)
        .unwrap_err();
    assert_eq!(
        err,
        RunError::StaleRoundsExceeded {
            round: 1,
            consecutive: 2,
            limit: 1,
        }
    );
}

/// MultiLevel shares the cap: under a total outage its `try_run` aborts
/// after `limit + 1` stale rounds too.
#[test]
fn multilevel_aborts_on_stale_rounds() {
    let fp = problem();
    let want = RunError::StaleRoundsExceeded {
        round: 2,
        consecutive: 3,
        limit: 2,
    };
    let ml = MultiLevelMinimax::new(MultiLevelConfig {
        rounds: ROUNDS,
        upper: vec![UpperLevel {
            group_size: 2,
            tau: 2,
        }],
        m_groups: 2,
        opts: all_out_opts(2),
        ..Default::default()
    });
    assert_eq!(ml.try_run(&fp, SEED).err(), Some(want));
}

/// A resumed run continues the stale-round streak of the run it came
/// from, with churn off too: resumed from the snapshot after three stale
/// rounds, the run aborts exactly where the uninterrupted one does.
#[test]
fn resumed_run_keeps_the_stale_round_streak() {
    let fp = problem();
    // Short enough that a streak restarted at zero would finish the run.
    let rounds = 6;
    let want = RunError::StaleRoundsExceeded {
        round: 3,
        consecutive: 4,
        limit: 3,
    };
    type Factory = fn(usize, RunOpts) -> Box<dyn Algorithm>;
    let algorithms: [(&str, Factory); 2] = [
        ("HierMinimax", |r, o| {
            Box::new(HierMinimax::new(hmx_cfg(r, o)))
        }),
        ("HierFAVG", |r, o| Box::new(HierFavg::new(hfa_cfg(r, o)))),
    ];
    for (name, factory) in algorithms {
        let dir = scratch_dir(&format!("stale-{name}"));
        let mut writer = all_out_opts(3);
        writer.checkpoint = CheckpointOpts::writing(&dir, 1);
        let full = factory(rounds, writer).try_run(&fp, SEED);
        assert_eq!(full.err(), Some(want.clone()), "{name}: uninterrupted");

        let snap = read_snapshot(&snapshot_path(&dir, name, 3))
            .unwrap_or_else(|e| panic!("{name}: reading round-3 snapshot: {e}"));
        let mut resumed = all_out_opts(3);
        resumed.checkpoint.resume = Some(Arc::new(snap));
        let got = factory(rounds, resumed).try_run(&fp, SEED);
        assert_eq!(got.err(), Some(want.clone()), "{name}: resumed at round 3");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `max_stale_rounds: 0` disables the cap: a fully-outed run limps to the
/// end on the stale-round path instead of aborting.
#[test]
fn zero_stale_limit_never_aborts() {
    let fp = problem();
    let r = HierMinimax::new(hmx_cfg(ROUNDS, all_out_opts(0)))
        .try_run(&fp, SEED)
        .unwrap();
    assert_eq!(r.history.rounds.len(), ROUNDS);
}
