//! Checkpoint/resume bit-identity matrix (DESIGN.md §12).
//!
//! The headline guarantee of the checkpoint subsystem, enforced here
//! rather than in prose: a run killed at **any** cloud round and resumed
//! from its snapshot is bit-identical to the uninterrupted run — same
//! `RunResult` (model, weights, history, comm totals), same `FaultStats`,
//! and the same telemetry stream once the killed run's prefix and the
//! resumed run's suffix are spliced at the `checkpoint` event.
//!
//! HierMinimax runs the full `{Sequential, Rayon} × {none, chaos}` grid
//! with a kill at every checkpointed round; the other seven algorithms run
//! the kill-at-every-round sweep on the reduced grid, with a chaos × Rayon
//! spot-check, and all eight run a Byzantine cell with a quarantine pass
//! that benches clients. A snapshot that does not fit the run (another
//! run, another problem shape, state the run would drop, a truncated
//! section) is refused with `cannot resume: …` before round 0.

use hierminimax::checkpoint::{read_snapshot, snapshot_path, Snapshot};
use hierminimax::core::algorithms::{Algorithm, Hyper, Method, MethodRun, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::{CheckpointOpts, RunResult};
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{ChurnPlan, FaultPlan, Parallelism};
use hierminimax::telemetry::{MemorySink, Telemetry, TelemetryEvent};
use hm_testkit::{scrub, splice};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 17;
const ROUNDS: usize = 4;

fn problem() -> FederatedProblem {
    let sc = tiny_problem(3, 2, 11);
    FederatedProblem::logistic_from_scenario(&sc)
}

/// Fresh scratch directory under the system temp dir; removed by the
/// caller when the matrix cell is done.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Every algorithm in the workspace, as a factory over `RunOpts` so the
/// same config can be instantiated for the writer, plain, and resumed
/// legs.
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
    assert_eq!(a.quarantine, b.quarantine, "{tag}: adversary stats differ");
    assert_eq!(a.churn, b.churn, "{tag}: churn stats differ");
}

/// Canonical JSONL digest of a stream with wall-clock scrubbed; equal
/// digests = equal streams (serialization has fixed key order).
fn stream_digest(events: &[TelemetryEvent]) -> String {
    events
        .iter()
        .map(|e| scrub(e.clone()).to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One matrix cell: run `factory` uninterrupted with per-round
/// checkpoints, then for every snapshot on disk resume from it and assert
/// the `RunResult` and the spliced telemetry stream are bit-identical to
/// the uninterrupted run. Returns the uninterrupted run.
fn assert_resume_bit_identity(
    tag: &str,
    name: &str,
    factory: &Factory,
    base: &RunOpts,
) -> RunResult {
    let fp = problem();
    let dir = scratch_dir(&format!("{tag}-w"));
    let dir_r = scratch_dir(&format!("{tag}-r"));

    // Uninterrupted run, writing a snapshot after every round.
    let writer_sink = Arc::new(MemorySink::new());
    let mut writer_opts = base.clone();
    writer_opts.checkpoint = CheckpointOpts::writing(&dir, 1);
    writer_opts.telemetry = Telemetry::with_sink(writer_sink.clone());
    let full = factory(writer_opts).run(&fp, SEED);

    // Checkpointing must not perturb the run.
    let plain = factory(base.clone()).run(&fp, SEED);
    assert_identical(
        &format!("{tag}: checkpointing perturbed the run"),
        &plain,
        &full,
    );

    // Kill at every checkpointed round (the final round is never
    // snapshotted — resuming it would be a no-op run).
    for kill in 1..ROUNDS {
        let snap = read_snapshot(&snapshot_path(&dir, name, kill))
            .unwrap_or_else(|e| panic!("{tag}: reading round-{kill} snapshot: {e}"));
        let resumed_sink = Arc::new(MemorySink::new());
        let mut resumed_opts = base.clone();
        // Keep writing snapshots after the resume so the spliced stream
        // carries the same `checkpoint` events as the uninterrupted one.
        resumed_opts.checkpoint = CheckpointOpts::writing(&dir_r, 1);
        resumed_opts.checkpoint.resume = Some(Arc::new(snap));
        resumed_opts.telemetry = Telemetry::with_sink(resumed_sink.clone());
        let resumed = factory(resumed_opts).run(&fp, SEED);
        assert_identical(&format!("{tag}: kill at round {kill}"), &full, &resumed);
        let resumed = resumed_sink.events();
        match resumed.first() {
            Some(TelemetryEvent::RunResume { next_round, .. }) if *next_round == kill => {}
            other => {
                panic!("resumed stream must open with run_resume at round {kill}, got {other:?}")
            }
        }
        let spliced = splice(&writer_sink.events(), &resumed, kill);
        assert_eq!(
            stream_digest(&spliced),
            stream_digest(&writer_sink.events()),
            "{tag}: spliced telemetry differs at kill round {kill}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_r);
    full
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
fn hierminimax_resume_matrix_full_grid() {
    let (name, factory) = all_algorithms().swap_remove(0);
    assert_eq!(name, "HierMinimax");
    let plans = [
        ("none", FaultPlan::preset("none").unwrap()),
        ("chaos", FaultPlan::preset("chaos").unwrap()),
    ];
    for (plan_name, plan) in &plans {
        for par in [Parallelism::Sequential, Parallelism::Rayon] {
            let tag = format!("hmx-{plan_name}-{par:?}").to_lowercase();
            assert_resume_bit_identity(&tag, name, &factory, &opts(par, plan));
        }
    }
}

#[test]
fn every_algorithm_resumes_bit_identically() {
    // Reduced grid: the default executor cell, kill at every round, for
    // all eight algorithms.
    let none = FaultPlan::preset("none").unwrap();
    for (name, factory) in all_algorithms() {
        let tag = format!("all-{}", name.to_lowercase().replace('-', "_"));
        assert_resume_bit_identity(&tag, name, &factory, &opts(Parallelism::Sequential, &none));
    }
}

#[test]
fn hierarchical_algorithms_resume_under_chaos_on_rayon() {
    // Chaos spot-check for every algorithm, the two-layer baselines
    // included: faults must restore across the resume boundary on the
    // rayon executor.
    let chaos = FaultPlan::preset("chaos").unwrap();
    for (name, factory) in all_algorithms() {
        let tag = format!("chaos-{}", name.to_lowercase().replace('-', "_"));
        assert_resume_bit_identity(&tag, name, &factory, &opts(Parallelism::Rayon, &chaos));
    }
}

#[test]
fn hierarchical_algorithms_resume_under_byzantine_quarantine() {
    // The adversary's counters and the quarantine horizon table ride the
    // snapshot's `quarantine` section; a resume that dropped them would
    // recount corrupted uploads and re-admit benched clients early.
    let byzantine = RunOpts {
        quarantine_z: 1.0,
        quarantine_window: 2,
        ..opts(
            Parallelism::Sequential,
            &FaultPlan::preset("byzantine").unwrap(),
        )
    };
    for (name, factory) in all_algorithms() {
        let tag = format!("byz-{}", name.to_lowercase().replace('-', "_"));
        let full = assert_resume_bit_identity(&tag, name, &factory, &byzantine);
        assert!(
            full.quarantine.corrupted_updates > 0,
            "{name}: no upload was corrupted"
        );
        // MultiLevel ignores the quarantine threshold; the others bench.
        if name != "MultiLevelMinimax" {
            assert!(
                full.quarantine.quarantined_clients > 0,
                "{name}: the quarantine never fired"
            );
        }
    }
}

// ---- Cadence contract: the final round is never snapshotted. -------------

#[test]
fn final_round_snapshot_is_never_written() {
    // `--checkpoint-every N` writes a snapshot after every N-th completed
    // cloud round EXCEPT the final one: a run that finished has nothing
    // left to resume, so a final-round snapshot would only waste I/O and
    // invite a no-op resume. Pin the contract with a cadence that lands
    // exactly on the final round.
    let fp = problem();
    let (name, factory) = all_algorithms().swap_remove(0);
    for every in [1, 2] {
        // ROUNDS = 4: cadence 1 is due after rounds 1..=4, cadence 2 after
        // rounds 2 and 4 — in both cases round 4 is due AND final.
        let dir = scratch_dir(&format!("final-round-{every}"));
        let mut w_opts = opts(Parallelism::Sequential, &FaultPlan::preset("none").unwrap());
        w_opts.checkpoint = CheckpointOpts::writing(&dir, every);
        factory(w_opts).run(&fp, SEED);
        for completed in 1..=ROUNDS {
            let path = snapshot_path(&dir, name, completed);
            let due = completed % every == 0;
            let last = completed == ROUNDS;
            assert_eq!(
                path.exists(),
                due && !last,
                "cadence {every}: snapshot after round {completed} (due={due}, final={last})"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- Negatives: a snapshot must only resume the run it came from. -------

#[test]
fn snapshot_validation_rejects_mismatched_runs() {
    let none = FaultPlan::preset("none").unwrap();
    let snap = hierminimax_snapshot("negative", &opts(Parallelism::Sequential, &none));
    snap.validate_for("HierMinimax", SEED, ROUNDS).unwrap();
    let cases = [
        ("DRFA", SEED, ROUNDS, "algorithm"),
        ("HierMinimax", SEED + 1, ROUNDS, "seed"),
        ("HierMinimax", SEED, ROUNDS + 1, "round"),
    ];
    for (alg, seed, rounds, what) in cases {
        let err = snap
            .validate_for(alg, seed, rounds)
            .expect_err("mismatched run must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("does not match this run"),
            "expected a typed mismatch error for {what}, got: {msg}"
        );
    }
}

/// The panic message of `f`, which must panic.
fn refusal(f: impl FnOnce()) -> String {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("a snapshot that does not fit the run must not resume");
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn snapshot_of_another_problem_shape_is_refused_before_round_zero() {
    // Every algorithm's round-2 snapshot of the 3-edge problem, resumed on
    // 4 edges (one more class, so a longer `w`) and on 3 clients per edge
    // (the same `w` and edge weights): the run names the first field that
    // differs before round 0 instead of crashing inside it or training on
    // spliced state. Stochastic-AFL's and DRFA's `p` is per client, so it
    // differs first there.
    let fp = problem();
    let fp4 = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 11));
    let fp9 = FederatedProblem::logistic_from_scenario(&tiny_problem(3, 3, 11));
    let longer_w = format!(
        "cannot resume: snapshot w has {} entries, the run has {}",
        fp.num_params(),
        fp4.num_params()
    );
    for (name, factory) in all_algorithms() {
        let dir = scratch_dir(&format!("shape-{name}"));
        let mut w_opts = opts(Parallelism::Sequential, &FaultPlan::default());
        w_opts.checkpoint = CheckpointOpts::writing(&dir, 1);
        factory(w_opts).run(&fp, SEED);
        let snap = Arc::new(read_snapshot(&snapshot_path(&dir, name, 2)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        let more_clients = match name {
            "Stochastic-AFL" | "DRFA" => "cannot resume: snapshot p has 6 entries, the run has 9",
            _ => "cannot resume: snapshot has 2 clients per edge, the run has 3",
        };
        for (other, want) in [(&fp4, longer_w.as_str()), (&fp9, more_clients)] {
            let mut r_opts = opts(Parallelism::Sequential, &FaultPlan::default());
            r_opts.checkpoint.resume = Some(snap.clone());
            let alg = factory(r_opts);
            let msg = refusal(|| {
                alg.run(other, SEED);
            });
            assert_eq!(msg, want, "{name}");
        }
    }
}

/// HierMinimax's round-2 snapshot of a run under `base` options.
fn hierminimax_snapshot(tag: &str, base: &RunOpts) -> Snapshot {
    let dir = scratch_dir(tag);
    let (name, factory) = all_algorithms().swap_remove(0);
    let mut w_opts = base.clone();
    w_opts.checkpoint = CheckpointOpts::writing(&dir, 1);
    factory(w_opts).run(&problem(), SEED);
    let snap = read_snapshot(&snapshot_path(&dir, name, 2)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    snap
}

/// A chaos-churn run, sequential.
fn churn_opts() -> RunOpts {
    RunOpts {
        churn: ChurnPlan::preset("chaos-churn").unwrap(),
        ..opts(Parallelism::Sequential, &FaultPlan::default())
    }
}

/// A Byzantine run, sequential, with a quarantine pass when `z > 0`.
fn byzantine_opts(z: f64) -> RunOpts {
    RunOpts {
        quarantine_z: z,
        quarantine_window: 2,
        ..opts(
            Parallelism::Sequential,
            &FaultPlan::preset("byzantine").unwrap(),
        )
    }
}

#[test]
fn every_truncated_section_is_refused_typed() {
    // A `max_stale_rounds` run, a churn run and a quarantine run carry,
    // between them, every extras section. Each section cut short by one
    // byte is refused with `cannot resume: …` by the run check and by the
    // run, and never panics inside a decoder.
    let fp = problem();
    let capped = RunOpts {
        max_stale_rounds: 3,
        ..opts(Parallelism::Sequential, &FaultPlan::default())
    };
    let (_, factory) = all_algorithms().swap_remove(0);
    let mut seen: Vec<String> = Vec::new();
    for (tag, base) in [
        ("capped", capped),
        ("churn", churn_opts()),
        ("quarantine", byzantine_opts(1.0)),
    ] {
        let snap = hierminimax_snapshot(&format!("sections-{tag}"), &base);
        for (i, (section, bytes)) in snap.extras.iter().enumerate() {
            seen.push(section.clone());
            let mut cut = snap.clone();
            cut.extras[i].1.truncate(bytes.len() - 1);
            let alg = factory(RunOpts {
                checkpoint: CheckpointOpts::resuming(Arc::new(cut)),
                ..base.clone()
            });
            for (path, msg) in [
                ("check", refusal(|| alg.check(&fp, SEED))),
                (
                    "try_run",
                    refusal(|| {
                        let _ = alg.try_run(&fp, SEED);
                    }),
                ),
            ] {
                assert!(
                    msg.starts_with("cannot resume: "),
                    "{tag}: {section} cut short, {path}: {msg}"
                );
            }
        }
    }
    seen.sort();
    seen.dedup();
    assert_eq!(
        seen,
        ["churn", "history", "quarantine", "shape", "stale_rounds"],
        "every section is cut"
    );
}

#[test]
fn resume_refuses_state_the_run_would_drop() {
    // A resume restores all of a snapshot's state or refuses it before
    // round 0: a quarantine run needs a horizon table for its 6 clients, a
    // run without quarantine cannot take one, and a churn section and a
    // churn plan come together.
    let fp = problem();
    let plain = opts(Parallelism::Sequential, &FaultPlan::default());
    let cases = [
        (
            byzantine_opts(0.0),
            byzantine_opts(1.0),
            "cannot resume: snapshot has a quarantine table of 0 clients, the run quarantines 6",
        ),
        (
            byzantine_opts(1.0),
            byzantine_opts(0.0),
            "cannot resume: snapshot has a quarantine table of 6 clients, the run has no quarantine",
        ),
        (
            churn_opts(),
            plain.clone(),
            "cannot resume: snapshot has a churn section, the run has no churn plan",
        ),
        (
            plain,
            churn_opts(),
            "cannot resume: snapshot has no churn section, the run has a churn plan",
        ),
    ];
    let (_, factory) = all_algorithms().swap_remove(0);
    for (i, (writer, resumer, want)) in cases.into_iter().enumerate() {
        let snap = hierminimax_snapshot(&format!("drop-{i}"), &writer);
        let alg = factory(RunOpts {
            checkpoint: CheckpointOpts::resuming(Arc::new(snap)),
            ..resumer
        });
        let msg = refusal(|| {
            let _ = alg.try_run(&fp, SEED);
        });
        assert_eq!(msg, want);
    }
}
