//! Trained bits pinned to recorded constants.
//!
//! The determinism, resume and oracle suites compare the code with itself:
//! a kernel change that shifts the numerics by one ULP on every path still
//! passes them. These tests train short HierMinimax runs with each model
//! family — the fig3 logistic model, the fig4 100/50 MLP and `SimpleCnn` —
//! and compare a hash of the final iterate, the final edge weights and
//! every evaluated per-edge accuracy with a constant recorded before the
//! fully connected forward kernel was rewritten. Any change to how the
//! model kernels round shows up here.
//!
//! A second group pins what the naive oracle in `hm-testkit` does not
//! model: quarantine, membership churn, cloud-link faults, and the
//! HierFAVG and multi-level loops. Each
//! case is a short run on the tiny logistic problem, hashed over the
//! final iterate, the final edge weights and the `Debug` text of the
//! communication, fault, quarantine and churn counters, and checked under
//! both executors. Their constants were recorded while the block phase
//! still had a second, cross-checked implementation. Each case also pins
//! a hash of its telemetry stream (JSONL, wall-clock fields zeroed), so a
//! change to the order or content of the events a run emits shows up too.
//! The stream constants were re-recorded when `block_agg` gained its
//! client ids, `phase1_done` its model digest and `churn` its id lists;
//! mapping those fields back to the old counts reproduced the previous
//! constants on both executors. One case of the group,
//! `hierfavg_crashes_on_unequal_volumes_bits_are_pinned`, runs HierFAVG
//! with client crashes on edges of unequal data volume, so its cloud
//! weights by volume are far from uniform; every other case gives each
//! client the same number of samples. Its constants were recorded while
//! the crash rate was still a per-config `dropout` knob and a churn-off
//! run still enumerated clients through a static layout of its own.
//!
//! A third group pins the five flat two-layer baselines — FedAvg,
//! FedProx, q-FedAvg, Stochastic-AFL and DRFA — on the tiny logistic
//! problem under both executors. Their hash also covers the averaged
//! iterates and every round's recorded weights (see [`flat_digest`]),
//! which is where the `q` bookkeeping of a two-layer loop can drift.
//! Their constants were recorded before the five hand-written two-layer
//! loops became one round driver. The driver reproduces every state
//! constant and the FedAvg, AFL and DRFA streams; only the FedProx and
//! q-FedAvg stream constants were re-recorded, since those two gained
//! the standard stream there.
//!
//! Two more flat cases pin what the baselines gained when they moved onto
//! the shared round driver as units of one client:
//! `drfa_under_chaos_bits_are_pinned` (the chaos fault plan) and
//! `fedavg_byzantine_trimmed_mean_quarantine_bits_are_pinned` (Byzantine
//! uploads under the trimmed mean, with the quarantine pass). The flat
//! loop they replaced ignored all of these options, so it could not run
//! them; their constants were recorded after the move.
//!
//! The losses go through `f64::exp`/`ln`, whose last bit is the platform
//! libm's, so the constants are pinned on x86_64 Linux only.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use hierminimax::core::algorithms::{
    Algorithm, HierMinimax, HierMinimaxConfig, Hyper, Method, RunOpts,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::RunResult;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{
    linear_sizes, one_class_per_edge_sized, similarity_scenario, tiny_problem, SimilarityOptions,
};
use hierminimax::nn::SimpleCnn;
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::{ChurnPlan, FaultPlan, Parallelism};
use hierminimax::telemetry::{MemorySink, Telemetry, TelemetryEvent};
use hierminimax::tensor::Aggregator;
use hm_testkit::scrub;
use std::sync::Arc;

/// One FNV-1a step over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the bits of `final_w`, `final_p` and the evaluated
/// per-edge accuracies, in that order.
fn digest(r: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    for v in r.final_w.iter().chain(&r.final_p) {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    for round in &r.history.rounds {
        if let Some(e) = &round.eval {
            for a in &e.per_edge_accuracy {
                h = fnv1a(h, &a.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// FNV-1a over the bits of `final_w` and `final_p`, then the `Debug` text
/// of the communication, fault, quarantine and churn counters.
fn state_digest(r: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    for v in r.final_w.iter().chain(&r.final_p) {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    let counters = format!("{:?}{:?}{:?}{:?}", r.comm, r.faults, r.quarantine, r.churn);
    fnv1a(h, counters.as_bytes())
}

/// FNV-1a over the bits of `final_w`, `avg_w`, `final_p`, `avg_p` and
/// every round's recorded `p`, then the `Debug` text of the communication,
/// fault, quarantine and churn counters.
fn flat_digest(r: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    let rounds = r.history.rounds.iter().flat_map(|round| &round.p);
    for v in r
        .final_w
        .iter()
        .chain(&r.avg_w)
        .chain(&r.final_p)
        .chain(&r.avg_p)
        .chain(rounds)
    {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    let counters = format!("{:?}{:?}{:?}{:?}", r.comm, r.faults, r.quarantine, r.churn);
    fnv1a(h, counters.as_bytes())
}

/// FNV-1a over the telemetry stream's JSONL lines, with the wall-clock
/// `elapsed_s` fields zeroed — the only payloads that are not a function of
/// the run.
fn stream_digest(events: &[TelemetryEvent]) -> u64 {
    events.iter().fold(FNV_OFFSET, |h, ev| {
        let line = scrub(ev.clone()).to_json();
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

fn train(fp: &FederatedProblem, rounds: usize, m_edges: usize, batch: usize, eta_w: f32) -> u64 {
    let alg = HierMinimax::new(HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges,
        eta_w,
        eta_p: 0.005,
        batch_size: batch,
        loss_batch: 16,
        opts: RunOpts {
            eval_every: 5,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        },
        ..Default::default()
    });
    digest(&alg.run(fp, 11))
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: trained bits changed (digest {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn logistic_training_bits_are_pinned() {
    // fig3's shape: 256 inputs, 10 classes, one class per edge.
    let sc = one_class_per_edge_sized(
        ImageConfig::emnist_digits_like(),
        10,
        2,
        &linear_sizes(24, 0.3, 10),
        40,
        5,
    );
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    check(
        "logistic",
        train(&fp, 20, 3, 1, 0.02),
        0xab36_4317_168f_004a,
    );
}

#[test]
fn mlp_training_bits_are_pinned() {
    // fig4's network: 256-100-50-10.
    let sc = similarity_scenario(
        ImageConfig::fashion_mnist_like(),
        4,
        2,
        60,
        0.5,
        0.25,
        &SimilarityOptions::default(),
        6,
    );
    let fp = FederatedProblem::mlp_from_scenario(&sc, &[100, 50]);
    check("mlp", train(&fp, 10, 2, 8, 0.05), 0xacf5_c932_1e12_f573);
}

#[test]
fn cnn_training_bits_are_pinned() {
    // The CLI's CNN on 16×16 images: a 32 → 32 → 10 fully connected head.
    let sc = similarity_scenario(
        ImageConfig::fashion_mnist_like(),
        3,
        2,
        40,
        0.5,
        0.25,
        &SimilarityOptions::default(),
        7,
    );
    let model = Arc::new(SimpleCnn::new(16, 3, 4, 8, 32, sc.num_classes));
    let fp = FederatedProblem::new(
        sc,
        model,
        ProjectionOp::Unconstrained,
        ProjectionOp::Simplex,
    );
    check("cnn", train(&fp, 6, 2, 4, 0.05), 0x439b_445f_2baf_43a7);
}

// ---- What the oracle does not model. -----------------------------------

fn tiny(n_edges: usize, clients_per_edge: usize, seed: u64) -> FederatedProblem {
    FederatedProblem::logistic_from_scenario(&tiny_problem(n_edges, clients_per_edge, seed))
}

fn faulty(base: RunOpts, fault: &str) -> RunOpts {
    RunOpts {
        fault: FaultPlan::preset(fault).unwrap(),
        ..base
    }
}

fn hmx(rounds: usize, m_edges: usize, opts: RunOpts) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges,
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        opts,
        ..Default::default()
    }
}

/// Run a case on both executors with a memory sink attached; each must
/// reproduce the pinned state digest and the pinned telemetry digest.
fn check_executors(name: &str, want: u64, want_stream: u64, run: impl Fn(RunOpts) -> RunResult) {
    check_executors_by(state_digest, name, want, want_stream, run);
}

/// [`check_executors`] with the state hashed by `digest`.
fn check_executors_by(
    digest: fn(&RunResult) -> u64,
    name: &str,
    want: u64,
    want_stream: u64,
    run: impl Fn(RunOpts) -> RunResult,
) {
    for par in [Parallelism::Sequential, Parallelism::Rayon] {
        let sink = Arc::new(MemorySink::new());
        let r = run(RunOpts {
            eval_every: 2,
            parallelism: par,
            telemetry: Telemetry::with_sink(sink.clone()),
            ..Default::default()
        });
        check(&format!("{name} [{par:?}]"), digest(&r), want);
        check(
            &format!("{name} [{par:?}] telemetry"),
            stream_digest(&sink.events()),
            want_stream,
        );
    }
}

#[test]
fn byzantine_quarantine_bits_are_pinned() {
    let fp = tiny(4, 4, 31);
    check_executors(
        "byzantine+trimmed-mean+quarantine",
        0xc6ba_1fe3_8147_a0ce,
        0xbb3a_99f8_37c0_dd47,
        |base| {
            let o = RunOpts {
                aggregator: Aggregator::TrimmedMean { beta: 0.25 },
                quarantine_z: 2.0,
                quarantine_window: 2,
                ..faulty(base, "byzantine")
            };
            let r = HierMinimax::new(hmx(8, 3, o)).run(&fp, 41);
            assert!(
                r.quarantine.corrupted_updates > 0,
                "no upload was corrupted"
            );
            r
        },
    );
}

#[test]
fn edge_failover_under_chaos_bits_are_pinned() {
    let fp = tiny(5, 2, 32);
    check_executors(
        "edge-failover+chaos",
        0xd408_e8e9_9cba_c44b,
        0x882f_1abc_e8ab_1ec8,
        |base| {
            let o = RunOpts {
                churn: ChurnPlan::preset("edge-failover").unwrap(),
                ..faulty(base, "chaos")
            };
            let r = HierMinimax::new(hmx(8, 3, o)).run(&fp, 42);
            assert!(r.churn.total() > 0, "no edge failed");
            r
        },
    );
}

#[test]
fn hierfavg_churn_under_chaos_bits_are_pinned() {
    let fp = tiny(4, 2, 34);
    check_executors(
        "hierfavg+mild+chaos",
        0xf7ec_1de1_9e04_a376,
        0xb511_975d_fe11_ccfa,
        |base| {
            let h = Hyper {
                rounds: 8,
                eta_w: 0.1,
                ..Hyper::default()
            };
            let opts = RunOpts {
                churn: ChurnPlan::preset("mild").unwrap(),
                ..faulty(base, "chaos")
            };
            let r = Method::HierFavg.build(&h, opts).run(&fp, 44);
            assert!(r.churn.total() > 0, "no client left or joined");
            r
        },
    );
}

#[test]
fn hierfavg_crashes_on_unequal_volumes_bits_are_pinned() {
    // Edges hold 12 down to 3 samples per client, so HierFAVG's cloud
    // weights by data volume are far from uniform.
    let sc = one_class_per_edge_sized(
        ImageConfig::emnist_digits_like(),
        10,
        2,
        &linear_sizes(12, 0.25, 10),
        8,
        37,
    );
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    check_executors(
        "hierfavg+volumes+crashes",
        0x7e76_9ece_4cb0_8722,
        0x80aa_4d31_64d2_33a8,
        |opts| {
            let h = Hyper {
                rounds: 6,
                m: 4,
                eta_w: 0.05,
                ..Hyper::default()
            };
            let opts = RunOpts {
                fault: FaultPlan {
                    client_crash: 0.3,
                    ..FaultPlan::default()
                },
                ..opts
            };
            let r = Method::HierFavg.build(&h, opts).run(&fp, 47);
            assert!(r.faults.crashes > 0, "no client crashed");
            r
        },
    );
}

#[test]
fn multilevel_under_chaos_bits_are_pinned() {
    let fp = tiny(4, 2, 35);
    check_executors(
        "multilevel+chaos",
        0x0c78_c39c_8f9e_4d67,
        0x52b9_773b_be0e_9903,
        |base| {
            // One level of regions of two edges, τ_region = 2.
            let h = Hyper {
                rounds: 4,
                eta_w: 0.1,
                eta_p: 0.02,
                loss_batch: 4,
                ..Hyper::default()
            };
            Method::MultiLevel
                .build(&h, faulty(base, "chaos"))
                .run(&fp, 45)
        },
    );
}

// ---- The flat two-layer baselines. --------------------------------------

/// A two-layer baseline's `rounds` rounds of `tau1` local steps on four
/// clients, at rates 0.1 (`η_q` 0.05) with batches of 2 and loss batches
/// of 4.
fn flat(rounds: usize, tau1: usize) -> Hyper {
    Hyper {
        rounds,
        tau1,
        m: 4,
        eta_w: 0.1,
        eta_p: 0.05,
        loss_batch: 4,
        ..Hyper::default()
    }
}

#[test]
fn fedavg_bits_are_pinned() {
    let fp = tiny(3, 2, 37);
    check_executors_by(
        flat_digest,
        "fedavg",
        0xd2ea_d862_51dd_59b0,
        0xf0c6_bd80_54a4_d46d,
        |opts| Method::FedAvg.build(&flat(6, 2), opts).run(&fp, 47),
    );
}

#[test]
fn fedprox_bits_are_pinned() {
    let fp = tiny(3, 2, 38);
    check_executors_by(
        flat_digest,
        "fedprox",
        0x127f_4a5e_14e1_7e80,
        0x1eb5_ea20_d482_c29b,
        |opts| {
            let h = Hyper {
                mu: 0.1,
                ..flat(6, 2)
            };
            Method::FedProx.build(&h, opts).run(&fp, 48)
        },
    );
}

#[test]
fn qffl_bits_are_pinned() {
    let fp = tiny(3, 2, 39);
    check_executors_by(
        flat_digest,
        "q-fedavg",
        0x1a10_8571_a047_53b0,
        0xeadc_b019_cd28_8aaf,
        |opts| {
            let h = Hyper {
                q: 1.0,
                ..flat(6, 2)
            };
            Method::QFedAvg.build(&h, opts).run(&fp, 49)
        },
    );
}

#[test]
fn afl_bits_are_pinned() {
    let fp = tiny(3, 2, 40);
    check_executors_by(
        flat_digest,
        "stochastic-afl",
        0x9a60_9d6c_21c4_a45c,
        0xa352_b4f1_da7a_5491,
        |opts| Method::StochasticAfl.build(&flat(8, 1), opts).run(&fp, 50),
    );
}

#[test]
fn drfa_bits_are_pinned() {
    let fp = tiny(3, 2, 41);
    // τ1 = 3, so the checkpoint step t' varies across rounds.
    check_executors_by(
        flat_digest,
        "drfa",
        0x9794_9e02_a9f7_b06e,
        0xcb28_154f_401c_c815,
        |opts| Method::Drfa.build(&flat(6, 3), opts).run(&fp, 51),
    );
}

#[test]
fn drfa_under_chaos_bits_are_pinned() {
    let fp = tiny(3, 2, 42);
    check_executors_by(
        flat_digest,
        "drfa+chaos",
        0x9766_ebae_016b_3298,
        0x89c5_36c0_2d4a_cb10,
        |base| {
            let opts = faulty(base, "chaos");
            let r = Method::Drfa.build(&flat(6, 3), opts).run(&fp, 52);
            assert!(r.faults.total() > 0, "no fault was injected");
            r
        },
    );
}

#[test]
fn fedavg_byzantine_trimmed_mean_quarantine_bits_are_pinned() {
    let fp = tiny(4, 2, 43);
    check_executors_by(
        flat_digest,
        "fedavg+byzantine+trimmed-mean+quarantine",
        0x0a40_0a76_adb5_a464,
        0x0b6e_83e2_30b5_3888,
        |base| {
            let h = Hyper { m: 6, ..flat(8, 2) };
            let opts = RunOpts {
                aggregator: Aggregator::TrimmedMean { beta: 0.25 },
                quarantine_z: 1.0,
                quarantine_window: 2,
                ..faulty(base, "byzantine")
            };
            let r = Method::FedAvg.build(&h, opts).run(&fp, 53);
            assert!(
                r.quarantine.corrupted_updates > 0,
                "no upload was corrupted"
            );
            r
        },
    );
}
