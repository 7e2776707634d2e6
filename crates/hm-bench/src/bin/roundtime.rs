//! Single-thread training throughput at three layers, written as
//! machine-readable `results/BENCH_roundtime.json`:
//! - the kernel layer: calls/sec of the fig4 MLP's three wide backward
//!   products at batch 8 (the 100×256 and 50×100 weight gradients and the
//!   8×50·50×100 delta propagation) and of its first bias gradient (the
//!   column sums of the 8×100 delta), over a rotating set of real deltas so
//!   the zero pattern is fresh on every call, and of the 3-source mean fold
//!   at the logistic model's d = 2,570 and the MLP's d = 31,260;
//! - the model layer: local-SGD steps/sec of the three model families on
//!   one client's data (multinomial logistic 256→10 at batch 16, the fig4
//!   MLP 256-100-50-10 at batch 8, the CNN at batch 8), the step loop of
//!   every chain;
//! - the round layer: full HierMinimax rounds/sec on seven shapes, with
//!   each round's per-phase breakdown.
//!
//! Every run is single-threaded: the rounds run `Parallelism::Sequential`,
//! and the rayon pool is pinned to one thread (the shim reads
//! `RAYON_NUM_THREADS` once, on first use), so a product big enough to
//! split runs on the calling thread too. Rates on the pool move with the
//! host's core count, its other load and the OS scheduler; single-thread
//! rates move with the work. The phase breakdown is a breakdown of that
//! single-thread work: per-edge `local_sgd_chain` spans never overlap, so
//! the shares add up to at most the round. The header names the vector
//! level the kernels ran at.
//!
//! Round shapes cover three regimes: `balanced` (few edges, several
//! clients each, chunky per-block work), `wide` (many edges, one client
//! each, high `τ2`), and `deep` (high `τ2`, single local step, tiny model —
//! per-round cost is mostly per-block overhead).
//!
//! Flags:
//! - `--quick`: CI-scale call, step and round counts.
//! - `--check`: measure, then divide each case's rate by the one in the
//!   committed `results/BENCH_roundtime.json` and exit non-zero when the
//!   geometric mean of those ratios, over all three layers, falls below
//!   0.9 (the file is left untouched). The aggregate is the gate — per-case
//!   numbers on a shared CI box are too noisy to gate on — but per-case
//!   ratios are still printed for diagnosis.

use hm_bench::results::{number_at, parse_scale_flags, read_committed, write_result};
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::localsgd::local_sgd;
use hm_core::problem::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::rng::{Purpose, StreamRng};
use hm_data::scenarios::{dirichlet_split, one_class_per_edge, tiny_problem, HierScenario};
use hm_data::Dataset;
use hm_nn::{Mlp, Model, MulticlassLogistic, SimpleCnn};
use hm_optim::ProjectionOp;
use hm_simnet::Parallelism;
use hm_telemetry::Profiler;
use hm_tensor::{ops, vecops, Matrix, MatrixView};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn cnn_problem(sc: &HierScenario) -> FederatedProblem {
    let side = (sc.dim as f64).sqrt() as usize;
    assert_eq!(side * side, sc.dim, "CNN needs square inputs");
    let model = SimpleCnn::new(side, 3, 2, 4, 16, sc.num_classes);
    FederatedProblem::new(
        sc.clone(),
        Arc::new(model),
        ProjectionOp::Unconstrained,
        ProjectionOp::Simplex,
    )
}

struct Case {
    name: &'static str,
    problem: FederatedProblem,
    tau1: usize,
    tau2: usize,
    m_edges: usize,
    batch: usize,
    rounds: usize,
}

fn config(case: &Case, rounds: usize) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: case.tau1,
        tau2: case.tau2,
        m_edges: case.m_edges,
        eta_w: 0.05,
        eta_p: 0.01,
        batch_size: case.batch,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 0, // only the final round is evaluated
            parallelism: Parallelism::Sequential,
            ..Default::default()
        },
    }
}

/// A model-layer job: `steps` local-SGD steps of `model` from `w0`, on
/// the same batch stream every run.
fn sgd<'a>(
    model: &'a dyn Model,
    data: &'a Dataset,
    w0: &'a [f32],
    batch: usize,
    steps: usize,
) -> Timed<'a> {
    Timed {
        count: steps,
        run: Box::new(move || {
            let mut rng = StreamRng::new(1, Purpose::Batch, 0, 0);
            let proj = ProjectionOp::Unconstrained;
            black_box(local_sgd(
                model, data, w0, steps, 0.05, batch, &proj, &mut rng, None,
            ));
        }),
    }
}

/// The operands of the fig4 MLP's wide backward products for one batch:
/// the inputs `x`, the first hidden layer's output `h1`, and the deltas
/// `d1` and `d2` of the two hidden layers (`8 × 100` and `8 × 50`), from
/// a real forward and backward pass.
struct Backward {
    x: Matrix,
    h1: Matrix,
    d1: Matrix,
    d2: Matrix,
}

/// One forward and backward pass of the 256-100-50-10 MLP with the flat
/// parameters `w` (`[W1, b1, W2, b2, W3, b3]`) on `batch`, as
/// `hm_nn::Mlp` computes it.
fn backward_operands(w: &[f32], batch: &Dataset) -> Backward {
    let (w1, rest) = w.split_at(100 * 256);
    let (b1, rest) = rest.split_at(100);
    let (w2, rest) = rest.split_at(50 * 100);
    let (b2, rest) = rest.split_at(50);
    let (w3, b3) = rest.split_at(10 * 50);
    let layer = |x: &Matrix, w: &[f32], b: &[f32], relu: bool| {
        let mut z = Matrix::zeros(0, 0);
        ops::matmul_transb_into(x.view(), MatrixView::new(b.len(), x.cols(), w), &mut z);
        ops::add_row_inplace(&mut z, b);
        if relu {
            ops::relu_inplace(&mut z);
        }
        z
    };
    let h1 = layer(&batch.x, w1, b1, true);
    let h2 = layer(&h1, w2, b2, true);
    let mut d3 = ops::softmax_rows(&layer(&h2, w3, b3, false));
    for (r, &y) in batch.y.iter().enumerate() {
        d3[(r, y)] -= 1.0;
    }
    d3.map_inplace(|v| v / batch.len() as f32);
    let back = |d: &Matrix, w: &[f32], h: &Matrix| {
        let mut out = Matrix::zeros(0, 0);
        ops::matmul_into(d.view(), MatrixView::new(d.cols(), h.cols(), w), &mut out);
        ops::relu_backward_inplace(&mut out, h);
        out
    };
    let d2 = back(&d3, w3, &h2);
    let d1 = back(&d2, w2, &h1);
    Backward {
        x: batch.x.clone(),
        h1,
        d1,
        d2,
    }
}

/// One timed job: `run` does `count` calls, steps or rounds.
struct Timed<'a> {
    count: usize,
    run: Box<dyn Fn() + 'a>,
}

/// A kernel-layer job: calls `kernel(0)`, …, `kernel(count - 1)`.
fn calls<'a>(count: usize, kernel: impl Fn(usize) + 'a) -> Timed<'a> {
    Timed {
        count,
        run: Box::new(move || (0..count).for_each(&kernel)),
    }
}

/// Calls, steps or rounds per second of every job, best of `reps` timed runs
/// each, after one untimed warm-up run (page in data, size the pooled
/// scratch). The minimum elapsed time is the least-interference estimate
/// of a job's cost (runs are deterministic, so the work is identical
/// across repetitions), and the repetitions are interleaved across jobs,
/// so a host slowdown that lasts a few seconds costs one repetition of
/// several jobs rather than every repetition of one.
fn best_rates(jobs: &[Timed], reps: usize) -> Vec<f64> {
    for job in jobs {
        (job.run)();
    }
    let mut best = vec![f64::INFINITY; jobs.len()];
    for _ in 0..reps {
        for (job, best) in jobs.iter().zip(&mut best) {
            let start = Instant::now();
            (job.run)();
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    jobs.iter()
        .zip(best)
        .map(|(job, secs)| job.count as f64 / secs)
        .collect()
}

/// Per-phase share of round wall-clock from one short profiled run.
/// Profiling is provably inert (`tests/profile.rs`) and runs *outside* the
/// timed repetitions, so the breakdown cannot disturb the gate. Returns
/// `(phase, percent-of-round)` pairs in descending share order plus a
/// final `other` remainder (bookkeeping outside every span).
fn phase_breakdown(case: &Case) -> Vec<(String, f64)> {
    let rounds = case.rounds.clamp(10, 60);
    let mut cfg = config(case, rounds);
    cfg.opts.profile = Profiler::enabled();
    let prof = cfg.opts.profile.clone();
    black_box(HierMinimax::new(cfg).run(&case.problem, 11));
    let summary = prof.summary();
    let round_total = summary
        .iter()
        .find(|p| p.phase == "round")
        .map_or(0.0, |p| p.total_s);
    if round_total <= 0.0 {
        return Vec::new();
    }
    let mut shares: Vec<(String, f64)> = summary
        .iter()
        .filter(|p| p.phase != "round")
        .map(|p| (p.phase.clone(), 100.0 * p.total_s / round_total))
        .collect();
    let covered: f64 = shares.iter().map(|(_, pct)| pct).sum();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    shares.push(("other".to_string(), (100.0 - covered).max(0.0)));
    shares
}

fn main() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (quick, _full) = parse_scale_flags();
    let check = std::env::args().any(|a| a == "--check");
    println!(
        "roundtime: one thread, kernels at vector level {}",
        hm_tensor::vector_level()
    );
    // Per-rep times must be long enough to dominate timer and scheduler
    // noise, so even quick mode keeps rounds high and instead takes the
    // best of more repetitions (the gate has a 10% tolerance on top). On a
    // shared host whose speed swings for seconds at a time, the
    // repetitions of either mode span ten to twenty seconds, so the best
    // of them comes from an undisturbed stretch.
    let scale = if quick { 1 } else { 6 };
    let reps = if quick { 20 } else { 5 };

    let img = ImageConfig::emnist_digits_like();
    let case = |name, problem, tau1, tau2, m_edges, batch, rounds: usize| Case {
        name,
        problem,
        tau1,
        tau2,
        m_edges,
        batch,
        rounds: rounds * scale,
    };
    let tiny_logistic = |e, c| FederatedProblem::logistic_from_scenario(&tiny_problem(e, c, 7));
    let tiny_mlp = |e, c| FederatedProblem::mlp_from_scenario(&tiny_problem(e, c, 8), &[32, 16]);
    let split_cnn = |e, c, n| cnn_problem(&dirichlet_split(img.clone(), e, c, n, 0.5, 0.25, 9));
    let cases = [
        case("logistic/balanced", tiny_logistic(4, 4), 2, 4, 4, 4, 600),
        case("logistic/deep", tiny_logistic(4, 4), 1, 16, 4, 1, 200),
        case("logistic/wide", tiny_logistic(24, 1), 2, 8, 24, 4, 150),
        case("mlp/balanced", tiny_mlp(4, 4), 2, 4, 4, 4, 150),
        case("mlp/wide", tiny_mlp(24, 1), 2, 8, 24, 4, 60),
        case("cnn/balanced", split_cnn(4, 4, 32), 1, 4, 4, 4, 24),
        case("cnn/wide", split_cnn(16, 1, 16), 1, 8, 16, 4, 15),
    ];

    let committed = check.then(|| read_committed("BENCH_roundtime.json"));
    let sc = one_class_per_edge(img, 10, 3, 40, 20, 7);
    let data = &sc.edges[0].client_train[0];
    let logistic = MulticlassLogistic::new(256, 10);
    let mlp = Mlp::new(256, &[100, 50], 10);
    let cnn = SimpleCnn::new(16, 3, 4, 8, 32, 10);
    let init = |model: &dyn Model| model.init_params(&mut StreamRng::new(2, Purpose::Init, 0, 0));
    let inits = [init(&logistic), init(&mlp), init(&cnn)];

    let pool = Dataset::concat(
        &sc.edges
            .iter()
            .flat_map(|e| &e.client_train)
            .collect::<Vec<_>>(),
    );
    let mut rng = StreamRng::new(3, Purpose::Batch, 0, 0);
    let sets: Vec<Backward> = (0..64)
        .map(|_| {
            let rows: Vec<usize> = (0..8).map(|_| rng.below(pool.len())).collect();
            backward_operands(&inits[1], &pool.subset(&rows))
        })
        .collect();
    let w2 = MatrixView::new(50, 100, &inits[1][100 * 256 + 100..][..50 * 100]);
    let averaged: Vec<Vec<f32>> = (4..7)
        .map(|seed| mlp.init_params(&mut StreamRng::new(seed, Purpose::Init, 0, 0)))
        .collect();
    let grad = std::cell::RefCell::new(vec![0.0_f32; 100 * 256]);
    let delta = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let mean = std::cell::RefCell::new(vec![0.0_f32; 31_260]);
    let op = |i: usize| &sets[i % sets.len()];
    let sources = |d: usize| -> Vec<&[f32]> { averaged.iter().map(|m| &m[..d]).collect() };
    let (small, large) = (sources(2570), sources(31_260));
    let mean_of = |sources: &'_ [&[f32]]| {
        vecops::average_into(sources, &mut mean.borrow_mut()[..sources[0].len()])
    };
    let algs: Vec<HierMinimax> = cases
        .iter()
        .map(|case| HierMinimax::new(config(case, case.rounds)))
        .collect();
    let (kernels, mut jobs): (Vec<&str>, Vec<Timed>) = [
        (
            "transa_100x256",
            calls(2000 * scale, |i| {
                let s = op(i);
                ops::matmul_transa_slice(s.d1.view(), s.x.view(), &mut grad.borrow_mut()[..]);
            }),
        ),
        (
            "transa_50x100",
            calls(6000 * scale, |i| {
                let s = op(i);
                let mut g = grad.borrow_mut();
                ops::matmul_transa_slice(s.d2.view(), s.h1.view(), &mut g[..50 * 100]);
            }),
        ),
        (
            "matmul_8x50x100",
            calls(6000 * scale, |i| {
                ops::matmul_into(op(i).d2.view(), w2, &mut delta.borrow_mut())
            }),
        ),
        (
            "col_sums_8x100",
            calls(80_000 * scale, |i| {
                ops::col_sums_into(op(i).d1.view(), &mut grad.borrow_mut()[..100])
            }),
        ),
        ("mean3_2570", calls(8000 * scale, |_| mean_of(&small))),
        ("mean3_31260", calls(600 * scale, |_| mean_of(&large))),
    ]
    .into_iter()
    .unzip();
    let (models, step_jobs): (Vec<&str>, Vec<Timed>) = [
        ("logistic", sgd(&logistic, data, &inits[0], 16, 600 * scale)),
        ("mlp", sgd(&mlp, data, &inits[1], 8, 200 * scale)),
        ("cnn", sgd(&cnn, data, &inits[2], 8, 60 * scale)),
    ]
    .into_iter()
    .unzip();
    jobs.extend(step_jobs);
    jobs.extend(cases.iter().zip(&algs).map(|(case, alg)| Timed {
        count: case.rounds,
        run: Box::new(move || {
            black_box(alg.run(&case.problem, 11));
        }),
    }));
    let rates = best_rates(&jobs, reps);
    let (kernel_rates, rates) = rates.split_at(kernels.len());
    let (step_rates, round_rates) = rates.split_at(models.len());

    let mut ratios = Vec::new();
    let mut report = |section: &str, name: &str, unit: &str, rate: f64| match &committed {
        Some(json) => {
            let key = format!("{unit}_per_sec");
            let base = number_at(json, &[section, name, &key])
                .unwrap_or_else(|| panic!("no {section}.{name}.{key} in BENCH_roundtime.json"));
            println!(
                "{name:<20} {rate:>9.2} {unit}/sec   committed {base:>9.2}   ratio {:.3}",
                rate / base
            );
            ratios.push(rate / base);
        }
        None => println!("{name:<20} {rate:>9.2} {unit}/sec"),
    };
    let mut flat = |section: &str, unit: &str, names: &[&str], rates: &[f64]| {
        let entries: Vec<String> = names
            .iter()
            .zip(rates)
            .map(|(name, &rate)| {
                report(section, name, unit, rate);
                format!("    \"{name}\": {{ \"{unit}_per_sec\": {rate:.2} }}")
            })
            .collect();
        entries.join(",\n")
    };
    let kernel_entries = flat("kernels", "calls", &kernels, kernel_rates);
    let model_entries = flat("model", "steps", &models, step_rates);
    let mut entries = Vec::new();
    for (case, &rate) in cases.iter().zip(round_rates) {
        report("cases", case.name, "rounds", rate);
        let phases = phase_breakdown(case);
        let phase_col = phases
            .iter()
            .map(|(tag, pct)| format!("{tag} {pct:.1}%"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{:<20} phases: {phase_col}", "");
        let phase_json = phases
            .iter()
            .map(|(tag, pct)| format!("\"{tag}\": {pct:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        entries.push(format!(
            "    \"{}\": {{\n      \"rounds_per_sec\": {:.2},\n      \"phase_pct\": {{ {} }}\n    }}",
            case.name, rate, phase_json
        ));
    }

    if check {
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        if geomean < 0.9 {
            eprintln!("REGRESSION: geomean measured/committed rate {geomean:.3} < 0.9");
            std::process::exit(1);
        }
        println!("throughput check passed (geomean measured/committed {geomean:.3})");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"roundtime\",\n  \"quick\": {},\n  \"parallelism\": \"sequential\",\n  \"kernels\": {{\n{}\n  }},\n  \"model\": {{\n{}\n  }},\n  \"cases\": {{\n{}\n  }}\n}}\n",
        quick,
        kernel_entries,
        model_entries,
        entries.join(",\n")
    );
    let path = write_result("BENCH_roundtime.json", &json);
    println!("wrote {}", path.display());
}
