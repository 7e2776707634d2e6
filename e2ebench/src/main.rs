//! Workload plans and measured passes for the end-to-end benchmark.
//!
//! ```text
//! e2ebench plan --workload <name> [--alg-seed <n>] --seconds <s>
//! e2ebench pass --workload <name> --seeds <a,b,...> [--data-seed <n>]
//!               [--work-dir <dir>] [--trace]
//! ```
//!
//! `plan` prints the algorithm seeds of a benchmark run and the workload's
//! settings. `pass` sets the workload up [`SETUP_REPS`] times (scenario
//! generation plus problem construction), then trains each given seed once
//! through `Algorithm::try_run` on the workload's fixed round budget and
//! prints one JSON line: set-up times, peak RSS, and per seed its wall-clock
//! time to the sustained target crossing, training wall-clock and CPU, the
//! exact outcomes and a digest of the trained bits. `--trace` trains each
//! seed twice more, once with `Telemetry::disabled()` to price the
//! stamping sink and once with the profiler and the model and sink timing
//! wrappers on, and adds the per-layer breakdown per training run.
//! `run.py` drives passes, each in a fresh process, and turns them into
//! metrics.

mod host;
mod probe;
mod workload;

use hierminimax::core::{FederatedProblem, RunResult};
use hierminimax::simnet::{Link, Parallelism};
use hierminimax::telemetry::json::ObjWriter;
use hierminimax::telemetry::{JsonlSink, Profiler, Sink, Telemetry};
use host::{cpu_s, peak_rss_mb};
use probe::{ModelStats, StampSink, TimedModel, TimedSink};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Workload, DEFAULT_DATA_SEED, SUSTAIN};

/// Set-ups per pass; `setup_s` is the median over all of a run's passes.
const SETUP_REPS: usize = 3;

/// Parsed command line.
struct Args {
    plan: bool,
    workload: Workload,
    alg_seed: u64,
    seconds: f64,
    seeds: Vec<u64>,
    data_seed: u64,
    work_dir: PathBuf,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let plan = match argv.first().map(String::as_str) {
        Some("plan") => true,
        Some("pass") => false,
        _ => return Err("usage: e2ebench plan|pass --workload <name> [options]".into()),
    };
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut flags = Vec::new();
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => flags.push(a.as_str()),
            "--workload" | "--alg-seed" | "--seconds" | "--seeds" | "--data-seed"
            | "--work-dir" => {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                kv.insert(a.as_str(), v.as_str());
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let name = kv.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let num = |key: &str, default: u64| -> Result<u64, String> {
        kv.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{key}: not a number: {v}"))
        })
    };
    let seeds = match kv.get("--seeds") {
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("--seeds: not a number: {s}")))
            .collect::<Result<Vec<u64>, String>>()?,
        None if plan => Vec::new(),
        None => return Err("pass needs --seeds".into()),
    };
    let seconds = match kv.get("--seconds") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seconds: not a number: {v}"))?,
        None => 0.0,
    };
    Ok(Args {
        plan,
        workload,
        alg_seed: num("--alg-seed", 1)?,
        seconds,
        seeds,
        data_seed: num("--data-seed", DEFAULT_DATA_SEED)?,
        work_dir: PathBuf::from(kv.get("--work-dir").copied().unwrap_or("e2ebench-work")),
        trace: flags.contains(&"--trace"),
    })
}

/// FNV-1a over 64-bit words.
fn fnv(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = hash;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a run's trained bits and communication totals.
fn run_digest(r: &RunResult) -> u64 {
    let h = fnv(FNV_OFFSET, r.final_w.iter().map(|x| u64::from(x.to_bits())));
    let h = fnv(h, r.final_p.iter().map(|x| u64::from(x.to_bits())));
    fnv(h, r.comm.parts().into_iter().flatten())
}

/// `exec.parallel_efficiency`: CPU time over the thread-seconds the pool
/// could have used. A Sequential run never enters the pool, so its
/// executor is fully efficient by definition.
fn parallel_efficiency(par: Parallelism, threads: usize, cpu_s: f64, run_s: f64) -> f64 {
    match par {
        Parallelism::Sequential => 1.0,
        Parallelism::Rayon => cpu_s / (threads as f64 * run_s),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Count and total size of the regular files directly under `dir`.
fn dir_files(dir: &Path) -> (u64, u64) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    rd.flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

/// The outcome of training one seed.
struct SeedRun {
    seed: u64,
    failure: Option<String>,
    digest: u64,
    run_s: f64,
    cpu_s: f64,
    rounds: Option<u64>,
    time_to_target_s: Option<f64>,
    sim_s: Option<f64>,
    final_worst: Option<f64>,
}

impl SeedRun {
    /// JSON object; absent outcomes are `null`.
    fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.u64("seed", self.seed);
        match &self.failure {
            Some(f) => o.str("failure", f),
            None => o.null("failure"),
        };
        o.str("digest", &format!("{:016x}", self.digest))
            .f64("run_s", self.run_s)
            .f64("cpu_s", self.cpu_s)
            .f64(
                "rounds_to_target",
                self.rounds.map_or(f64::NAN, |r| r as f64),
            )
            .f64(
                "time_to_target_s",
                self.time_to_target_s.unwrap_or(f64::NAN),
            )
            .f64("sim_s_to_target", self.sim_s.unwrap_or(f64::NAN))
            .f64("final_worst_acc", self.final_worst.unwrap_or(f64::NAN));
        o.finish()
    }
}

fn json_list(runs: &[SeedRun]) -> String {
    let items: Vec<String> = runs.iter().map(SeedRun::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Per-layer sums over a traced pass.
#[derive(Default)]
struct Layers {
    sums: BTreeMap<&'static str, f64>,
    profile: BTreeMap<String, f64>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }
}

fn plan(args: &Args) -> String {
    let w = args.workload;
    let seeds = w.algorithm_seeds(args.alg_seed, args.seconds);
    let mut o = ObjWriter::new();
    o.str("workload", w.name())
        .arr_u64("seeds", &seeds)
        .u64("data_seed", args.data_seed)
        .f64("target", w.target())
        .usize("rounds", w.rounds())
        .usize("sustain", SUSTAIN);
    o.finish()
}

/// How a training run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The stamping sink only: what end-to-end metrics come from.
    Stamped,
    /// `Telemetry::disabled()`, to price the stamping sink.
    Off,
    /// Profiler, model wrapper and sink wrapper on.
    Traced,
}

/// Train one seed and check its outcome.
fn train_seed(
    args: &Args,
    problem: &FederatedProblem,
    seed: u64,
    threads: usize,
    mode: Mode,
    layers: &mut Layers,
) -> Result<SeedRun, String> {
    let w = args.workload;
    let mut opts = w.run_opts(&args.work_dir);
    let jsonl_path = args.work_dir.join("telemetry.jsonl");
    let tee: Option<Arc<dyn Sink>> = if w.writes_jsonl() && mode != Mode::Off {
        let sink = JsonlSink::create(&jsonl_path)
            .map_err(|e| format!("cannot create {}: {e}", jsonl_path.display()))?;
        Some(Arc::new(sink))
    } else {
        None
    };
    let stamp = Arc::new(StampSink::new(tee));
    let timed = (mode == Mode::Traced).then(|| Arc::new(TimedSink::new(stamp.clone())));
    opts.telemetry = match (&timed, mode) {
        (_, Mode::Off) => Telemetry::disabled(),
        (Some(timed), _) => Telemetry::with_sink(timed.clone()),
        (None, _) => Telemetry::with_sink(stamp.clone()),
    };
    if mode == Mode::Traced {
        opts.profile = Profiler::enabled();
    }
    let profiler = opts.profile.clone();
    let alg = w.algorithm(opts);

    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| alg.try_run(problem, seed)));
    let run_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;
    let mut run = SeedRun {
        seed,
        failure: None,
        digest: 0,
        run_s,
        cpu_s: cpu,
        rounds: None,
        time_to_target_s: None,
        sim_s: None,
        final_worst: None,
    };
    drop(alg);
    let snapshots = args.work_dir.join("snapshots");
    let (ckpt_writes, ckpt_bytes) = dir_files(&snapshots);
    let jsonl_bytes = std::fs::metadata(&jsonl_path).map_or(0, |m| m.len());
    // Each seed starts from an empty work dir.
    let _ = std::fs::remove_dir_all(&snapshots);
    let _ = std::fs::remove_file(&jsonl_path);

    let result = match outcome {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            run.failure = Some(format!("try_run failed: {e}"));
            return Ok(run);
        }
        Err(_) => {
            run.failure = Some("try_run panicked".into());
            return Ok(run);
        }
    };
    let rounds = result
        .history
        .cloud_rounds_to_worst_sustained(w.target(), SUSTAIN);
    run.digest = fnv(run_digest(&result), [rounds.unwrap_or(0)]);
    run.rounds = rounds;
    run.final_worst = result.history.final_eval().map(|e| e.worst);
    if !result
        .final_w
        .iter()
        .chain(&result.final_p)
        .all(|x| x.is_finite())
    {
        run.failure = Some("non-finite final_w or final_p".into());
    } else if rounds.is_none() {
        run.failure = Some(format!(
            "final worst accuracy {} missed the target {} within {} rounds",
            run.final_worst.unwrap_or(f64::NAN),
            w.target(),
            w.rounds()
        ));
    } else if mode != Mode::Off {
        let evals = stamp.evals();
        let worst: Vec<f64> = evals.iter().map(|e| e.worst).collect();
        let stamped = probe::sustained_crossing(&worst, w.target(), SUSTAIN).map(|i| evals[i]);
        match stamped {
            Some(e) if probe::cloud_rounds_at(&result.history, e.round) == rounds => {
                run.time_to_target_s = Some((e.at - t0).as_secs_f64());
                run.sim_s = stamp.sim_s_at(e.round);
            }
            _ => run.failure = Some("stamped crossing disagrees with the history's".into()),
        }
    }

    if let Some(timed) = &timed {
        for p in profiler.summary() {
            *layers.profile.entry(p.phase).or_insert(0.0) += p.total_s;
        }
        layers.add(
            "driver.round_self_s",
            probe::round_self_s(&timed.spans(), |n| threads.min(n)),
        );
        layers.add("telemetry.events", timed.events() as f64);
        layers.add("telemetry.emit_s", timed.emit_s());
        layers.add("telemetry.bytes", jsonl_bytes as f64);
        layers.add("ckpt.writes", ckpt_writes as f64);
        layers.add("ckpt.bytes", ckpt_bytes as f64);
        let c = &result.comm;
        let floats = |l: Link| (c.uplink_floats(l) + c.downlink_floats(l)) as f64;
        layers.add("comm.cloud_rounds", c.cloud_rounds() as f64);
        layers.add("comm.edge_cloud_floats", floats(Link::EdgeCloud));
        layers.add("comm.client_edge_floats", floats(Link::ClientEdge));
        layers.add("fault.crashes", result.faults.crashes as f64);
        layers.add("fault.retries", result.faults.retries as f64);
        layers.add("fault.gave_up", result.faults.gave_up as f64);
        layers.add("churn.joined", result.churn.joined as f64);
        layers.add("churn.rehomed", result.churn.rehomed as f64);
        layers.add(
            "quarantine.excluded_uploads",
            result.quarantine.excluded_uploads as f64,
        );
    }
    Ok(run)
}

fn pass(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let threads = match w.parallelism() {
        Parallelism::Sequential => 1,
        Parallelism::Rayon => rayon::current_num_threads(),
    };
    // ---- set-up: scenario generation + problem construction ----------
    // The previous repetition's problem is dropped first, so only one copy
    // of the data is resident when the peak RSS is read.
    let mut scenario_s = Vec::new();
    let mut problem_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let sc = w.scenario(args.data_seed);
        scenario_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let model = w.model(&sc);
        let shape = w.shape(&sc);
        let problem = workload::problem(sc, model);
        problem_s.push(t.elapsed().as_secs_f64());
        built = Some((problem, shape));
    }
    let (problem, shape) = built.expect("at least one set-up repetition");
    let model_stats = Arc::new(ModelStats::default());
    let traced_problem = args.trace.then(|| {
        workload::problem(
            problem.scenario.clone(),
            Arc::new(TimedModel::new(problem.model.clone(), model_stats.clone())),
        )
    });
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;

    // Traced, each seed is trained three times back to back, so the
    // overhead ratios compare runs a few seconds apart.
    let mut layers = Layers::default();
    let (mut runs, mut off_runs, mut traced_runs) = (Vec::new(), Vec::new(), Vec::new());
    for &seed in &args.seeds {
        let mut train =
            |p: &FederatedProblem, mode| train_seed(args, p, seed, threads, mode, &mut layers);
        runs.push(train(&problem, Mode::Stamped)?);
        if let Some(traced_problem) = &traced_problem {
            off_runs.push(train(&problem, Mode::Off)?);
            traced_runs.push(train(traced_problem, Mode::Traced)?);
        }
    }

    let setup_s: Vec<f64> = scenario_s
        .iter()
        .zip(&problem_s)
        .map(|(a, b)| a + b)
        .collect();
    let mut out = ObjWriter::new();
    out.str("workload", w.name())
        .usize("threads", threads)
        .arr_f64("setup_s", &setup_s)
        .f64("peak_rss_mb", peak_rss_mb())
        .raw("runs", &json_list(&runs));
    if args.trace {
        out.raw("off_runs", &json_list(&off_runs))
            .raw("traced_runs", &json_list(&traced_runs));
        // Everything additive is reported per training run.
        let n = traced_runs.len().max(1) as f64;
        let profile = std::mem::take(&mut layers.profile);
        let phase = |tag: &str| profile.get(tag).copied().unwrap_or(0.0);
        for (name, tag) in [
            ("driver.round_s", "round"),
            ("driver.phase1_sampling_s", "phase1_sampling"),
            ("driver.local_sgd_chain_s", "local_sgd_chain"),
            ("driver.aggregation_s", "aggregation"),
            ("driver.dual_update_s", "dual_update"),
            ("driver.eval_s", "eval"),
            ("driver.checkpoint_write_s", "checkpoint_write"),
            ("driver.fault_retry_s", "fault_retry"),
        ] {
            layers.add(name, phase(tag));
        }
        let ms = &model_stats;
        layers.add("nn.loss_grad.calls", ms.loss_grad.calls() as f64);
        layers.add("nn.loss_grad.busy_s", ms.loss_grad.busy_s());
        layers.add("nn.loss.calls", ms.loss.calls() as f64);
        layers.add("nn.loss.busy_s", ms.loss.busy_s());
        layers.add("nn.predict.calls", ms.predict.calls() as f64);
        layers.add("nn.predict.busy_s", ms.predict.busy_s());
        layers.add(
            "chain.non_model_s",
            phase("local_sgd_chain") - ms.loss_grad.busy_s(),
        );
        let mut per_run: BTreeMap<&str, f64> =
            layers.sums.iter().map(|(k, v)| (*k, v / n)).collect();
        let run_s: f64 = traced_runs.iter().map(|r| r.run_s).sum();
        let cpu: f64 = traced_runs.iter().map(|r| r.cpu_s).sum();
        per_run.insert("nn.loss_grad.gflops", probe::loss_grad_gflops(ms, &shape));
        per_run.insert("exec.threads", threads as f64);
        per_run.insert(
            "exec.parallel_efficiency",
            parallel_efficiency(w.parallelism(), threads, cpu, run_s),
        );
        per_run.insert("data.scenario_s", median(&scenario_s));
        per_run.insert("data.problem_s", median(&problem_s));
        let mut body = ObjWriter::new();
        for (k, v) in &per_run {
            body.f64(k, *v);
        }
        out.raw("layers", &body.finish());
    }
    Ok(out.finish())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.plan {
        println!("{}", plan(&args));
        return ExitCode::SUCCESS;
    }
    match pass(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_runs_are_fully_efficient() {
        assert_eq!(
            parallel_efficiency(Parallelism::Sequential, 1, 0.7, 1.0),
            1.0
        );
        assert_eq!(
            parallel_efficiency(Parallelism::Sequential, 1, 1.3, 1.0),
            1.0
        );
        let e = parallel_efficiency(Parallelism::Rayon, 2, 3.0, 2.0);
        assert!((e - 0.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn passes_need_a_workload_and_seeds() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("pass --workload fig3-logistic")).is_err());
        assert!(parse_args(&argv("pass --workload nope --seeds 1")).is_err());
        assert!(parse_args(&argv("run --workload fig4-mlp --seeds 1")).is_err());
        let a = parse_args(&argv("pass --workload fig4-mlp --seeds 4,5 --trace")).unwrap();
        assert_eq!(a.workload, Workload::Fig4Mlp);
        assert_eq!((a.seeds, a.data_seed, a.trace), (vec![4, 5], 2024, true));
        let p = parse_args(&argv("plan --workload ops-chaos --alg-seed 3 --seconds 10")).unwrap();
        assert!(p.plan && p.seconds == 10.0 && p.alg_seed == 3);
    }

    #[test]
    fn seed_runs_serialise_absent_outcomes_as_null() {
        let run = SeedRun {
            seed: 7,
            failure: Some("missed \"target\"".into()),
            digest: 255,
            run_s: 0.5,
            cpu_s: 0.25,
            rounds: None,
            time_to_target_s: None,
            sim_s: None,
            final_worst: Some(0.5),
        };
        let v = hierminimax::telemetry::json::parse(&run.to_json()).unwrap();
        assert_eq!(
            v.get("failure").unwrap().as_str(),
            Some("missed \"target\"")
        );
        assert_eq!(v.get("digest").unwrap().as_str(), Some("00000000000000ff"));
        assert!(v.get("rounds_to_target").unwrap().is_null());
        assert_eq!(v.get("final_worst_acc").unwrap().as_f64(), Some(0.5));
    }
}
