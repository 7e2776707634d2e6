//! The CLI subcommands.

use crate::args::{ArgError, Args};
use crate::scenario;
use hm_core::algorithms::{Algorithm, Hyper, Method, MethodRun, Opt, Param, RunOpts, UpperLevel};
use hm_core::duality::{duality_gap, GapConfig};
use hm_core::metrics::evaluate;
use hm_core::problem::FederatedProblem;
use hm_core::{CheckpointOpts, RunResult};
use hm_data::partition::label_skew;
use hm_simnet::{
    AttackModel, ChurnPlan, CommStats, FaultPlan, LatencyModel, Link, Parallelism, Quantizer,
    ATTACK_MODELS, CHURN_PRESETS, FAULT_PRESETS,
};
use hm_telemetry::{JsonlSink, PhaseAgg, Profiler, SpanAggregator, Telemetry, TelemetryEvent};
use hm_tensor::{Aggregator, AGGREGATORS};
use std::sync::Arc;

/// Dispatch a parsed command line. Returns the process exit code.
pub fn dispatch(args: &Args) -> Result<(), ArgError> {
    match args.subcommand.as_str() {
        "run" => run(args),
        "compare" => compare(args),
        "gap" => gap(args),
        "data" => data(args),
        "eval" => eval_model(args),
        "validate-telemetry" => validate_telemetry(args),
        "report" => report_stream(args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown subcommand {other:?}\n\n{}",
            usage()
        ))),
    }
}

/// The usage text.
pub fn usage() -> &'static str {
    "hierminimax — distributed minimax fair optimization over hierarchical networks

USAGE:
  hierminimax <run|compare|gap|data|eval|validate-telemetry|report|help> [flags]

SUBCOMMANDS:
  run       run one algorithm and report fairness + communication
  compare   run all five methods of the paper with a matched budget
            (--extended adds FedProx, q-FedAvg and 4-layer MultiLevel)
  gap       run HierMinimax and report the convex duality gap (Theorem 1)
  data      build a scenario and print its heterogeneity statistics
  eval      evaluate a saved model (--model PATH) on a scenario
  validate-telemetry   check a telemetry JSONL file (--file PATH) against
            the event schema (DESIGN.md par. 10) and print a summary
            (--strict rejects event kinds unknown to this build)
  report    render a telemetry JSONL file (--file PATH) into a run report:
            per-phase profile, per-link communication, fault/retry totals,
            simulated vs wall-clock time (DESIGN.md par. 13)

SCENARIO FLAGS (all subcommands):
  --scenario tiny|emnist|mnist|fashion|dirichlet|adult|synthetic|idx|csv  (default emnist)
  --edges N --clients N --train-per-client N --test-per-edge N
  --imbalance F       smallest edge's data fraction (default 0.15)
  --similarity F      s of the similarity split (default 0.5)
  --data-seed N
  --images P --labels P    (scenario idx: IDX image/label files)
  --file P                 (scenario csv: categorical CSV)
  --partition label|similarity|dirichlet   (real-data scenarios)\n  --alpha F             Dirichlet concentration (default 0.5)

ALGORITHM FLAGS (run):
  --method hierminimax|hierfavg|fedavg|fedprox|afl|drfa|qffl|multilevel
                        (default hierminimax)
  --rounds N --tau1 N --tau2 N --m N
  --eta-w F --eta-p F --batch N --loss-batch N
  --q F                 (qffl) fairness exponent
  --mu F                (fedprox) proximal coefficient
  --group-size N --tau3 N   (multilevel) region grouping and period
  --quant-bits N        quantize uplinks at N bits (0 = exact)

FAULT-INJECTION FLAGS (run, compare; deterministic per seed):
  --fault-plan NAME     none|flaky-clients|edge-outages|lossy-wan|stragglers|chaos|byzantine
                        (default none)
  --client-crash F --edge-outage F --msg-loss F
                        per-block/round/attempt probabilities overriding the preset
  --max-retries N --backoff-base F
                        bounded retransmission of lost edge-cloud messages
                        (exponential backoff in simulated seconds)
  --backoff-jitter F    keyed multiplicative jitter on retry backoff (0 = off)
  --straggler-rate F --straggler-slowdown F --deadline-factor F
                        compute stragglers; slower than the deadline is cut
  --max-stale-rounds N  abort with an error after N+1 consecutive rounds
                        in which no sampled edge, group or client reported
                        (0 = never)

MEMBERSHIP-CHURN FLAGS (run; hierminimax and hierfavg only):
  --churn-plan NAME     none|mild|flash-crowd|edge-failover|chaos-churn
                        (default none; deterministic per seed)
  --leave-rate F --join-rate F --edge-fail-rate F
                        per-round probabilities overriding the preset
  --no-rehome           strand a failed edge's clients instead of
                        re-homing them onto surviving edges

BYZANTINE-ADVERSARY FLAGS (run, compare; deterministic per seed):
  --corrupt-rate F      per-client per-block corruption probability
  --attack NAME         sign-flip|scale|noise|zero|collude (default sign-flip)
  --attack-scale F      attack magnitude kappa (sign-flip/scale/noise)
  --aggregator NAME     mean|trimmed-mean|coordinate-median|norm-clip
                        robust client->edge and edge->cloud reduction
  --trim-beta F         (trimmed-mean) per-side trim fraction in [0, 0.5)
  --clip-tau F          (norm-clip) clipping radius on update norms
  --quarantine-z F      update-norm z-score threshold; outliers sit out
                        (0 = quarantine off)
  --quarantine-window N rounds a quarantined client is excluded (default 5)

CHECKPOINT/RESUME FLAGS (run; see DESIGN.md par. 12):
  --checkpoint-dir P    write crash-consistent snapshots (atomic rename +
                        CRC32) at cloud-round boundaries
  --checkpoint-every N  snapshot cadence in cloud rounds (default 1)
  --resume PATH         resume from a snapshot; must match the run's
                        method, --seed and --rounds, and continues
                        bit-identically to the uninterrupted run
  --mlp W1,W2,...       use an MLP with these hidden widths
  --cnn                 use the SimpleCnn model (square inputs only)
  --seed N --eval-every N --sequential --csv PATH
  --telemetry PATH      write structured run telemetry (JSONL, one event
                        per line; see DESIGN.md par. 10)
  --profile             collect per-phase wall-clock spans and print the
                        summary table; with --telemetry also writes span
                        events for later `report` (never perturbs the run)
  --save-model PATH     (run) save the final model
  --model PATH          (eval) model file to evaluate
"
}

/// Resolve `--fault-plan` (a preset name) plus the per-knob override
/// flags into a validated [`FaultPlan`].
fn fault_plan(args: &Args) -> Result<FaultPlan, ArgError> {
    let name = args.str_or("fault-plan", "none");
    let mut plan = FaultPlan::preset(&name).ok_or_else(|| {
        ArgError(format!(
            "--fault-plan {name:?} unknown (one of {})",
            FAULT_PRESETS.join("|")
        ))
    })?;
    plan.client_crash = args.num_or("client-crash", plan.client_crash)?;
    plan.edge_outage = args.num_or("edge-outage", plan.edge_outage)?;
    plan.msg_loss = args.num_or("msg-loss", plan.msg_loss)?;
    plan.max_retries = args.num_or("max-retries", plan.max_retries)?;
    plan.backoff_base_s = args.num_or("backoff-base", plan.backoff_base_s)?;
    plan.straggler_rate = args.num_or("straggler-rate", plan.straggler_rate)?;
    plan.straggler_slowdown = args.num_or("straggler-slowdown", plan.straggler_slowdown)?;
    plan.deadline_factor = args.num_or("deadline-factor", plan.deadline_factor)?;
    plan.corrupt_rate = args.num_or("corrupt-rate", plan.corrupt_rate)?;
    let attack = args.str_or("attack", "");
    if !attack.is_empty() {
        plan.attack = AttackModel::parse(&attack).ok_or_else(|| {
            ArgError(format!(
                "--attack {attack:?} unknown (one of {})",
                ATTACK_MODELS.join("|")
            ))
        })?;
    }
    plan.attack_scale = args.num_or("attack-scale", plan.attack_scale)?;
    plan.backoff_jitter = args.num_or("backoff-jitter", plan.backoff_jitter)?;
    plan.validate()
        .map_err(|e| ArgError(format!("fault plan: {e}")))?;
    Ok(plan)
}

/// Resolve `--churn-plan` (a preset name) plus the per-knob override
/// flags into a validated [`ChurnPlan`].
fn churn_plan(args: &Args) -> Result<ChurnPlan, ArgError> {
    let name = args.str_or("churn-plan", "none");
    let mut plan = ChurnPlan::preset(&name).ok_or_else(|| {
        ArgError(format!(
            "--churn-plan {name:?} unknown (one of {})",
            CHURN_PRESETS.join("|")
        ))
    })?;
    plan.leave_rate = args.num_or("leave-rate", plan.leave_rate)?;
    plan.join_rate = args.num_or("join-rate", plan.join_rate)?;
    plan.edge_fail_rate = args.num_or("edge-fail-rate", plan.edge_fail_rate)?;
    if args.switch("no-rehome") {
        plan.rehome = false;
    }
    plan.validate()
        .map_err(|e| ArgError(format!("churn plan: {e}")))?;
    Ok(plan)
}

/// Resolve `--aggregator` plus its per-variant knob flags into a
/// validated [`Aggregator`].
fn aggregator(args: &Args) -> Result<Aggregator, ArgError> {
    let name = args.str_or("aggregator", "mean");
    let agg = match name.as_str() {
        "mean" => Aggregator::Mean,
        "trimmed-mean" => Aggregator::TrimmedMean {
            beta: args.num_or("trim-beta", 0.1_f32)?,
        },
        "coordinate-median" => Aggregator::CoordinateMedian,
        "norm-clip" => Aggregator::NormClip {
            tau: args.num_or("clip-tau", 1.0_f32)?,
        },
        other => {
            return Err(ArgError(format!(
                "--aggregator {other:?} unknown (one of {})",
                AGGREGATORS.join("|")
            )))
        }
    };
    agg.validate()
        .map_err(|e| ArgError(format!("aggregator: {e}")))?;
    Ok(agg)
}

/// Resolve `--checkpoint-dir`, `--checkpoint-every` and `--resume` into
/// [`CheckpointOpts`]. A resume snapshot is read here, so corruption is a
/// clean CLI error instead of a panic inside the run loop;
/// [`build_algorithm`]'s run check refuses one that does not fit the run.
fn checkpoint_opts(args: &Args) -> Result<CheckpointOpts, ArgError> {
    let dir = args.str_or("checkpoint-dir", "");
    let every_raw = args.str_or("checkpoint-every", "");
    let resume = args.str_or("resume", "");
    let mut ck = CheckpointOpts::default();
    if dir.is_empty() {
        if !every_raw.is_empty() {
            return Err(ArgError(
                "--checkpoint-every requires --checkpoint-dir".into(),
            ));
        }
    } else {
        let every: usize = if every_raw.is_empty() {
            1
        } else {
            every_raw
                .parse()
                .map_err(|_| ArgError(format!("--checkpoint-every: cannot parse {every_raw:?}")))?
        };
        if every == 0 {
            return Err(ArgError("--checkpoint-every must be at least 1".into()));
        }
        ck = CheckpointOpts::writing(&dir, every);
    }
    if !resume.is_empty() {
        let snap = hm_checkpoint::read_snapshot(std::path::Path::new(&resume))
            .map_err(|e| ArgError(format!("--resume {resume}: {e}")))?;
        ck.resume = Some(Arc::new(snap));
    }
    Ok(ck)
}

/// The run options, and the `--telemetry` file's sink when there is one,
/// so the command can fail when writing the stream failed
/// ([`check_written`]).
fn opts(args: &Args) -> Result<(RunOpts, Option<Arc<JsonlSink>>), ArgError> {
    let telemetry_path = args.str_or("telemetry", "");
    let jsonl = if telemetry_path.is_empty() {
        None
    } else {
        let sink = JsonlSink::create(&telemetry_path)
            .map_err(|e| ArgError(format!("--telemetry {telemetry_path}: {e}")))?;
        Some(Arc::new(sink))
    };
    let telemetry = match &jsonl {
        Some(sink) => Telemetry::with_sink(sink.clone()),
        None => Telemetry::disabled(),
    };
    let quarantine_z = args.num_or("quarantine-z", 0.0_f64)?;
    let quarantine_window = args.num_or("quarantine-window", 5_usize)?;
    if !(quarantine_z.is_finite() && quarantine_z >= 0.0) {
        return Err(ArgError(format!(
            "--quarantine-z must be finite and at least 0 (got {quarantine_z})"
        )));
    }
    if quarantine_z > 0.0 && quarantine_window == 0 {
        return Err(ArgError(
            "--quarantine-window must be at least 1 when --quarantine-z is positive".into(),
        ));
    }
    let opts = RunOpts {
        eval_every: args.num_or("eval-every", 0)?,
        parallelism: if args.switch("sequential") {
            Parallelism::Sequential
        } else {
            Parallelism::Rayon
        },
        telemetry,
        fault: fault_plan(args)?,
        checkpoint: checkpoint_opts(args)?,
        profile: if args.switch("profile") {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        },
        aggregator: aggregator(args)?,
        quarantine_z,
        quarantine_window,
        churn: churn_plan(args)?,
        max_stale_rounds: args.num_or("max-stale-rounds", 0_usize)?,
    };
    Ok((opts, jsonl))
}

/// Fail when writing the `--telemetry` stream failed. The sink latches
/// write errors instead of aborting the run, so call this after the run's
/// final flush.
fn check_written(jsonl: Option<&JsonlSink>) -> Result<(), ArgError> {
    match jsonl {
        Some(sink) if sink.had_errors() => Err(ArgError(format!(
            "--telemetry {}: writing the stream failed",
            sink.path().display()
        ))),
        _ => Ok(()),
    }
}

fn build_problem(args: &Args) -> Result<FederatedProblem, ArgError> {
    let sc = scenario::build(args)?;
    let mlp = args.str_or("mlp", "");
    if args.switch("cnn") {
        let side = (sc.dim as f64).sqrt() as usize;
        if side * side != sc.dim {
            return Err(ArgError(format!(
                "--cnn needs square inputs; got dim {}",
                sc.dim
            )));
        }
        // Two 3x3 conv blocks with 2x2 pooling need at least 10x10 inputs.
        if side < 10 {
            return Err(ArgError(format!(
                "--cnn needs inputs of at least 10x10; got {side}x{side}"
            )));
        }
        let model = hm_nn::SimpleCnn::new(side, 3, 4, 8, 32, sc.num_classes);
        return Ok(FederatedProblem::new(
            sc,
            Arc::new(model),
            hm_optim::ProjectionOp::Unconstrained,
            hm_optim::ProjectionOp::Simplex,
        ));
    }
    if mlp.is_empty() {
        Ok(FederatedProblem::logistic_from_scenario(&sc))
    } else {
        let hidden: Result<Vec<usize>, _> = mlp.split(',').map(str::parse).collect();
        let hidden = hidden.map_err(|_| ArgError(format!("--mlp: cannot parse {mlp:?}")))?;
        Ok(FederatedProblem::mlp_from_scenario(&sc, &hidden))
    }
}

fn quantizer(args: &Args) -> Result<Quantizer, ArgError> {
    let bits: u8 = args.num_or("quant-bits", 0)?;
    Ok(match bits {
        0 => Quantizer::Exact,
        b if (1..=16).contains(&b) => Quantizer::Stochastic { bits: b },
        b => return Err(ArgError(format!("--quant-bits {b} out of 0..=16"))),
    })
}

/// Refuse an option that `method` would silently ignore, naming the flag
/// and the methods that [honour](Method::honours) it.
fn refuse_ignored(method: Method, opts: &RunOpts, quant: Quantizer) -> Result<(), ArgError> {
    let mean = opts.aggregator == Aggregator::Mean;
    for (set, flag, opt) in [
        (!mean, "aggregator", Opt::Aggregator),
        (quant != Quantizer::Exact, "quant-bits", Opt::Codec),
        (opts.quarantine_z > 0.0, "quarantine-z", Opt::Quarantine),
        (!opts.churn.is_none(), "churn-plan", Opt::Churn),
    ] {
        if set && !method.honours(opt) {
            let methods: Vec<&str> = Method::ALL
                .into_iter()
                .filter(|&m| m.honours(opt))
                .map(Method::flag)
                .collect();
            return Err(ArgError(format!(
                "--{flag} requires --method {} (got {:?})",
                methods.join("|"),
                method.flag()
            )));
        }
    }
    Ok(())
}

/// The hyper-parameters from their ALGORITHM FLAGS, `--m` and `--batch`
/// defaulting to `m` and `batch`. A flag for a parameter that `reads`
/// refuses is not consumed, so [`Args::reject_unknown`] refuses it.
fn hyper(
    args: &Args,
    reads: impl Fn(Param) -> bool,
    m: usize,
    batch: usize,
) -> Result<Hyper, ArgError> {
    let d = Hyper::default();
    let upper = reads(Param::Upper);
    let level = d.upper[0];
    Ok(Hyper {
        rounds: args.num_or("rounds", d.rounds)?,
        tau1: args.num_if(reads(Param::Tau1), "tau1", d.tau1)?,
        tau2: args.num_if(reads(Param::Tau2), "tau2", d.tau2)?,
        m: args.num_or("m", m)?,
        eta_w: args.num_or("eta-w", d.eta_w)?,
        eta_p: args.num_if(reads(Param::EtaP), "eta-p", d.eta_p)?,
        batch_size: args.num_or("batch", batch)?,
        loss_batch: args.num_if(reads(Param::LossBatch), "loss-batch", d.loss_batch)?,
        mu: args.num_if(reads(Param::Mu), "mu", d.mu)?,
        q: args.num_if(reads(Param::Q), "q", d.q)?,
        upper: vec![UpperLevel {
            group_size: args.num_if(upper, "group-size", level.group_size)?,
            tau: args.num_if(upper, "tau3", level.tau)?,
        }],
        ..d
    })
}

/// The selected algorithm and its seed, a clone of the shared [`RunOpts`]
/// so the caller keeps live handles (telemetry, profiler) into the run it
/// is about to start, and the `--telemetry` file's sink.
struct Built {
    alg: MethodRun,
    seed: u64,
    handles: RunOpts,
    jsonl: Option<Arc<JsonlSink>>,
}

/// Build the `--method` algorithm from the flags it reads, checked against
/// `problem` ([`MethodRun::check`]): a `--resume` snapshot must come from
/// the same algorithm, seed, rounds and problem shape, and carry the
/// state the run keeps.
fn build_algorithm(args: &Args, problem: &FederatedProblem) -> Result<Built, ArgError> {
    let flag = args.str_or("method", "hierminimax");
    let method = Method::parse(&flag).ok_or_else(|| {
        let all: Vec<&str> = Method::ALL.into_iter().map(Method::flag).collect();
        ArgError(format!("unknown method {flag:?} ({})", all.join("|")))
    })?;
    let h = Hyper {
        quantizer: quantizer(args)?,
        ..hyper(args, |p| method.reads(p), 2, 2)?
    };
    let seed = args.num_or("seed", 7_u64)?;
    let (opts, jsonl) = opts(args)?;
    refuse_ignored(method, &opts, h.quantizer)?;
    let alg = method.build(&h, opts.clone());
    alg.check(problem, seed);
    Ok(Built {
        alg,
        seed,
        handles: opts,
        jsonl,
    })
}

fn report(problem: &FederatedProblem, name: &str, r: &RunResult) {
    let e = evaluate(problem, &r.final_w, Parallelism::Rayon);
    println!("\n== {name} ==");
    println!(
        "per-edge accuracy: {:?}",
        e.per_edge_accuracy
            .iter()
            .map(|a| (a * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!(
        "average {:.4}   worst {:.4}   variance {:.2} pp^2",
        e.average, e.worst, e.variance_pp
    );
    println!("final weights p: {:?}", r.final_p);
    let slots = r.history.rounds.last().map_or(0, |rec| rec.slots_done);
    println!(
        "communication: {} cloud rounds, {} local rounds, {:.2e} floats; {} slots",
        r.comm.cloud_rounds(),
        r.comm.rounds(Link::ClientEdge),
        r.comm.total_floats() as f64,
        slots
    );
    // Serial accounting (edge_areas = 1): the CLI summary does not know how
    // many edge areas the method ran in parallel, so it reports the
    // conservative bound. Telemetry `round_end.sim_s` uses the per-method
    // edge-parallel accounting (see `LatencyModel::simulated_seconds_parallel`).
    let mec = LatencyModel::mobile_edge();
    println!(
        "simulated wall-clock (mobile-edge model): {:.1} s",
        mec.simulated_seconds(&r.comm, slots)
    );
    let f = &r.faults;
    if f.total() > 0 || f.straggler_slots > 0.0 {
        println!(
            "injected faults: {} crashes, {} outages, {} retries ({} gave up), \
             {} deadline misses; +{:.2} s backoff, +{:.1} straggler slots",
            f.crashes,
            f.outages,
            f.retries,
            f.gave_up,
            f.deadline_missed,
            f.backoff_s,
            f.straggler_slots
        );
    }
    let q = &r.quarantine;
    if q.total() > 0 {
        println!(
            "adversary: {} corrupted updates, {} clients quarantined, \
             {} uploads excluded",
            q.corrupted_updates, q.quarantined_clients, q.excluded_uploads
        );
    }
    let c = &r.churn;
    if c.total() > 0 {
        println!(
            "membership churn: {} joined, {} left, {} edge failures; \
             {} clients re-homed, {} stranded",
            c.joined, c.left, c.edge_failures, c.rehomed, c.stranded
        );
    }
}

fn run(args: &Args) -> Result<(), ArgError> {
    let problem = build_problem(args)?;
    let Built {
        alg,
        seed,
        handles,
        jsonl,
    } = build_algorithm(args, &problem)?;
    let csv = args.str_or("csv", "");
    let save_model = args.str_or("save-model", "");
    args.reject_unknown()?;
    println!(
        "problem: {} ({} edges x {} clients, d = {})",
        problem.scenario.name,
        problem.num_edges(),
        problem.clients_per_edge(),
        problem.num_params()
    );
    let r = alg
        .try_run(&problem, seed)
        .map_err(|e| ArgError(e.to_string()))?;
    report(&problem, alg.name(), &r);
    if handles.profile.is_enabled() {
        print_phase_table(&handles.profile.summary());
    }
    if !csv.is_empty() {
        std::fs::write(&csv, r.history.to_csv())
            .map_err(|e| ArgError(format!("writing {csv}: {e}")))?;
        println!("history written to {csv}");
    }
    if !save_model.is_empty() {
        hm_data::persist::save_params(std::path::Path::new(&save_model), &r.final_w)
            .map_err(|e| ArgError(format!("saving model: {e}")))?;
        println!("model written to {save_model}");
    }
    check_written(jsonl.as_deref())
}

fn eval_model(args: &Args) -> Result<(), ArgError> {
    let problem = build_problem(args)?;
    let model_path = args.str_or("model", "");
    if model_path.is_empty() {
        return Err(ArgError("eval requires --model <path>".into()));
    }
    args.reject_unknown()?;
    let w = hm_data::persist::load_params(std::path::Path::new(&model_path))
        .map_err(|e| ArgError(format!("loading model: {e}")))?;
    if w.len() != problem.num_params() {
        return Err(ArgError(format!(
            "model has {} parameters but the scenario needs {}",
            w.len(),
            problem.num_params()
        )));
    }
    let e = evaluate(&problem, &w, Parallelism::Rayon);
    println!("per-edge accuracy: {:?}", e.per_edge_accuracy);
    println!(
        "average {:.4}   worst {:.4}   variance {:.2} pp^2",
        e.average, e.worst, e.variance_pp
    );
    Ok(())
}

fn validate_telemetry(args: &Args) -> Result<(), ArgError> {
    let path = args.str_or("file", "");
    if path.is_empty() {
        return Err(ArgError("validate-telemetry requires --file <path>".into()));
    }
    let strict = args.switch("strict");
    args.reject_unknown()?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    let summary = if strict {
        hm_telemetry::validate_stream_strict(&text)
    } else {
        hm_telemetry::validate_stream(&text)
    }
    .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: {} event line(s), {} run(s), schema OK{}",
        summary.lines,
        summary.runs,
        if strict { " (strict)" } else { "" }
    );
    for (kind, count) in &summary.events_by_kind {
        println!("  {kind:<12} {count}");
    }
    Ok(())
}

/// Print a per-phase wall-clock table (`run --profile` and `report`).
fn print_phase_table(phases: &[PhaseAgg]) {
    println!("\nper-phase wall-clock profile:");
    if phases.is_empty() {
        println!("  (no spans recorded)");
        return;
    }
    println!(
        "{:<18}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "phase", "count", "total s", "mean s", "p50 s", "p90 s", "max s"
    );
    for p in phases {
        let mean = p.total_s / p.count.max(1) as f64;
        println!(
            "{:<18}{:>8}{:>12.6}{:>12.6}{:>12.6}{:>12.6}{:>12.6}",
            p.phase, p.count, p.total_s, mean, p.p50_s, p.p90_s, p.max_s
        );
    }
}

/// Everything `report` extracts from one pass over a telemetry stream.
#[derive(Default)]
struct StreamDigest {
    header: Option<String>,
    resumes: usize,
    rounds: usize,
    wall_rounds_s: f64,
    run_elapsed_s: f64,
    sim_s: f64,
    comm_total: Option<CommStats>,
    spans: SpanAggregator,
    summary_phases: Vec<PhaseAgg>,
    crashes: u64,
    outages: u64,
    retries: u64,
    gave_up: u64,
    deadline_missed: u64,
    backoff_s: f64,
    straggler_slots: f64,
    fault_events: usize,
}

impl StreamDigest {
    fn fault_total(&self) -> u64 {
        self.crashes + self.outages + self.retries + self.gave_up + self.deadline_missed
    }

    /// Fold one decoded event into the digest.
    fn add(&mut self, event: TelemetryEvent) {
        match event {
            TelemetryEvent::RunStart {
                algorithm,
                rounds,
                n_edges,
                num_params,
                seed,
            } => {
                self.header.get_or_insert_with(|| {
                    format!(
                        "{algorithm}  seed {seed}  rounds {rounds}  ({n_edges} edges, {num_params} params)"
                    )
                });
            }
            TelemetryEvent::RunResume { .. } => self.resumes += 1,
            TelemetryEvent::RoundEnd {
                comm_total,
                sim_s,
                elapsed_s,
                ..
            } => {
                self.rounds += 1;
                self.wall_rounds_s += elapsed_s;
                // Keep the latest totals so truncated streams still report.
                self.sim_s = sim_s;
                self.comm_total = Some(comm_total);
            }
            TelemetryEvent::RunEnd {
                comm_total,
                sim_s,
                elapsed_s,
                ..
            } => {
                self.sim_s = sim_s;
                self.run_elapsed_s = elapsed_s;
                self.comm_total = Some(comm_total);
            }
            TelemetryEvent::Span {
                phase, elapsed_s, ..
            } => self.spans.add(&phase, elapsed_s),
            // Kept only as a fallback: re-aggregating raw spans also covers
            // spliced streams whose summary spans just the resumed suffix.
            TelemetryEvent::ProfileSummary { phases } => self.summary_phases = phases,
            TelemetryEvent::Fault { .. } => self.fault_events += 1,
            TelemetryEvent::FaultSummary {
                crashes,
                outages,
                retries,
                gave_up,
                deadline_missed,
                backoff_s,
                straggler_slots,
                ..
            } => {
                self.crashes += crashes;
                self.outages += outages;
                self.retries += retries;
                self.gave_up += gave_up;
                self.deadline_missed += deadline_missed;
                self.backoff_s += backoff_s;
                self.straggler_slots += straggler_slots;
            }
            _ => {}
        }
    }
}

/// Render a telemetry JSONL stream into a human-readable run report.
fn report_stream(args: &Args) -> Result<(), ArgError> {
    let path = args.str_or("file", "");
    if path.is_empty() {
        return Err(ArgError("report requires --file <path>".into()));
    }
    args.reject_unknown()?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    // Tolerant validation: a report must render streams from newer builds
    // (unknown kinds are unsequenced observers) and spliced resume streams.
    let mut d = StreamDigest::default();
    let summary = hm_telemetry::validate_stream_with(&text, |event| d.add(event))
        .map_err(|e| ArgError(format!("{path}: {e}")))?;

    println!("telemetry report: {path}");
    println!(
        "run: {}",
        d.header.as_deref().unwrap_or("(no run_start in stream)")
    );
    println!(
        "  {} event line(s), {} run(s), {} resume splice(s), {} round(s) recorded",
        summary.lines, summary.runs, d.resumes, d.rounds
    );

    // Per-phase profile: re-aggregated from raw spans when present (robust
    // across crash/resume splices), else the stream's own summary event.
    let phases = if d.spans.is_empty() {
        d.summary_phases.clone()
    } else {
        d.spans.summary()
    };
    print_phase_table(&phases);

    println!("\ncommunication by link:");
    match &d.comm_total {
        None => println!("  (no round_end/run_end in stream)"),
        Some(comm) => {
            println!(
                "{:<14}{:>14}{:>14}{:>10}{:>10}{:>8}",
                "link", "up floats", "down floats", "up msgs", "down msgs", "rounds"
            );
            let names = ["client-edge", "edge-cloud", "client-cloud"];
            for (name, link) in names.into_iter().zip(Link::all()) {
                println!(
                    "{:<14}{:>14}{:>14}{:>10}{:>10}{:>8}",
                    name,
                    comm.uplink_floats(link),
                    comm.downlink_floats(link),
                    comm.uplink_msgs(link),
                    comm.downlink_msgs(link),
                    comm.rounds(link)
                );
            }
        }
    }

    println!("\nfault/retry summary:");
    if d.fault_total() == 0 && d.straggler_slots == 0.0 && d.fault_events == 0 {
        println!("  no injected faults");
    } else {
        println!(
            "  {} crashes, {} outages, {} retries ({} gave up), {} deadline misses",
            d.crashes, d.outages, d.retries, d.gave_up, d.deadline_missed
        );
        println!(
            "  {} edge-level fault event(s); +{:.3} s backoff, +{:.1} straggler slots",
            d.fault_events, d.backoff_s, d.straggler_slots
        );
    }

    println!("\nsimulated vs wall-clock:");
    println!("  simulated (latency model)    {:>12.3} s", d.sim_s);
    println!("  wall-clock (sum of rounds)   {:>12.3} s", d.wall_rounds_s);
    if d.run_elapsed_s > 0.0 {
        println!("  wall-clock (final segment)   {:>12.3} s", d.run_elapsed_s);
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), ArgError> {
    if !args.str_or("resume", "").is_empty() {
        return Err(ArgError(
            "--resume applies to a single run; use the run subcommand".into(),
        ));
    }
    let problem = build_problem(args)?;
    let seed = args.num_or("seed", 7_u64)?;
    // The suite reads τ1, τ2, η_p and the loss batch for every method.
    let suite = |p| {
        matches!(
            p,
            Param::Tau1 | Param::Tau2 | Param::EtaP | Param::LossBatch
        )
    };
    let h = hyper(args, suite, 5, 1)?;
    let (opts, jsonl) = opts(args)?;
    let extended = args.switch("extended");
    args.reject_unknown()?;

    let slots = h.rounds * h.tau1 * h.tau2;
    if slots == 0 {
        return Err(ArgError(
            "compare: --rounds, --tau1 and --tau2 must be positive".into(),
        ));
    }
    let mut methods = Method::PAPER.to_vec();
    if extended {
        methods.extend([Method::FedProx, Method::QFedAvg]);
        if problem.num_edges() % h.upper[0].group_size == 0 {
            methods.push(Method::MultiLevel);
        }
    }
    // Check every method before the first run, so no row of the table
    // is trained without an option it would ignore or on a config it
    // refuses.
    for &method in &methods {
        refuse_ignored(method, &opts, h.quantizer)?;
    }
    let algs: Vec<MethodRun> = methods
        .iter()
        .map(|m| m.build(&m.matched(&h, slots, &problem), opts.clone()))
        .collect();
    algs.iter().for_each(|alg| alg.check(&problem, seed));
    println!(
        "comparing {} methods on {} with a budget of {} slots",
        algs.len(),
        problem.scenario.name,
        slots
    );
    println!(
        "{:<24}{:>10}{:>10}{:>12}{:>14}",
        "method", "avg", "worst", "var(pp^2)", "cloud rounds"
    );
    for alg in algs {
        let r = alg.run(&problem, seed);
        let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
        println!(
            "{:<24}{:>10.4}{:>10.4}{:>12.2}{:>14}",
            alg.name(),
            e.average,
            e.worst,
            e.variance_pp,
            r.comm.cloud_rounds()
        );
    }
    check_written(jsonl.as_deref())
}

fn gap(args: &Args) -> Result<(), ArgError> {
    let problem = build_problem(args)?;
    if !args.str_or("mlp", "").is_empty() || args.switch("cnn") {
        return Err(ArgError(
            "gap: the duality gap is defined for the convex (logistic) model".into(),
        ));
    }
    if args.str_or("method", "hierminimax") == "multilevel" {
        return Err(ArgError(
            "gap: multilevel reports group-level weights; use --method hierminimax".into(),
        ));
    }
    let Built {
        alg, seed, jsonl, ..
    } = build_algorithm(args, &problem)?;
    args.reject_unknown()?;
    let r = alg.run(&problem, seed);
    let g = duality_gap(&problem, &r.avg_w, &r.avg_p, &GapConfig::default());
    println!("primal  max_p F(ŵ, p)   = {:.6}", g.primal);
    println!("dual    min_w F(w, p̂)   ≈ {:.6}", g.dual);
    println!("duality gap              = {:.6}", g.gap);
    println!(
        "(averaged iterates over {} rounds; Theorem 1 predicts the gap",
        r.history.rounds.len()
    );
    println!(" shrinks as O(T^(-(1-alpha)/2)) in the total slot budget T)");
    check_written(jsonl.as_deref())
}

fn data(args: &Args) -> Result<(), ArgError> {
    let sc = scenario::build(args)?;
    args.reject_unknown()?;
    sc.validate();
    println!("scenario: {}", sc.name);
    println!(
        "{} edges x {} clients, dim {}, {} classes",
        sc.num_edges(),
        sc.clients_per_edge(),
        sc.dim,
        sc.num_classes
    );
    let shards: Vec<hm_data::Dataset> = sc.edges.iter().map(|e| e.train_concat()).collect();
    println!(
        "label skew: {:.3} (1.0 = one class per edge, 1/C = iid)",
        label_skew(&shards)
    );
    println!("{:<6}{:>8}{:>8}   class histogram", "edge", "train", "test");
    for (e, edge) in sc.edges.iter().enumerate() {
        let train: usize = edge.client_train.iter().map(|d| d.len()).sum();
        println!(
            "{:<6}{:>8}{:>8}   {:?}",
            e,
            train,
            edge.test.len(),
            shards[e].class_counts()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&v).unwrap()
    }

    #[test]
    fn run_executes_on_tiny() {
        let a = args(
            "run --scenario tiny --edges 3 --clients 2 --rounds 3 --m 2 --seed 1 --sequential",
        );
        dispatch(&a).unwrap();
    }

    #[test]
    fn every_method_builds() {
        for m in Method::ALL {
            let a = args(&format!(
                "run --scenario tiny --edges 4 --clients 2 --method {} --rounds 1",
                m.flag()
            ));
            let problem = build_problem(&a).unwrap();
            let built = build_algorithm(&a, &problem).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert_eq!(built.alg.name(), m.name());
        }
    }

    #[test]
    fn unknown_method_rejected() {
        let a = args("run --scenario tiny --edges 4 --clients 2 --method sgd");
        assert!(build_algorithm(&a, &build_problem(&a).unwrap()).is_err());
    }

    #[test]
    fn unknown_flag_rejected_by_run() {
        let a = args("run --scenario tiny --edges 3 --clients 2 --rounds 1 --m 2 --bogus 1");
        let err = dispatch(&a).unwrap_err();
        assert!(err.0.contains("--bogus"), "{err}");
    }

    #[test]
    fn data_prints_stats() {
        let a = args("data --scenario tiny --edges 3 --clients 2");
        dispatch(&a).unwrap();
    }

    #[test]
    fn gap_rejects_mlp() {
        let a = args("gap --scenario tiny --edges 3 --clients 2 --mlp 8 --rounds 1 --m 2");
        assert!(dispatch(&a).is_err());
    }

    #[test]
    fn save_and_eval_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hm-cli-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("m.hmw");
        let a = args(&format!(
            "run --scenario tiny --edges 3 --clients 2 --rounds 3 --m 2 --sequential --save-model {}",
            model.display()
        ));
        dispatch(&a).unwrap();
        let b = args(&format!(
            "eval --scenario tiny --edges 3 --clients 2 --model {}",
            model.display()
        ));
        dispatch(&b).unwrap();
        // Dimension mismatch caught.
        let c = args(&format!(
            "eval --scenario tiny --edges 4 --clients 2 --model {}",
            model.display()
        ));
        assert!(dispatch(&c).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_every_requires_dir() {
        let err = checkpoint_opts(&args("run --checkpoint-every 2")).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn checkpoint_every_zero_rejected() {
        let err =
            checkpoint_opts(&args("run --checkpoint-dir /tmp/x --checkpoint-every 0")).unwrap_err();
        assert!(err.0.contains("at least 1"), "{err}");
    }

    #[test]
    fn resume_missing_file_is_clean_error() {
        let err = checkpoint_opts(&args("run --resume /nonexistent/snap.hmck")).unwrap_err();
        assert!(err.0.contains("--resume"), "{err}");
    }

    #[test]
    fn resume_rejected_by_compare() {
        let a = args("compare --scenario tiny --edges 3 --clients 2 --resume x.hmck");
        let err = dispatch(&a).unwrap_err();
        assert!(err.0.contains("run subcommand"), "{err}");
    }

    #[test]
    fn quant_bits_validation() {
        assert!(quantizer(&args("run --quant-bits 8")).is_ok());
        assert!(quantizer(&args("run --quant-bits 0")).is_ok());
        assert!(quantizer(&args("run --quant-bits 33")).is_err());
    }
}
