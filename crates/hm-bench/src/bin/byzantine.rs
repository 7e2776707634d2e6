//! Attack-resilience sweep: final-model drift of every Byzantine attack ×
//! aggregator cell against the honest mean-aggregated reference run,
//! written as machine-readable `results/BENCH_byzantine.json`.
//!
//! Every cell runs the same HierMinimax training job on the same seed with
//! a 20% Byzantine client population mounting one attack model (at an
//! aggressive κ = 10 payload scale), defended by one robust aggregator.
//! The drift metric is the l2 distance between the cell's final global
//! model and the *same aggregator's* honest (adversary-off) run, so each
//! cell measures exactly the bias the attack pushed through that defence —
//! not the aggregator's own honest offset from plain averaging. The
//! horizon is deliberately short: past a few dozen rounds the p-weighted
//! edge sampling amplifies any per-round divergence chaotically and every
//! cell saturates at the model scale, which would drown the signal.
//!
//! The headline scalar is the `sign-flip` drift ratio
//! `mean / trimmed-mean` — how many times worse plain averaging fares than
//! the paper-standard robust aggregator under the canonical direction-
//! reversal attack. The sweep takes no timings and draws every decision
//! from keyed streams, so results are exactly reproducible: `--check`
//! re-measures and compares against the committed JSON with no tolerance
//! for noise, only a floor for the resilience claim itself.
//!
//! Flags:
//! - `--quick`: accepted for interface symmetry with the other benches;
//!   the sweep is already CI-scale (20 short deterministic runs).
//! - `--check`: measure, then require the headline ratio to clear the
//!   resilience floor (≥ 10×) and stay within 2× of the committed
//!   `results/BENCH_byzantine.json` headline, exiting non-zero otherwise
//!   (the file is left untouched).

use hm_bench::results::{number_at, parse_scale_flags, read_committed, write_result};
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::problem::FederatedProblem;
use hm_data::scenarios::tiny_problem;
use hm_simnet::{AttackModel, FaultPlan};
use hm_telemetry::Telemetry;
use hm_tensor::Aggregator;

const SEED: u64 = 23;
const CORRUPT_RATE: f32 = 0.2;
/// Payload scale κ: sign-flip uploads `base − 10·(w − base)`.
const ATTACK_SCALE: f64 = 10.0;
/// Rounds per cell — short enough that chaotic trajectory divergence does
/// not saturate the drift metric (see module docs).
const ROUNDS: usize = 10;
/// Minimum acceptable sign-flip drift ratio (mean / trimmed-mean); the
/// pinned oracle in `tests/byzantine.rs` enforces the same floor.
const RESILIENCE_FLOOR: f64 = 10.0;

fn config(rounds: usize, plan: FaultPlan, agg: Aggregator) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 4,
        m_edges: 4,
        eta_w: 0.05,
        eta_p: 0.01,
        batch_size: 4,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 0,
            parallelism: Default::default(),
            telemetry: Telemetry::disabled(),
            fault: plan,
            checkpoint: Default::default(),
            profile: Default::default(),
            aggregator: agg,
            quarantine_z: 0.0,
            quarantine_window: 0,
            churn: Default::default(),
            max_stale_rounds: 0,
        },
    }
}

fn attack_plan(attack: AttackModel) -> FaultPlan {
    FaultPlan {
        corrupt_rate: CORRUPT_RATE,
        attack,
        attack_scale: ATTACK_SCALE,
        ..FaultPlan::default()
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

fn main() {
    let (quick, _full) = parse_scale_flags();
    let check = std::env::args().any(|a| a == "--check");

    let problem = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 4, 7));
    let aggregators = [
        Aggregator::Mean,
        Aggregator::TrimmedMean { beta: 0.25 },
        Aggregator::CoordinateMedian,
        Aggregator::NormClip { tau: 1.0 },
    ];
    let attacks = [
        AttackModel::SignFlip,
        AttackModel::Scale,
        AttackModel::Noise,
        AttackModel::Zero,
        AttackModel::Collude,
    ];

    let mut entries = Vec::new();
    let mut drift = std::collections::BTreeMap::new();
    for agg in &aggregators {
        // Per-aggregator honest baseline: the same defence, adversary off.
        let honest =
            HierMinimax::new(config(ROUNDS, FaultPlan::default(), *agg)).run(&problem, SEED);
        for attack in attacks {
            let r = HierMinimax::new(config(ROUNDS, attack_plan(attack), *agg)).run(&problem, SEED);
            let d = l2(&r.final_w, &honest.final_w);
            let cell = format!("{}/{}", attack.as_str(), agg.as_str());
            println!(
                "{cell:<32} drift {d:>10.4}   corrupted uploads {}",
                r.quarantine.corrupted_updates
            );
            entries.push(format!(
                "    \"{cell}\": {{ \"drift\": {d:.6}, \"corrupted\": {} }}",
                r.quarantine.corrupted_updates
            ));
            drift.insert(cell, d);
        }
    }

    let mean_d = drift["sign-flip/mean"];
    let trimmed_d = drift["sign-flip/trimmed-mean"].max(1e-12);
    let ratio = mean_d / trimmed_d;
    println!("sign-flip drift ratio mean/trimmed-mean: {ratio:.1}x");

    if check {
        let base = number_at(
            &read_committed("BENCH_byzantine.json"),
            &["signflip_mean_over_trimmed"],
        )
        .expect("no signflip_mean_over_trimmed in results/BENCH_byzantine.json");
        if ratio < RESILIENCE_FLOOR {
            eprintln!("REGRESSION: ratio {ratio:.1}x below the {RESILIENCE_FLOOR}x floor");
            std::process::exit(1);
        }
        if ratio < 0.5 * base {
            eprintln!("REGRESSION: ratio {ratio:.1}x < 50% of committed {base:.1}x");
            std::process::exit(1);
        }
        println!("byzantine resilience check passed ({ratio:.1}x vs committed {base:.1}x)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"byzantine\",\n  \"quick\": {},\n  \"corrupt_rate\": {},\n  \"signflip_mean_over_trimmed\": {:.1},\n  \"cells\": {{\n{}\n  }}\n}}\n",
        quick,
        CORRUPT_RATE,
        ratio,
        entries.join(",\n")
    );
    let path = write_result("BENCH_byzantine.json", &json);
    println!("wrote {}", path.display());
}
