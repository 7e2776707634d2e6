//! Membership-churn availability sweep: delivered client uploads of every
//! churn preset against the churn-free baseline, plus the re-homing vs
//! stale-fallback comparison under permanent edge failures, written as
//! machine-readable `results/BENCH_churn.json`.
//!
//! Every cell runs the same HierMinimax training job on the same seed
//! with one churn preset. The availability metric is the delivered
//! client→edge upload count (`ClientEdge` uplink messages) relative to
//! the preset-`none` run: leaves and edge failures suppress uploads,
//! joins and re-homing restore them. The headline scalar is the
//! `edge-failover` upload ratio *re-homing / stale-fallback* — the same
//! preset run twice, once with the failed edges' clients re-homed onto
//! survivors (`rehome: true`, the default) and once with them stranded
//! (`rehome: false`) — pinned to a ≥ 1.5× floor by `tests/churn.rs` and
//! re-enforced here.
//!
//! The sweep takes no timings and draws every membership transition from
//! keyed streams, so results are exactly reproducible: `--check`
//! re-measures and compares against the committed JSON with no tolerance
//! for noise, only the floor for the availability claim itself.
//!
//! Flags:
//! - `--quick`: accepted for interface symmetry with the other benches;
//!   the sweep is already CI-scale (7 short deterministic runs).
//! - `--check`: measure, then require the headline ratio to clear the
//!   availability floor (≥ 1.5×) and stay within 2× of the committed
//!   `results/BENCH_churn.json` headline, exiting non-zero otherwise
//!   (the file is left untouched).

use hm_bench::results::{number_at, parse_scale_flags, read_committed, write_result};
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::problem::FederatedProblem;
use hm_data::scenarios::tiny_problem;
use hm_simnet::{ChurnPlan, Link, CHURN_PRESETS};
use hm_telemetry::Telemetry;

const SEED: u64 = 23;
/// Long enough for the slow presets (15% edge-failure, 2% leave) to fire
/// reliably while staying CI-scale.
const ROUNDS: usize = 16;
/// Minimum acceptable edge-failover upload ratio (re-homing over
/// stale-fallback); the pinned oracle in `tests/churn.rs` enforces the
/// same floor.
const AVAILABILITY_FLOOR: f64 = 1.5;

fn config(plan: ChurnPlan) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds: ROUNDS,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
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
            fault: Default::default(),
            checkpoint: Default::default(),
            profile: Default::default(),
            aggregator: Default::default(),
            quarantine_z: 0.0,
            quarantine_window: 0,
            churn: plan,
            max_stale_rounds: 0,
        },
    }
}

fn main() {
    let (quick, _full) = parse_scale_flags();
    let check = std::env::args().any(|a| a == "--check");

    let problem = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 4, 7));

    // One cell per preset plus the stranded edge-failover baseline the
    // headline compares against.
    let mut cells: Vec<(String, ChurnPlan)> = CHURN_PRESETS
        .iter()
        .map(|&name| (name.to_string(), ChurnPlan::preset(name).unwrap()))
        .collect();
    let failover = ChurnPlan::preset("edge-failover").unwrap();
    cells.push((
        "edge-failover-stranded".to_string(),
        ChurnPlan {
            rehome: false,
            ..failover
        },
    ));

    let mut entries = Vec::new();
    let mut uploads = std::collections::BTreeMap::new();
    for (name, plan) in &cells {
        let r = HierMinimax::new(config(*plan)).run(&problem, SEED);
        let up = r.comm.uplink_msgs(Link::ClientEdge);
        let c = &r.churn;
        println!(
            "{name:<24} uploads {up:>5}   joined {:>3}  left {:>3}  edge-fail {:>2}  \
             rehomed {:>3}  stranded {:>3}",
            c.joined, c.left, c.edge_failures, c.rehomed, c.stranded
        );
        entries.push(format!(
            "    \"{name}\": {{ \"uploads\": {up}, \"joined\": {}, \"left\": {}, \
             \"edge_failures\": {}, \"rehomed\": {}, \"stranded\": {} }}",
            c.joined, c.left, c.edge_failures, c.rehomed, c.stranded
        ));
        uploads.insert(name.clone(), up);
    }

    let rehomed = uploads["edge-failover"] as f64;
    let stranded = (uploads["edge-failover-stranded"] as f64).max(1.0);
    let ratio = rehomed / stranded;
    println!("edge-failover upload ratio rehome/stranded: {ratio:.2}x");

    if check {
        let base = number_at(
            &read_committed("BENCH_churn.json"),
            &["rehome_over_stranded"],
        )
        .expect("no rehome_over_stranded in results/BENCH_churn.json");
        if ratio < AVAILABILITY_FLOOR {
            eprintln!("REGRESSION: ratio {ratio:.2}x below the {AVAILABILITY_FLOOR}x floor");
            std::process::exit(1);
        }
        if ratio < 0.5 * base {
            eprintln!("REGRESSION: ratio {ratio:.2}x < 50% of committed {base:.2}x");
            std::process::exit(1);
        }
        println!("churn availability check passed ({ratio:.2}x vs committed {base:.2}x)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"quick\": {},\n  \"rounds\": {},\n  \
         \"rehome_over_stranded\": {:.2},\n  \"cells\": {{\n{}\n  }}\n}}\n",
        quick,
        ROUNDS,
        ratio,
        entries.join(",\n")
    );
    let path = write_result("BENCH_churn.json", &json);
    println!("wrote {}", path.display());
}
