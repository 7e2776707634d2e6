//! Method suite runner: runs the five algorithms on a shared problem with a
//! matched time-slot budget, so "communication rounds to reach a target"
//! comparisons are apples-to-apples (the paper gives every method the same
//! per-round local-update count: `τ1 = 2` for two-layer multi-step methods
//! and `τ1 = τ2 = 2` for hierarchical ones).

use crate::plot::{render, Series};
use crate::results::write_result;
use crate::table::{fmt_pct, fmt_rounds, TextTable};
pub use hm_core::algorithms::Method;
use hm_core::algorithms::{Algorithm, Hyper, RunOpts};
use hm_core::problem::FederatedProblem;
use hm_core::{EvalReport, RunResult};
use hm_simnet::{FaultPlan, Parallelism};
use hm_telemetry::Telemetry;

/// Shared parameters for a method suite.
#[derive(Debug, Clone)]
pub struct SuiteParams {
    /// Total time slots `T` given to every method.
    pub total_slots: usize,
    /// Local steps per client-edge aggregation (`τ1`, also the local steps
    /// of the two-layer multi-step methods).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`, hierarchical methods).
    pub tau2: usize,
    /// Participating edges per round (`m_E`); two-layer methods use
    /// `m_E · N_0` clients so device participation matches.
    pub m_edges: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate.
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation in the minimax methods.
    pub loss_batch: usize,
    /// Evaluate roughly every this many time slots.
    pub eval_every_slots: usize,
    /// Execution mode.
    pub parallelism: Parallelism,
    /// When set, each method writes structured run telemetry to
    /// `<dir>/telemetry_<method>.jsonl` (see DESIGN.md §10).
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Deterministic fault plan applied to every method (see
    /// `hm_simnet::fault`).
    pub fault: FaultPlan,
}

impl SuiteParams {
    /// The suite's hyper-parameters; [`Method::matched`] sets each
    /// method's rounds and participation.
    fn hyper(&self) -> Hyper {
        Hyper {
            tau1: self.tau1,
            tau2: self.tau2,
            m: self.m_edges,
            eta_w: self.eta_w,
            eta_p: self.eta_p,
            batch_size: self.batch_size,
            loss_batch: self.loss_batch,
            ..Hyper::default()
        }
    }

    fn opts(&self, slots_per_round: usize, method: Method) -> RunOpts {
        let telemetry = match &self.telemetry_dir {
            None => Telemetry::disabled(),
            Some(dir) => {
                let slug = method.name().to_lowercase().replace('-', "_");
                let path = dir.join(format!("telemetry_{slug}.jsonl"));
                Telemetry::jsonl(&path).unwrap_or_else(|e| {
                    eprintln!("warning: cannot open {}: {e}", path.display());
                    Telemetry::disabled()
                })
            }
        };
        RunOpts {
            eval_every: (self.eval_every_slots / slots_per_round).max(1),
            parallelism: self.parallelism,
            telemetry,
            fault: self.fault.clone(),
            ..Default::default()
        }
    }
}

/// Run one method with the matched budget.
pub fn run_method(
    method: Method,
    problem: &FederatedProblem,
    sp: &SuiteParams,
    seed: u64,
) -> RunResult {
    let h = method.matched(&sp.hyper(), sp.total_slots, problem);
    let opts = sp.opts(method.slots_per_round(&h), method);
    method.build(&h, opts).run(problem, seed)
}

/// Run every method and return `(method, result)` pairs in paper order.
pub fn run_suite(
    problem: &FederatedProblem,
    sp: &SuiteParams,
    seed: u64,
) -> Vec<(Method, RunResult)> {
    Method::PAPER
        .into_iter()
        .map(|m| (m, run_method(m, problem, sp, seed)))
        .collect()
}

/// Print the §6 comparison of `suites`, one run of [`run_suite`] per
/// seed: the final accuracies averaged over the seeds, the median cloud
/// rounds to a sustained worst accuracy of `target`, HierMinimax's
/// reduction against each method, and the first seed's worst-accuracy
/// curves. The first seed's accuracy series go to `results/<csv>`.
pub fn report_suites(suites: &[Vec<(Method, RunResult)>], target: f64, csv: &str) {
    let suite = &suites[0];
    // Median over seeds; None (never reached) sorts last, so a method
    // that misses the target in most seeds reports "not reached".
    let crossing: Vec<Option<u64>> = (0..suite.len())
        .map(|mi| {
            let mut v: Vec<Option<u64>> = suites
                .iter()
                .map(|su| su[mi].1.history.cloud_rounds_to_worst_sustained(target, 3))
                .collect();
            v.sort_by_key(|x| x.unwrap_or(u64::MAX));
            v[v.len() / 2]
        })
        .collect();
    let mut t = TextTable::new(vec![
        "method",
        "avg acc",
        "worst acc",
        "var (pp^2)",
        &format!("rounds to {}% worst", (target * 100.0) as u32),
    ]);
    let mut series = String::from("method,cloud_rounds,worst,avg\n");
    for (mi, (m, r)) in suite.iter().enumerate() {
        let avg_of = |f: &dyn Fn(&EvalReport) -> f64| -> f64 {
            suites
                .iter()
                .map(|su| f(su[mi].1.history.final_eval().expect("suite evaluates")))
                .sum::<f64>()
                / suites.len() as f64
        };
        t.row(vec![
            m.name().to_string(),
            fmt_pct(avg_of(&|e| e.average)),
            fmt_pct(avg_of(&|e| e.worst)),
            format!("{:.2}", avg_of(&|e| e.variance_pp)),
            fmt_rounds(crossing[mi]),
        ]);
        for (rounds, worst, avg) in r.history.accuracy_series() {
            series.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                m.name(),
                rounds,
                worst,
                avg
            ));
        }
    }
    println!("{}", t.render());

    // Headline reductions vs HierMinimax (the paper's §6 percentages).
    let hm = suite
        .iter()
        .position(|(m, _)| *m == Method::HierMinimax)
        .expect("suite order");
    if let Some(hm_rounds) = crossing[hm] {
        println!(
            "communication-overhead reduction of HierMinimax at the target (median of 3 seeds):"
        );
        for (mi, (m, _)) in suite.iter().enumerate() {
            if mi == hm {
                continue;
            }
            match crossing[mi] {
                Some(other) if other > 0 => println!(
                    "  vs {:<15} {:>6} rounds -> {:.0}% reduction",
                    m.name(),
                    other,
                    100.0 * (1.0 - hm_rounds as f64 / other as f64)
                ),
                _ => println!("  vs {:<15} target not reached within budget", m.name()),
            }
        }
    } else {
        println!("HierMinimax did not reach the target within the slot budget; rerun with --full.");
    }

    // ASCII figure: worst-accuracy curves of the first run.
    let chart: Vec<Series> = suite
        .iter()
        .map(|(m, r)| Series {
            label: m.name().to_string(),
            points: r
                .history
                .accuracy_series()
                .into_iter()
                .map(|(rounds, worst, _)| (rounds as f64, worst))
                .collect(),
        })
        .collect();
    println!("\nworst test accuracy vs communication rounds (first seed):\n");
    println!("{}", render(&chart, 72, 18, "cloud rounds", "worst acc"));

    let path = write_result(csv, &series);
    println!("\nseries written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    fn sp() -> SuiteParams {
        SuiteParams {
            total_slots: 16,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            eta_p: 0.1,
            batch_size: 2,
            loss_batch: 4,
            eval_every_slots: 4,
            parallelism: Parallelism::Sequential,
            telemetry_dir: None,
            fault: FaultPlan::default(),
        }
    }

    #[test]
    fn suite_runs_all_methods() {
        let sc = tiny_problem(3, 2, 1);
        let fp = hm_core::FederatedProblem::logistic_from_scenario(&sc);
        let out = run_suite(&fp, &sp(), 42);
        assert_eq!(out.len(), 5);
        for (m, r) in &out {
            let slots = r.history.rounds.last().unwrap().slots_done;
            assert_eq!(slots, 16, "{} consumed {} slots", m.name(), slots);
            assert!(
                r.history.final_eval().is_some(),
                "{} never evaluated",
                m.name()
            );
        }
        // One cloud round per training round for every method, so per slot
        // budget: {HierFAVG, HierMinimax} < {FedAvg, DRFA} < AFL under
        // τ1 = τ2 = 2.
        let rounds: Vec<u64> = out.iter().map(|(_, r)| r.comm.cloud_rounds()).collect();
        let (fedavg, afl, drfa, hierfavg, hm) =
            (rounds[0], rounds[1], rounds[2], rounds[3], rounds[4]);
        assert_eq!(hierfavg, 4);
        assert_eq!(hm, 4);
        assert_eq!(fedavg, 8);
        assert_eq!(drfa, 8);
        assert_eq!(afl, 16);
    }

    #[test]
    fn telemetry_dir_writes_one_valid_stream_per_method() {
        let dir = std::env::temp_dir().join(format!("hm-bench-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc = tiny_problem(3, 2, 9);
        let fp = hm_core::FederatedProblem::logistic_from_scenario(&sc);
        let mut params = sp();
        params.telemetry_dir = Some(dir.clone());
        let out = run_suite(&fp, &params, 42);
        for (m, r) in &out {
            let slug = m.name().to_lowercase().replace('-', "_");
            let path = dir.join(format!("telemetry_{slug}.jsonl"));
            let body = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let summary = hm_telemetry::validate_stream(&body)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(summary.runs, 1, "{}", m.name());
            assert_eq!(
                summary.events_by_kind.get("round_end"),
                Some(&r.history.rounds.len()),
                "{}",
                m.name()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
