//! Figure 4 (§6.2): non-convex MLP training, s%-similarity split.
//!
//! Reproduces the paper's non-convex comparison: a two-hidden-layer ReLU
//! network (300/100 neurons, the paper's architecture) on the
//! Fashion-MNIST-like generator with the s = 50% similarity split, average
//! and worst test accuracy vs communication rounds for all five methods,
//! and the rounds-to-target-worst headline numbers (the paper reports
//! 21576 / 45201 / 28087 / 36445 rounds to 50% worst accuracy and FedAvg
//! never reaching it).
//!
//! Paper setting: `N_E = 10`, `N_0 = 3`, `m_E = 2`, `τ1 = τ2 = 2`, batch
//! size 8, `η_w = 0.001`, `η_p = 0.0001`. Input images are 16×16 here, so
//! `d = 108,310` instead of the paper's 266,610 (see EXPERIMENTS.md).

use hm_bench::harness::{run_suite, SuiteParams};
use hm_bench::plot::{render, Series};
use hm_bench::results::{parse_scale_flags, parse_seed, write_result};
use hm_bench::table::{fmt_pct, fmt_rounds, TextTable};
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{similarity_scenario, SimilarityOptions};
use hm_simnet::Parallelism;

fn main() {
    let (quick, full) = parse_scale_flags();
    let (total_slots, samples_per_edge, hidden, target): (usize, usize, Vec<usize>, f64) = if quick
    {
        (240, 200, vec![32, 16], 0.45)
    } else if full {
        (24_000, 800, vec![300, 100], 0.50)
    } else {
        (9_600, 400, vec![100, 50], 0.45)
    };

    let cfg = ImageConfig::fashion_mnist_like();
    // Plain s = 50% similarity split with equal edge sizes, exactly the
    // paper's §6.2 setup. (Variants with per-edge data shares, class
    // imbalance, fresh test sets, and s = 30% were tried and made the
    // non-convex differentiation weaker, not stronger — see the caveat in
    // EXPERIMENTS.md.) The outcome is sensitive to the partition
    // realization, so the suite runs over three *data* seeds and reports
    // aggregates.
    let options = SimilarityOptions::default();
    let problems: Vec<FederatedProblem> = (0..3)
        .map(|i| {
            let scenario = similarity_scenario(
                cfg.clone(),
                10,
                3,
                samples_per_edge,
                0.5,
                0.25,
                &options,
                2024 + i,
            );
            FederatedProblem::mlp_from_scenario(&scenario, &hidden)
        })
        .collect();
    let problem = &problems[0];
    let sp = SuiteParams {
        total_slots,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.05,
        eta_p: 0.003,
        batch_size: 8,
        loss_batch: 16,
        eval_every_slots: (total_slots / 60).max(4),
        parallelism: Parallelism::Rayon,
        telemetry_dir: None,
        fault: Default::default(),
    };

    println!("Fig. 4 reproduction: non-convex MLP, 50% similarity split");
    println!(
        "N_E=10 N_0=3 m_E={} tau1={} tau2={} hidden={:?} d={} T={} slots, target worst acc {}\n",
        sp.m_edges,
        sp.tau1,
        sp.tau2,
        hidden,
        problem.num_params(),
        sp.total_slots,
        target
    );

    let base_seed = parse_seed(11);
    // Three independent data realizations × algorithm seeds; headline
    // numbers are medians over the three runs.
    let suites: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, fp)| run_suite(fp, &sp, base_seed + i as u64))
        .collect();
    let suite = &suites[0];

    let mut t = TextTable::new(vec![
        "method",
        "avg acc",
        "worst acc",
        "var (pp^2)",
        &format!("rounds to {}% worst", (target * 100.0) as u32),
    ]);
    let mut csv = String::from("method,cloud_rounds,worst,avg\n");
    let median = |mut v: Vec<Option<u64>>| -> Option<u64> {
        // Median over seeds; None (never reached) sorts last, so a method
        // that misses the target in most seeds reports "not reached".
        v.sort_by_key(|x| x.unwrap_or(u64::MAX));
        v[v.len() / 2]
    };
    for (mi, (m, r)) in suite.iter().enumerate() {
        let avg_of = |f: &dyn Fn(&hm_core::EvalReport) -> f64| -> f64 {
            suites
                .iter()
                .map(|su| f(su[mi].1.history.final_eval().expect("suite evaluates")))
                .sum::<f64>()
                / suites.len() as f64
        };
        let crossing = median(
            suites
                .iter()
                .map(|su| su[mi].1.history.cloud_rounds_to_worst_sustained(target, 3))
                .collect(),
        );
        t.row(vec![
            m.name().to_string(),
            fmt_pct(avg_of(&|e| e.average)),
            fmt_pct(avg_of(&|e| e.worst)),
            format!("{:.2}", avg_of(&|e| e.variance_pp)),
            fmt_rounds(crossing),
        ]);
        for (rounds, worst, avg) in r.history.accuracy_series() {
            csv.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                m.name(),
                rounds,
                worst,
                avg
            ));
        }
    }
    println!("{}", t.render());

    let med_crossing = |mi: usize| -> Option<u64> {
        let mut v: Vec<Option<u64>> = suites
            .iter()
            .map(|su| su[mi].1.history.cloud_rounds_to_worst_sustained(target, 3))
            .collect();
        v.sort_by_key(|x| x.unwrap_or(u64::MAX));
        v[v.len() / 2]
    };
    let hm_idx = suite
        .iter()
        .position(|(m, _)| m.name() == "HierMinimax")
        .expect("suite order");
    let hm_rounds = med_crossing(hm_idx);
    if let Some(hm) = hm_rounds {
        println!(
            "communication-overhead reduction of HierMinimax at the target (median of 3 seeds):"
        );
        for (mi, (m, _)) in suite.iter().enumerate() {
            if m.name() == "HierMinimax" {
                continue;
            }
            match med_crossing(mi) {
                Some(other) if other > 0 => println!(
                    "  vs {:<15} {:>6} rounds -> {:.0}% reduction",
                    m.name(),
                    other,
                    100.0 * (1.0 - hm as f64 / other as f64)
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

    let path = write_result("fig4.csv", &csv);
    println!("\nseries written to {}", path.display());
}
