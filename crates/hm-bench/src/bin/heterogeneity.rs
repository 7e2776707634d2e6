//! Heterogeneity sweep: how the minimax advantage scales with data skew.
//!
//! The paper fixes one heterogeneity level per experiment (one class per
//! edge in §6.1, s = 50% in §6.2). This sweep varies the level — the
//! similarity s from i.i.d. (s = 1) to fully sorted (s = 0), and the
//! Dirichlet concentration α — and reports the HierFAVG → HierMinimax
//! worst-accuracy lift and variance cut at each level. Expected shape: at
//! i.i.d. the two methods coincide (nothing to reweight); the gap opens as
//! skew grows.

use hm_bench::harness::{run_method, Method, SuiteParams};
use hm_bench::results::{parse_scale_flags, write_result};
use hm_bench::table::TextTable;
use hm_core::metrics::EvalReport;
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{dirichlet_split, similarity_split};
use hm_simnet::Parallelism;

fn pair(problem: &FederatedProblem, slots: usize) -> (EvalReport, EvalReport) {
    let sp = SuiteParams {
        total_slots: slots,
        tau1: 2,
        tau2: 2,
        m_edges: 5,
        eta_w: 0.02,
        eta_p: 0.005,
        batch_size: 1,
        loss_batch: 16,
        eval_every_slots: usize::MAX,
        parallelism: Parallelism::Rayon,
        telemetry_dir: None,
        fault: Default::default(),
    };
    // Mean over three algorithm seeds: single-seed worst accuracy is noisy
    // at this scale.
    let mean3 = |method: Method| -> EvalReport {
        let evals: Vec<EvalReport> = (0..3)
            .map(|i| {
                run_method(method, problem, &sp, 7 + i)
                    .history
                    .final_eval()
                    .expect("eval")
                    .clone()
            })
            .collect();
        let n = evals[0].per_edge_accuracy.len();
        let per: Vec<f64> = (0..n)
            .map(|e| evals.iter().map(|r| r.per_edge_accuracy[e]).sum::<f64>() / 3.0)
            .collect();
        // Average the summary stats directly (worst-of-mean differs from
        // mean-of-worst; report the latter, matching the fig binaries).
        let mut rep = EvalReport::from_accuracies(per);
        rep.worst = evals.iter().map(|r| r.worst).sum::<f64>() / 3.0;
        rep.variance_pp = evals.iter().map(|r| r.variance_pp).sum::<f64>() / 3.0;
        rep
    };
    (mean3(Method::HierFavg), mean3(Method::HierMinimax))
}

/// A base task hard enough that skew matters: per-class difficulty spread
/// with moderate noise (same family as the Table 2 image rows).
fn base_cfg() -> ImageConfig {
    ImageConfig {
        noise: 0.45,
        prototype_overlap: 0.1,
        pair_similarity: 0.55,
        noise_spread: 0.3,
        separation_spread: 0.55,
        ..ImageConfig::emnist_digits_like()
    }
}

fn main() {
    let (quick, _full) = parse_scale_flags();
    let slots = if quick { 800 } else { 6000 };
    let mut csv = String::from("axis,level,favg_worst,hm_worst,favg_var,hm_var\n");

    println!("Similarity sweep (logistic, 10 edges x 3 clients, {slots} slots):\n");
    let mut t = TextTable::new(vec![
        "s",
        "worst (HierFAVG)",
        "worst (HierMinimax)",
        "var (HierFAVG)",
        "var (HierMinimax)",
    ]);
    for &s in &[1.0_f64, 0.75, 0.5, 0.25, 0.0] {
        let sc = similarity_split(base_cfg(), 10, 3, 150, s, 0.25, 77);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let (favg, hm) = pair(&fp, slots);
        t.row(vec![
            format!("{s:.2}"),
            format!("{:.3}", favg.worst),
            format!("{:.3}", hm.worst),
            format!("{:.1}", favg.variance_pp),
            format!("{:.1}", hm.variance_pp),
        ]);
        csv.push_str(&format!(
            "similarity,{s},{:.4},{:.4},{:.2},{:.2}\n",
            favg.worst, hm.worst, favg.variance_pp, hm.variance_pp
        ));
    }
    println!("{}", t.render());

    println!("Dirichlet sweep (same problem family, label split by Dir(alpha)):\n");
    let mut t = TextTable::new(vec![
        "alpha",
        "worst (HierFAVG)",
        "worst (HierMinimax)",
        "var (HierFAVG)",
        "var (HierMinimax)",
    ]);
    for &alpha in &[100.0_f64, 1.0, 0.3, 0.1] {
        let sc = dirichlet_split(base_cfg(), 10, 3, 150, alpha, 0.25, 78);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let (favg, hm) = pair(&fp, slots);
        t.row(vec![
            format!("{alpha}"),
            format!("{:.3}", favg.worst),
            format!("{:.3}", hm.worst),
            format!("{:.1}", favg.variance_pp),
            format!("{:.1}", hm.variance_pp),
        ]);
        csv.push_str(&format!(
            "dirichlet,{alpha},{:.4},{:.4},{:.2},{:.2}\n",
            favg.worst, hm.worst, favg.variance_pp, hm.variance_pp
        ));
    }
    println!("{}", t.render());
    println!("expected shape: near-identical at iid (s = 1 / large alpha); the");
    println!("minimax worst-accuracy lift and variance cut grow with skew.");

    let path = write_result("heterogeneity.csv", &csv);
    println!("\nseries written to {}", path.display());
}
