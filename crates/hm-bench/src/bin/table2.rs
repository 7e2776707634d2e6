//! Table 2 (§6.3): minimax fairness and variance — HierFAVG vs HierMinimax
//! on all five datasets.
//!
//! The paper's table compares average accuracy, worst accuracy, and the
//! variance of per-edge accuracies (in percentage points squared) for
//! logistic-regression models on EMNIST-Digits, Fashion-MNIST, MNIST,
//! Adult (2 edge areas: Doctorate / non-Doctorate) and the Li et al.
//! Synthetic dataset (100 edge areas, worst-10% metric). Expected shape:
//! HierMinimax trades a little average accuracy for a much better worst
//! accuracy and an order-of-magnitude smaller variance on the harder
//! datasets.

use hm_bench::harness::{run_method, Method, SuiteParams};
use hm_bench::results::{parse_scale_flags, write_result};
use hm_bench::table::TextTable;
use hm_core::FederatedProblem;
use hm_data::generators::adult_like::AdultLikeConfig;
use hm_data::generators::li_synthetic::LiSyntheticConfig;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{
    adult_two_edges, li_synthetic_scenario, linear_sizes, one_class_per_edge_sized,
    similarity_scenario, SimilarityOptions,
};
use hm_simnet::Parallelism;

struct Row {
    dataset: &'static str,
    method: &'static str,
    average: f64,
    worst: f64,
    variance: f64,
}

fn suite_params(total_slots: usize, m_edges: usize, eta_w: f32, eta_p: f32) -> SuiteParams {
    SuiteParams {
        total_slots,
        tau1: 2,
        tau2: 2,
        m_edges,
        eta_w,
        eta_p,
        batch_size: 4,
        loss_batch: 16,
        eval_every_slots: usize::MAX, // final evaluation only
        parallelism: Parallelism::Rayon,
        telemetry_dir: None,
        fault: Default::default(),
    }
}

fn run_pair(
    dataset: &'static str,
    problem: &FederatedProblem,
    sp: &SuiteParams,
    worst_frac: Option<f64>,
    out: &mut Vec<Row>,
) {
    for method in [Method::HierFavg, Method::HierMinimax] {
        let r = run_method(method, problem, sp, 17);
        let e = r.history.final_eval().expect("final eval");
        let worst = match worst_frac {
            Some(f) => e.worst_fraction(f),
            None => e.worst,
        };
        out.push(Row {
            dataset,
            method: method.name(),
            average: e.average,
            worst,
            variance: e.variance_pp,
        });
    }
}

fn main() {
    let (quick, full) = parse_scale_flags();
    let (slots, img_train, img_test, li_edges) = if quick {
        (400, 30, 60, 20)
    } else if full {
        (16_000, 120, 250, 100)
    } else {
        (6_000, 60, 150, 100)
    };

    let mut rows: Vec<Row> = Vec::new();

    // --- Image datasets: logistic regression, one class per edge --------
    // The Fashion/MNIST presets are tuned for the MLP experiment; for the
    // logistic Table-2 rows we keep their difficulty *ordering* but scale
    // it so the worst class stays linearly learnable (the paper's logistic
    // models reach 0.48–0.80 worst accuracy, not zero).
    let mnist_cfg = ImageConfig {
        noise: 0.4,
        prototype_overlap: 0.05,
        pair_similarity: 0.5,
        noise_spread: 0.25,
        separation_spread: 0.45,
        ..ImageConfig::emnist_digits_like()
    };
    let fashion_cfg = ImageConfig {
        noise: 0.45,
        prototype_overlap: 0.1,
        pair_similarity: 0.55,
        noise_spread: 0.3,
        separation_spread: 0.55,
        ..ImageConfig::emnist_digits_like()
    };
    let image_sets: [(&'static str, ImageConfig); 3] = [
        ("EMNIST-Digits (like)", ImageConfig::emnist_digits_like()),
        ("Fashion-MNIST (like)", fashion_cfg),
        ("MNIST (like)", mnist_cfg),
    ];
    for (name, cfg) in image_sets {
        // Same data-ratio mismatch profile as Fig. 3 (later classes are
        // harder and data-poorer).
        let sizes = linear_sizes(img_train, 0.15, 10);
        let sc = one_class_per_edge_sized(cfg, 10, 3, &sizes, img_test, 2024);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let sp = suite_params(slots, 5, 0.02, 0.005);
        println!("running {name} ...");
        run_pair(name, &fp, &sp, None, &mut rows);
    }

    // Fashion-MNIST row of Table 2 uses the harder similarity split too;
    // the paper's Table-2 image rows are one-class-per-edge logistic runs,
    // so the extra similarity row is reported separately for completeness.
    {
        let shares: Vec<f64> = (0..10).map(|e| 1.0 - 0.8 * e as f64 / 9.0).collect();
        let options = SimilarityOptions {
            class_weights: None,
            edge_shares: Some(shares),
            fresh_test_per_edge: Some(400),
        };
        let sc = similarity_scenario(
            ImageConfig::fashion_mnist_like(),
            10,
            3,
            img_train * 4,
            0.5,
            0.25,
            &options,
            2024,
        );
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let sp = suite_params(slots, 5, 0.02, 0.005);
        println!("running Fashion-MNIST s=50% (extra) ...");
        run_pair("Fashion s=50% (extra)", &fp, &sp, None, &mut rows);
    }

    // --- Adult: 2 edge areas, very different sizes ----------------------
    {
        // Full concept shift: the two groups' label models disagree on the
        // shared feature levels, so a single linear model must trade one
        // group off against the other — the conflict minimax arbitrates.
        let adult_cfg = AdultLikeConfig {
            distribution_shift: 0.3,
            concept_shift: 1.0,
            ..Default::default()
        };
        let sc = adult_two_edges(adult_cfg, 3, 900, 90, 300, 2024);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let sp = suite_params(slots, 2, 0.05, 0.005);
        println!("running Adult (like) ...");
        run_pair("Adult (like)", &fp, &sp, None, &mut rows);
    }

    // --- Synthetic (Li et al.): 100 edge areas, worst-10% ---------------
    {
        let sc = li_synthetic_scenario(LiSyntheticConfig::default(), li_edges, 2, 40, 40, 2024);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let sp = suite_params(slots, (li_edges / 10).max(2), 0.02, 0.002);
        println!("running Synthetic (Li et al.) ...");
        run_pair("Synthetic (Li)", &fp, &sp, Some(0.1), &mut rows);
    }

    println!("\nTable 2 reproduction: HierFAVG vs HierMinimax");
    println!("(Synthetic row reports worst-10% accuracy, as in the paper)\n");
    let mut t = TextTable::new(vec![
        "dataset",
        "method",
        "average",
        "worst",
        "variance (pp^2)",
    ]);
    let mut csv = String::from("dataset,method,average,worst,variance_pp\n");
    for r in &rows {
        t.row(vec![
            r.dataset.to_string(),
            r.method.to_string(),
            format!("{:.4}", r.average),
            format!("{:.4}", r.worst),
            format!("{:.4}", r.variance),
        ]);
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            r.dataset, r.method, r.average, r.worst, r.variance
        ));
    }
    println!("{}", t.render());

    // Shape check mirroring the paper's claims.
    println!("shape checks (paper: minimax lifts worst accuracy & cuts variance):");
    for pair in rows.chunks(2) {
        let (favg, hm) = (&pair[0], &pair[1]);
        let worst_up = hm.worst >= favg.worst;
        let var_down = hm.variance <= favg.variance;
        println!(
            "  {:<22} worst {} ({:.3} vs {:.3}), variance {} ({:.2} vs {:.2})",
            favg.dataset,
            if worst_up { "improved" } else { "NOT improved" },
            hm.worst,
            favg.worst,
            if var_down { "reduced" } else { "NOT reduced" },
            hm.variance,
            favg.variance,
        );
    }

    let path = write_result("table2.csv", &csv);
    println!("\nseries written to {}", path.display());
}
