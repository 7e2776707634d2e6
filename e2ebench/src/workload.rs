//! The workloads: scenario, model, algorithm and budget of each, plus the
//! per-sample flop counts of model shapes.

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig};
use hierminimax::core::{CheckpointOpts, FederatedProblem, RunOpts};
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{
    linear_sizes, one_class_per_edge_sized, similarity_scenario, HierScenario, SimilarityOptions,
};
use hierminimax::nn::{Mlp, Model, MulticlassLogistic};
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::{ChurnPlan, FaultPlan, Parallelism};
use hierminimax::tensor::Aggregator;
use std::path::Path;
use std::sync::Arc;

/// Data seed of every workload's scenario unless `--data-seed` says
/// otherwise: the paper-scale scenarios' fixed realisation.
pub const DEFAULT_DATA_SEED: u64 = 2024;

/// Consecutive evaluations at or above the target that count as crossing
/// it (the `sustained` rule of `History::cloud_rounds_to_worst_sustained`).
pub const SUSTAIN: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §6.1: convex logistic regression, one class per edge, sequential.
    Fig3Logistic,
    /// §6.2: a 100/50 MLP on the 50%-similarity split, on 2 threads (the
    /// only workload on the thread pool).
    Fig4Mlp,
    /// The fig3 problem under faults, churn, robust aggregation,
    /// quarantine, checkpoints and JSONL telemetry, sequential.
    OpsChaos,
}

/// Hidden widths of the `fig4-mlp` network: the `fig4` binary's defaults.
/// The paper's 300/100 costs 3.4× more per step, too much for enough
/// seeds per run.
const FIG4_HIDDEN: [usize; 2] = [100, 50];

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 3] = [
        Workload::Fig3Logistic,
        Workload::Fig4Mlp,
        Workload::OpsChaos,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Logistic => "fig3-logistic",
            Workload::Fig4Mlp => "fig4-mlp",
            Workload::OpsChaos => "ops-chaos",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Target worst-edge test accuracy. Each sits on the rising part of
    /// the workload's curve, where every seed crosses it well inside the
    /// round budget (see README.md for the survey behind the choice).
    pub fn target(self) -> f64 {
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => 0.60,
            Workload::Fig4Mlp => 0.30,
        }
    }

    /// Fixed training budget of every run, in cloud rounds: 1.45–1.65×
    /// the latest sustained crossing seen over 300–500 seeds, more than six
    /// standard deviations above the mean crossing.
    pub fn rounds(self) -> usize {
        match self {
            Workload::Fig3Logistic => 1000,
            Workload::OpsChaos => 1200,
            Workload::Fig4Mlp => 400,
        }
    }

    /// Distinct algorithm seeds per second of benchmark time, which sizes
    /// a run's seed set to its time budget. Every seed is trained once in
    /// each of six passes; sized so those take about as long as the
    /// budget on a 2-vCPU 2.1 GHz Xeon VM.
    pub fn seeds_per_second(self) -> f64 {
        match self {
            Workload::Fig3Logistic => 0.4,
            Workload::Fig4Mlp => 0.17,
            Workload::OpsChaos => 0.3,
        }
    }

    /// Evaluate every this many rounds.
    pub fn eval_every(self) -> usize {
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => 30,
            Workload::Fig4Mlp => 40,
        }
    }

    /// Client/edge executor. `fig3-logistic` runs sequentially: on its
    /// sub-millisecond rounds the pool's per-call thread start-up made it
    /// slower than sequential and twice as noisy from run to run.
    pub fn parallelism(self) -> Parallelism {
        match self {
            Workload::Fig4Mlp => Parallelism::Rayon,
            Workload::Fig3Logistic | Workload::OpsChaos => Parallelism::Sequential,
        }
    }

    /// The algorithm seeds of a benchmark run of `seconds` seconds with
    /// base seed `alg_seed`: `alg_seed·1000 + i`, so different base seeds
    /// never share a training run.
    pub fn algorithm_seeds(self, alg_seed: u64, seconds: f64) -> Vec<u64> {
        let n = (seconds * self.seeds_per_second())
            .floor()
            .clamp(3.0, 999.0) as u64;
        (0..n)
            .map(|i| alg_seed.wrapping_mul(1000).wrapping_add(i))
            .collect()
    }

    /// Generate the workload's hierarchical data scenario.
    pub fn scenario(self, data_seed: u64) -> HierScenario {
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => one_class_per_edge_sized(
                ImageConfig::emnist_digits_like(),
                10,
                3,
                &linear_sizes(60, 0.15, 10),
                500,
                data_seed,
            ),
            Workload::Fig4Mlp => similarity_scenario(
                ImageConfig::fashion_mnist_like(),
                10,
                3,
                400,
                0.5,
                0.25,
                &SimilarityOptions::default(),
                data_seed,
            ),
        }
    }

    /// The model of this workload for a scenario.
    pub fn model(self, sc: &HierScenario) -> Arc<dyn Model> {
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => {
                Arc::new(MulticlassLogistic::new(sc.dim, sc.num_classes))
            }
            Workload::Fig4Mlp => Arc::new(Mlp::new(sc.dim, &FIG4_HIDDEN, sc.num_classes)),
        }
    }

    /// Layer shape of [`Workload::model`], for its flop counts.
    pub fn shape(self, sc: &HierScenario) -> Shape {
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => Shape::Logistic {
                dim: sc.dim,
                classes: sc.num_classes,
            },
            Workload::Fig4Mlp => Shape::Mlp {
                widths: [&[sc.dim][..], &FIG4_HIDDEN, &[sc.num_classes]].concat(),
            },
        }
    }

    /// The training algorithm with the workload's hyperparameters.
    pub fn algorithm(self, opts: RunOpts) -> Box<dyn Algorithm> {
        let rounds = self.rounds();
        match self {
            Workload::Fig3Logistic | Workload::OpsChaos => {
                Box::new(HierMinimax::new(HierMinimaxConfig {
                    rounds,
                    tau1: 2,
                    tau2: 2,
                    m_edges: 5,
                    eta_w: 0.02,
                    eta_p: 0.005,
                    batch_size: 1,
                    loss_batch: 16,
                    opts,
                    ..Default::default()
                }))
            }
            Workload::Fig4Mlp => Box::new(HierMinimax::new(HierMinimaxConfig {
                rounds,
                tau1: 2,
                tau2: 2,
                m_edges: 2,
                eta_w: 0.05,
                eta_p: 0.003,
                batch_size: 8,
                loss_batch: 16,
                opts,
                ..Default::default()
            })),
        }
    }

    /// Run options of one training run. `work_dir` holds the snapshots of
    /// the workloads that checkpoint.
    pub fn run_opts(self, work_dir: &Path) -> RunOpts {
        let mut opts = RunOpts {
            eval_every: self.eval_every(),
            parallelism: self.parallelism(),
            ..Default::default()
        };
        if self == Workload::OpsChaos {
            opts.fault = FaultPlan::preset("chaos").expect("chaos is a fault preset");
            opts.churn = ChurnPlan::preset("mild").expect("mild is a churn preset");
            opts.aggregator = Aggregator::TrimmedMean { beta: 0.2 };
            opts.quarantine_z = 3.0;
            opts.quarantine_window = 5;
            opts.checkpoint = CheckpointOpts::writing(work_dir.join("snapshots"), 100);
        }
        opts
    }

    /// Whether runs also stream JSONL telemetry into the work dir.
    pub fn writes_jsonl(self) -> bool {
        self == Workload::OpsChaos
    }
}

/// Build the federated problem around an (optionally wrapped) model.
pub fn problem(sc: HierScenario, model: Arc<dyn Model>) -> FederatedProblem {
    FederatedProblem::new(
        sc,
        model,
        ProjectionOp::Unconstrained,
        ProjectionOp::Simplex,
    )
}

/// The layer structure of a model, enough to count its flops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// Multinomial logistic regression.
    Logistic { dim: usize, classes: usize },
    /// Fully connected ReLU network; `widths` runs input → … → classes.
    Mlp { widths: Vec<usize> },
    /// `SimpleCnn::new(side, k, c1, c2, hidden, classes)`. No workload
    /// trains one; its flop count is kept under test for a CNN workload.
    #[allow(dead_code)]
    Cnn {
        side: usize,
        k: usize,
        c1: usize,
        c2: usize,
        hidden: usize,
        classes: usize,
    },
}

impl Shape {
    /// Multiply-accumulates per sample of each weight layer, input first.
    /// Bias adds, activations, pooling and the softmax are not counted.
    fn layer_macs(&self) -> Vec<u64> {
        let u = |x: usize| x as u64;
        match self {
            Shape::Logistic { dim, classes } => vec![u(dim * classes)],
            Shape::Mlp { widths } => widths.windows(2).map(|w| u(w[0] * w[1])).collect(),
            Shape::Cnn {
                side,
                k,
                c1,
                c2,
                hidden,
                classes,
            } => {
                let conv1 = side - (k - 1);
                let pool1 = conv1 / 2;
                let conv2 = pool1 - (k - 1);
                let pool2 = conv2 / 2;
                let flat = c2 * pool2 * pool2;
                vec![
                    u(conv1 * conv1 * c1 * k * k),
                    u(conv2 * conv2 * c2 * c1 * k * k),
                    u(flat * hidden),
                    u(hidden * classes),
                ]
            }
        }
    }

    /// Flops of one sample's forward pass (`Model::loss`, `Model::predict`).
    pub fn forward_flops(&self) -> u64 {
        2 * self.layer_macs().iter().sum::<u64>()
    }

    /// Flops of one sample's `Model::loss_grad`: the forward pass, the
    /// weight gradient of every layer, and the input gradient of every
    /// layer but the first (nothing consumes the data's gradient).
    pub fn loss_grad_flops(&self) -> u64 {
        2 * self.forward_flops() + 2 * self.layer_macs()[1..].iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_flops_match_hand_count() {
        let s = Shape::Logistic {
            dim: 256,
            classes: 10,
        };
        // 256·10 MACs forward; the weight gradient repeats them.
        assert_eq!(s.forward_flops(), 5_120);
        assert_eq!(s.loss_grad_flops(), 10_240);
    }

    #[test]
    fn mlp_flops_match_hand_count() {
        let s = Shape::Mlp {
            widths: vec![256, 300, 100, 10],
        };
        // 76 800 + 30 000 + 1 000 = 107 800 MACs forward.
        assert_eq!(s.forward_flops(), 215_600);
        // Forward + weight grads 2·107 800, input grads of layers 2–3
        // 31 000: 2·(215 600 + 31 000).
        assert_eq!(s.loss_grad_flops(), 493_200);
    }

    #[test]
    fn cnn_flops_match_hand_count() {
        let s = Shape::Cnn {
            side: 16,
            k: 3,
            c1: 2,
            c2: 4,
            hidden: 16,
            classes: 10,
        };
        // conv1 14·14·2·9 = 3 528, conv2 5·5·4·2·9 = 1 800,
        // fc (4·2·2)·16 = 256, head 16·10 = 160: 5 744 MACs.
        assert_eq!(s.forward_flops(), 11_488);
        // 2·(2·5 744 + 1 800 + 256 + 160).
        assert_eq!(s.loss_grad_flops(), 27_408);
    }

    #[test]
    fn workload_models_have_their_counted_shapes() {
        for w in Workload::ALL {
            let sc = w.scenario(DEFAULT_DATA_SEED);
            // Fully connected layers: the weights are the MACs, plus one
            // bias per output unit.
            let shape = w.shape(&sc);
            let biases = match &shape {
                Shape::Logistic { classes, .. } => *classes,
                Shape::Mlp { widths } => widths[1..].iter().sum(),
                Shape::Cnn { .. } => unreachable!("no workload trains a CNN"),
            };
            let params = shape.layer_macs().iter().sum::<u64>() as usize + biases;
            assert_eq!(w.model(&sc).num_params(), params, "{}", w.name());
        }
        // The CNN layer shapes behind its hand count: conv1 2·(9 + 1),
        // conv2 4·(2·9 + 1), fc 16·16 + 16, head 16·10 + 10.
        let cnn = hierminimax::nn::SimpleCnn::new(16, 3, 2, 4, 16, 10);
        assert_eq!(cnn.num_params(), 20 + 76 + 272 + 170);
    }

    #[test]
    fn seeds_are_disjoint_across_base_seeds() {
        for w in Workload::ALL {
            let a = w.algorithm_seeds(1, 30.0);
            let b = w.algorithm_seeds(2, 30.0);
            assert_eq!(a.len(), (30.0 * w.seeds_per_second()).floor() as usize);
            assert!(a.iter().all(|s| !b.contains(s)), "{}", w.name());
        }
        assert_eq!(Workload::Fig4Mlp.algorithm_seeds(1, 1.0).len(), 3);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig5"), None);
    }
}
