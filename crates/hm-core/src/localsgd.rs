//! Client-side local SGD (eq. 4), with an optional checkpoint snapshot and
//! FedProx's proximal term.
//!
//! All scratch memory (gradient buffer, mini-batch gather, model workspace)
//! comes from the thread-local [`hm_nn::pool`] or a caller-owned
//! [`TrainScratch`], so across the thousands of client-blocks a thread runs
//! per experiment, the steady-state step loop performs no heap allocation
//! at all — not even at call boundaries. Every buffer is overwrite-on-use,
//! so reused scratch gives the same bits as fresh.

use hm_data::batch::sample_batch_into;
use hm_data::{Dataset, StreamRng};
use hm_nn::{with_scratch, Model, TrainScratch};
use hm_optim::sgd::projected_sgd_step;
use hm_optim::ProjectionOp;

/// Run `steps` projected-SGD steps from `w0` on a client's local data,
/// drawing one mini-batch per step from `rng`. Scratch comes from the
/// thread-local pool.
///
/// When `checkpoint_after = Some(c)`, also returns a copy of the iterate
/// after exactly `c` steps (`c = 0` returns `w0` projected state, i.e. the
/// starting model) — the client-side half of the paper's checkpoint
/// mechanism (Phase 1, part (b)).
///
/// # Panics
/// Panics if `checkpoint_after > steps`.
#[allow(clippy::too_many_arguments)]
pub fn local_sgd(
    model: &dyn Model,
    data: &Dataset,
    w0: &[f32],
    steps: usize,
    lr: f32,
    batch_size: usize,
    proj: &ProjectionOp,
    rng: &mut StreamRng,
    checkpoint_after: Option<usize>,
) -> (Vec<f32>, Option<Vec<f32>>) {
    with_scratch(|scratch| {
        let mut w = Vec::with_capacity(w0.len());
        let cp = local_sgd_into(
            model,
            data,
            w0,
            &mut w,
            steps,
            lr,
            batch_size,
            0.0,
            proj,
            rng,
            checkpoint_after,
            scratch,
        );
        (w, cp)
    })
}

/// [`local_sgd`] writing the final iterate into a caller-owned buffer with
/// caller-owned scratch — the block phase's slot-reuse entry point: one
/// `w` buffer per client slot and one [`TrainScratch`] per unit chain
/// serve every block of the round with zero allocation.
///
/// With `mu > 0` each step adds FedProx's proximal gradient `μ (w − w0)`
/// (Li et al., MLSys 2020), which pulls the iterate toward the start
/// model and bounds client drift; `mu = 0` skips the term.
#[allow(clippy::too_many_arguments)]
pub fn local_sgd_into(
    model: &dyn Model,
    data: &Dataset,
    w0: &[f32],
    w: &mut Vec<f32>,
    steps: usize,
    lr: f32,
    batch_size: usize,
    mu: f32,
    proj: &ProjectionOp,
    rng: &mut StreamRng,
    checkpoint_after: Option<usize>,
    scratch: &mut TrainScratch,
) -> Option<Vec<f32>> {
    if let Some(c) = checkpoint_after {
        assert!(c <= steps, "checkpoint step {c} beyond {steps} steps");
    }
    w.clear();
    w.extend_from_slice(w0);
    scratch.grad.resize(model.num_params(), 0.0);
    let mut checkpoint = match checkpoint_after {
        Some(0) => Some(w.to_vec()),
        _ => None,
    };
    for step in 0..steps {
        sample_batch_into(data, batch_size, rng, &mut scratch.batch);
        model.loss_grad_ws(w, &scratch.batch.batch, &mut scratch.grad, &mut scratch.ws);
        if mu > 0.0 {
            for ((g, &wi), &ai) in scratch.grad.iter_mut().zip(w.iter()).zip(w0) {
                *g += mu * (wi - ai);
            }
        }
        projected_sgd_step(w, &scratch.grad, lr, proj);
        if checkpoint_after == Some(step + 1) {
            checkpoint = Some(w.to_vec());
        }
    }
    checkpoint
}

/// Estimate a client's local loss `f_n(w; ξ)` on one mini-batch — the
/// client-side half of the Phase-2 `LossEstimation` procedure.
pub fn estimate_loss(
    model: &dyn Model,
    data: &Dataset,
    w: &[f32],
    batch_size: usize,
    rng: &mut StreamRng,
) -> f64 {
    with_scratch(|scratch| {
        sample_batch_into(data, batch_size, rng, &mut scratch.batch);
        model.loss(w, &scratch.batch.batch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::rng::Purpose;
    use hm_nn::MulticlassLogistic;
    use hm_tensor::Matrix;

    fn toy() -> (MulticlassLogistic, Dataset) {
        let model = MulticlassLogistic::new(2, 2);
        let x = Matrix::from_vec(
            8,
            2,
            vec![
                1.0, 0.1, 0.9, -0.1, 1.1, 0.0, 0.8, 0.2, //
                -1.0, 0.1, -0.9, -0.2, -1.2, 0.0, -0.7, 0.1,
            ],
        );
        let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
        (model, Dataset::new(x, y, 2))
    }

    #[test]
    fn loss_decreases_over_steps() {
        let (model, data) = toy();
        let w0 = vec![0.0; model.num_params()];
        let mut rng = StreamRng::new(1, Purpose::Batch, 0, 0);
        let (w, _) = local_sgd(
            &model,
            &data,
            &w0,
            100,
            0.5,
            4,
            &ProjectionOp::Unconstrained,
            &mut rng,
            None,
        );
        assert!(model.loss(&w, &data) < model.loss(&w0, &data) * 0.5);
    }

    #[test]
    fn zero_steps_is_identity() {
        let (model, data) = toy();
        let w0 = vec![0.3; model.num_params()];
        let mut rng = StreamRng::new(1, Purpose::Batch, 0, 0);
        let (w, cp) = local_sgd(
            &model,
            &data,
            &w0,
            0,
            0.5,
            4,
            &ProjectionOp::Unconstrained,
            &mut rng,
            Some(0),
        );
        assert_eq!(w, w0);
        assert_eq!(cp.unwrap(), w0);
    }

    #[test]
    fn checkpoint_is_intermediate_iterate() {
        let (model, data) = toy();
        let w0 = vec![0.0; model.num_params()];
        // Run 5 steps, checkpoint after 3 of them.
        let mut r1 = StreamRng::new(7, Purpose::Batch, 0, 0);
        let (w5, cp3) = local_sgd(
            &model,
            &data,
            &w0,
            5,
            0.2,
            2,
            &ProjectionOp::Unconstrained,
            &mut r1,
            Some(3),
        );
        // Re-run just 3 steps from the same stream: must equal the checkpoint.
        let mut r2 = StreamRng::new(7, Purpose::Batch, 0, 0);
        let (w3, _) = local_sgd(
            &model,
            &data,
            &w0,
            3,
            0.2,
            2,
            &ProjectionOp::Unconstrained,
            &mut r2,
            None,
        );
        assert_eq!(cp3.unwrap(), w3);
        assert_ne!(w5, w3);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn checkpoint_past_end_panics() {
        let (model, data) = toy();
        let w0 = vec![0.0; model.num_params()];
        let mut rng = StreamRng::new(1, Purpose::Batch, 0, 0);
        let _ = local_sgd(
            &model,
            &data,
            &w0,
            2,
            0.1,
            1,
            &ProjectionOp::Unconstrained,
            &mut rng,
            Some(3),
        );
    }

    #[test]
    fn projection_is_applied_each_step() {
        let (model, data) = toy();
        let w0 = vec![0.0; model.num_params()];
        let proj = ProjectionOp::L2Ball { radius: 0.05 };
        let mut rng = StreamRng::new(2, Purpose::Batch, 0, 0);
        let (w, _) = local_sgd(&model, &data, &w0, 50, 1.0, 4, &proj, &mut rng, None);
        assert!(hm_tensor::vecops::norm2(&w) <= 0.05 + 1e-5);
    }

    /// `steps` batch-2 steps of `local_sgd_into` from `w0` with learning
    /// rate `lr` and proximal coefficient `mu`, on fresh scratch.
    fn prox(w0: &[f32], steps: usize, lr: f32, mu: f32, rng: &mut StreamRng) -> Vec<f32> {
        let (model, data) = toy();
        let mut w = Vec::new();
        local_sgd_into(
            &model,
            &data,
            w0,
            &mut w,
            steps,
            lr,
            2,
            mu,
            &ProjectionOp::Unconstrained,
            rng,
            None,
            &mut hm_nn::TrainScratch::default(),
        );
        w
    }

    #[test]
    fn prox_zero_mu_matches_plain_sgd() {
        let (model, data) = toy();
        let w0 = vec![0.1; model.num_params()];
        let mut r1 = StreamRng::new(4, Purpose::Batch, 0, 0);
        let mut r2 = StreamRng::new(4, Purpose::Batch, 0, 0);
        let a = prox(&w0, 6, 0.2, 0.0, &mut r1);
        let (b, _) = local_sgd(
            &model,
            &data,
            &w0,
            6,
            0.2,
            2,
            &ProjectionOp::Unconstrained,
            &mut r2,
            None,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn prox_term_limits_drift() {
        let (model, _) = toy();
        let w0 = vec![0.0; model.num_params()];
        let drift = |mu: f32| -> f64 {
            let mut rng = StreamRng::new(5, Purpose::Batch, 0, 0);
            let w = prox(&w0, 60, 0.3, mu, &mut rng);
            hm_tensor::vecops::dist2_sq(&w, &w0).sqrt()
        };
        let free = drift(0.0);
        let tethered = drift(2.0);
        assert!(
            tethered < free * 0.7,
            "prox term did not limit drift: {tethered} vs {free}"
        );
    }

    #[test]
    fn pooled_and_into_paths_are_bit_identical() {
        // The two entry points differ only in where scratch lives; the
        // arithmetic must be the same to the bit. `local_sgd_into` is run
        // with a dirty slot buffer and dirty scratch to mimic cross-block
        // reuse inside a chain.
        let (model, data) = toy();
        let w0 = vec![0.05; model.num_params()];
        let run_pooled = || {
            let mut rng = StreamRng::new(8, Purpose::Batch, 3, 1);
            local_sgd(
                &model,
                &data,
                &w0,
                7,
                0.3,
                3,
                &ProjectionOp::Unconstrained,
                &mut rng,
                Some(4),
            )
        };
        let (w_a, cp_a) = run_pooled();
        let (w_b, cp_b) = run_pooled(); // second call reuses the pooled bundle
        assert_eq!(w_a, w_b);
        assert_eq!(cp_a, cp_b);

        let mut rng = StreamRng::new(8, Purpose::Batch, 3, 1);
        let mut slot = vec![f32::NAN; 3]; // wrong size AND garbage contents
        let mut scratch = hm_nn::TrainScratch::default();
        scratch.grad.resize(99, f32::NAN);
        let cp_i = local_sgd_into(
            &model,
            &data,
            &w0,
            &mut slot,
            7,
            0.3,
            3,
            0.0,
            &ProjectionOp::Unconstrained,
            &mut rng,
            Some(4),
            &mut scratch,
        );
        assert_eq!(slot, w_a);
        assert_eq!(cp_i, cp_a);
    }

    #[test]
    fn estimate_loss_matches_full_batch_in_expectation() {
        let (model, data) = toy();
        let w = vec![0.1; model.num_params()];
        let full = model.loss(&w, &data);
        let mut acc = 0.0;
        let trials = 2000;
        for t in 0..trials {
            let mut rng = StreamRng::new(9, Purpose::Batch, t, 0);
            acc += estimate_loss(&model, &data, &w, 4, &mut rng);
        }
        let mc = acc / trials as f64;
        assert!((mc - full).abs() < 0.02, "mc {mc} vs full {full}");
    }
}
