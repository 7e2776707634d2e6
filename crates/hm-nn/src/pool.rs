//! Thread-local pooling of per-client training scratch.
//!
//! Every client-block needs the same bundle of scratch memory: a model
//! [`Workspace`], a gradient buffer, and a [`BatchScratch`] for mini-batch
//! gathers. Allocating these per call is a residual cost of every step
//! on logistic/CNN (small models amortise nothing), and
//! in the block phase one thread runs every client-block of its edge
//! chains back to back — so scratch is pooled per *thread* and reused
//! across blocks, rounds, and even algorithm runs, for as long as the
//! thread lives (the vendored rayon shim's workers live as long as the
//! process; DESIGN.md §7b).
//!
//! Pooling is safe for determinism because every buffer in the bundle is
//! overwrite-on-use: `Workspace` stages intermediates that are fully
//! written before being read (asserted bit-for-bit by
//! `workspace_grad_is_bit_identical_to_legacy_path`), the gradient buffer
//! is overwritten by `loss_grad_ws`'s contract, and `BatchScratch` clears
//! its index buffer on every draw. A dirty pooled bundle therefore yields
//! bit-identical results to a fresh one — proven by the tests below and by
//! `tests/oracle_diff.rs`, whose naive reference round allocates fresh
//! buffers for every step.

use crate::workspace::Workspace;
use hm_data::batch::BatchScratch;
use std::cell::RefCell;

/// The scratch bundle one client-block's training loop needs.
///
/// Obtain one via [`with_scratch`] (pooled) or `TrainScratch::default()`
/// (fresh, for code that manages its own reuse).
#[derive(Default)]
pub struct TrainScratch {
    /// Model forward/backward intermediates.
    pub ws: Workspace,
    /// Gradient accumulator, resized to `num_params` by the caller.
    pub grad: Vec<f32>,
    /// Mini-batch index + gather buffers.
    pub batch: BatchScratch,
}

thread_local! {
    static POOL: RefCell<Vec<TrainScratch>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a pooled [`TrainScratch`], returning the bundle to this
/// thread's pool afterwards.
///
/// Pop-then-push (rather than borrowing the pool across `f`) keeps the
/// call reentrant: if `f` itself reaches [`with_scratch`] — a Phase-2 loss
/// estimate holds a bundle for its mini-batch while `Model::loss` takes
/// another for the forward pass — the inner call simply takes another
/// bundle.
/// Buffer contents are *not* cleared between uses; see the module docs for
/// why that cannot affect results.
pub fn with_scratch<R>(f: impl FnOnce(&mut TrainScratch) -> R) -> R {
    let mut scratch = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    let out = f(&mut scratch);
    POOL.with(|p| p.borrow_mut().push(scratch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_scratch_is_reused_on_same_thread() {
        // Mark the bundle on first use; the second use on the same thread
        // must observe the mark (same bundle back from the pool).
        let marked = with_scratch(|s| {
            if s.grad.is_empty() {
                s.grad.push(42.0);
            }
            s.grad[0]
        });
        let again = with_scratch(|s| s.grad[0]);
        assert_eq!(marked, again);
    }

    #[test]
    fn with_scratch_is_reentrant() {
        // The inner call must get a DIFFERENT bundle, not deadlock or alias
        // the outer one.
        with_scratch(|outer| {
            outer.grad.clear();
            outer.grad.push(1.0);
            with_scratch(|inner| {
                assert_ne!(
                    inner as *mut TrainScratch, outer as *mut TrainScratch,
                    "nested with_scratch aliased the outer bundle"
                );
                inner.grad.clear();
                inner.grad.push(2.0);
            });
            assert_eq!(outer.grad, [1.0], "inner call clobbered outer scratch");
        });
    }

    #[test]
    fn dirty_scratch_does_not_leak_into_results() {
        // A pooled (dirty) bundle must produce bit-identical gradients to a
        // fresh one — the property that makes cross-block reuse safe.
        use crate::{Mlp, Model};
        use hm_data::rng::{Purpose, StreamKey};
        use hm_data::{Dataset, StreamRng};
        use hm_tensor::Matrix;

        let model = Mlp::new(6, &[5], 3);
        let mut rng = StreamRng::for_key(StreamKey::new(3, Purpose::Misc, 0, 0));
        let x = Matrix::from_fn(7, 6, |_, _| rng.normal() as f32 * 0.5);
        let y = (0..7).map(|_| rng.below(3)).collect();
        let data = Dataset::new(x, y, 3);
        let params: Vec<f32> = (0..model.num_params())
            .map(|_| rng.normal() as f32 * 0.3)
            .collect();

        let mut fresh = TrainScratch::default();
        fresh.grad.resize(model.num_params(), 0.0);
        let l_fresh = model.loss_grad_ws(&params, &data, &mut fresh.grad, &mut fresh.ws);

        // Pollute the pooled bundle with unrelated work first (different
        // sizes, garbage values), then compute the same gradient.
        let (l_pool, g_pool) = with_scratch(|s| {
            s.grad.clear();
            s.grad.resize(2 * model.num_params(), f32::NAN);
            let big = Mlp::new(9, &[8, 4], 2);
            let bx = Matrix::from_fn(3, 9, |_, _| 0.7);
            let bdata = Dataset::new(bx, vec![0, 1, 0], 2);
            let bparams = vec![0.1; big.num_params()];
            s.grad.resize(big.num_params(), 0.0);
            big.loss_grad_ws(&bparams, &bdata, &mut s.grad, &mut s.ws);

            s.grad.resize(model.num_params(), 0.0);
            let l = model.loss_grad_ws(&params, &data, &mut s.grad, &mut s.ws);
            (l, s.grad.clone())
        });

        assert_eq!(l_fresh.to_bits(), l_pool.to_bits());
        assert_eq!(fresh.grad, g_pool);
    }

    #[test]
    fn pooled_forward_matches_a_fresh_workspace() {
        // `loss` and `predict` stage their forward in pooled scratch. After
        // other models of other shapes have dirtied the pool, `loss` must
        // still equal the loss `loss_grad` computes in a fresh workspace,
        // and `predict` must not change.
        use crate::{Mlp, Model, MulticlassLogistic, SimpleCnn};
        use hm_data::rng::{Purpose, StreamKey};
        use hm_data::{Dataset, StreamRng};
        use hm_tensor::Matrix;

        let models: Vec<(Box<dyn Model>, usize, usize)> = vec![
            (Box::new(MulticlassLogistic::new(13, 4)), 13, 4),
            (Box::new(Mlp::new(13, &[11, 6], 4)), 13, 4),
            (Box::new(SimpleCnn::new(10, 3, 2, 3, 12, 4)), 100, 4),
        ];
        let mut rng = StreamRng::for_key(StreamKey::new(5, Purpose::Misc, 0, 0));
        let mut data_of = |dim: usize, classes: usize, n: usize| {
            let x = Matrix::from_fn(n, dim, |_, _| rng.normal() as f32 * 0.5);
            let y = (0..n).map(|_| rng.below(classes)).collect();
            Dataset::new(x, y, classes)
        };
        let cases: Vec<(Dataset, Vec<f32>)> = models
            .iter()
            .enumerate()
            .map(|(i, (model, dim, classes))| {
                let data = data_of(*dim, *classes, 3 + 2 * i);
                let params = (0..model.num_params())
                    .map(|j| ((j * 7 + i) % 11) as f32 * 0.05 - 0.25)
                    .collect();
                (data, params)
            })
            .collect();
        for (i, ((model, _, _), (data, params))) in models.iter().zip(&cases).enumerate() {
            let mut grad = vec![0.0; model.num_params()];
            let fresh = model.loss_grad(params, data, &mut grad);
            let pred = model.predict(params, &data.x);
            // Dirty the pool with every other model's forward.
            for (j, ((other, _, _), (odata, oparams))) in models.iter().zip(&cases).enumerate() {
                if j != i {
                    other.loss(oparams, odata);
                    other.predict(oparams, &odata.x);
                }
            }
            assert_eq!(model.loss(params, data).to_bits(), fresh.to_bits());
            assert_eq!(model.predict(params, &data.x), pred);
        }
    }
}
