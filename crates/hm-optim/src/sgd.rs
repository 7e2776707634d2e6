//! The projected-SGD step of eq. (4):
//! `w ← Π_W(w − η ∇f(w; ξ))`.

use crate::projection::{Projection, ProjectionOp};
use hm_tensor::vecops;

/// One projected gradient step in place. `grad` is the stochastic gradient
/// at the current `params`.
///
/// The step and the projection are fused into a single sweep over the
/// parameter vector wherever the constraint set allows it (unconstrained,
/// box, L2 ball); the simplex projections need the whole post-step vector
/// before any coordinate can be resolved, so they keep the two-phase path.
/// Each fused path performs the exact per-element operations of
/// `axpy` + `project`, so results are bit-identical to the two-phase code.
///
/// # Panics
/// Panics if lengths differ or `lr` is not finite.
pub fn projected_sgd_step(params: &mut [f32], grad: &[f32], lr: f32, proj: &ProjectionOp) {
    assert!(lr.is_finite(), "non-finite learning rate");
    assert_eq!(params.len(), grad.len(), "param/grad length mismatch");
    match *proj {
        ProjectionOp::Unconstrained => vecops::axpy(-lr, grad, params),
        ProjectionOp::Box { lo, hi } => {
            for (p, &g) in params.iter_mut().zip(grad) {
                *p = (*p + -lr * g).clamp(lo, hi);
            }
        }
        ProjectionOp::L2Ball { radius } => {
            assert!(radius > 0.0, "ball radius must be positive");
            // Accumulate the post-step squared norm during the update sweep
            // (same sequential f64 order as `norm2`); the rescale when the
            // iterate leaves the ball is the only second pass.
            let mut sq = 0.0_f64;
            for (p, &g) in params.iter_mut().zip(grad) {
                *p += -lr * g;
                sq += f64::from(*p) * f64::from(*p);
            }
            let norm = sq.sqrt();
            if norm > f64::from(radius) {
                let scale = (f64::from(radius) / norm) as f32;
                for p in params.iter_mut() {
                    *p *= scale;
                }
            }
        }
        ProjectionOp::Simplex | ProjectionOp::CappedSimplex { .. } => {
            vecops::axpy(-lr, grad, params);
            proj.project(params);
        }
    }
}

/// One projected gradient-*ascent* step in place (the edge-weight update of
/// eq. (7) moves `p` up the gradient of `F(w, ·)`).
pub fn projected_ascent_step(params: &mut [f32], grad: &[f32], lr: f32, proj: &ProjectionOp) {
    assert!(lr.is_finite(), "non-finite learning rate");
    vecops::axpy(lr, grad, params);
    proj.project(params);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descent_moves_against_gradient() {
        let mut p = vec![1.0, 1.0];
        projected_sgd_step(&mut p, &[1.0, -2.0], 0.1, &ProjectionOp::Unconstrained);
        assert_eq!(p, vec![0.9, 1.2]);
    }

    #[test]
    fn ascent_moves_with_gradient() {
        let mut p = vec![0.5, 0.5];
        projected_ascent_step(&mut p, &[0.1, -0.1], 1.0, &ProjectionOp::Unconstrained);
        assert!((p[0] - 0.6).abs() < 1e-6 && (p[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn step_projects_back_to_simplex() {
        let mut p = vec![0.5, 0.5];
        projected_ascent_step(&mut p, &[10.0, 0.0], 1.0, &ProjectionOp::Simplex);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p[0] > 0.9, "{p:?}");
    }

    #[test]
    fn step_stays_in_ball() {
        let mut p = vec![0.0, 0.9];
        projected_sgd_step(
            &mut p,
            &[0.0, -10.0],
            1.0,
            &ProjectionOp::L2Ball { radius: 1.0 },
        );
        assert!(hm_tensor::vecops::norm2(&p) <= 1.0 + 1e-5);
    }

    #[test]
    fn fused_step_matches_two_phase_reference() {
        // The fused paths must be bit-identical to axpy-then-project.
        let grad: Vec<f32> = (0..37).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.3).collect();
        let w0: Vec<f32> = (0..37).map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.2).collect();
        let projs = [
            ProjectionOp::Unconstrained,
            ProjectionOp::Box { lo: -0.4, hi: 0.4 },
            ProjectionOp::L2Ball { radius: 0.7 },
            ProjectionOp::L2Ball { radius: 1e6 }, // stays inside: no rescale
            ProjectionOp::Simplex,
            ProjectionOp::CappedSimplex { lo: 0.0, hi: 0.5 },
        ];
        for proj in &projs {
            let mut fused = w0.clone();
            projected_sgd_step(&mut fused, &grad, 0.17, proj);
            let mut reference = w0.clone();
            vecops::axpy(-0.17, &grad, &mut reference);
            proj.project(&mut reference);
            assert_eq!(fused, reference, "mismatch under {proj:?}");
        }
    }

    #[test]
    fn quadratic_converges_under_projection() {
        // Minimise ||w − c||² over the unit ball with c outside the ball:
        // the solution is c/||c||.
        let c = [3.0_f32, 4.0];
        let mut w = vec![0.0_f32, 0.0];
        let proj = ProjectionOp::L2Ball { radius: 1.0 };
        for _ in 0..200 {
            let g: Vec<f32> = w.iter().zip(&c).map(|(wi, ci)| 2.0 * (wi - ci)).collect();
            projected_sgd_step(&mut w, &g, 0.05, &proj);
        }
        assert!(
            (w[0] - 0.6).abs() < 1e-3 && (w[1] - 0.8).abs() < 1e-3,
            "{w:?}"
        );
    }
}
