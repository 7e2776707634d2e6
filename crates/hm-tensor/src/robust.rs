//! Byzantine-robust aggregation kernels.
//!
//! Drop-in alternatives to [`vecops::average_present_into`] for the
//! client→edge and edge→cloud reductions: a β-trimmed mean, the
//! coordinate-wise median, and norm-clipped averaging. Like the mean
//! kernels they accumulate in `f64` in a fixed fold order, so results are
//! a pure function of the surviving inputs — bit-identical across
//! executors and reruns. All kernels are `_into` style and reuse a
//! caller-provided scratch vector, preserving the block phase's
//! zero-allocation discipline after first use.
//!
//! Slot conventions match `average_present_into`: `slots` is indexed in
//! protocol order, `get` yields `Some(update)` for survivors, every kernel
//! returns the survivor count and leaves `out` untouched when it is zero.

use crate::vecops;

/// Accumulation chunk width for the norm-clip kernel: a tile of f64 sums
/// that stays in L1 while every survivor adds its clipped chunk, in slot
/// order.
const CLIP_CHUNK: usize = 512;

/// Pluggable reduction used for client→edge and edge→cloud aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregator {
    /// Plain survivor mean — today's `average_present_into`, the frozen
    /// bit-exact reference. With multiplicity weights at the cloud it is
    /// the weighted mean.
    #[default]
    Mean,
    /// Per coordinate: drop the `⌊β·k⌋` smallest and largest survivor
    /// values, average the rest. `beta = 0` degenerates to [`Aggregator::Mean`]
    /// bit-for-bit.
    TrimmedMean {
        /// Trim fraction per side, in `[0, 0.5)`.
        beta: f32,
    },
    /// Per-coordinate median (midpoint of the two central order statistics
    /// for an even survivor count).
    CoordinateMedian,
    /// Mean of survivor deltas from the pre-aggregation base model, each
    /// delta scaled by `min(1, τ/‖δ‖₂)`.
    NormClip {
        /// Clipping radius τ (> 0) on each survivor's update norm.
        tau: f32,
    },
}

/// Names accepted by the CLI `--aggregator` flag, in help order.
pub const AGGREGATORS: [&str; 4] = ["mean", "trimmed-mean", "coordinate-median", "norm-clip"];

impl Aggregator {
    /// Stable string tag used in telemetry events and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            Aggregator::Mean => "mean",
            Aggregator::TrimmedMean { .. } => "trimmed-mean",
            Aggregator::CoordinateMedian => "coordinate-median",
            Aggregator::NormClip { .. } => "norm-clip",
        }
    }

    /// The aggregator's scalar knob (0 for the knob-free variants).
    pub fn param(&self) -> f64 {
        match *self {
            Aggregator::TrimmedMean { beta } => f64::from(beta),
            Aggregator::NormClip { tau } => f64::from(tau),
            _ => 0.0,
        }
    }

    /// Whether the kernel needs the pre-aggregation base model.
    pub fn needs_base(&self) -> bool {
        matches!(self, Aggregator::NormClip { .. })
    }

    /// Check parameter ranges, returning a description of the first
    /// violation (non-finite knobs are rejected).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Aggregator::TrimmedMean { beta } => {
                if beta.is_finite() && (0.0..0.5).contains(&beta) {
                    Ok(())
                } else {
                    Err(format!("trim beta must be finite in [0, 0.5), got {beta}"))
                }
            }
            Aggregator::NormClip { tau } => {
                if tau.is_finite() && tau > 0.0 {
                    Ok(())
                } else {
                    Err(format!("clip tau must be finite and > 0, got {tau}"))
                }
            }
            _ => Ok(()),
        }
    }

    /// Aggregate the present slots into `out`, returning the survivor
    /// count. `out` is untouched when nothing is present. `base` is the
    /// pre-aggregation model [`Aggregator::NormClip`] clips against
    /// (required for it, ignored otherwise); it must not alias `out`.
    /// `scratch` is kernel working memory, reused across calls.
    ///
    /// The [`Aggregator::Mean`] arm calls `average_present_into` directly,
    /// so a `Mean` run is bit-identical to one that never heard of this
    /// dispatch.
    pub fn aggregate_present_into<S>(
        &self,
        slots: &[S],
        get: impl Fn(&S) -> Option<&[f32]>,
        base: Option<&[f32]>,
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) -> usize {
        match *self {
            Aggregator::Mean => vecops::average_present_into(slots, get, out),
            Aggregator::TrimmedMean { beta } => {
                trimmed_mean_present_into(slots, get, beta, scratch, out)
            }
            Aggregator::CoordinateMedian => {
                coordinate_median_present_into(slots, get, scratch, out)
            }
            Aggregator::NormClip { tau } => {
                let base = base.expect("NormClip needs the pre-aggregation base model");
                norm_clip_present_into(slots, get, tau, base, scratch, out)
            }
        }
    }
}

/// Count survivors and check their lengths against `out`.
fn present_count<S>(slots: &[S], get: &impl Fn(&S) -> Option<&[f32]>, out: &[f32]) -> usize {
    let mut k = 0;
    for s in slots {
        if let Some(v) = get(s) {
            assert_eq!(v.len(), out.len(), "aggregation length mismatch");
            k += 1;
        }
    }
    k
}

/// β-trimmed mean of the present slots: per coordinate, sort the `k`
/// survivor values, drop `g = ⌊β·k⌋` from each end (capped so at least one
/// value remains), and average the middle `k − 2g` in ascending order with
/// f64 accumulation. `g == 0` delegates to `average_present_into`, so
/// `beta = 0` is the mean bit-for-bit. Returns the survivor count; `out`
/// is untouched when it is zero.
pub fn trimmed_mean_present_into<S>(
    slots: &[S],
    get: impl Fn(&S) -> Option<&[f32]>,
    beta: f32,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> usize {
    let k = present_count(slots, &get, out);
    if k == 0 {
        return 0;
    }
    let g = ((beta * k as f32).floor() as usize).min((k - 1) / 2);
    if g == 0 {
        return vecops::average_present_into(slots, get, out);
    }
    let kept = (k - 2 * g) as f64;
    for j in 0..out.len() {
        scratch.clear();
        for s in slots {
            if let Some(v) = get(s) {
                scratch.push(v[j]);
            }
        }
        scratch.sort_unstable_by(f32::total_cmp);
        let mut acc = 0.0_f64;
        for &v in &scratch[g..k - g] {
            acc += f64::from(v);
        }
        out[j] = (acc / kept) as f32;
    }
    k
}

/// Coordinate-wise median of the present slots: the middle order statistic
/// for odd `k`, the f64 midpoint of the two central values for even `k`.
/// Returns the survivor count; `out` is untouched when it is zero.
pub fn coordinate_median_present_into<S>(
    slots: &[S],
    get: impl Fn(&S) -> Option<&[f32]>,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> usize {
    let k = present_count(slots, &get, out);
    if k == 0 {
        return 0;
    }
    for j in 0..out.len() {
        scratch.clear();
        for s in slots {
            if let Some(v) = get(s) {
                scratch.push(v[j]);
            }
        }
        scratch.sort_unstable_by(f32::total_cmp);
        out[j] = if k % 2 == 1 {
            scratch[k / 2]
        } else {
            ((f64::from(scratch[k / 2 - 1]) + f64::from(scratch[k / 2])) * 0.5) as f32
        };
    }
    k
}

/// Norm-clipped mean: each survivor's delta `vᵢ − base` is scaled by
/// `cᵢ = min(1, τ/‖vᵢ − base‖₂)` (a zero-norm delta keeps `cᵢ = 1`) and
/// `out = base + (Σ cᵢ·(vᵢ − base)) / k`, accumulated in f64 with the
/// same chunked per-element fold order as the averaging kernels. `base`
/// must not alias `out`. Returns the survivor count; `out` is untouched
/// when it is zero.
pub fn norm_clip_present_into<S>(
    slots: &[S],
    get: impl Fn(&S) -> Option<&[f32]>,
    tau: f32,
    base: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> usize {
    assert_eq!(base.len(), out.len(), "norm_clip base length mismatch");
    let k = present_count(slots, &get, out);
    if k == 0 {
        return 0;
    }
    // Pass 1: per-survivor clip factors, in slot order.
    scratch.clear();
    let tau = f64::from(tau);
    for s in slots {
        if let Some(v) = get(s) {
            let norm = vecops::dist2_sq(v, base).sqrt();
            let c = if norm > tau { tau / norm } else { 1.0 };
            scratch.push(c as f32);
        }
    }
    // Pass 2: chunked clipped-delta accumulation.
    let kf = k as f64;
    let mut acc = [0.0_f64; CLIP_CHUNK];
    let mut start = 0;
    while start < out.len() {
        let len = CLIP_CHUNK.min(out.len() - start);
        acc[..len].fill(0.0);
        let mut i = 0;
        for s in slots {
            if let Some(v) = get(s) {
                let c = f64::from(scratch[i]);
                i += 1;
                for ((a, &vj), &bj) in acc[..len]
                    .iter_mut()
                    .zip(&v[start..start + len])
                    .zip(&base[start..start + len])
                {
                    *a += c * (f64::from(vj) - f64::from(bj));
                }
            }
        }
        for ((o, &a), &bj) in out[start..start + len]
            .iter_mut()
            .zip(&acc[..len])
            .zip(&base[start..start + len])
        {
            *o = (f64::from(bj) + a / kf) as f32;
        }
        start += len;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random vector (xorshift), matching the vecops
    /// test idiom.
    fn arb_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    /// Sources with holes: slot i is absent when bit i of `mask` is set.
    fn sources(n: usize, count: usize, mask: u32, seed: u64) -> Vec<Option<Vec<f32>>> {
        (0..count)
            .map(|i| (mask >> i) & 1 == 0)
            .enumerate()
            .map(|(i, present)| present.then(|| arb_vec(n, seed + i as u64)))
            .collect()
    }

    fn present(slots: &[Option<Vec<f32>>]) -> Vec<&[f32]> {
        slots.iter().filter_map(|s| s.as_deref()).collect()
    }

    // Naive per-coordinate references: independent code paths that gather
    // each column into a fresh Vec, sort, and reduce with the same fold
    // order the kernels specify.

    fn naive_trimmed(srcs: &[&[f32]], beta: f32, n: usize) -> Vec<f32> {
        let k = srcs.len();
        let g = ((beta * k as f32).floor() as usize).min((k - 1) / 2);
        (0..n)
            .map(|j| {
                let mut col: Vec<f32> = srcs.iter().map(|s| s[j]).collect();
                col.sort_by(f32::total_cmp);
                let kept = &col[g..k - g];
                let sum: f64 = kept.iter().map(|&v| f64::from(v)).sum();
                (sum / kept.len() as f64) as f32
            })
            .collect()
    }

    fn naive_median(srcs: &[&[f32]], n: usize) -> Vec<f32> {
        let k = srcs.len();
        (0..n)
            .map(|j| {
                let mut col: Vec<f32> = srcs.iter().map(|s| s[j]).collect();
                col.sort_by(f32::total_cmp);
                if k % 2 == 1 {
                    col[k / 2]
                } else {
                    ((f64::from(col[k / 2 - 1]) + f64::from(col[k / 2])) * 0.5) as f32
                }
            })
            .collect()
    }

    fn naive_clip(srcs: &[&[f32]], tau: f32, base: &[f32]) -> Vec<f32> {
        let factors: Vec<f64> = srcs
            .iter()
            .map(|s| {
                let norm = crate::vecops::dist2_sq(s, base).sqrt();
                let c = if norm > f64::from(tau) {
                    f64::from(tau) / norm
                } else {
                    1.0
                };
                f64::from(c as f32)
            })
            .collect();
        let k = srcs.len() as f64;
        (0..base.len())
            .map(|j| {
                let mut acc = 0.0_f64;
                for (s, &c) in srcs.iter().zip(&factors) {
                    acc += c * (f64::from(s[j]) - f64::from(base[j]));
                }
                (f64::from(base[j]) + acc / k) as f32
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernels_match_naive_references_bit_for_bit() {
        let mut scratch = Vec::new();
        for n in [1usize, 7, CLIP_CHUNK - 1, CLIP_CHUNK, CLIP_CHUNK + 13] {
            for mask in [0u32, 0b01010, 0b00111] {
                let slots = sources(n, 5, mask, 42 + n as u64);
                let srcs = present(&slots);
                let base = arb_vec(n, 999);
                let k = srcs.len();

                let mut out = vec![0.0; n];
                let got = trimmed_mean_present_into(
                    &slots,
                    |s| s.as_deref(),
                    0.25,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(got, k);
                assert_eq!(bits(&out), bits(&naive_trimmed(&srcs, 0.25, n)));

                let mut out = vec![0.0; n];
                let got = coordinate_median_present_into(
                    &slots,
                    |s| s.as_deref(),
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(got, k);
                assert_eq!(bits(&out), bits(&naive_median(&srcs, n)));

                let mut out = vec![0.0; n];
                let got = norm_clip_present_into(
                    &slots,
                    |s| s.as_deref(),
                    0.5,
                    &base,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(got, k);
                assert_eq!(bits(&out), bits(&naive_clip(&srcs, 0.5, &base)));
            }
        }
    }

    #[test]
    fn beta_zero_is_mean_bit_for_bit() {
        let slots = sources(300, 6, 0b010000, 7);
        let mut scratch = Vec::new();
        let mut trimmed = vec![0.0; 300];
        let mut mean = vec![0.0; 300];
        trimmed_mean_present_into(&slots, |s| s.as_deref(), 0.0, &mut scratch, &mut trimmed);
        crate::vecops::average_present_into(&slots, |s| s.as_deref(), &mut mean);
        assert_eq!(bits(&trimmed), bits(&mean));
        // Small survivor sets where ⌊β·k⌋ = 0 also degenerate to the mean.
        let few = sources(64, 3, 0, 8);
        let mut t = vec![0.0; 64];
        let mut m = vec![0.0; 64];
        trimmed_mean_present_into(&few, |s| s.as_deref(), 0.25, &mut scratch, &mut t);
        crate::vecops::average_present_into(&few, |s| s.as_deref(), &mut m);
        assert_eq!(bits(&t), bits(&m));
    }

    #[test]
    fn identical_survivors_are_a_fixpoint() {
        let v = arb_vec(130, 5);
        let slots: Vec<Option<Vec<f32>>> = vec![
            Some(v.clone()),
            None,
            Some(v.clone()),
            Some(v.clone()),
            Some(v.clone()),
        ];
        let base = arb_vec(130, 6);
        let mut scratch = Vec::new();
        for agg in [
            Aggregator::TrimmedMean { beta: 0.25 },
            Aggregator::CoordinateMedian,
            Aggregator::NormClip { tau: 1e6 },
        ] {
            let mut out = vec![0.0; 130];
            let k = agg.aggregate_present_into(
                &slots,
                |s| s.as_deref(),
                Some(&base),
                &mut scratch,
                &mut out,
            );
            assert_eq!(k, 4);
            assert_eq!(bits(&out), bits(&v), "{} not a fixpoint", agg.as_str());
        }
    }

    #[test]
    fn zero_survivors_leave_out_untouched() {
        let slots: Vec<Option<Vec<f32>>> = vec![None, None];
        let base = vec![0.0; 4];
        let mut scratch = Vec::new();
        for agg in [
            Aggregator::Mean,
            Aggregator::TrimmedMean { beta: 0.2 },
            Aggregator::CoordinateMedian,
            Aggregator::NormClip { tau: 1.0 },
        ] {
            let mut out = vec![7.0_f32; 4];
            let k = agg.aggregate_present_into(
                &slots,
                |s| s.as_deref(),
                Some(&base),
                &mut scratch,
                &mut out,
            );
            assert_eq!(k, 0);
            assert_eq!(out, vec![7.0; 4]);
        }
    }

    #[test]
    fn trimmed_mean_drops_an_outlier() {
        let slots: Vec<Option<Vec<f32>>> = vec![
            Some(vec![1.0]),
            Some(vec![1.0]),
            Some(vec![1.0]),
            Some(vec![1000.0]),
            Some(vec![1.0]),
        ];
        let mut scratch = Vec::new();
        let mut out = vec![0.0];
        trimmed_mean_present_into(&slots, |s| s.as_deref(), 0.2, &mut scratch, &mut out);
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn norm_clip_bounds_outlier_influence() {
        let base = vec![0.0_f32; 2];
        let slots: Vec<Option<Vec<f32>>> = vec![
            Some(vec![0.1, 0.0]),
            Some(vec![0.1, 0.0]),
            Some(vec![1000.0, 0.0]),
        ];
        let mut scratch = Vec::new();
        let mut out = vec![0.0; 2];
        norm_clip_present_into(&slots, |s| s.as_deref(), 0.5, &base, &mut scratch, &mut out);
        // Outlier contributes at most τ of norm: (0.1 + 0.1 + 0.5)/3.
        assert!((f64::from(out[0]) - 0.7 / 3.0).abs() < 1e-6, "{}", out[0]);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(Aggregator::Mean.validate().is_ok());
        assert!(Aggregator::TrimmedMean { beta: 0.49 }.validate().is_ok());
        assert!(Aggregator::TrimmedMean { beta: 0.5 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: -0.1 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: f32::NAN }
            .validate()
            .is_err());
        assert!(Aggregator::NormClip { tau: 1.0 }.validate().is_ok());
        assert!(Aggregator::NormClip { tau: 0.0 }.validate().is_err());
        assert!(Aggregator::NormClip { tau: f32::NAN }.validate().is_err());
        assert!(Aggregator::NormClip { tau: f32::INFINITY }
            .validate()
            .is_err());
    }

    proptest! {
        #[test]
        fn prop_trimmed_matches_naive(n in 1usize..48, count in 1usize..9, mask in 0u32..64, seed in 0u64..200, beta in 0.0f32..0.49) {
            let slots = sources(n, count, mask, seed);
            let srcs = present(&slots);
            prop_assume!(!srcs.is_empty());
            let mut scratch = Vec::new();
            let mut out = vec![0.0; n];
            trimmed_mean_present_into(&slots, |s| s.as_deref(), beta, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&naive_trimmed(&srcs, beta, n)));
        }

        #[test]
        fn prop_median_matches_naive(n in 1usize..48, count in 1usize..9, mask in 0u32..64, seed in 0u64..200) {
            let slots = sources(n, count, mask, seed);
            let srcs = present(&slots);
            prop_assume!(!srcs.is_empty());
            let mut scratch = Vec::new();
            let mut out = vec![0.0; n];
            coordinate_median_present_into(&slots, |s| s.as_deref(), &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&naive_median(&srcs, n)));
        }

        #[test]
        fn prop_clip_matches_naive(n in 1usize..48, count in 1usize..9, mask in 0u32..64, seed in 0u64..200, tau in 0.01f32..10.0) {
            let slots = sources(n, count, mask, seed);
            let srcs = present(&slots);
            prop_assume!(!srcs.is_empty());
            let base = arb_vec(n, seed ^ 0xABCD);
            let mut scratch = Vec::new();
            let mut out = vec![0.0; n];
            norm_clip_present_into(&slots, |s| s.as_deref(), tau, &base, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&naive_clip(&srcs, tau, &base)));
        }
    }
}
