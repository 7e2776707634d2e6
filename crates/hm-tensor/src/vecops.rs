//! BLAS-1 style kernels on `&[f32]` slices.
//!
//! Model parameters travel through the system as flat vectors (the algorithms
//! average, difference, and project them), so these kernels are used on every
//! SGD step, aggregation, and projection.
//!
//! The ones that run on every step and every aggregation, [`axpy`] (the
//! SGD update) and the f64 fold of [`average_present_into`] (every edge
//! aggregation), [`average_into`] and [`weighted_average_into`] (the
//! cloud's), run on the host's widest vector unit: their loops are
//! element-wise, so the baseline and AVX2 copies of each loop give every
//! element the same operations and the same bits (DESIGN.md §7b).
//! The reductions (`dot`, `norm2`, `sum`) keep one loop: their order is
//! part of their bits.

use crate::simd::{self, elementwise, Level};

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    axpy_at(simd::host(), alpha, x, y);
}

elementwise! {
    /// [`axpy`] on the loop compiled for `level`. A plain zip loop:
    /// elements are independent, so LLVM unrolls and vectorises it freely
    /// (a manual 4-wide unroll measured ~5x slower — it defeated the
    /// autovectoriser).
    pub(crate) fn axpy_at(level: Level, alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }
}

/// `y = x` (copy).
pub fn copy(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "copy length mismatch");
    y.copy_from_slice(x);
}

/// `x *= alpha`.
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product with f64 accumulation.
///
/// Uses four independent f64 accumulator lanes combined in a fixed order
/// (`(l0 + l1) + (l2 + l3)` then the scalar tail), so the result is a pure
/// function of the inputs — deterministic run to run and thread-count
/// independent.
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut lanes = [0.0_f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let xc = &x[i * 4..i * 4 + 4];
        let yc = &y[i * 4..i * 4 + 4];
        lanes[0] += f64::from(xc[0]) * f64::from(yc[0]);
        lanes[1] += f64::from(xc[1]) * f64::from(yc[1]);
        lanes[2] += f64::from(xc[2]) * f64::from(yc[2]);
        lanes[3] += f64::from(xc[3]) * f64::from(yc[3]);
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for i in chunks * 4..x.len() {
        acc += f64::from(x[i]) * f64::from(y[i]);
    }
    acc
}

/// Euclidean norm with f64 accumulation.
pub fn norm2(x: &[f32]) -> f64 {
    x.iter()
        .map(|&a| f64::from(a) * f64::from(a))
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance between two slices, f64 accumulation.
pub fn dist2_sq(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2_sq length mismatch");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum()
}

/// Sum of all elements, f64 accumulation.
pub fn sum(x: &[f32]) -> f64 {
    x.iter().map(|&a| f64::from(a)).sum()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(x: &[f32]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// Width of the tile of f64 sums the averaging fold holds across all its
/// sources: 32 sums fill eight AVX2 registers, so a tile stays in
/// registers while every source adds its part, and each output is stored
/// once. Each source's part is 128 bytes; with 64-byte parts a fold of 100
/// sources of 31,260 floats ran slower than one pass per source. The fold
/// views each part as a `[f32; TILE]`: with a runtime tile length the
/// compiler kept the sums on the stack and divided them one at a time.
const TILE: usize = 32;

/// Deterministic average of several equally-weighted parameter vectors.
///
/// Accumulates in f64 in a fixed order, so the result is independent of how
/// the sources were produced (e.g. in parallel by rayon workers). This is the
/// model-aggregation primitive used at both the edge (client models) and the
/// cloud (edge models).
///
/// Per element the fold is `(0.0 + s₀[i] + s₁[i] + …) / n` in f64, in
/// source order, rounded to f32 once. It makes one pass over the output,
/// a tile of sums at a time.
pub fn average_into(sources: &[&[f32]], out: &mut [f32]) {
    assert!(!sources.is_empty(), "average of zero vectors");
    for s in sources {
        assert_eq!(s.len(), out.len(), "average length mismatch");
    }
    let n = sources.len() as f64;
    fold(simd::host(), sources, |_, s| Some((*s, 1.0)), n, out);
}

/// Weighted average `out[i] = Σ_j weights[j] * sources[j][i]`.
///
/// Weights need not sum to one (callers normalise when they need a convex
/// combination). One pass like [`average_into`]: per element
/// `0.0 + w₀·s₀[i] + w₁·s₁[i] + …` in f64, in source order, rounded to
/// f32 once.
pub fn weighted_average_into(sources: &[&[f32]], weights: &[f64], out: &mut [f32]) {
    assert_eq!(sources.len(), weights.len(), "weights/sources mismatch");
    assert!(!sources.is_empty(), "weighted average of zero vectors");
    for s in sources {
        assert_eq!(s.len(), out.len(), "average length mismatch");
    }
    fold(
        simd::host(),
        sources,
        |j, s| Some((*s, weights[j])),
        1.0,
        out,
    );
}

/// Fused fixed-shape average over the *present* entries of a slot array:
/// `out = mean_{j : get(slots[j]) = Some(v_j)} v_j`, folding slots in index
/// order. Returns the number of present entries.
///
/// This is the survivor-aggregation primitive of the block phase: client
/// results live in fixed per-slot `Option`s (absent = crashed / missed
/// deadline), and aggregation walks the slots directly instead of first
/// compacting the survivors into a `Vec<&[f32]>`. The fold order equals the
/// slot order, which equals the source order the compacting path fed to
/// [`average_into`] — so the two are bit-identical.
///
/// `out` is untouched (and the count is 0) when no entry is present;
/// callers keep the previous model in that case. The mean of one entry
/// (an edge with one survivor, a client unit) skips the f64 fold: the
/// fold of one value is `x + 0.0`, which only turns −0.0 into +0.0.
pub fn average_present_into<S>(
    slots: &[S],
    get: impl Fn(&S) -> Option<&[f32]>,
    out: &mut [f32],
) -> usize {
    average_present_at(simd::host(), slots, get, out)
}

/// [`average_present_into`] with its multi-slot fold on the loops compiled
/// for `level`.
pub(crate) fn average_present_at<S>(
    level: Level,
    slots: &[S],
    get: impl Fn(&S) -> Option<&[f32]>,
    out: &mut [f32],
) -> usize {
    let mut count = 0;
    for v in slots.iter().filter_map(&get) {
        assert_eq!(v.len(), out.len(), "average length mismatch");
        count += 1;
    }
    if count == 0 {
        return 0;
    }
    if count == 1 {
        let v = slots.iter().find_map(&get).expect("one present entry");
        for (o, &x) in out.iter_mut().zip(v) {
            *o = x + 0.0;
        }
        return 1;
    }
    fold(
        level,
        slots,
        |_, s| get(s).map(|v| (v, 1.0)),
        count as f64,
        out,
    );
    count
}

elementwise! {
    /// `out[i] = (0.0 + Σ_j w_j · v_j[i]) / div` over the parts
    /// `(v_j, w_j)` that `part` yields for the slots, in slot order. The
    /// means pass `w_j = 1.0` and `div = n`, the weighted average its
    /// weights and `div = 1.0`: both are exact, so each keeps the bits of
    /// its one-element-at-a-time loop. A tile of [`TILE`] sums stays in
    /// registers while every part adds its share; the outputs past the
    /// last whole tile fold one at a time, in the same order. Each part
    /// must be as long as `out`.
    fn fold<S>(
        level: Level,
        slots: &[S],
        part: impl Fn(usize, &S) -> Option<(&[f32], f64)>,
        div: f64,
        out: &mut [f32],
    ) {
        let parts = || slots.iter().enumerate().filter_map(|(j, s)| part(j, s));
        let whole = out.len() - out.len() % TILE;
        let (tiles, tail) = out.split_at_mut(whole);
        for (t, o) in tiles.chunks_exact_mut(TILE).enumerate() {
            let mut acc = [0.0_f64; TILE];
            for (v, w) in parts() {
                let v: &[f32; TILE] = v[t * TILE..][..TILE].try_into().expect("TILE floats");
                for (a, &x) in acc.iter_mut().zip(v) {
                    *a += w * f64::from(x);
                }
            }
            for (o, a) in o.iter_mut().zip(acc) {
                *o = (a / div) as f32;
            }
        }
        for (i, o) in tail.iter_mut().enumerate() {
            let mut acc = 0.0_f64;
            for (v, w) in parts() {
                acc += w * f64::from(v[whole + i]);
            }
            *o = (acc / div) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    }

    /// `arb_vec` with about 40 % of entries set to `+0.0` and 20 % to
    /// `-0.0`, like ReLU-masked gradients.
    fn sparse_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut v = arb_vec(n, seed);
        let mut s = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(3);
        for x in &mut v {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 5 {
                0 | 1 => *x = 0.0,
                2 => *x = -0.0,
                _ => {}
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Exclusive bound on the fold proptests' lengths: many tiles, with
    /// every tail length below and past them.
    const FOLD_LEN: usize = 1100;

    /// Six sparse vectors whose magnitudes span 2^-60..2^60 and in which
    /// every third entry of a vector cancels the vector before it, so the
    /// f64 sums of a fold round and their order shows in the bits.
    fn adversarial_vecs(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut vecs: Vec<Vec<f32>> = (0..6).map(|j| sparse_vec(n, seed + j)).collect();
        for (j, v) in vecs.iter_mut().enumerate() {
            for (i, x) in v.iter_mut().enumerate() {
                *x *= 2f32.powi(30 * ((i + j) % 5) as i32 - 60);
            }
        }
        for j in 1..6 {
            for i in (j % 3..n).step_by(3) {
                vecs[j][i] = -vecs[j - 1][i];
            }
        }
        vecs
    }

    proptest! {
        /// `axpy` at every level the host runs equals the portable loop bit
        /// for bit, on lengths below, across and past every vector width,
        /// sparse `±0.0` operands and a step that may be `±0.0`.
        #[test]
        fn prop_axpy_bit_identical_at_every_level(
            n in 0usize..300,
            seed in 0u64..500,
            alpha in prop_oneof![Just(0.0f32), Just(-0.0f32), -4.0f32..4.0],
        ) {
            let x = sparse_vec(n, seed);
            let y0 = sparse_vec(n, seed.wrapping_add(1));
            let mut want = y0.clone();
            axpy_at(Level::portable(), alpha, &x, &mut want);
            for level in simd::levels() {
                let mut y = y0.clone();
                axpy_at(level, alpha, &x, &mut y);
                prop_assert!(bits(&y) == bits(&want), "{:?}", level);
            }
        }

        /// The multi-slot fold of `average_present_into` at every level
        /// equals the portable loop bit for bit, for any hole pattern of up
        /// to six slots and lengths from one element to many tiles, with
        /// every tail length.
        #[test]
        fn prop_average_present_bit_identical_at_every_level(
            n in 1usize..FOLD_LEN,
            mask in 0u32..64,
            seed in 0u64..500,
        ) {
            let vecs = adversarial_vecs(n, seed);
            let slots: Vec<Option<Vec<f32>>> = vecs
                .into_iter()
                .enumerate()
                .map(|(j, v)| ((mask >> j) & 1 == 1).then_some(v))
                .collect();
            let mut want = vec![7.0_f32; n];
            let count = average_present_at(Level::portable(), &slots, |s| s.as_deref(), &mut want);
            prop_assert_eq!(count as u32, mask.count_ones());
            for level in simd::levels() {
                let mut got = vec![7.0_f32; n];
                average_present_at(level, &slots, |s| s.as_deref(), &mut got);
                prop_assert!(bits(&got) == bits(&want), "{:?}", level);
            }
        }
    }

    proptest! {
        /// `average_into`'s fold at every level equals the
        /// one-element-at-a-time loop bit for bit, on one to six sources.
        #[test]
        fn prop_average_bit_identical_at_every_level(
            n in 1usize..FOLD_LEN,
            k in 1usize..7,
            seed in 0u64..500,
        ) {
            let vecs = adversarial_vecs(n, seed);
            let sources: Vec<&[f32]> = vecs[..k].iter().map(Vec::as_slice).collect();
            let mut want = vec![7.0_f32; n];
            naive_average(&sources, &mut want);
            for level in simd::levels() {
                let mut got = vec![7.0_f32; n];
                fold(level, &sources, |_, s| Some((*s, 1.0)), k as f64, &mut got);
                prop_assert!(bits(&got) == bits(&want), "{:?}", level);
            }
        }

        /// `weighted_average_into`'s fold at every level equals the
        /// one-element-at-a-time loop bit for bit, on one to six sources
        /// and weights of either sign across 2^-40..2^40, `±0.0` included.
        /// The weights carry all 53 bits, so each product rounds, and
        /// every other weight repeats the one before: where a source
        /// cancels the one before it the sum cancels exactly, and a fused
        /// multiply-add would leave the product's rounding error in the
        /// bits.
        #[test]
        fn prop_weighted_average_bit_identical_at_every_level(
            n in 1usize..FOLD_LEN,
            k in 1usize..7,
            seed in 0u64..500,
        ) {
            let vecs = adversarial_vecs(n, seed);
            let sources: Vec<&[f32]> = vecs[..k].iter().map(Vec::as_slice).collect();
            let mut weights: Vec<f64> = arb_vec(k, seed.wrapping_add(9))
                .iter()
                .enumerate()
                .map(|(j, &u)| match (seed as usize + j) % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    r => f64::from(u) / 3.0 * 2f64.powi(20 * (r as i32 - 4)),
                })
                .collect();
            for j in (1..k).step_by(2) {
                weights[j] = weights[j - 1];
            }
            let mut want = vec![7.0_f32; n];
            naive_weighted(&sources, &weights, &mut want);
            for level in simd::levels() {
                let mut got = vec![7.0_f32; n];
                fold(level, &sources, |j, s| Some((*s, weights[j])), 1.0, &mut got);
                prop_assert!(bits(&got) == bits(&want), "{:?}", level);
            }
        }

        #[test]
        fn prop_axpy_is_linear(n in 1usize..32, seed in 0u64..500, a in -4.0f32..4.0) {
            let x = arb_vec(n, seed);
            let y0 = arb_vec(n, seed.wrapping_add(1));
            // axpy(a, x, y) == y + a*x elementwise.
            let mut y = y0.clone();
            axpy(a, &x, &mut y);
            for i in 0..n {
                let expect = y0[i] + a * x[i];
                prop_assert!((y[i] - expect).abs() <= 1e-5 * expect.abs().max(1.0));
            }
        }

        #[test]
        fn prop_average_is_permutation_invariant(n in 1usize..16, seed in 0u64..500) {
            let a = arb_vec(n, seed);
            let b = arb_vec(n, seed.wrapping_add(2));
            let c = arb_vec(n, seed.wrapping_add(3));
            let mut o1 = vec![0.0; n];
            let mut o2 = vec![0.0; n];
            average_into(&[&a, &b, &c], &mut o1);
            average_into(&[&c, &b, &a], &mut o2);
            prop_assert_eq!(o1, o2);
        }

        #[test]
        fn prop_weighted_average_within_hull(n in 1usize..16, seed in 0u64..500, t in 0.0f64..1.0) {
            // A convex combination of two vectors stays coordinate-wise
            // between them.
            let a = arb_vec(n, seed);
            let b = arb_vec(n, seed.wrapping_add(5));
            let mut o = vec![0.0; n];
            weighted_average_into(&[&a, &b], &[t, 1.0 - t], &mut o);
            for i in 0..n {
                let lo = a[i].min(b[i]) - 1e-5;
                let hi = a[i].max(b[i]) + 1e-5;
                prop_assert!(o[i] >= lo && o[i] <= hi);
            }
        }

        #[test]
        fn prop_dot_is_symmetric(n in 1usize..32, seed in 0u64..500) {
            let x = arb_vec(n, seed);
            let y = arb_vec(n, seed.wrapping_add(7));
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
        }

        #[test]
        fn prop_norm_triangle_inequality(n in 1usize..32, seed in 0u64..500) {
            let x = arb_vec(n, seed);
            let y = arb_vec(n, seed.wrapping_add(11));
            let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            prop_assert!(norm2(&sum) <= norm2(&x) + norm2(&y) + 1e-6);
        }
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 11.0, 11.5]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_len_mismatch_panics() {
        let mut y = [0.0];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }

    #[test]
    fn scale_and_copy() {
        let mut x = [2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [1.0, 2.0]);
        let mut y = [0.0, 0.0];
        copy(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn dot_norm_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dist2_sq(&[1.0, 1.0], &[4.0, 5.0]), 25.0);
    }

    #[test]
    fn sum_and_mean() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn average_of_three() {
        let a = [1.0, 0.0];
        let b = [2.0, 3.0];
        let c = [3.0, 6.0];
        let mut out = [0.0, 0.0];
        average_into(&[&a, &b, &c], &mut out);
        assert_eq!(out, [2.0, 3.0]);
    }

    #[test]
    fn average_is_order_invariant() {
        let a = [0.1_f32, 0.7];
        let b = [0.3_f32, -0.2];
        let c = [123.456_f32, 1e-3];
        let mut o1 = [0.0, 0.0];
        let mut o2 = [0.0, 0.0];
        average_into(&[&a, &b, &c], &mut o1);
        average_into(&[&c, &a, &b], &mut o2);
        assert_eq!(o1, o2); // f64 accumulation of 3 f32s is exact enough
    }

    #[test]
    fn weighted_average_convex() {
        let a = [0.0, 10.0];
        let b = [10.0, 0.0];
        let mut out = [0.0, 0.0];
        weighted_average_into(&[&a, &b], &[0.25, 0.75], &mut out);
        assert_eq!(out, [7.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "zero vectors")]
    fn average_empty_panics() {
        let mut out = [0.0];
        average_into(&[], &mut out);
    }

    /// Reference (one element at a time) implementations the tiled folds
    /// must match bit for bit, including across tile boundaries.
    fn naive_average(sources: &[&[f32]], out: &mut [f32]) {
        let n = sources.len() as f64;
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0_f64;
            for s in sources {
                acc += f64::from(s[i]);
            }
            *o = (acc / n) as f32;
        }
    }

    fn naive_weighted(sources: &[&[f32]], weights: &[f64], out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0_f64;
            for (s, &w) in sources.iter().zip(weights) {
                acc += w * f64::from(s[i]);
            }
            *o = acc as f32;
        }
    }

    #[test]
    fn tiled_average_matches_naive_bitwise() {
        // Lengths straddling the tile width: below, at, just above, and
        // many tiles with a ragged tail.
        for n in [1usize, 7, TILE - 1, TILE, TILE + 1, 511, 512, 513, 1549] {
            let a = arb_vec(n, 1);
            let b = arb_vec(n, 2);
            let c = arb_vec(n, 3);
            let sources: Vec<&[f32]> = vec![&a, &b, &c];
            let mut got = vec![0.0_f32; n];
            let mut want = vec![0.0_f32; n];
            average_into(&sources, &mut got);
            naive_average(&sources, &mut want);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "average_into diverged from naive at n={n}"
            );
            let w = [0.2_f64, 0.5, 0.3];
            weighted_average_into(&sources, &w, &mut got);
            naive_weighted(&sources, &w, &mut want);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "weighted_average_into diverged from naive at n={n}"
            );
        }
    }

    #[test]
    fn average_present_matches_compacted_average() {
        // Slot array with holes: the fused path over Option slots must equal
        // compact-then-average bit for bit, for any hole pattern — the
        // one-entry copy too, on signed zeros, subnormals, infinities and
        // NaN payloads.
        let n = 549;
        let mut vecs: Vec<Vec<f32>> = (0..5).map(|s| arb_vec(n, 10 + s as u64)).collect();
        let specials = [-0.0, 0.0, f32::from_bits(1), -f32::from_bits(0x0040_0000)]
            .into_iter()
            .chain([f32::INFINITY, f32::NEG_INFINITY, f32::MAX, 1.5, -3.25e-30])
            .chain([f32::from_bits(0x7fc0_1234), f32::from_bits(0xffc0_0001)]);
        for (x, v) in vecs[0].iter_mut().zip(specials) {
            *x = v;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for mask in 1u32..32 {
            let slots: Vec<Option<Vec<f32>>> = vecs
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    if (mask >> j) & 1 == 1 {
                        Some(v.clone())
                    } else {
                        None
                    }
                })
                .collect();
            let mut fused = vec![0.0_f32; n];
            let count = average_present_into(&slots, |s| s.as_deref(), &mut fused);
            assert_eq!(count as u32, mask.count_ones());
            let compact: Vec<&[f32]> = slots.iter().filter_map(|s| s.as_deref()).collect();
            let mut want = vec![0.0_f32; n];
            average_into(&compact, &mut want);
            assert_eq!(bits(&fused), bits(&want), "mask {mask:05b}");
        }
    }

    #[test]
    fn average_present_all_absent_leaves_out_untouched() {
        let slots: Vec<Option<Vec<f32>>> = vec![None, None];
        let mut out = vec![7.0_f32; 4];
        let count = average_present_into(&slots, |s| s.as_deref(), &mut out);
        assert_eq!(count, 0);
        assert_eq!(out, vec![7.0_f32; 4]);
    }
}
