//! Matrix kernels: products (plain and transposed variants), row softmax,
//! log-sum-exp, ReLU forward/backward, argmax, and reductions.
//!
//! Products parallelise over output rows with rayon once the scalar work
//! exceeds [`PAR_THRESHOLD`]; below it a sequential loop is faster than the
//! fork-join overhead. Per-element accumulation order inside each output
//! element is fixed, so results are identical regardless of thread count.
//!
//! The three products of a fully connected layer run on the host's widest
//! vector unit (`simd::host`: portable, SSE2, AVX2 or AVX-512F), and every
//! unit computes the same bits (DESIGN.md §7b):
//! - The forward, [`matmul_transb_into`] (`X · Wᵀ`), defines each output as
//!   the scalar four-lane dot product `dot_f32`. On x86_64 it computes ten
//!   output columns per pass over a group of input rows, one row (SSE2),
//!   two (AVX) or four (AVX-512) per register, four lanes per row: each
//!   lane sees `dot_f32`'s multiplies and adds in its order, whatever
//!   register holds it.
//! - The backward kernels, [`matmul_into`] (`Δ · W`) and
//!   [`matmul_transa_slice`] (`Δᵀ · X`), accumulate scaled rows into each
//!   output row in ascending order and skip exact-zero coefficients. On
//!   wide shapes at AVX-512F a register tile keeps a block of one output
//!   row in registers across all of its coefficients and masks the zero
//!   ones (`tile_rows`). Every other path is an element-wise loop (a
//!   branchless scan of the nonzeros on wide shapes, a branch on narrow
//!   ones), whose baseline and AVX2 copies give every element the same
//!   operations. All give every element the additions of the skipping
//!   loop, in its order.

use crate::simd::{self, elementwise, Isa, Level};
use crate::{Matrix, MatrixView};
use rayon::prelude::*;

/// Minimum number of scalar multiply-adds before a product goes parallel.
pub const PAR_THRESHOLD: usize = 64 * 1024;

/// Minimum multiply-adds *per row* before parallelising: with less work
/// per task, rayon's fork-join overhead dominates (measured ~10–20 µs per
/// dispatch on small batches, vs ~1 µs of arithmetic).
pub const PAR_ROW_THRESHOLD: usize = 8 * 1024;

#[inline]
fn go_parallel(total_work: usize, rows: usize) -> bool {
    rows >= 4 && total_work >= PAR_THRESHOLD && total_work / rows >= PAR_ROW_THRESHOLD
}

/// `C = A · B` for `A (m×k)` and `B (k×n)`.
///
/// Assumes finite inputs: rows whose `A` coefficient is exactly `0.0` are
/// skipped (a sparsity fast path), which would also skip `0 · NaN = NaN`
/// propagation from `B`. The training pipeline never produces non-finite
/// values under its projected updates; callers with untrusted data should
/// validate first.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a.view(), b.view(), &mut out);
    out
}

/// `C = A · B` written into `out` (resized, capacity reused). The borrowed
/// operands let callers multiply straight out of flat parameter buffers;
/// accumulation order matches [`matmul`] exactly.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    matmul_at(simd::host(), a, b, out);
}

/// [`matmul_into`] on the loops compiled for `level`: from an inner
/// dimension of [`SCAN_MIN_COLS`], the register tile at AVX-512 and the
/// scan below it; the branchy loop on narrower shapes and, below AVX-512,
/// on the row-parallel path.
pub(crate) fn matmul_at(level: Level, a: MatrixView, b: MatrixView, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    out.resize(m, n);
    let out = out.as_mut_slice();
    let work = m * k * n;
    #[cfg(target_arch = "x86_64")]
    if k >= SCAN_MIN_COLS && level.isa() == Isa::Avx512 {
        let coefs = Coefs {
            a: a.as_slice(),
            row: k,
            step: 1,
        };
        return by_rows(work, n, out, |r0, rows| {
            tile_rows(level, coefs, r0, b, rows)
        });
    }
    if (SCAN_MIN_COLS..=NZ_BUF).contains(&k) && !go_parallel(work, m) {
        ikj_scan(level, a, b, out);
    } else {
        by_rows(work, n, out, |r0, rows| ikj_rows(level, a, r0, b, rows));
    }
}

/// Runs `rows(r0, out)` over whole output rows of width `n`: one row per
/// task on the pool when the product is big enough, else all at once.
fn by_rows(work: usize, n: usize, out: &mut [f32], rows: impl Fn(usize, &mut [f32]) + Sync) {
    if n == 0 {
        return;
    }
    if go_parallel(work, out.len() / n) {
        out.par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, out_row)| rows(r, out_row));
    } else {
        rows(0, out);
    }
}

elementwise! {
    /// Rows `r0..` of `A · B` into `out` (whole rows), in ikj order: each
    /// output row takes `A[r, i] · B[i, :]` in ascending `i`, skipping zero
    /// coefficients.
    fn ikj_rows(level: Level, a: MatrixView, r0: usize, b: MatrixView, out: &mut [f32]) {
        out.fill(0.0);
        for (dr, out_row) in out.chunks_mut(b.cols()).enumerate() {
            for (i, &aik) in a.row(r0 + dr).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bij) in out_row.iter_mut().zip(b.row(i)) {
                    *o += aik * bij;
                }
            }
        }
    }
}

elementwise! {
    /// The sequential wide-shape path of [`matmul_into`] below AVX-512:
    /// compact each row's nonzero positions branchlessly, then replay them
    /// unconditionally — the additions of [`ikj_rows`] in its ascending-`i`
    /// order (bit-identical), without a data-dependent branch per element.
    /// Training batches are resampled every step, so the zero pattern is
    /// fresh noise to the branch predictor (DESIGN.md §7b). Narrow inner
    /// dimensions keep the branchy skip: those operands (logits-layer
    /// deltas) are dense, so the branch predicts perfectly and the scan
    /// would be pure overhead.
    fn ikj_scan(level: Level, a: MatrixView, b: MatrixView, out: &mut [f32]) {
        let (k, n) = b.shape();
        let a_flat = a.as_slice();
        let b_flat = b.as_slice();
        let mut nz = [0u32; NZ_BUF];
        out.fill(0.0);
        for r in 0..a.rows() {
            let a_row = &a_flat[r * k..(r + 1) * k];
            let out_row = &mut out[r * n..(r + 1) * n];
            let mut cnt = 0usize;
            for (i, &aik) in a_row.iter().enumerate() {
                nz[cnt] = i as u32;
                cnt += (aik != 0.0) as usize;
            }
            for &i in &nz[..cnt] {
                let i = i as usize;
                let aik = a_row[i];
                for (o, &bij) in out_row.iter_mut().zip(&b_flat[i * n..(i + 1) * n]) {
                    *o += aik * bij;
                }
            }
        }
    }
}

/// Capacity of the stack-allocated nonzero-index buffers used by the
/// branchless sparsity scans; shapes past it fall back to branchy skips.
const NZ_BUF: usize = 1024;

/// Minimum width (the inner dimension of [`matmul_into`], the output rows
/// of [`matmul_transa_slice`]) at which the backward kernels leave the
/// branchy loop for the register tile (AVX-512) or the branchless scans
/// (below it). Narrower operands are logits-layer deltas: dense, so the
/// branchy skip predicts perfectly there.
const SCAN_MIN_COLS: usize = 32;

/// Output columns the AVX-512 backward tile holds in registers: four
/// registers of floats.
#[cfg(target_arch = "x86_64")]
const TILE_COLS: usize = 64;

/// The coefficients of a backward product: output row `r` is
/// `Σ_i a[r · row + i · step] · B[i, :]` over the rows of `B`. `Δ · W`
/// reads row `r` of `Δ` (`row = k`, `step = 1`), `Δᵀ · X` its column `r`
/// (`row = 1`, `step = m`).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Coefs<'a> {
    a: &'a [f32],
    row: usize,
    step: usize,
}

#[cfg(target_arch = "x86_64")]
impl Coefs<'_> {
    /// The `i`-th coefficient of output row `r`.
    #[inline(always)]
    fn at(self, r: usize, i: usize) -> f32 {
        self.a[r * self.row + i * self.step]
    }
}

/// Rows `r0..` of a backward product into `out` (whole rows of
/// `b.cols()`) at AVX-512F, bit-identical to the skipping loops: for each
/// block of 64 columns, one output row's sums stay in four registers while
/// every row of `B` adds its scaled part in ascending order, and are
/// stored once. A zero coefficient is masked, not branched on: each
/// product is added under a lane mask that is all set or all clear
/// (`_mm512_mask_add_ps`). Training batches are resampled every step, so
/// the zero pattern is fresh noise to a branch predictor (DESIGN.md §7b).
///
/// The skipping loop leaves a sum unchanged where the coefficient is
/// `±0.0`. A sum starts at `+0.0` and can never become `-0.0` (in
/// round-to-nearest, `x + y` is `-0.0` only when both are), so a masked
/// add leaves it as the skip does, also where `B` holds an infinity or a
/// NaN behind the zero coefficient.
///
/// # Panics
/// Panics unless `level` is AVX-512F: narrower levels run the scans,
/// which were faster there than a tile (DESIGN.md §7b).
#[cfg(target_arch = "x86_64")]
fn tile_rows(level: Level, coefs: Coefs<'_>, r0: usize, b: MatrixView, out: &mut [f32]) {
    assert_eq!(level.isa(), Isa::Avx512, "the backward tile is AVX-512F");
    // SAFETY: a `Level` of `Avx512` exists only on a host that reported
    // AVX-512F (`simd::detect`).
    unsafe { avx512_tile_rows(coefs, r0, b, out) }
}

/// [`tile_rows`]: blocks of four registers, then one to four registers
/// for the rest of the row, the last one loaded and stored under a lane
/// mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512_tile_rows(coefs: Coefs<'_>, r0: usize, b: MatrixView, out: &mut [f32]) {
    let n = b.cols();
    for (dr, out_row) in out.chunks_exact_mut(n).enumerate() {
        let r = r0 + dr;
        let mut j0 = 0;
        while n - j0 >= TILE_COLS {
            avx512_tile::<4>(coefs, r, b, j0, n - j0, out_row);
            j0 += TILE_COLS;
        }
        match (n - j0).div_ceil(16) {
            0 => {}
            1 => avx512_tile::<1>(coefs, r, b, j0, n - j0, out_row),
            2 => avx512_tile::<2>(coefs, r, b, j0, n - j0, out_row),
            3 => avx512_tile::<3>(coefs, r, b, j0, n - j0, out_row),
            _ => avx512_tile::<4>(coefs, r, b, j0, n - j0, out_row),
        }
    }
}

/// Columns `j0..j0 + min(16 · NV, width)` of output row `r` in `NV`
/// AVX-512 registers, each lane a sum of [`tile_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn avx512_tile<const NV: usize>(
    coefs: Coefs<'_>,
    r: usize,
    b: MatrixView,
    j0: usize,
    width: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_mask_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };
    let lanes: [u16; NV] = std::array::from_fn(|v| match width.saturating_sub(16 * v) {
        w if w >= 16 => u16::MAX,
        w => (1 << w) - 1,
    });
    let n = b.cols();
    assert!(
        width > 16 * (NV - 1) && j0 + width <= n && out.len() == n,
        "tile out of its row"
    );
    let b = b.as_slice();
    // SAFETY: every row of `B` and `out` holds `n` floats, and register
    // `v` covers columns `j0 + 16v..`, of which it loads and stores only
    // the lanes set in `lanes[v]`: `min(16, width - 16v)` of them, at least
    // one (`width > 16 (NV - 1)`) and none past `j0 + width <= n`. So every
    // pointer stays inside its row and no access leaves it.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); NV];
        for (i, row) in b.chunks_exact(n).enumerate() {
            let c = coefs.at(r, i);
            let keep = u16::from(c != 0.0).wrapping_neg();
            let cv = _mm512_set1_ps(c);
            let row = row.as_ptr().add(j0);
            for (v, s) in acc.iter_mut().enumerate() {
                let x = _mm512_maskz_loadu_ps(lanes[v], row.add(16 * v));
                *s = _mm512_mask_add_ps(*s, keep, *s, _mm512_mul_ps(cv, x));
            }
        }
        let out = out.as_mut_ptr().add(j0);
        for (v, s) in acc.into_iter().enumerate() {
            _mm512_mask_storeu_ps(out.add(16 * v), lanes[v], s);
        }
    }
}

/// `C = A · Bᵀ` for `A (m×k)` and `B (n×k)`.
///
/// This is the hot kernel in a forward pass (`X · Wᵀ` with row-major weight
/// matrices); both operands are traversed row-contiguously.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_transb_into(a.view(), b.view(), &mut out);
    out
}

/// `C = A · Bᵀ` written into `out` (resized, capacity reused). Every output
/// element is assigned, so no zeroing pass is needed; accumulation order
/// matches [`matmul_transb`] exactly.
///
/// This is every fully connected forward (`X · Wᵀ` with the weights viewed
/// straight out of the flat parameter vector). Each output element is
/// bit-identical to `dot_f32(A[r], B[j])`: four partial sums over the
/// products with `i ≡ 0, 1, 2, 3 (mod 4)`, combined as
/// `(l0 + l1) + (l2 + l3)`, then the `k % 4` tail products added in index
/// order. On x86_64 the rows are taken in groups of one (SSE2), two (AVX)
/// or four (AVX-512), `TRANSB_BLOCK` (10) output columns at a time, each
/// row's four partial sums of a column in one 128-bit lane (see
/// `sse2_block`); rows left over by the last group go one level narrower.
/// The portable level is one `dot_f32` call per element.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_transb_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb: inner dims {}x{} vs {}x{}ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    transb_at(simd::host(), a, b, out);
}

/// [`matmul_transb_into`] at `level`. The row-parallel split hands out
/// whole row groups.
pub(crate) fn transb_at(level: Level, a: MatrixView, b: MatrixView, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.rows();
    out.resize(m, n);
    let group = group_rows(level);
    let (a, b) = (a.as_slice(), b.as_slice());
    let out = out.as_mut_slice();
    if go_parallel(m * k * n, m) {
        out.par_chunks_mut(group * n)
            .enumerate()
            .for_each(|(g, out_rows)| {
                let r0 = g * group;
                let rows = out_rows.len() / n;
                transb_rows(level, &a[r0 * k..(r0 + rows) * k], b, n, out_rows);
            });
    } else {
        transb_rows(level, a, b, n, out);
    }
}

/// Input rows per register at `level`: four 4-lane rows fill a 512-bit
/// register, two a 256-bit one.
fn group_rows(level: Level) -> usize {
    match level.isa() {
        Isa::Avx512 => 4,
        Isa::Avx => 2,
        Isa::Sse2 | Isa::Portable => 1,
    }
}

/// Output columns the x86_64 forward kernels compute per pass over a row
/// group: ten accumulator vectors plus the input vector and one product
/// fit the sixteen SSE and AVX registers. The inputs are loaded once per
/// block instead of once per column.
#[cfg(any(test, target_arch = "x86_64"))]
const TRANSB_BLOCK: usize = 10;

/// `out = A · Bᵀ` for the rows of `a` and `B` (`n × k`, row-major in
/// `b`), with `out` holding whole rows of `n > 0`: whole row groups at
/// `level`, then the rows the last group leaves over one level narrower.
fn transb_rows(level: Level, a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    let rows = out.len() / n;
    let full = rows - rows % group_rows(level);
    let (a, a_rest) = a.split_at(full * k);
    let (out, out_rest) = out.split_at_mut(full * n);
    match level.isa() {
        Isa::Portable => {
            for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = dot_f32(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k]);
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => sse2_rows(a, b, n, out),
        // SAFETY: a `Level` of `Avx` exists only on a host that reported
        // AVX2 (`simd::detect`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => unsafe { avx_rows(a, b, n, out) },
        // SAFETY: a `Level` of `Avx512` exists only on a host that reported
        // AVX-512F (`simd::detect`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512_rows(a, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no vector level off x86_64"),
    }
    if full < rows {
        transb_rows(level.narrower(), a_rest, b, n, out_rest);
    }
}

/// Whole rows of `A · Bᵀ`, one input row per SSE2 register: full blocks of
/// `TRANSB_BLOCK` columns, then the remaining columns one at a time, so no
/// column is computed twice.
#[cfg(target_arch = "x86_64")]
fn sse2_rows(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    let full = n - n % TRANSB_BLOCK;
    for (r, out) in out.chunks_exact_mut(n).enumerate() {
        let rows = [&a[r * k..(r + 1) * k]];
        for j0 in (0..full).step_by(TRANSB_BLOCK) {
            sse2_block::<TRANSB_BLOCK>(rows, b, j0, out);
        }
        for j in full..n {
            sse2_block::<1>(rows, b, j, out);
        }
    }
}

/// `out[j0 + c] = dot_f32(rows[0], B[j0 + c])` for `c < NB`, bit for bit.
///
/// Column `c`'s four partial sums live in the SSE2 vector `acc[c]`: lane
/// `l` takes the products with `i ≡ l (mod 4)` in increasing `i`, each
/// rounded by a multiply and then added (`mulps`, `addps`; never a fused
/// multiply-add, which rounds once and would differ from `dot_f32`). That
/// is exactly `dot_f32`'s `lanes[l] += a[i] * b[i]`, so [`finish_block`]
/// then combines the lanes and adds the tail in `dot_f32`'s order. Rust
/// does not reassociate or contract floating-point operations, so the
/// scalar and vector forms round identically.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn sse2_block<const NB: usize>(rows: [&[f32]; 1], b: &[f32], j0: usize, out: &mut [f32]) {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    let k = rows[0].len();
    let chunks = k / 4;
    let cols: [&[f32]; NB] = std::array::from_fn(|c| &b[(j0 + c) * k..(j0 + c + 1) * k]);
    let mut lanes = [[0.0_f32; 4]; NB];
    // SAFETY: SSE2 is part of the x86_64 baseline. `rows[0]` and every
    // `cols[c]` are slices of length `k`, and each load reads the four
    // floats at `4 * i` for `i < chunks = k / 4`, so `4 * i + 4 <= k`: every
    // load stays inside its row. The stores write the four floats of
    // `lanes[c]`.
    unsafe {
        let mut acc = [_mm_setzero_ps(); NB];
        for i in 0..chunks {
            let x = _mm_loadu_ps(rows[0].as_ptr().add(4 * i));
            for (acc_c, col) in acc.iter_mut().zip(&cols) {
                let w = _mm_loadu_ps(col.as_ptr().add(4 * i));
                *acc_c = _mm_add_ps(*acc_c, _mm_mul_ps(x, w));
            }
        }
        for (l, v) in lanes.iter_mut().zip(acc) {
            _mm_storeu_ps(l.as_mut_ptr(), v);
        }
    }
    finish_block(&lanes, &rows, &cols, j0, out);
}

/// Whole row pairs of `A · Bᵀ`, two input rows per AVX register, column
/// blocks as in [`sse2_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx_rows(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    let full = n - n % TRANSB_BLOCK;
    for (g, out) in out.chunks_exact_mut(2 * n).enumerate() {
        let rows: [&[f32]; 2] = std::array::from_fn(|q| &a[(2 * g + q) * k..(2 * g + q + 1) * k]);
        for j0 in (0..full).step_by(TRANSB_BLOCK) {
            avx_block::<TRANSB_BLOCK>(rows, b, j0, out);
        }
        for j in full..n {
            avx_block::<1>(rows, b, j, out);
        }
    }
}

/// [`sse2_block`] for two rows at once: row `q`'s four lanes of column `c`
/// are the 128-bit half `q` of `acc[c]`, and each column's four floats are
/// broadcast into both halves, so every lane sees `dot_f32`'s sequence of
/// multiplies and adds for its row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn avx_block<const NB: usize>(rows: [&[f32]; 2], b: &[f32], j0: usize, out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu2_m128, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let k = rows[0].len();
    let chunks = k / 4;
    let cols: [&[f32]; NB] = std::array::from_fn(|c| &b[(j0 + c) * k..(j0 + c + 1) * k]);
    let mut lanes = [[0.0_f32; 8]; NB];
    // SAFETY: both rows and every `cols[c]` are slices of length `k`, and
    // each load reads the four floats at `4 * i` for `i < chunks = k / 4`,
    // so `4 * i + 4 <= k`: every load stays inside its row. The stores
    // write the eight floats of `lanes[c]`.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); NB];
        for i in 0..chunks {
            let x = _mm256_loadu2_m128(rows[1].as_ptr().add(4 * i), rows[0].as_ptr().add(4 * i));
            for (acc_c, col) in acc.iter_mut().zip(&cols) {
                let w = col.as_ptr().add(4 * i);
                let w = _mm256_loadu2_m128(w, w);
                *acc_c = _mm256_add_ps(*acc_c, _mm256_mul_ps(x, w));
            }
        }
        for (l, v) in lanes.iter_mut().zip(acc) {
            _mm256_storeu_ps(l.as_mut_ptr(), v);
        }
    }
    finish_block(&lanes, &rows, &cols, j0, out);
}

/// Whole groups of four rows of `A · Bᵀ`, four input rows per AVX-512
/// register, column blocks as in [`sse2_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512_rows(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    let full = n - n % TRANSB_BLOCK;
    for (g, out) in out.chunks_exact_mut(4 * n).enumerate() {
        let rows: [&[f32]; 4] = std::array::from_fn(|q| &a[(4 * g + q) * k..(4 * g + q + 1) * k]);
        for j0 in (0..full).step_by(TRANSB_BLOCK) {
            avx512_block::<TRANSB_BLOCK>(rows, b, j0, out);
        }
        for j in full..n {
            avx512_block::<1>(rows, b, j, out);
        }
    }
}

/// [`avx_block`] for four rows: row `q`'s lanes are the 128-bit quarter
/// `q` of `acc[c]`, and each column's four floats are broadcast into all
/// four quarters.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn avx512_block<const NB: usize>(rows: [&[f32]; 4], b: &[f32], j0: usize, out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_broadcast_f32x4, _mm512_castps128_ps512, _mm512_insertf32x4,
        _mm512_mul_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm_loadu_ps,
    };
    let k = rows[0].len();
    let chunks = k / 4;
    let cols: [&[f32]; NB] = std::array::from_fn(|c| &b[(j0 + c) * k..(j0 + c + 1) * k]);
    let mut lanes = [[0.0_f32; 16]; NB];
    // SAFETY: all four rows and every `cols[c]` are slices of length `k`,
    // and each load reads the four floats at `4 * i` for
    // `i < chunks = k / 4`, so `4 * i + 4 <= k`: every load stays inside its
    // row. The stores write the sixteen floats of `lanes[c]`.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); NB];
        for i in 0..chunks {
            let x = _mm512_castps128_ps512(_mm_loadu_ps(rows[0].as_ptr().add(4 * i)));
            let x = _mm512_insertf32x4::<1>(x, _mm_loadu_ps(rows[1].as_ptr().add(4 * i)));
            let x = _mm512_insertf32x4::<2>(x, _mm_loadu_ps(rows[2].as_ptr().add(4 * i)));
            let x = _mm512_insertf32x4::<3>(x, _mm_loadu_ps(rows[3].as_ptr().add(4 * i)));
            for (acc_c, col) in acc.iter_mut().zip(&cols) {
                let w = _mm512_broadcast_f32x4(_mm_loadu_ps(col.as_ptr().add(4 * i)));
                *acc_c = _mm512_add_ps(*acc_c, _mm512_mul_ps(x, w));
            }
        }
        for (l, v) in lanes.iter_mut().zip(acc) {
            _mm512_storeu_ps(l.as_mut_ptr(), v);
        }
    }
    finish_block(&lanes, &rows, &cols, j0, out);
}

/// The outputs of one block, `out[q * n + j0 + c]` for row `q` and column
/// `c`, from the four lane sums `4q..4q + 4` of column `c`'s accumulator.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn finish_block<const W: usize, const NB: usize>(
    lanes: &[[f32; W]; NB],
    rows: &[&[f32]],
    cols: &[&[f32]; NB],
    j0: usize,
    out: &mut [f32],
) {
    let n = out.len() / rows.len();
    for (c, (l, col)) in lanes.iter().zip(cols).enumerate() {
        for (q, a_row) in rows.iter().enumerate() {
            out[q * n + j0 + c] = finish(&l[4 * q..4 * q + 4], a_row, col);
        }
    }
}

/// `C = Aᵀ · B` for `A (k×m)` and `B (k×n)`.
///
/// This is the weight-gradient kernel (`Xᵀ · Δ` in backprop).
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_transa_into(a.view(), b.view(), &mut out);
    out
}

/// `C = Aᵀ · B` written into `out` (resized, capacity reused), letting the
/// backward pass stage weight gradients without allocating; accumulation
/// order matches [`matmul_transa`] exactly.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_transa_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    out.resize(a.cols(), b.cols());
    matmul_transa_slice(a, b, out.as_mut_slice());
}

/// `C = Aᵀ · B` written into the flat row-major slice `out` — the backward
/// pass stages weight gradients straight into the caller's gradient vector
/// (`&mut grad[wo..wo + wl]`) with no intermediate matrix.
///
/// # Panics
/// Panics on inner-dimension mismatch or when `out.len() != a.cols() * b.cols()`.
pub fn matmul_transa_slice(a: MatrixView, b: MatrixView, out: &mut [f32]) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_transa: inner dims {}x{}ᵀ vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.len(),
        a.cols() * b.cols(),
        "matmul_transa: output length mismatch"
    );
    transa_at(simd::host(), a, b, out);
}

/// [`matmul_transa_slice`] on the loops compiled for `level`: from
/// [`SCAN_MIN_COLS`] output rows, the register tile at AVX-512 and the
/// scan below it; the branchy loop on narrower shapes and, below AVX-512,
/// on the row-parallel path.
pub(crate) fn transa_at(level: Level, a: MatrixView, b: MatrixView, out: &mut [f32]) {
    let (k, m) = a.shape();
    let n = b.cols();
    let work = m * k * n;
    #[cfg(target_arch = "x86_64")]
    if m >= SCAN_MIN_COLS && level.isa() == Isa::Avx512 {
        let coefs = Coefs {
            a: a.as_slice(),
            row: 1,
            step: m,
        };
        return by_rows(work, n, out, |r0, rows| {
            tile_rows(level, coefs, r0, b, rows)
        });
    }
    if (SCAN_MIN_COLS..=NZ_BUF).contains(&m) && !go_parallel(work, m) {
        transa_scan(level, a, b, out);
    } else {
        by_rows(work, n, out, |r0, rows| transa_rows(level, a, r0, b, rows));
    }
}

elementwise! {
    /// Rows `r0..` of `Aᵀ · B` into `out` (whole rows): output row `r`
    /// takes `A[i, r] · B[i, :]` in ascending `i`, skipping zero
    /// coefficients.
    fn transa_rows(level: Level, a: MatrixView, r0: usize, b: MatrixView, out: &mut [f32]) {
        out.fill(0.0);
        for (dr, out_row) in out.chunks_mut(b.cols()).enumerate() {
            for i in 0..a.rows() {
                let air = a.at(i, r0 + dr);
                if air == 0.0 {
                    continue;
                }
                for (o, &bij) in out_row.iter_mut().zip(b.row(i)) {
                    *o += air * bij;
                }
            }
        }
    }
}

elementwise! {
    /// The sequential wide-shape path of [`matmul_transa_slice`] below
    /// AVX-512, with the batch dimension outermost: each `A` row (a
    /// training delta) is scanned for nonzeros once, branchlessly, instead
    /// of being probed once per output row. Every output element still
    /// receives its addends in ascending batch-row order, so the result is
    /// bit-identical to [`transa_rows`]. Narrow `A` (logits-layer deltas)
    /// stays on the branchy loop — dense, so the skip branch predicts
    /// perfectly and a scan is pure overhead.
    fn transa_scan(level: Level, a: MatrixView, b: MatrixView, out: &mut [f32]) {
        let (k, m) = a.shape();
        let n = b.cols();
        let a_flat = a.as_slice();
        let b_flat = b.as_slice();
        let mut nz = [0u32; NZ_BUF];
        out.fill(0.0);
        for i in 0..k {
            let a_row = &a_flat[i * m..(i + 1) * m];
            let b_row = &b_flat[i * n..(i + 1) * n];
            let mut cnt = 0usize;
            for (r, &air) in a_row.iter().enumerate() {
                nz[cnt] = r as u32;
                cnt += (air != 0.0) as usize;
            }
            for &r in &nz[..cnt] {
                let r = r as usize;
                let air = a_row[r];
                let out_row = &mut out[r * n..(r + 1) * n];
                for (o, &bij) in out_row.iter_mut().zip(b_row) {
                    *o += air * bij;
                }
            }
        }
    }
}

/// Reference O(mkn) triple-loop product used as the test oracle.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for c in 0..b.cols() {
            let mut acc = 0.0_f64;
            for i in 0..a.cols() {
                acc += f64::from(a[(r, i)]) * f64::from(b[(i, c)]);
            }
            out[(r, c)] = acc as f32;
        }
    }
    out
}

/// Dot product with four independent accumulator lanes (the lane pattern
/// is a fixed function of the length, so results stay run-to-run
/// deterministic). This defines the bits of every [`matmul_transb_into`]
/// output: it is the portable level, and every x86_64 level keeps its
/// per-lane recurrence.
#[inline]
fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0_f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let ai = &a[i * 4..i * 4 + 4];
        let bi = &b[i * 4..i * 4 + 4];
        lanes[0] += ai[0] * bi[0];
        lanes[1] += ai[1] * bi[1];
        lanes[2] += ai[2] * bi[2];
        lanes[3] += ai[3] * bi[3];
    }
    finish(&lanes, a, b)
}

/// The end of `dot_f32` from its four lane sums `l`: the lanes combined as
/// `(l0 + l1) + (l2 + l3)`, then the `k % 4` tail products added in index
/// order.
#[inline(always)]
fn finish(l: &[f32], a: &[f32], b: &[f32]) -> f32 {
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for i in a.len() / 4 * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Add a row vector (bias) to every row of `m` in place.
pub fn add_row_inplace(m: &mut Matrix, row: &[f32]) {
    assert_eq!(m.cols(), row.len(), "bias length mismatch");
    let cols = m.cols();
    for r in m.as_mut_slice().chunks_mut(cols) {
        for (x, &b) in r.iter_mut().zip(row) {
            *x += b;
        }
    }
}

/// Column sums of `m`, accumulated in f64 (gradient of a broadcast bias).
pub fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0_f32; m.cols()];
    col_sums_into(m.view(), &mut out);
    out
}

/// Column sums of `m` written into `out`, accumulated in f64. Each column
/// sums its rows top-to-bottom — the same per-column addition order as
/// [`col_sums`], so results are bit-identical.
///
/// # Panics
/// Panics when `out.len() != m.cols()`.
pub fn col_sums_into(m: MatrixView, out: &mut [f32]) {
    assert_eq!(out.len(), m.cols(), "col_sums: output length mismatch");
    col_sums_at(simd::host(), m, out);
}

elementwise! {
    /// [`col_sums_into`] in column tiles of 32, 16, 8, 4 and 1: each
    /// tile's f64 sums stay in registers while the rows are added one
    /// after another, so the loop runs along each row instead of striding
    /// down each column. (A tile with a runtime width stays in memory,
    /// where its speed moved up to 3× with its stack address.)
    fn col_sums_at(level: Level, m: MatrixView, out: &mut [f32]) {
        let cols = m.cols();
        let mut c0 = 0;
        while cols - c0 >= 32 {
            col_tile::<32>(m, c0, out);
            c0 += 32;
        }
        if cols - c0 >= 16 {
            col_tile::<16>(m, c0, out);
            c0 += 16;
        }
        if cols - c0 >= 8 {
            col_tile::<8>(m, c0, out);
            c0 += 8;
        }
        if cols - c0 >= 4 {
            col_tile::<4>(m, c0, out);
            c0 += 4;
        }
        for c in c0..cols {
            col_tile::<1>(m, c, out);
        }
    }
}

/// Columns `c0..c0 + W` of [`col_sums_at`]: `W` f64 sums, each taking its
/// column's rows top to bottom.
#[inline(always)]
fn col_tile<const W: usize>(m: MatrixView, c0: usize, out: &mut [f32]) {
    let mut acc = [0.0_f64; W];
    for row in m.as_slice().chunks_exact(m.cols()) {
        let x: &[f32; W] = row[c0..c0 + W].try_into().expect("W columns");
        for (a, &x) in acc.iter_mut().zip(x) {
            *a += f64::from(x);
        }
    }
    for (o, a) in out[c0..c0 + W].iter_mut().zip(acc) {
        *o = a as f32;
    }
}

/// In-place ReLU.
pub fn relu_inplace(m: &mut Matrix) {
    m.map_inplace(|x| x.max(0.0));
}

/// Backward of ReLU: zero `grad` wherever the forward *output* was zero.
///
/// `activated` must be the ReLU output (not the pre-activation); the kernel
/// therefore treats `activated > 0` as the pass-through mask.
pub fn relu_backward_inplace(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!(grad.shape(), activated.shape());
    // Unconditional select rather than a guarded store: the mask is fresh
    // ~50/50 noise every training batch, and a data-dependent branch here
    // mispredicts constantly; the select vectorises to cmp+and.
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        *g = if a > 0.0 { *g } else { 0.0 };
    }
}

/// Numerically stable log-sum-exp of a slice.
pub fn log_sum_exp(x: &[f32]) -> f32 {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = x.iter().map(|&v| f64::from(v - m).exp()).sum();
    m + (s.ln() as f32)
}

/// Row-wise softmax, numerically stable, returned as a new matrix.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Row-wise softmax in place.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_mut(cols) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0_f64;
        for x in row.iter_mut() {
            let e = f64::from(*x - mx).exp();
            sum += e;
            *x = e as f32;
        }
        let inv = (1.0 / sum) as f32;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Index of the maximum element of each row (ties resolve to the first).
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    m.rows_iter()
        .map(|row| {
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for (i, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill without external RNG deps.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = mat(5, 7, 1);
        let b = mat(7, 4, 2);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-4, "diff {}", c.max_abs_diff(&r));
    }

    /// Sparse variant of `mat`: about 40 % of entries set to `+0.0` and
    /// 20 % to `-0.0`, like clamped pixels and ReLU outputs.
    fn sparse_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = mat(rows, cols, seed);
        let mut s = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(3);
        for v in m.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 5 {
                0 | 1 => *v = 0.0,
                2 => *v = -0.0,
                _ => {}
            }
        }
        m
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        // Large enough to take the rayon path: total work and per-row work
        // both above their thresholds, with ≥ 4 rows.
        let (m, k, n) = (8usize, 512usize, 512usize);
        assert!(go_parallel(m * k * n, m));
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn parallel_heuristic_shape() {
        // Tiny matrices and few-row matrices stay sequential.
        assert!(!go_parallel(100, 10));
        assert!(!go_parallel(1 << 20, 2)); // too few rows
        assert!(!go_parallel(1 << 17, 64)); // too little work per row
        assert!(go_parallel(1 << 20, 8));
    }

    #[test]
    fn transb_equals_explicit_transpose() {
        let a = mat(6, 5, 5);
        let b = mat(3, 5, 6);
        let c = matmul_transb(&a, &b);
        let r = matmul(&a, &b.transpose());
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn transa_equals_explicit_transpose() {
        let a = mat(5, 6, 7);
        let b = mat(5, 3, 8);
        let c = matmul_transa(&a, &b);
        let r = matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(4, 4, 9);
        let c = matmul(&a, &Matrix::eye(4));
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn mismatched_dims_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn add_row_and_col_sums() {
        let mut m = Matrix::zeros(3, 2);
        add_row_inplace(&mut m, &[1.0, -2.0]);
        assert_eq!(m.row(2), &[1.0, -2.0]);
        let s = col_sums(&m);
        assert_eq!(s, vec![3.0, -6.0]);
    }

    #[test]
    fn relu_and_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::full(1, 4, 1.0);
        relu_backward_inplace(&mut g, &m);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let m = mat(4, 6, 11);
        let s = softmax_rows(&m);
        for row in s.rows_iter() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]);
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        let m2 = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let s2 = softmax_rows(&m2);
        assert!(s.max_abs_diff(&s2) < 1e-5);
    }

    #[test]
    fn log_sum_exp_stable_and_correct() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f32::consts::LN_2).abs() < 1e-6);
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY]), f32::NEG_INFINITY);
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, -1.0, -5.0, -2.0]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    /// Output widths of the backward tests: one column, each side of the
    /// 16- and 64-column blocks, fig4's 100 and 256, and two blocks plus a
    /// tail.
    const WIDTHS: [usize; 10] = [1, 15, 16, 17, 63, 64, 65, 100, 130, 256];

    /// Batch sizes of the backward tests: the rows of `Δ`.
    const BATCHES: [usize; 5] = [1, 8, 16, 65, 200];

    /// `sparse_mat` with about 3 % of entries set to `+inf`, `-inf` or NaN,
    /// so some sit behind zero coefficients and some behind nonzero ones.
    fn special_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = sparse_mat(rows, cols, seed);
        let mut s = seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(5);
        for v in m.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 100 {
                0 => *v = f32::INFINITY,
                1 => *v = f32::NEG_INFINITY,
                2 => *v = f32::NAN,
                _ => {}
            }
        }
        m
    }

    /// Asserts `got` and `want` hold the same bits, naming the level, where
    /// any NaN equals any NaN: Rust leaves the payload of a NaN that
    /// arithmetic makes unspecified.
    fn assert_same_floats(got: &[f32], want: &[f32], level: Level) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan(),
                "{:?} element {}: {} vs the reference's {}",
                level,
                i,
                g,
                w
            );
        }
        Ok(())
    }

    /// At AVX-512, the tile on every row at once (the sequential path) and
    /// on one row per call (the row-parallel path) gives `want`.
    #[cfg(target_arch = "x86_64")]
    fn check_tile(
        level: Level,
        coefs: Coefs,
        b: MatrixView,
        want: &[f32],
    ) -> Result<(), TestCaseError> {
        if level.isa() != Isa::Avx512 || b.cols() == 0 {
            return Ok(());
        }
        let mut got = vec![f32::NAN; want.len()];
        tile_rows(level, coefs, 0, b, &mut got);
        assert_same_floats(&got, want, level)?;
        let mut got = vec![f32::NAN; want.len()];
        for (r, row) in got.chunks_mut(b.cols()).enumerate() {
            tile_rows(level, coefs, r, b, row);
        }
        assert_same_floats(&got, want, level)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The forward kernel reproduces the scalar `dot_f32` bit for bit
        /// at every level the host runs. `k < 13` covers `k < 4` and every
        /// `k % 4`; `n` is 1, below, equal to, above and between multiples
        /// of the block width; `m < 9` covers `m < 4` and every `m % 4`,
        /// so every row group and every leftover count. `wide` adds 4
        /// rows, 256 inputs and 64 outputs, which puts the product on the
        /// row-parallel path.
        #[test]
        fn prop_transb_bit_identical_to_dot(
            m in 1usize..9,
            k in 0usize..13,
            n in prop_oneof![
                Just(1usize),
                2..TRANSB_BLOCK,
                Just(TRANSB_BLOCK),
                TRANSB_BLOCK + 1..3 * TRANSB_BLOCK + 4,
            ],
            wide in any::<bool>(),
            sparse in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let (m, k, n) = if wide { (m + 4, k + 256, n + 64) } else { (m, k, n) };
            prop_assert_eq!(go_parallel(m * k * n, m), wide);
            let fill = if sparse { sparse_mat } else { mat };
            let a = fill(m, k, seed);
            let b = fill(n, k, seed + 7);
            for level in simd::levels() {
                let mut got = Matrix::full(1, 3, f32::NAN);
                transb_at(level, a.view(), b.view(), &mut got);
                prop_assert_eq!(got.shape(), (m, n));
                for r in 0..m {
                    for j in 0..n {
                        let want = dot_f32(a.row(r), b.row(j));
                        prop_assert!(
                            got[(r, j)].to_bits() == want.to_bits(),
                            "{:?} ({}, {}): {} vs dot_f32 {}",
                            level,
                            r,
                            j,
                            got[(r, j)],
                            want
                        );
                    }
                }
            }
        }

        /// `Δ · W` at every level, through the dispatch and (at AVX-512)
        /// the tile, equals the portable skipping loop `ikj_rows` bit for
        /// bit: `Δ` is full of `±0.0` like a ReLU-masked delta and `W`
        /// holds `±inf` and NaN. `k` runs from 0 across `SCAN_MIN_COLS`
        /// (the branchy narrow path, then the sequential scan or tile);
        /// `parallel` takes 8 to 11 rows, at least 64 inner and 131 output
        /// columns, which puts the product on the row-parallel path.
        #[test]
        fn prop_matmul_bit_identical_at_every_level(
            parallel in any::<bool>(),
            m in prop_oneof![(0..BATCHES.len()).prop_map(|i| BATCHES[i]), 1usize..9],
            k in 0usize..SCAN_MIN_COLS + 40,
            n in prop_oneof![(0..WIDTHS.len()).prop_map(|i| WIDTHS[i]), 1usize..200],
            seed in 0u64..1000,
        ) {
            let (m, k, n) = if parallel { (m % 4 + 8, k + 64, n + 130) } else { (m, k, n) };
            prop_assert!(!parallel || go_parallel(m * k * n, m));
            let a = sparse_mat(m, k, seed);
            let b = special_mat(k, n, seed + 5);
            let mut want = vec![f32::NAN; m * n];
            ikj_rows(Level::portable(), a.view(), 0, b.view(), &mut want);
            for level in simd::levels() {
                #[cfg(target_arch = "x86_64")]
                check_tile(level, Coefs { a: a.as_slice(), row: k, step: 1 }, b.view(), &want)?;
                let mut got = Matrix::full(2, 2, f32::NAN);
                matmul_at(level, a.view(), b.view(), &mut got);
                prop_assert_eq!(got.shape(), (m, n));
                assert_same_floats(got.as_slice(), &want, level)?;
            }
        }

        /// `Δᵀ · X` at every level, through the dispatch and (at AVX-512)
        /// the tile, equals the portable skipping loop `transa_rows`, with
        /// the operands of the test above. The `m` output rows run from 1
        /// across `SCAN_MIN_COLS`; `parallel` takes a batch of 64 to 75 and
        /// at least 131 columns, which puts the product on the row-parallel
        /// path.
        #[test]
        fn prop_transa_bit_identical_at_every_level(
            parallel in any::<bool>(),
            k in prop_oneof![(0..BATCHES.len()).prop_map(|i| BATCHES[i]), 1usize..12],
            m in 1usize..SCAN_MIN_COLS + 40,
            n in prop_oneof![(0..WIDTHS.len()).prop_map(|i| WIDTHS[i]), 1usize..200],
            seed in 0u64..1000,
        ) {
            let (k, m, n) = if parallel { (k % 12 + 64, m + 7, n + 130) } else { (k, m, n) };
            prop_assert!(!parallel || go_parallel(m * k * n, m));
            let a = sparse_mat(k, m, seed);
            let b = special_mat(k, n, seed + 9);
            let mut want = vec![f32::NAN; m * n];
            transa_rows(Level::portable(), a.view(), 0, b.view(), &mut want);
            for level in simd::levels() {
                #[cfg(target_arch = "x86_64")]
                check_tile(level, Coefs { a: a.as_slice(), row: 1, step: m }, b.view(), &want)?;
                let mut got = vec![f32::NAN; m * n];
                transa_at(level, a.view(), b.view(), &mut got);
                assert_same_floats(&got, &want, level)?;
            }
        }

        /// `col_sums_into` at every level equals the column-at-a-time f64
        /// loop bit for bit, on widths below, at and past the 32-column
        /// tile. Values span 2^-60..2^60 and every third row cancels the
        /// one before it, so a changed order rounds differently.
        #[test]
        fn prop_col_sums_bit_identical_to_column_loop(
            rows in 0usize..20,
            cols in 0usize..100,
            seed in 0u64..1000,
        ) {
            let mut m = sparse_mat(rows, cols, seed);
            for r in 0..rows {
                for c in 0..cols {
                    m[(r, c)] = if r % 3 == 2 {
                        -m[(r - 1, c)]
                    } else {
                        m[(r, c)] * 2f32.powi(30 * ((r + c) % 5) as i32 - 60)
                    };
                }
            }
            let want: Vec<f32> = (0..cols)
                .map(|c| (0..rows).fold(0.0_f64, |a, r| a + f64::from(m[(r, c)])) as f32)
                .collect();
            for level in simd::levels() {
                let mut got = vec![f32::NAN; cols];
                col_sums_at(level, m.view(), &mut got);
                assert_same_floats(&got, &want, level)?;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_matmul_matches_naive(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(17));
            let c = matmul(&a, &b);
            let r = matmul_naive(&a, &b);
            prop_assert!(c.max_abs_diff(&r) < 1e-4);
        }

        #[test]
        fn prop_transposed_products_consistent(m in 1usize..7, k in 1usize..7, n in 1usize..7, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let bt = mat(n, k, seed.wrapping_add(3));
            let c1 = matmul_transb(&a, &bt);
            let c2 = matmul(&a, &bt.transpose());
            prop_assert!(c1.max_abs_diff(&c2) < 1e-4);

            let at = mat(k, m, seed.wrapping_add(5));
            let b = mat(k, n, seed.wrapping_add(7));
            let c3 = matmul_transa(&at, &b);
            let c4 = matmul(&at.transpose(), &b);
            prop_assert!(c3.max_abs_diff(&c4) < 1e-4);
        }

        #[test]
        fn prop_softmax_rows_sum_to_one(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
            let m = mat(r, c, seed);
            let s = softmax_rows(&m);
            for row in s.rows_iter() {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }
}
