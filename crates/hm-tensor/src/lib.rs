//! Dense linear-algebra substrate for the HierMinimax reproduction.
//!
//! The paper's evaluation trains multinomial logistic regression and a small
//! fully-connected network with SGD. Those workloads only need dense
//! row-major matrices, matrix products (including transposed variants),
//! element-wise maps, numerically stable softmax / log-sum-exp, and a few
//! BLAS-1 style vector kernels. This crate provides exactly that, with
//! rayon-parallel row loops for the matrix products that dominate training
//! time and `f64` accumulation in reductions where it matters for accuracy.
//!
//! Design notes:
//! - Everything is `f32` storage (matching the PyTorch float32 runs in the
//!   paper) with `f64` accumulators in dot products and reductions.
//! - Parallelism kicks in above [`ops::PAR_THRESHOLD`] scalar ops so tiny
//!   matrices (common in unit tests) don't pay rayon overhead.
//! - The products of a fully connected layer and the SGD step run on the
//!   host's widest vector unit (portable, SSE2, AVX2 or AVX-512F), detected
//!   once at run time; every unit computes the same bits (`simd`). The
//!   `unsafe` code is the vector loads of the forward kernel
//!   ([`ops::matmul_transb_into`]) and the masked loads and stores of the
//!   backward tile, each kept inside its row, and the calls into the AVX2
//!   and AVX-512 paths, made only on a host that reported them. Each block
//!   states why it is sound.

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod matrix;
pub mod ops;
pub mod robust;
mod simd;
pub mod vecops;
pub mod view;

pub use matrix::Matrix;
pub use robust::{Aggregator, AGGREGATORS};
pub use simd::vector_level;
pub use view::MatrixView;
