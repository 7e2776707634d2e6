//! Mini-batch sampling.
//!
//! Local SGD at a client (eq. 4 of the paper) consumes a fresh mini-batch
//! `ξ_n^{(t)}` per step, drawn i.i.d. from the client's local distribution.
//! We sample indices uniformly **with replacement** from the client's local
//! dataset, which is the sampling model under which the paper's bounded
//! stochastic-gradient-variance assumption (Assumption 4) is stated.

use crate::dataset::Dataset;
use crate::rng::StreamRng;

/// Draw a mini-batch of `batch_size` samples (with replacement) from `data`.
///
/// # Panics
/// Panics if `data` is empty or `batch_size == 0`.
pub fn sample_batch(data: &Dataset, batch_size: usize, rng: &mut StreamRng) -> Dataset {
    let mut scratch = BatchScratch::new();
    sample_batch_into(data, batch_size, rng, &mut scratch);
    scratch.batch
}

/// Reusable mini-batch storage: the sampled index buffer plus the gathered
/// batch itself. One `BatchScratch` held across the τ1 local steps makes
/// batch sampling allocation-free after the first draw.
#[derive(Debug)]
pub struct BatchScratch {
    /// Index buffer refilled on every draw.
    pub idx: Vec<usize>,
    /// The gathered mini-batch (rows copied out of the source dataset).
    pub batch: Dataset,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            idx: Vec::new(),
            batch: Dataset {
                x: hm_tensor::Matrix::zeros(0, 0),
                y: Vec::new(),
                num_classes: 1,
            },
        }
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Draw a mini-batch into `scratch.batch`, reusing its buffers. The RNG draw
/// order matches [`sample_batch`] exactly, so both produce identical batches
/// from identical streams.
///
/// # Panics
/// Panics if `data` is empty or `batch_size == 0`.
pub fn sample_batch_into(
    data: &Dataset,
    batch_size: usize,
    rng: &mut StreamRng,
    scratch: &mut BatchScratch,
) {
    assert!(
        !data.is_empty(),
        "cannot sample a batch from an empty dataset"
    );
    assert!(batch_size > 0, "batch_size must be positive");
    scratch.idx.clear();
    scratch
        .idx
        .extend((0..batch_size).map(|_| rng.below(data.len())));
    data.subset_into(&scratch.idx, &mut scratch.batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Purpose, StreamRng};
    use hm_tensor::Matrix;

    fn toy(n: usize) -> Dataset {
        Dataset::new(Matrix::from_fn(n, 1, |r, _| r as f32), vec![0; n], 1)
    }

    #[test]
    fn batch_has_requested_size_and_valid_rows() {
        let d = toy(5);
        let mut rng = StreamRng::new(0, Purpose::Batch, 0, 0);
        let b = sample_batch(&d, 8, &mut rng);
        assert_eq!(b.len(), 8);
        assert!(b.x.as_slice().iter().all(|&v| v < 5.0));
    }

    #[test]
    fn batches_are_deterministic_per_stream() {
        let d = toy(10);
        let mut r1 = StreamRng::new(3, Purpose::Batch, 1, 2);
        let mut r2 = StreamRng::new(3, Purpose::Batch, 1, 2);
        let a = sample_batch(&d, 4, &mut r1);
        let b = sample_batch(&d, 4, &mut r2);
        assert_eq!(a.x.max_abs_diff(&b.x), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(Matrix::zeros(0, 1), vec![], 1);
        let mut rng = StreamRng::new(0, Purpose::Batch, 0, 0);
        let _ = sample_batch(&d, 1, &mut rng);
    }
}
