//! Deterministic counter-keyed RNG streams.
//!
//! Every stochastic choice in the workspace (data generation, mini-batch
//! sampling, client SGD noise, edge sampling, checkpoint indices) draws from
//! its own [`StreamRng`], derived from a [`StreamKey`]. Because streams are
//! keyed rather than shared, parallel client execution under rayon is
//! bit-reproducible: no stream is ever advanced by another thread.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded by running
//! SplitMix64 over the key fields — the seeding procedure the xoshiro
//! authors recommend. Both are implemented here (~60 lines) rather than
//! pulling `rand_xoshiro`, keeping the dependency set to the approved list.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding and for mixing key fields into seed material.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What a stream is used for. Keying on purpose keeps logically independent
/// random choices independent even when they share (round, entity) indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Dataset feature/label generation.
    DataGen,
    /// Train/test splitting and shuffling.
    Split,
    /// Mini-batch index sampling at a client.
    Batch,
    /// Model parameter initialisation.
    Init,
    /// Cloud sampling of participating edges (Phase 1).
    EdgeSampling,
    /// Cloud sampling of the loss-estimation edge set (Phase 2).
    LossEstSampling,
    /// Checkpoint index (c1, c2) sampling.
    Checkpoint,
    /// Stochastic quantization rounding.
    Quantize,
    /// Client dropout (crash/straggler) coin flips.
    Dropout,
    /// Edge-server outage windows (fault injection).
    EdgeOutage,
    /// Edge↔cloud message-loss coin flips, one stream per message channel
    /// (fault injection).
    MsgLoss,
    /// Per-client compute-slowdown draws (fault injection).
    Straggler,
    /// Per-client Byzantine-corruption coin flips (adversary injection).
    Adversary,
    /// Adversarial payload material: noise vectors, colluding directions
    /// (adversary injection).
    AdversaryPayload,
    /// Retry-backoff jitter draws on lossy links (fault injection).
    BackoffJitter,
    /// Membership-churn coin flips: client leaves, edge failures, join
    /// arrivals (churn injection).
    Churn,
    /// Data-shard generation for clients that join mid-run (churn
    /// injection; keyed by the joining client's global id).
    ChurnData,
    /// Anything else (tests, ad-hoc tools).
    Misc,
}

impl Purpose {
    fn tag(self) -> u64 {
        match self {
            Purpose::DataGen => 1,
            Purpose::Split => 2,
            Purpose::Batch => 3,
            Purpose::Init => 4,
            Purpose::EdgeSampling => 5,
            Purpose::LossEstSampling => 6,
            Purpose::Checkpoint => 7,
            Purpose::Misc => 8,
            Purpose::Quantize => 9,
            Purpose::Dropout => 10,
            Purpose::EdgeOutage => 11,
            Purpose::MsgLoss => 12,
            Purpose::Straggler => 13,
            Purpose::Adversary => 14,
            Purpose::AdversaryPayload => 15,
            Purpose::BackoffJitter => 16,
            Purpose::Churn => 17,
            Purpose::ChurnData => 18,
        }
    }
}

/// Fully-qualified identity of a random stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// Experiment master seed.
    pub master: u64,
    /// What the stream is for.
    pub purpose: Purpose,
    /// Training round (0 when not applicable).
    pub round: u64,
    /// Entity id: client index, edge index, etc. (0 when not applicable).
    pub entity: u64,
}

impl StreamKey {
    /// Key for a per-(round, entity) stream.
    pub fn new(master: u64, purpose: Purpose, round: u64, entity: u64) -> Self {
        Self {
            master,
            purpose,
            round,
            entity,
        }
    }

    /// Collapse the key into a 64-bit seed via SplitMix64 absorption.
    pub fn seed(&self) -> u64 {
        let mut s = self.master ^ 0x243F6A8885A308D3; // pi digits, arbitrary
        let mut out = splitmix64(&mut s);
        s ^= self.purpose.tag().wrapping_mul(0x452821E638D01377);
        out ^= splitmix64(&mut s);
        s ^= self.round.wrapping_mul(0x13198A2E03707344);
        out ^= splitmix64(&mut s);
        s ^= self.entity.wrapping_mul(0xA4093822299F31D0);
        out ^= splitmix64(&mut s);
        out
    }
}

/// xoshiro256** PRNG implementing the `rand` traits.
///
/// ```
/// use hm_data::rng::{Purpose, StreamRng};
///
/// // Streams are a pure function of their key: same key, same draws —
/// // regardless of what any other stream did.
/// let mut a = StreamRng::new(42, Purpose::Batch, /*round*/ 3, /*client*/ 7);
/// let mut b = StreamRng::new(42, Purpose::Batch, 3, 7);
/// assert_eq!(a.below(1000), b.below(1000));
///
/// // Different purposes decorrelate even with identical indices.
/// let mut c = StreamRng::new(42, Purpose::Init, 3, 7);
/// let _ = c.normal(); // an independent stream
/// ```
#[derive(Debug, Clone)]
pub struct StreamRng {
    s: [u64; 4],
}

impl StreamRng {
    /// Build the stream for a key.
    pub fn for_key(key: StreamKey) -> Self {
        Self::seed_from_u64(key.seed())
    }

    /// Convenience constructor from the key fields.
    pub fn new(master: u64, purpose: Purpose, round: u64, entity: u64) -> Self {
        Self::for_key(StreamKey::new(master, purpose, round, entity))
    }

    /// Export the generator's internal state ("cursor") — used by
    /// `hm-checkpoint` to fingerprint the keyed streams a resumed run will
    /// draw from.
    pub fn cursor(&self) -> [u64; 4] {
        self.s
    }

    /// Standard-normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // u1 in (0, 1]: avoid ln(0).
        let u1 = ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)` via Lemire-style rejection (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        // Rejection sampling on the widening multiply.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as usize;
            }
            let t = n.wrapping_neg() % n;
            if lo >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` uniformly (partial
    /// Fisher–Yates). Returned in random order.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {} of {}", k, n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Sample one index from a weight vector (weights ≥ 0, not necessarily
    /// normalised) by inverse-CDF on the running sum.
    ///
    /// # Panics
    /// Panics if the total weight is not positive and finite.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weighted sample needs positive finite total, got {total}"
        );
        let target = self.uniform() * total;
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if target < acc {
                return i;
            }
        }
        // Floating-point slack: return the last positive-weight index.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("at least one positive weight")
    }

    /// Sample `k` indices i.i.d. from a weight vector (with replacement).
    pub fn sample_weighted_with_replacement(&mut self, weights: &[f64], k: usize) -> Vec<usize> {
        (0..k).map(|_| self.sample_weighted(weights)).collect()
    }
}

impl RngCore for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for StreamRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        // All-zero state is a fixed point of xoshiro; remap it.
        if s.iter().all(|&x| x == 0) {
            s = [0x9E3779B97F4A7C15, 1, 2, 3];
        }
        Self { s }
    }

    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, Error> {
        let mut seed = [0u8; 32];
        rng.try_fill_bytes(&mut seed)?;
        Ok(Self::from_seed(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (cross-checked against the reference C).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = StreamRng::new(7, Purpose::Batch, 3, 11);
        let mut b = StreamRng::new(7, Purpose::Batch, 3, 11);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_keys_give_distinct_streams() {
        let first = |k: StreamKey| StreamRng::for_key(k).next_u64();
        let base = StreamKey::new(7, Purpose::Batch, 3, 11);
        let variants = [
            StreamKey::new(8, Purpose::Batch, 3, 11),
            StreamKey::new(7, Purpose::Init, 3, 11),
            StreamKey::new(7, Purpose::Batch, 4, 11),
            StreamKey::new(7, Purpose::Batch, 3, 12),
        ];
        for v in variants {
            assert_ne!(first(base), first(v), "collision for {v:?}");
        }
    }

    #[test]
    fn zero_seed_not_degenerate() {
        let mut r = StreamRng::from_seed([0u8; 32]);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_range_and_varied() {
        let mut r = StreamRng::new(1, Purpose::Misc, 0, 0);
        let xs: Vec<f64> = (0..1000).map(|_| r.uniform()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = StreamRng::new(2, Purpose::Misc, 0, 0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = StreamRng::new(3, Purpose::Misc, 0, 0);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.below(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        StreamRng::new(0, Purpose::Misc, 0, 0).below(0);
    }

    #[test]
    fn sample_without_replacement_distinct_and_complete() {
        let mut r = StreamRng::new(4, Purpose::Misc, 0, 0);
        let s = r.sample_without_replacement(10, 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_weighted_respects_zero_weights() {
        let mut r = StreamRng::new(5, Purpose::Misc, 0, 0);
        for _ in 0..1000 {
            let i = r.sample_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn sample_weighted_frequencies() {
        let mut r = StreamRng::new(6, Purpose::Misc, 0, 0);
        let w = [1.0, 3.0];
        let mut c1 = 0;
        let n = 40_000;
        for _ in 0..n {
            if r.sample_weighted(&w) == 1 {
                c1 += 1;
            }
        }
        let frac = c1 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StreamRng::new(7, Purpose::Misc, 0, 0);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50-element shuffle left input unchanged"
        );
    }

    proptest! {
        #[test]
        fn prop_below_in_range(n in 1usize..1000, seed in 0u64..500) {
            let mut r = StreamRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(r.below(n) < n);
            }
        }

        #[test]
        fn prop_swr_distinct(n in 1usize..50, seed in 0u64..500) {
            let mut r = StreamRng::seed_from_u64(seed);
            let k = (seed as usize % n) + 1;
            let s = r.sample_without_replacement(n, k.min(n));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), s.len());
            prop_assert!(s.iter().all(|&i| i < n));
        }

        #[test]
        fn prop_weighted_only_positive_support(seed in 0u64..500) {
            let mut r = StreamRng::seed_from_u64(seed);
            let w = [0.0, 2.0, 0.0, 5.0, 0.0];
            let i = r.sample_weighted(&w);
            prop_assert!(i == 1 || i == 3);
        }
    }
}
