//! The snapshot payload: everything a cloud-round boundary owns.
//!
//! Because every random draw in the workspace is a pure function of
//! `(master seed, purpose, round, entity)` and no RNG object survives a
//! round boundary, resuming does not require restoring generator state —
//! replaying from the stored round index reproduces every stream exactly.
//! The snapshot therefore stores RNG *cursors* as fingerprints: the
//! initial state of each keyed stream the next round will open. On resume
//! they are recomputed from `(seed, next_round)` and compared, catching a
//! snapshot paired with the wrong seed or round before any work runs.

use crate::error::CheckpointError;
use crate::format::{ByteReader, ByteWriter};
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::{CommStats, FaultStats};

/// Fingerprint of one keyed RNG stream: the xoshiro256** state the stream
/// starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngCursor {
    /// Index into [`FINGERPRINT_PURPOSES`].
    pub purpose_tag: u8,
    /// The stream's initial state, from [`StreamRng::cursor`].
    pub cursor: [u64; 4],
}

/// The per-round streams fingerprinted in every snapshot: the two sampling
/// streams and the checkpoint-index stream of the training loop, plus the
/// four fault-injection decision streams.
pub const FINGERPRINT_PURPOSES: [Purpose; 7] = [
    Purpose::EdgeSampling,
    Purpose::Checkpoint,
    Purpose::LossEstSampling,
    Purpose::Dropout,
    Purpose::EdgeOutage,
    Purpose::MsgLoss,
    Purpose::Straggler,
];

/// Compute the stream fingerprints a run with this `seed` will open at
/// round `next_round` (entity 0 of each purpose).
pub fn rng_cursors_for(seed: u64, next_round: u64) -> Vec<RngCursor> {
    FINGERPRINT_PURPOSES
        .iter()
        .enumerate()
        .map(|(i, &purpose)| RngCursor {
            purpose_tag: i as u8,
            cursor: StreamRng::for_key(StreamKey::new(seed, purpose, next_round, 0)).cursor(),
        })
        .collect()
}

/// A crash-consistent snapshot of a training run at a cloud-round
/// boundary (after round `next_round - 1` completed, before `next_round`
/// starts).
///
/// The flat fair baselines (DRFA, Stochastic-AFL) store their per-client
/// weight vector `q` in [`Snapshot::p`]; run state that does not fit the
/// common shape (e.g. the stale-round streak or the churn topology) rides
/// in [`Snapshot::extras`] as named opaque sections encoded with the
/// [`crate::format`] primitives.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `Algorithm::name()` of the run that wrote the snapshot.
    pub algorithm: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Total rounds the run was configured for.
    pub total_rounds: u64,
    /// First round the resumed run executes (= rounds completed).
    pub next_round: u64,
    /// Global model `w^(next_round)`.
    pub w: Vec<f32>,
    /// Dual weights at the boundary (per edge/group, or per client for the
    /// flat fair baselines).
    pub p: Vec<f32>,
    /// Iterate-average accumulator for `ŵ`: running f64 sum.
    pub avg_w_sum: Vec<f64>,
    /// Number of iterates folded into `avg_w_sum`.
    pub avg_w_count: u64,
    /// Iterate-average accumulator for `p̂`: running f64 sum.
    pub avg_p_sum: Vec<f64>,
    /// Number of iterates folded into `avg_p_sum`.
    pub avg_p_count: u64,
    /// Cumulative communication totals at the boundary.
    pub comm: CommStats,
    /// Cumulative injected-fault bookkeeping at the boundary.
    pub faults: FaultStats,
    /// Telemetry events emitted so far (including the `checkpoint` event
    /// that announced this snapshot). Zero when telemetry is disabled.
    pub telemetry_seq: u64,
    /// Stream fingerprints for `next_round` (see [`rng_cursors_for`]).
    pub rng_cursors: Vec<RngCursor>,
    /// Named opaque sections (history, algorithm-specific state).
    pub extras: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Look up a named extras section.
    pub fn extra(&self, name: &str) -> Option<&[u8]> {
        self.extras
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Check that this snapshot belongs to the run about to resume it:
    /// same algorithm, seed, and round budget; a sane round index; and
    /// RNG stream fingerprints that match what `(seed, next_round)`
    /// regenerates.
    pub fn validate_for(
        &self,
        algorithm: &str,
        seed: u64,
        total_rounds: usize,
    ) -> Result<(), CheckpointError> {
        if self.algorithm != algorithm {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot is from algorithm {:?}, run is {algorithm:?}",
                self.algorithm
            )));
        }
        if self.seed != seed {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot seed {} != run seed {seed}",
                self.seed
            )));
        }
        if self.total_rounds != total_rounds as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot round budget {} != run budget {total_rounds}",
                self.total_rounds
            )));
        }
        if self.next_round >= self.total_rounds {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot already covers all {} rounds (next_round {})",
                self.total_rounds, self.next_round
            )));
        }
        if self.rng_cursors != rng_cursors_for(seed, self.next_round) {
            return Err(CheckpointError::Mismatch(
                "RNG stream fingerprints do not match (seed, next_round)".into(),
            ));
        }
        Ok(())
    }

    /// Encode the payload (everything after the file header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.algorithm);
        w.put_u64(self.seed);
        w.put_u64(self.total_rounds);
        w.put_u64(self.next_round);
        w.put_vec_f32(&self.w);
        w.put_vec_f32(&self.p);
        w.put_vec_f64(&self.avg_w_sum);
        w.put_u64(self.avg_w_count);
        w.put_vec_f64(&self.avg_p_sum);
        w.put_u64(self.avg_p_count);
        for row in self.comm.parts() {
            for v in row {
                w.put_u64(v);
            }
        }
        w.put_u64(self.faults.crashes);
        w.put_u64(self.faults.outages);
        w.put_u64(self.faults.retries);
        w.put_u64(self.faults.gave_up);
        w.put_u64(self.faults.deadline_missed);
        w.put_f64(self.faults.backoff_s);
        w.put_f64(self.faults.straggler_slots);
        w.put_u64(self.telemetry_seq);
        w.put_u64(self.rng_cursors.len() as u64);
        for c in &self.rng_cursors {
            w.put_u8(c.purpose_tag);
            for s in c.cursor {
                w.put_u64(s);
            }
        }
        w.put_u64(self.extras.len() as u64);
        for (name, bytes) in &self.extras {
            w.put_str(name);
            w.put_bytes(bytes);
        }
        w.into_bytes()
    }

    /// Decode a payload produced by [`Snapshot::encode`]. Rejects trailing
    /// bytes: the payload length is part of the format.
    pub fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(payload);
        let algorithm = r.get_str()?;
        let seed = r.get_u64()?;
        let total_rounds = r.get_u64()?;
        let next_round = r.get_u64()?;
        let w = r.get_vec_f32()?;
        let p = r.get_vec_f32()?;
        let avg_w_sum = r.get_vec_f64()?;
        let avg_w_count = r.get_u64()?;
        let avg_p_sum = r.get_vec_f64()?;
        let avg_p_count = r.get_u64()?;
        let mut comm_parts = [[0u64; 3]; 5];
        for row in comm_parts.iter_mut() {
            for v in row.iter_mut() {
                *v = r.get_u64()?;
            }
        }
        let comm = CommStats::from_parts(comm_parts);
        let faults = FaultStats {
            crashes: r.get_u64()?,
            outages: r.get_u64()?,
            retries: r.get_u64()?,
            gave_up: r.get_u64()?,
            deadline_missed: r.get_u64()?,
            backoff_s: r.get_f64()?,
            straggler_slots: r.get_f64()?,
        };
        let telemetry_seq = r.get_u64()?;
        let n_cursors = r.get_u64()?;
        if n_cursors > 64 {
            return Err(CheckpointError::Malformed(format!(
                "implausible cursor count {n_cursors}"
            )));
        }
        let mut rng_cursors = Vec::with_capacity(n_cursors as usize);
        for _ in 0..n_cursors {
            let purpose_tag = r.get_u8()?;
            let mut cursor = [0u64; 4];
            for s in cursor.iter_mut() {
                *s = r.get_u64()?;
            }
            rng_cursors.push(RngCursor {
                purpose_tag,
                cursor,
            });
        }
        let n_extras = r.get_u64()?;
        if n_extras > 1024 {
            return Err(CheckpointError::Malformed(format!(
                "implausible extras count {n_extras}"
            )));
        }
        let mut extras = Vec::with_capacity(n_extras as usize);
        for _ in 0..n_extras {
            let name = r.get_str()?;
            let bytes = r.get_bytes()?;
            extras.push((name, bytes));
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after payload",
                r.remaining()
            )));
        }
        Ok(Snapshot {
            algorithm,
            seed,
            total_rounds,
            next_round,
            w,
            p,
            avg_w_sum,
            avg_w_count,
            avg_p_sum,
            avg_p_count,
            comm,
            faults,
            telemetry_seq,
            rng_cursors,
            extras,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> Snapshot {
        Snapshot {
            algorithm: "HierMinimax".into(),
            seed: 42,
            total_rounds: 10,
            next_round: 4,
            w: vec![0.5, -1.25, 3.0],
            p: vec![0.25, 0.75],
            avg_w_sum: vec![1.0, 2.0, 3.0],
            avg_w_count: 4,
            avg_p_sum: vec![0.5, 3.5],
            avg_p_count: 4,
            comm: CommStats::from_parts([
                [1, 2, 3],
                [4, 5, 6],
                [7, 8, 9],
                [10, 11, 12],
                [13, 14, 15],
            ]),
            faults: FaultStats {
                crashes: 1,
                outages: 2,
                retries: 3,
                gave_up: 4,
                deadline_missed: 5,
                backoff_s: 0.5,
                straggler_slots: 1.5,
            },
            telemetry_seq: 99,
            rng_cursors: rng_cursors_for(42, 4),
            extras: vec![("history".into(), vec![1, 2, 3, 4])],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample_snapshot();
        let payload = snap.encode();
        let back = Snapshot::decode(&payload).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn validate_for_accepts_matching_run() {
        let snap = sample_snapshot();
        snap.validate_for("HierMinimax", 42, 10).unwrap();
    }

    #[test]
    fn validate_for_rejects_mismatches() {
        let snap = sample_snapshot();
        for (alg, seed, rounds) in [
            ("HierFAVG", 42, 10),
            ("HierMinimax", 7, 10),
            ("HierMinimax", 42, 20),
        ] {
            let err = snap.validate_for(alg, seed, rounds).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        }
    }

    #[test]
    fn validate_for_rejects_completed_run() {
        let mut snap = sample_snapshot();
        snap.next_round = 10;
        snap.rng_cursors = rng_cursors_for(42, 10);
        let err = snap.validate_for("HierMinimax", 42, 10).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn validate_for_rejects_forged_round_index() {
        // A forged next_round with unchanged fingerprints must be caught.
        let mut snap = sample_snapshot();
        snap.next_round = 5;
        let err = snap.validate_for("HierMinimax", 42, 10).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let snap = sample_snapshot();
        let mut payload = snap.encode();
        payload.push(0);
        assert!(matches!(
            Snapshot::decode(&payload),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn cursors_differ_across_rounds_and_purposes() {
        let a = rng_cursors_for(1, 0);
        let b = rng_cursors_for(1, 1);
        assert_eq!(a.len(), FINGERPRINT_PURPOSES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.cursor, y.cursor, "round must decorrelate streams");
        }
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i].cursor, a[j].cursor, "purposes must decorrelate");
            }
        }
    }
}
