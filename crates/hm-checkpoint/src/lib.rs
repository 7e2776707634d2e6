//! Crash-consistent checkpoint/resume for hierarchical minimax training.
//!
//! A checkpoint is a versioned, checksummed binary snapshot of everything
//! a cloud-round boundary owns: model weights, dual weights, the
//! iterate-average accumulators, communication and fault counters, the
//! telemetry sequence position, and fingerprints of the keyed RNG streams
//! the next round will open. Because all randomness in this workspace is
//! a pure function of `(seed, purpose, round, entity)`, restoring that
//! state and re-entering the loop at `next_round` reproduces the
//! uninterrupted run bit for bit.
//!
//! What a snapshot deliberately does **not** capture:
//!
//! - the telemetry sink — an external event stream; a resumed run
//!   re-emits only rounds `next_round..`, and consumers splice the
//!   pre-crash prefix with the post-resume suffix (the conformance
//!   checker in `hm-testkit` validates such splices);
//! - wall-clock timings — nondeterministic by nature;
//! - the dataset — regenerated deterministically from the seed.
//!
//! Files are written atomically (tmp + fsync + rename) so a crash during
//! checkpointing leaves the previous snapshot intact, and loading
//! validates magic, CRC32, and format version before touching the
//! payload — corruption yields a typed [`CheckpointError`], never a
//! panic or a silent partial load.

mod error;
pub mod format;
mod io;
mod snapshot;

pub use error::CheckpointError;
pub use io::{
    from_file_bytes, read_snapshot, to_file_bytes, write_snapshot, FORMAT_VERSION, MAGIC,
};
pub use snapshot::{rng_cursors_for, RngCursor, Snapshot, FINGERPRINT_PURPOSES};

use std::path::{Path, PathBuf};

/// How often a run writes checkpoints: every `every` cloud rounds
/// (`every == 0` disables writing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cadence {
    /// Write a snapshot after every `every`-th cloud round; 0 = never.
    pub every: usize,
}

impl Cadence {
    /// Cadence writing every `every` rounds.
    pub fn every(every: usize) -> Self {
        Self { every }
    }

    /// Whether a snapshot is due after round `round` (0-based) completes.
    pub fn due(&self, round: usize) -> bool {
        self.every > 0 && (round + 1).is_multiple_of(self.every)
    }
}

/// Canonical file name for a snapshot taken after `completed` rounds of
/// algorithm `algorithm` (lower-cased, non-alphanumerics mapped to `-`).
pub fn snapshot_filename(algorithm: &str, completed: usize) -> String {
    let slug: String = algorithm
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("{slug}-round-{completed:06}.hmck")
}

/// Canonical path of a snapshot inside checkpoint directory `dir`.
pub fn snapshot_path(dir: &Path, algorithm: &str, completed: usize) -> PathBuf {
    dir.join(snapshot_filename(algorithm, completed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_due_schedule() {
        let c = Cadence::every(3);
        let due: Vec<usize> = (0..10).filter(|&k| c.due(k)).collect();
        assert_eq!(due, vec![2, 5, 8]);
        assert!(!Cadence::default().due(0));
        assert!(!Cadence::every(0).due(5));
        let every_round = Cadence::every(1);
        assert!((0..5).all(|k| every_round.due(k)));
    }

    #[test]
    fn filename_slugging() {
        assert_eq!(
            snapshot_filename("HierMinimax", 12),
            "hierminimax-round-000012.hmck"
        );
        assert_eq!(
            snapshot_filename("Stochastic-AFL", 3),
            "stochastic-afl-round-000003.hmck"
        );
        assert_eq!(
            snapshot_filename("q-FedAvg", 100),
            "q-fedavg-round-000100.hmck"
        );
    }
}
