//! Bridge between the algorithm run loops and `hm-checkpoint`.
//!
//! `hm-checkpoint` sits below this crate (it knows `hm-data` and
//! `hm-simnet` but not `History` or `EvalReport`), so the round history is
//! serialised here into a snapshot's named `extras` section using the
//! public byte primitives. The run loops interact with checkpointing
//! through three calls:
//!
//! 1. `ResumedRun::from_opts` at run start — decode the snapshot in
//!    `RunOpts::checkpoint.resume` (if any) into loop state, which
//!    `ResumedRun::check_shape` holds to the run's vector lengths and
//!    problem shape;
//! 2. `emit_preamble` — emit `run_start` (fresh) or an unsequenced
//!    `run_resume` (resumed) so later `checkpoint` events carry the same
//!    sequence numbers as the uninterrupted run's;
//! 3. `CheckpointCtx::after_round` at each round boundary — write a
//!    snapshot when the cadence says one is due.
//!
//! A failed snapshot *write* warns on stderr and lets training continue
//! (a checkpoint is insurance, not a correctness dependency); a corrupt
//! or mismatched snapshot *read* is a typed error long before any
//! training state is touched.

use crate::algorithms::{IterateAverage, RunOpts};
use crate::history::{History, RoundRecord};
use crate::metrics::EvalReport;
use crate::problem::FederatedProblem;
use hm_checkpoint::format::{ByteReader, ByteWriter};
use hm_checkpoint::{
    rng_cursors_for, snapshot_path, write_snapshot, Cadence, CheckpointError, Snapshot,
};
use hm_simnet::{ChurnStats, CommStats, FaultStats, QuarantineStats};
use hm_telemetry::{Telemetry, TelemetryEvent};
use std::path::PathBuf;
use std::sync::Arc;

/// Extras section name holding the serialised round history.
const HISTORY_SECTION: &str = "history";

/// Extras section name holding the base problem's shape: its edges,
/// clients per edge and model parameters, as three `u64`s. Every snapshot
/// carries it, so a resume onto a problem of another shape is refused
/// before round 0 even where the vector lengths agree.
const SHAPE_SECTION: &str = "shape";

/// The base problem's shape, named as [`ResumedRun::check_shape`] reports
/// a mismatch.
fn problem_shape(problem: &FederatedProblem) -> [(&'static str, u64); 3] {
    [
        ("edges", problem.num_edges() as u64),
        ("clients per edge", problem.clients_per_edge() as u64),
        ("model parameters", problem.num_params() as u64),
    ]
}

/// Extras section name holding the quarantine horizon table and the
/// cumulative adversary counters. Written only by runs with an active
/// adversary or quarantine pass, so adversary-off snapshots stay
/// byte-identical to pre-robust builds.
pub(crate) const QUARANTINE_SECTION: &str = "quarantine";

/// Serialise the quarantine horizon table (per-global-client first
/// re-admission round) plus the cumulative adversary counters.
pub(crate) fn encode_quarantine(until: &[u64], adv: &QuarantineStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(adv.corrupted_updates);
    w.put_u64(adv.quarantined_clients);
    w.put_u64(adv.excluded_uploads);
    w.put_u64(until.len() as u64);
    for &u in until {
        w.put_u64(u);
    }
    w.into_bytes()
}

/// Inverse of [`encode_quarantine`].
pub(crate) fn decode_quarantine(
    bytes: &[u8],
) -> Result<(Vec<u64>, QuarantineStats), CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let adv = QuarantineStats {
        corrupted_updates: r.get_u64()?,
        quarantined_clients: r.get_u64()?,
        excluded_uploads: r.get_u64()?,
    };
    let n = r.get_u64()? as usize;
    let mut until = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        until.push(r.get_u64()?);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(
            "trailing bytes after quarantine state".into(),
        ));
    }
    Ok((until, adv))
}

/// Extras section name holding the membership-churn state: the active
/// topology (edge up/down flags, per-edge member lists, join cursor), the
/// joiner provenance needed to re-mint shards, the cumulative churn
/// counters, and the run loop's consecutive stale-round counter. Written
/// only by runs with an active churn plan, so churn-off snapshots stay
/// byte-identical to pre-churn builds.
pub(crate) const CHURN_SECTION: &str = "churn";

/// Decoded contents of a snapshot's [`CHURN_SECTION`].
pub(crate) struct ChurnSnapshot {
    pub base_total: usize,
    pub edge_up: Vec<bool>,
    pub members: Vec<Vec<usize>>,
    pub next_join_id: usize,
    pub stats: ChurnStats,
    pub joined_src: Vec<(usize, usize)>,
    pub stale_rounds: u64,
}

/// Serialise the membership-churn state for [`CHURN_SECTION`].
pub(crate) fn encode_churn(
    base_total: usize,
    edge_up: &[bool],
    members: &[Vec<usize>],
    next_join_id: usize,
    stats: &ChurnStats,
    joined_src: &[(usize, usize)],
    stale_rounds: u64,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(base_total as u64);
    w.put_u64(edge_up.len() as u64);
    for &up in edge_up {
        w.put_u8(u8::from(up));
    }
    w.put_u64(members.len() as u64);
    for edge in members {
        w.put_u64(edge.len() as u64);
        for &gid in edge {
            w.put_u64(gid as u64);
        }
    }
    w.put_u64(next_join_id as u64);
    w.put_u64(stats.joined);
    w.put_u64(stats.left);
    w.put_u64(stats.edge_failures);
    w.put_u64(stats.rehomed);
    w.put_u64(stats.stranded);
    w.put_u64(joined_src.len() as u64);
    for &(gid, home) in joined_src {
        w.put_u64(gid as u64);
        w.put_u64(home as u64);
    }
    w.put_u64(stale_rounds);
    w.into_bytes()
}

/// Inverse of [`encode_churn`].
pub(crate) fn decode_churn(bytes: &[u8]) -> Result<ChurnSnapshot, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let base_total = r.get_u64()? as usize;
    let n_up = r.get_u64()? as usize;
    let mut edge_up = Vec::with_capacity(n_up.min(1 << 20));
    for _ in 0..n_up {
        edge_up.push(r.get_u8()? != 0);
    }
    let n_edges = r.get_u64()? as usize;
    let mut members = Vec::with_capacity(n_edges.min(1 << 20));
    for _ in 0..n_edges {
        let len = r.get_u64()? as usize;
        let mut edge = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            edge.push(r.get_u64()? as usize);
        }
        members.push(edge);
    }
    let next_join_id = r.get_u64()? as usize;
    let stats = ChurnStats {
        joined: r.get_u64()?,
        left: r.get_u64()?,
        edge_failures: r.get_u64()?,
        rehomed: r.get_u64()?,
        stranded: r.get_u64()?,
    };
    let n_joined = r.get_u64()? as usize;
    let mut joined_src = Vec::with_capacity(n_joined.min(1 << 20));
    for _ in 0..n_joined {
        let gid = r.get_u64()? as usize;
        let home = r.get_u64()? as usize;
        joined_src.push((gid, home));
    }
    let stale_rounds = r.get_u64()?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(
            "trailing bytes after churn state".into(),
        ));
    }
    if edge_up.len() != members.len() {
        return Err(CheckpointError::Malformed(format!(
            "churn state edge count mismatch: {} up-flags vs {} member lists",
            edge_up.len(),
            members.len()
        )));
    }
    Ok(ChurnSnapshot {
        base_total,
        edge_up,
        members,
        next_join_id,
        stats,
        joined_src,
        stale_rounds,
    })
}

/// Checkpoint settings carried in [`RunOpts`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Directory snapshots are written into (created on demand). `None`
    /// disables writing regardless of cadence.
    pub dir: Option<PathBuf>,
    /// How often to write (default: never).
    pub cadence: Cadence,
    /// Snapshot to resume from. Must satisfy
    /// [`Snapshot::validate_for`] the run's `(algorithm, seed, rounds)`;
    /// the run loops assert this, the CLI checks it up front for a typed
    /// error.
    pub resume: Option<Arc<Snapshot>>,
}

impl CheckpointOpts {
    /// Write snapshots under `dir` every `every` cloud rounds.
    pub fn writing(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            dir: Some(dir.into()),
            cadence: Cadence::every(every),
            ..Self::default()
        }
    }

    /// Resume from `snap` (validated by the run loop against its own
    /// identity).
    pub fn resuming(snap: Arc<Snapshot>) -> Self {
        Self {
            resume: Some(snap),
            ..Self::default()
        }
    }
}

/// Serialise a [`History`] into snapshot bytes.
pub fn encode_history(h: &History) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(h.rounds.len() as u64);
    for r in &h.rounds {
        w.put_u64(r.round as u64);
        w.put_u64(r.slots_done as u64);
        for row in r.comm.parts() {
            for v in row {
                w.put_u64(v);
            }
        }
        w.put_vec_f32(&r.p);
        match &r.eval {
            None => w.put_u8(0),
            Some(e) => {
                w.put_u8(1);
                w.put_vec_f64(&e.per_edge_accuracy);
                w.put_f64(e.average);
                w.put_f64(e.worst);
                w.put_f64(e.variance_pp);
            }
        }
    }
    w.into_bytes()
}

/// Inverse of [`encode_history`].
pub fn decode_history(bytes: &[u8]) -> Result<History, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u64()?;
    let mut history = History::default();
    for _ in 0..n {
        let round = r.get_u64()? as usize;
        let slots_done = r.get_u64()? as usize;
        let mut parts = [[0u64; 3]; 5];
        for row in parts.iter_mut() {
            for v in row.iter_mut() {
                *v = r.get_u64()?;
            }
        }
        let comm = CommStats::from_parts(parts);
        let p = r.get_vec_f32()?;
        let eval = match r.get_u8()? {
            0 => None,
            1 => Some(EvalReport {
                per_edge_accuracy: r.get_vec_f64()?,
                average: r.get_f64()?,
                worst: r.get_f64()?,
                variance_pp: r.get_f64()?,
            }),
            tag => {
                return Err(CheckpointError::Malformed(format!(
                    "bad eval presence tag {tag}"
                )))
            }
        };
        history.push(RoundRecord {
            round,
            slots_done,
            comm,
            p,
            eval,
        });
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(
            "trailing bytes after history".into(),
        ));
    }
    Ok(history)
}

/// Loop state decoded from a resume snapshot.
#[derive(Debug)]
pub(crate) struct ResumedRun {
    /// First round to execute.
    pub start_round: usize,
    /// Global model at the boundary.
    pub w: Vec<f32>,
    /// The unit weights `p` (per-client `q` for the two-layer minimax
    /// baselines; the uniform edge weights for a run with no dual step).
    pub p: Vec<f32>,
    /// Restored iterate-average accumulators.
    pub avg_w: IterateAverage,
    pub avg_p: IterateAverage,
    /// History through the boundary.
    pub history: History,
    /// Cumulative counters to restore into the meter / injector.
    pub comm: CommStats,
    pub faults: FaultStats,
    /// Telemetry position to continue the event sequence from.
    pub telemetry_seq: u64,
    /// The snapshot itself, for algorithm-specific extras.
    pub snap: Arc<Snapshot>,
}

impl ResumedRun {
    /// Decode `opts.checkpoint.resume` for a run identified by
    /// `(algorithm, seed, rounds)`, or `None` for a fresh start.
    ///
    /// # Panics
    /// Panics if the snapshot fails [`Snapshot::validate_for`] or its
    /// history section is missing/corrupt — callers that want a typed
    /// error (the CLI) validate before building `RunOpts`.
    pub fn from_opts(
        opts: &RunOpts,
        algorithm: &str,
        seed: u64,
        rounds: usize,
    ) -> Option<ResumedRun> {
        let snap = opts.checkpoint.resume.as_ref()?.clone();
        if let Err(e) = snap.validate_for(algorithm, seed, rounds) {
            panic!("cannot resume: {e}");
        }
        let history = snap
            .extra(HISTORY_SECTION)
            .ok_or_else(|| CheckpointError::Malformed("snapshot has no history section".into()))
            .and_then(decode_history)
            .unwrap_or_else(|e| panic!("cannot resume: {e}"));
        Some(ResumedRun {
            start_round: snap.next_round as usize,
            w: snap.w.clone(),
            p: snap.p.clone(),
            avg_w: IterateAverage::from_parts(snap.avg_w_sum.clone(), snap.avg_w_count),
            avg_p: IterateAverage::from_parts(snap.avg_p_sum.clone(), snap.avg_p_count),
            history,
            comm: snap.comm,
            faults: snap.faults,
            telemetry_seq: snap.telemetry_seq,
            snap,
        })
    }

    /// Check the snapshot against the run's shape: its vectors against
    /// the model's parameters, `p` unit weights and `areas` averaged
    /// weights, then its shape record against `problem`'s.
    ///
    /// # Panics
    /// Panics with `cannot resume: …`, naming the first field that
    /// differs, so a snapshot of another problem shape fails before round 0.
    pub(crate) fn check_shape(&self, problem: &FederatedProblem, p: usize, areas: usize) {
        let snap = &self.snap;
        let d = problem.num_params();
        for (field, len, want) in [
            ("w", snap.w.len(), d),
            ("p", snap.p.len(), p),
            ("avg_w_sum", snap.avg_w_sum.len(), d),
            ("avg_p_sum", snap.avg_p_sum.len(), areas),
        ] {
            assert!(
                len == want,
                "cannot resume: snapshot {field} has {len} entries, the run has {want}"
            );
        }
        // A snapshot written before the shape record has only its vectors
        // to check.
        let Some(bytes) = snap.extra(SHAPE_SECTION) else {
            return;
        };
        let mut r = ByteReader::new(bytes);
        for (field, want) in problem_shape(problem) {
            let got = r
                .get_u64()
                .unwrap_or_else(|e| panic!("cannot resume: shape record: {e}"));
            assert!(
                got == want,
                "cannot resume: snapshot has {got} {field}, the run has {want}"
            );
        }
    }
}

/// Emit the run preamble: `run_start` for a fresh run (resetting the
/// event counter), or an unsequenced `run_resume` continuing the
/// checkpointed sequence position.
pub(crate) fn emit_preamble(
    tel: &Telemetry,
    resumed: Option<&ResumedRun>,
    algorithm: &str,
    rounds: usize,
    n_edges: usize,
    num_params: usize,
    seed: u64,
) {
    match resumed {
        Some(rr) => {
            tel.set_seq(rr.telemetry_seq);
            let (next_round, seq) = (rr.start_round, rr.telemetry_seq);
            tel.record(|| TelemetryEvent::RunResume {
                algorithm: algorithm.to_string(),
                rounds,
                next_round,
                seed,
                seq,
            });
        }
        None => {
            tel.set_seq(0);
            tel.record(|| TelemetryEvent::RunStart {
                algorithm: algorithm.to_string(),
                rounds,
                n_edges,
                num_params,
                seed,
            });
        }
    }
}

/// Per-run checkpointing context held by a run loop.
pub(crate) struct CheckpointCtx<'a> {
    opts: &'a RunOpts,
    algorithm: &'a str,
    seed: u64,
    rounds: usize,
    /// The encoded [`SHAPE_SECTION`].
    shape: Vec<u8>,
}

impl<'a> CheckpointCtx<'a> {
    pub(crate) fn new(
        opts: &'a RunOpts,
        problem: &FederatedProblem,
        algorithm: &'a str,
        seed: u64,
        rounds: usize,
    ) -> Self {
        let mut shape = ByteWriter::new();
        for (_, n) in problem_shape(problem) {
            shape.put_u64(n);
        }
        Self {
            opts,
            algorithm,
            seed,
            rounds,
            shape: shape.into_bytes(),
        }
    }

    /// Write a snapshot after round `round` (0-based) completed, if the
    /// cadence says one is due. Never checkpoints the final round —
    /// there is nothing left to resume.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_round(
        &self,
        round: usize,
        w: &[f32],
        p: &[f32],
        avg_w: &IterateAverage,
        avg_p: &IterateAverage,
        history: &History,
        comm: CommStats,
        faults: FaultStats,
        extra_sections: Vec<(String, Vec<u8>)>,
    ) {
        let Some(dir) = &self.opts.checkpoint.dir else {
            return;
        };
        if !self.opts.checkpoint.cadence.due(round) || round + 1 >= self.rounds {
            return;
        }
        let tel = &self.opts.telemetry;
        let seq = tel.seq() + 1; // count includes the checkpoint event
        tel.record(|| TelemetryEvent::Checkpoint { round, seq });
        let (avg_w_sum, avg_w_count) = avg_w.parts();
        let (avg_p_sum, avg_p_count) = avg_p.parts();
        let mut extras = vec![(HISTORY_SECTION.to_string(), encode_history(history))];
        extras.extend(extra_sections);
        extras.push((SHAPE_SECTION.to_string(), self.shape.clone()));
        let snap = Snapshot {
            algorithm: self.algorithm.to_string(),
            seed: self.seed,
            total_rounds: self.rounds as u64,
            next_round: (round + 1) as u64,
            w: w.to_vec(),
            p: p.to_vec(),
            avg_w_sum: avg_w_sum.to_vec(),
            avg_w_count,
            avg_p_sum: avg_p_sum.to_vec(),
            avg_p_count,
            comm,
            faults,
            telemetry_seq: tel.seq(),
            rng_cursors: rng_cursors_for(self.seed, (round + 1) as u64),
            extras,
        };
        let path = snapshot_path(dir, self.algorithm, round + 1);
        let write_timer = self.opts.profile.start();
        if let Err(e) = write_snapshot(&path, &snap) {
            eprintln!(
                "warning: failed to write checkpoint {}: {e}",
                path.display()
            );
        }
        self.opts.profile.record(
            tel,
            hm_telemetry::Phase::CheckpointWrite,
            Some(round),
            None,
            write_timer,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_simnet::{CommMeter, Link};

    fn sample_history() -> History {
        let m = CommMeter::new();
        m.record_gather(Link::ClientEdge, 10, 4);
        m.record_round(Link::EdgeCloud);
        let mut h = History::default();
        h.push(RoundRecord {
            round: 0,
            slots_done: 4,
            comm: m.snapshot(),
            p: vec![0.5, 0.5],
            eval: None,
        });
        m.record_round(Link::EdgeCloud);
        h.push(RoundRecord {
            round: 1,
            slots_done: 8,
            comm: m.snapshot(),
            p: vec![0.25, 0.75],
            eval: Some(EvalReport::from_accuracies(vec![0.7, 0.9])),
        });
        h
    }

    #[test]
    fn history_roundtrip() {
        let h = sample_history();
        let bytes = encode_history(&h);
        let back = decode_history(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_history_roundtrip() {
        let h = History::default();
        assert_eq!(decode_history(&encode_history(&h)).unwrap(), h);
    }

    #[test]
    fn corrupt_history_is_typed_error() {
        let mut bytes = encode_history(&sample_history());
        bytes.truncate(bytes.len() - 1);
        assert!(decode_history(&bytes).is_err());
        assert!(decode_history(&[0, 0, 0]).is_err());
    }

    #[test]
    fn quarantine_roundtrip() {
        let until = vec![0u64, 7, 0, 12];
        let adv = QuarantineStats {
            corrupted_updates: 31,
            quarantined_clients: 2,
            excluded_uploads: 9,
        };
        let bytes = encode_quarantine(&until, &adv);
        let (u2, a2) = decode_quarantine(&bytes).unwrap();
        assert_eq!(u2, until);
        assert_eq!(a2, adv);
        // Truncated state is a typed error, not a panic.
        assert!(decode_quarantine(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_quarantine(&[1, 2]).is_err());
    }
}
