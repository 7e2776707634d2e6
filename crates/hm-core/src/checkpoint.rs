//! Bridge between the round driver and `hm-checkpoint`.
//!
//! `hm-checkpoint` sits below this crate (it knows `hm-data` and
//! `hm-simnet` but not `History` or `EvalReport`), so the round history
//! and the driver's extra state are serialised here into a snapshot's
//! named `extras` sections using the public byte primitives; this module
//! holds every section codec. The driver interacts with checkpointing
//! through three calls:
//!
//! 1. `CheckpointCtx::resume` before round 0 — decode the snapshot in
//!    `RunOpts::checkpoint.resume` against the run: its identity, vector
//!    lengths and shape record, and every section. It is the one reader of
//!    a snapshot's sections, and it refuses a snapshot whose state the run
//!    would drop;
//! 2. `CheckpointCtx::preamble` — emit `run_start` (fresh) or an unsequenced
//!    `run_resume` (resumed) so later `checkpoint` events carry the same
//!    sequence numbers as the uninterrupted run's;
//! 3. `CheckpointCtx::after_round` at each round boundary — write a
//!    snapshot when the cadence says one is due.
//!
//! A failed snapshot *write* warns on stderr and lets training continue
//! (a checkpoint is insurance, not a correctness dependency); a corrupt
//! or mismatched snapshot *read* is a typed `ResumeError` long before
//! any training state is touched.

use crate::algorithms::{IterateAverage, RunOpts};
use crate::history::{History, RoundRecord};
use crate::metrics::EvalReport;
use crate::problem::FederatedProblem;
use hm_checkpoint::format::{ByteReader, ByteWriter};
use hm_checkpoint::{
    rng_cursors_for, snapshot_path, write_snapshot, Cadence, CheckpointError, Snapshot,
};
use hm_simnet::{ChurnStats, CommStats, FaultStats, QuarantineStats};
use hm_telemetry::TelemetryEvent;
use std::path::PathBuf;
use std::sync::Arc;

/// Extras section name holding the serialised round history.
const HISTORY_SECTION: &str = "history";

/// Extras section name holding the base problem's shape: its edges,
/// clients per edge and model parameters, as three `u64`s. Every snapshot
/// carries it, so a resume onto a problem of another shape is refused
/// before round 0 even where the vector lengths agree.
const SHAPE_SECTION: &str = "shape";

/// The base problem's shape, named as [`CheckpointCtx::resume`] reports a
/// mismatch.
fn problem_shape(problem: &FederatedProblem) -> [(&'static str, u64); 3] {
    [
        ("edges", problem.num_edges() as u64),
        ("clients per edge", problem.clients_per_edge() as u64),
        ("model parameters", problem.num_params() as u64),
    ]
}

/// Extras section name holding the stale-round streak of a run with a
/// `max_stale_rounds` cap and no churn, as one `u64` (the churn section
/// carries it otherwise). Uncapped runs do not write it.
const STALE_SECTION: &str = "stale_rounds";

/// `value`, if `r` has read all of `what`'s section: a section's length
/// is part of its format.
fn finish<T>(r: &ByteReader<'_>, what: &str, value: T) -> Result<T, CheckpointError> {
    match r.remaining() {
        0 => Ok(value),
        _ => Err(CheckpointError::Malformed(format!(
            "trailing bytes after {what}"
        ))),
    }
}

/// Serialise a record of `u64`s: the shape and stale-round sections.
fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    values.iter().for_each(|&v| w.put_u64(v));
    w.into_bytes()
}

/// Inverse of [`encode_u64s`] for a record of `N` values.
fn decode_u64s<const N: usize>(bytes: &[u8], what: &str) -> Result<[u64; N], CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let mut values = [0; N];
    for v in &mut values {
        *v = r.get_u64()?;
    }
    finish(&r, what, values)
}

/// Extras section name holding the quarantine horizon table and the
/// cumulative adversary counters. Written only by runs with an active
/// adversary or quarantine pass, so adversary-off snapshots stay
/// byte-identical to pre-robust builds.
const QUARANTINE_SECTION: &str = "quarantine";

/// Serialise the quarantine horizon table (per-global-client first
/// re-admission round) plus the cumulative adversary counters.
fn encode_quarantine(until: &[u64], adv: &QuarantineStats) -> Vec<u8> {
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
fn decode_quarantine(bytes: &[u8]) -> Result<(Vec<u64>, QuarantineStats), CheckpointError> {
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
    finish(&r, "quarantine state", (until, adv))
}

/// Extras section name holding the membership-churn state: the active
/// topology (edge up/down flags, per-edge member lists, join cursor), the
/// joiner provenance needed to re-mint shards, the cumulative churn
/// counters, and the run loop's consecutive stale-round counter. Written
/// only by runs with an active churn plan, so churn-off snapshots stay
/// byte-identical to pre-churn builds.
const CHURN_SECTION: &str = "churn";

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
    let churn = ChurnSnapshot {
        base_total,
        edge_up,
        members,
        next_join_id,
        stats,
        joined_src,
        stale_rounds,
    };
    finish(&r, "churn state", churn)
}

/// Checkpoint settings carried in [`RunOpts`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Directory snapshots are written into (created on demand). `None`
    /// disables writing regardless of cadence.
    pub dir: Option<PathBuf>,
    /// How often to write (default: never).
    pub cadence: Cadence,
    /// Snapshot to resume from. It must belong to the run: its identity
    /// ([`Snapshot::validate_for`] the run's `(algorithm, seed, rounds)`),
    /// vector lengths, problem shape and sections are checked before
    /// round 0, by [`MethodRun::check`] and by the run itself, which panic
    /// with `cannot resume: …` on a mismatch.
    ///
    /// [`MethodRun::check`]: crate::algorithms::MethodRun::check
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

    /// Resume from `snap` (checked against the run before round 0).
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
    finish(&r, "history", history)
}

/// Why a snapshot cannot resume a run: the text after `cannot resume: `.
#[derive(Debug)]
pub(crate) enum ResumeError {
    /// The snapshot belongs to another run, or a section fails to decode.
    Checkpoint(CheckpointError),
    /// A record fails to decode: its name and the error.
    Record(&'static str, CheckpointError),
    /// The snapshot's state does not fit the run: what differs.
    Mismatch(String),
}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "{e}"),
            ResumeError::Record(name, e) => write!(f, "{name}: {e}"),
            ResumeError::Mismatch(why) => f.write_str(why),
        }
    }
}

/// A resume snapshot's state, decoded and checked against its run by
/// [`CheckpointCtx::resume`].
pub(crate) struct Resume {
    /// First round to execute.
    pub next_round: usize,
    pub w: Vec<f32>,
    /// The unit weights (the uniform edge weights without a dual step).
    pub p: Vec<f32>,
    pub avg_w: IterateAverage,
    pub avg_p: IterateAverage,
    pub history: History,
    pub comm: CommStats,
    pub faults: FaultStats,
    pub adversary: QuarantineStats,
    /// Telemetry position to continue the event sequence from.
    pub telemetry_seq: u64,
    /// The quarantine horizon table, empty for a run without the pass.
    pub until: Vec<u64>,
    /// The membership state, exactly for a run with a churn plan.
    pub churn: Option<ChurnSnapshot>,
    /// Consecutive stale rounds at the boundary.
    pub stale_rounds: u64,
}

/// The driver's state beyond a snapshot's common fields, one entry per
/// extras section it may write.
pub(crate) struct Extras<'a> {
    /// The quarantine horizon table and the cumulative adversary counters,
    /// for a run with a quarantine pass or an adversary.
    pub quarantine: Option<(&'a [u64], QuarantineStats)>,
    /// The encoded membership state of a churn run.
    pub churn: Option<Vec<u8>>,
    /// The stale-round streak of a capped run without churn.
    pub stale_rounds: Option<u64>,
}

/// Per-run checkpointing context held by the round driver: the run's
/// identity and shape, which every snapshot it writes records and every
/// snapshot it resumes must match.
pub(crate) struct CheckpointCtx<'a> {
    opts: &'a RunOpts,
    algorithm: &'a str,
    seed: u64,
    rounds: usize,
    shape: [(&'static str, u64); 3],
}

impl<'a> CheckpointCtx<'a> {
    pub(crate) fn new(
        opts: &'a RunOpts,
        problem: &FederatedProblem,
        algorithm: &'a str,
        seed: u64,
        rounds: usize,
    ) -> Self {
        Self {
            opts,
            algorithm,
            seed,
            rounds,
            shape: problem_shape(problem),
        }
    }

    /// Decode `snap` against this run, whose `p` has `p` entries, whose
    /// averaged weights have `areas`, whose quarantine pass tracks
    /// `quarantined` clients (0 without one) and which has a churn plan
    /// when `churn`. Checks, in order: the identity
    /// ([`Snapshot::validate_for`]), the vector lengths, the shape record,
    /// and the history, quarantine, churn and stale-round sections.
    ///
    /// The one reader of a snapshot's sections. It returns all of the
    /// snapshot's state or refuses it: a run cannot drop a quarantine
    /// table or a churn section, nor start one the snapshot lacks.
    pub(crate) fn resume(
        &self,
        snap: &Snapshot,
        p: usize,
        areas: usize,
        quarantined: usize,
        churn: bool,
    ) -> Result<Resume, ResumeError> {
        let mismatch = |why: String| Err(ResumeError::Mismatch(why));
        snap.validate_for(self.algorithm, self.seed, self.rounds)?;
        let [(_, edges), (_, per_edge), (_, d)] = self.shape;
        for (field, len, want) in [
            ("w", snap.w.len(), d as usize),
            ("p", snap.p.len(), p),
            ("avg_w_sum", snap.avg_w_sum.len(), d as usize),
            ("avg_p_sum", snap.avg_p_sum.len(), areas),
        ] {
            if len != want {
                return mismatch(format!(
                    "snapshot {field} has {len} entries, the run has {want}"
                ));
            }
        }
        // A snapshot written before the shape record has only its vectors
        // to check.
        if let Some(bytes) = snap.extra(SHAPE_SECTION) {
            let got = decode_u64s::<3>(bytes, "shape")
                .map_err(|e| ResumeError::Record("shape record", e))?;
            for ((field, want), got) in self.shape.into_iter().zip(got) {
                if got != want {
                    return mismatch(format!("snapshot has {got} {field}, the run has {want}"));
                }
            }
        }
        let history = snap
            .extra(HISTORY_SECTION)
            .ok_or_else(|| CheckpointError::Malformed("snapshot has no history section".into()))
            .and_then(decode_history)?;
        let (until, adversary) = match snap.extra(QUARANTINE_SECTION) {
            Some(bytes) => decode_quarantine(bytes)?,
            None => (Vec::new(), QuarantineStats::default()),
        };
        // A quarantine pass needs a horizon table for each of its clients
        // (churn may have grown it past them); a run without one would
        // drop the table.
        let n = until.len();
        if quarantined == 0 && n > 0 {
            return mismatch(format!(
                "snapshot has a quarantine table of {n} clients, the run has no quarantine"
            ));
        }
        if n < quarantined {
            return mismatch(format!(
                "snapshot has a quarantine table of {n} clients, the run quarantines {quarantined}"
            ));
        }
        let churn_state = snap.extra(CHURN_SECTION).map(decode_churn).transpose()?;
        match &churn_state {
            None if churn => {
                return mismatch("snapshot has no churn section, the run has a churn plan".into())
            }
            Some(_) if !churn => {
                return mismatch("snapshot has a churn section, the run has no churn plan".into())
            }
            Some(c)
                if [c.edge_up.len(), c.members.len(), c.base_total]
                    != [edges, edges, edges * per_edge].map(|n| n as usize) =>
            {
                return mismatch(format!(
                    "snapshot churn state has {} up-flags, {} member lists and {} base \
                     clients, the run has {edges} edges of {per_edge} clients",
                    c.edge_up.len(),
                    c.members.len(),
                    c.base_total
                ));
            }
            _ => {}
        }
        let stale = match snap.extra(STALE_SECTION) {
            Some(bytes) => decode_u64s::<1>(bytes, "stale-round streak")
                .map_err(|e| ResumeError::Record("stale-round streak", e))?[0],
            None => 0,
        };
        Ok(Resume {
            next_round: snap.next_round as usize,
            w: snap.w.clone(),
            p: snap.p.clone(),
            avg_w: IterateAverage::from_parts(snap.avg_w_sum.clone(), snap.avg_w_count),
            avg_p: IterateAverage::from_parts(snap.avg_p_sum.clone(), snap.avg_p_count),
            history,
            comm: snap.comm,
            faults: snap.faults,
            adversary,
            telemetry_seq: snap.telemetry_seq,
            until,
            stale_rounds: churn_state.as_ref().map_or(stale, |c| c.stale_rounds),
            churn: churn_state,
        })
    }

    /// Emit the run preamble for a run reporting `n_areas` weights:
    /// `run_start` for a fresh run (resetting the event counter), or an
    /// unsequenced `run_resume` continuing the resumed sequence position.
    pub(crate) fn preamble(&self, resumed: Option<&Resume>, n_areas: usize) {
        let (tel, algorithm) = (&self.opts.telemetry, self.algorithm);
        let (rounds, seed) = (self.rounds, self.seed);
        match resumed {
            Some(r) => {
                tel.set_seq(r.telemetry_seq);
                let (next_round, seq) = (r.next_round, r.telemetry_seq);
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
                    n_edges: n_areas,
                    num_params: self.shape[2].1 as usize,
                    seed,
                });
            }
        }
    }

    /// Write a snapshot after round `round` (0-based) completed, if the
    /// cadence says one is due, with the sections `extras` returns (called
    /// only then). Never checkpoints the final round — there is nothing
    /// left to resume.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_round<'e>(
        &self,
        round: usize,
        w: &[f32],
        p: &[f32],
        avg_w: &IterateAverage,
        avg_p: &IterateAverage,
        history: &History,
        comm: CommStats,
        faults: FaultStats,
        extras: impl FnOnce() -> Extras<'e>,
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
        let x = extras();
        let sections = [
            Some((HISTORY_SECTION, encode_history(history))),
            x.quarantine
                .map(|(until, adv)| (QUARANTINE_SECTION, encode_quarantine(until, &adv))),
            x.churn.map(|bytes| (CHURN_SECTION, bytes)),
            x.stale_rounds
                .map(|stale| (STALE_SECTION, encode_u64s(&[stale]))),
            Some((SHAPE_SECTION, encode_u64s(&self.shape.map(|(_, n)| n)))),
        ];
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
            extras: sections
                .into_iter()
                .flatten()
                .map(|(name, bytes)| (name.to_string(), bytes))
                .collect(),
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
