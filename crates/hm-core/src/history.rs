//! Per-round training history and the derived headline quantities
//! ("communication rounds to reach X% worst accuracy").

use crate::metrics::EvalReport;
use hm_simnet::CommStats;
use std::fmt::Write as _;

/// Snapshot taken at the end of one training round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Training round index `k` (0-based).
    pub round: usize,
    /// Total time slots elapsed (`(k+1)·τ1·τ2` for hierarchical methods).
    pub slots_done: usize,
    /// Cumulative communication counters at the end of the round.
    pub comm: CommStats,
    /// The edge-weight vector after this round's update (uniform and
    /// constant for minimization baselines).
    pub p: Vec<f32>,
    /// Test evaluation, when this round was an evaluation round.
    pub eval: Option<EvalReport>,
}

/// The full per-round history of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// One record per training round, in order.
    pub rounds: Vec<RoundRecord>,
}

impl History {
    /// Append a record.
    ///
    /// # Panics
    /// Panics if rounds are appended out of order.
    pub fn push(&mut self, rec: RoundRecord) {
        if let Some(last) = self.rounds.last() {
            assert!(rec.round > last.round, "history rounds out of order");
        }
        self.rounds.push(rec);
    }

    /// Last evaluation report, if any round was evaluated.
    pub fn final_eval(&self) -> Option<&EvalReport> {
        self.rounds.iter().rev().find_map(|r| r.eval.as_ref())
    }

    /// Cloud communication rounds at the first evaluated round whose worst
    /// accuracy reaches `target` — the paper's headline metric ("to reach
    /// 80% worst accuracy, HierMinimax takes only 8200 communication
    /// rounds"). `None` when the target is never reached.
    pub fn cloud_rounds_to_worst(&self, target: f64) -> Option<u64> {
        self.cloud_rounds_to_worst_sustained(target, 1)
    }

    /// Like [`History::cloud_rounds_to_worst`], but requires `consecutive`
    /// successive evaluations at or above the target, which filters the
    /// single-evaluation noise spikes of small test sets. Returns the cloud
    /// rounds at the *first* evaluation of the sustained run.
    pub fn cloud_rounds_to_worst_sustained(&self, target: f64, consecutive: usize) -> Option<u64> {
        assert!(consecutive >= 1, "need at least one evaluation");
        let evald: Vec<&RoundRecord> = self.rounds.iter().filter(|r| r.eval.is_some()).collect();
        let mut streak = 0usize;
        for (i, r) in evald.iter().enumerate() {
            if r.eval.as_ref().expect("filtered").worst >= target {
                streak += 1;
                if streak >= consecutive {
                    return Some(evald[i + 1 - consecutive].comm.cloud_rounds());
                }
            } else {
                streak = 0;
            }
        }
        None
    }

    /// Series of `(cloud_rounds, worst, average)` at evaluated rounds — the
    /// data behind Figs. 3 and 4.
    pub fn accuracy_series(&self) -> Vec<(u64, f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| {
                r.eval
                    .as_ref()
                    .map(|e| (r.comm.cloud_rounds(), e.worst, e.average))
            })
            .collect()
    }

    /// CSV dump (one line per evaluated round) for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("round,slots,cloud_rounds,total_floats,worst_acc,avg_acc,variance_pp\n");
        for r in &self.rounds {
            if let Some(e) = &r.eval {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.6},{:.6},{:.4}",
                    r.round,
                    r.slots_done,
                    r.comm.cloud_rounds(),
                    r.comm.total_floats(),
                    e.worst,
                    e.average,
                    e.variance_pp
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_simnet::{CommMeter, Link};

    fn rec(round: usize, cloud_rounds: u64, worst: f64) -> RoundRecord {
        let m = CommMeter::new();
        for _ in 0..cloud_rounds {
            m.record_round(Link::EdgeCloud);
        }
        RoundRecord {
            round,
            slots_done: (round + 1) * 4,
            comm: m.snapshot(),
            p: vec![0.5, 0.5],
            eval: Some(EvalReport::from_accuracies(vec![worst, worst + 0.1])),
        }
    }

    #[test]
    fn rounds_to_target() {
        let mut h = History::default();
        h.push(rec(0, 2, 0.3));
        h.push(rec(1, 4, 0.5));
        h.push(rec(2, 6, 0.8));
        assert_eq!(h.cloud_rounds_to_worst(0.5), Some(4));
        assert_eq!(h.cloud_rounds_to_worst(0.79), Some(6));
        assert_eq!(h.cloud_rounds_to_worst(0.95), None);
    }

    #[test]
    fn final_eval_picks_last_evaluated() {
        let mut h = History::default();
        h.push(rec(0, 2, 0.3));
        let mut quiet = rec(1, 4, 0.9);
        quiet.eval = None;
        h.push(quiet);
        assert!((h.final_eval().unwrap().worst - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut h = History::default();
        h.push(rec(1, 2, 0.5));
        h.push(rec(0, 4, 0.5));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut h = History::default();
        h.push(rec(0, 2, 0.3));
        let csv = h.to_csv();
        assert!(csv.starts_with("round,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn accuracy_series_extracts_pairs() {
        let mut h = History::default();
        h.push(rec(0, 2, 0.3));
        h.push(rec(1, 5, 0.6));
        let s = h.accuracy_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].0, 5);
        assert!((s[1].1 - 0.6).abs() < 1e-12);
    }
}
