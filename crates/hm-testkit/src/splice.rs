//! Telemetry splicing for resumed runs, and the wall-clock scrub.
//!
//! A killed run's stream covers rounds `0..k` through the `checkpoint`
//! event of the snapshot it left; the run resumed from that snapshot
//! opens with an unsequenced `run_resume` and covers `k..K`. The
//! full-run view is their concatenation at that boundary, which
//! [`splice`] performs; the conformance replay then checks the spliced
//! stream exactly as it would an uninterrupted one. Because resume is
//! bit-identical, an honest splice equals the uninterrupted stream up to
//! its `checkpoint` events and wall-clock fields ([`scrub`]); a forged
//! splice (a skipped or repeated round) desynchronizes the round-indexed
//! replay and is rejected.

use hm_telemetry::TelemetryEvent;

/// Splice the stream of a run killed before round `kill` with the stream
/// of the run resumed from its round-`kill` snapshot: `writer` through its
/// `checkpoint` event for round `kill − 1`, then `resumed` after its
/// `run_resume` preamble.
///
/// # Panics
/// Panics if `writer` has no such `checkpoint` event or `resumed` does
/// not open with `run_resume`.
pub fn splice(
    writer: &[TelemetryEvent],
    resumed: &[TelemetryEvent],
    kill: usize,
) -> Vec<TelemetryEvent> {
    let cut = writer
        .iter()
        .position(|e| matches!(e, TelemetryEvent::Checkpoint { round, .. } if *round + 1 == kill))
        .unwrap_or_else(|| panic!("writer stream lacks the round-{kill} checkpoint event"))
        + 1;
    assert!(
        matches!(resumed.first(), Some(TelemetryEvent::RunResume { .. })),
        "resumed stream must open with run_resume, got {:?}",
        resumed.first()
    );
    let mut out = writer[..cut].to_vec();
    out.extend_from_slice(&resumed[1..]);
    out
}

/// Zero the wall-clock `elapsed_s` fields — the only payloads that are
/// not a pure function of the run — so streams compare bit for bit.
pub fn scrub(mut ev: TelemetryEvent) -> TelemetryEvent {
    match &mut ev {
        TelemetryEvent::Phase1Done { elapsed_s, .. }
        | TelemetryEvent::DualUpdate { elapsed_s, .. }
        | TelemetryEvent::RoundEnd { elapsed_s, .. }
        | TelemetryEvent::RunEnd { elapsed_s, .. } => *elapsed_s = 0.0,
        _ => {}
    }
    ev
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resume(next_round: usize) -> TelemetryEvent {
        TelemetryEvent::RunResume {
            algorithm: "HierMinimax".into(),
            rounds: 3,
            next_round,
            seed: 1,
            seq: 0,
        }
    }

    fn ckpt(round: usize) -> TelemetryEvent {
        TelemetryEvent::Checkpoint { round, seq: 0 }
    }

    fn start(round: usize) -> TelemetryEvent {
        TelemetryEvent::RoundStart { round }
    }

    #[test]
    fn splice_cuts_after_the_checkpoint_and_drops_the_preamble() {
        let writer = [start(0), ckpt(0), start(1), ckpt(1), start(2)];
        let resumed = [resume(1), start(1), start(2)];
        assert_eq!(
            splice(&writer, &resumed, 1),
            vec![start(0), ckpt(0), start(1), start(2)]
        );
    }

    #[test]
    #[should_panic(expected = "round-3 checkpoint")]
    fn splice_needs_the_checkpoint_event() {
        splice(&[start(0), ckpt(0)], &[resume(3)], 3);
    }

    #[test]
    fn scrub_zeroes_wall_clock_only() {
        let done = |elapsed_s| TelemetryEvent::Phase1Done {
            round: 2,
            w_digest: 9,
            nonfinite: 0,
            elapsed_s,
        };
        assert_eq!(scrub(done(0.25)), done(0.0));
        assert_eq!(scrub(start(4)), start(4));
    }
}
