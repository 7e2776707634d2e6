//! Communication metering.
//!
//! Every model broadcast, model upload, and scalar loss report in an
//! algorithm run is recorded here, per link type. Two aggregates matter for
//! the paper:
//!
//! - **cloud rounds** — synchronisation rounds on links that terminate at
//!   the cloud (`EdgeCloud` for hierarchical methods, `ClientCloud` for
//!   two-layer ones). This is the x-axis of Figs. 3–4 and the quantity
//!   Theorems 1–2 bound as `Θ(T^{1−α})`: cloud connectivity is the scarce
//!   resource in the client-edge-cloud motivation (§1), while client-edge
//!   links are cheap and local.
//! - **floats transferred** — a bandwidth-level measure used by the
//!   tradeoff bench and reported alongside rounds in EXPERIMENTS.md.
//!
//! A [`CommMeter`] is the shared, thread-safe recorder (atomic counters, so
//! rayon-parallel client work can meter without locks); [`CommStats`] is a
//! plain snapshot for history recording and assertions.

use std::sync::atomic::{AtomicU64, Ordering};

/// The three link types of the hierarchy. Two-layer baselines use
/// `ClientCloud`; hierarchical methods use `ClientEdge` + `EdgeCloud`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Client ↔ edge server (cheap, local).
    ClientEdge,
    /// Edge server ↔ cloud (expensive, scarce).
    EdgeCloud,
    /// Client ↔ cloud directly (two-layer architectures).
    ClientCloud,
}

impl Link {
    const COUNT: usize = 3;

    fn idx(self) -> usize {
        match self {
            Link::ClientEdge => 0,
            Link::EdgeCloud => 1,
            Link::ClientCloud => 2,
        }
    }

    /// All link types, in index order.
    pub fn all() -> [Link; 3] {
        [Link::ClientEdge, Link::EdgeCloud, Link::ClientCloud]
    }
}

/// Immutable snapshot of communication counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommStats {
    uplink_floats: [u64; Link::COUNT],
    downlink_floats: [u64; Link::COUNT],
    uplink_msgs: [u64; Link::COUNT],
    downlink_msgs: [u64; Link::COUNT],
    rounds: [u64; Link::COUNT],
}

impl CommStats {
    /// Floats sent towards the hub on a link.
    pub fn uplink_floats(&self, link: Link) -> u64 {
        self.uplink_floats[link.idx()]
    }

    /// Floats sent away from the hub on a link.
    pub fn downlink_floats(&self, link: Link) -> u64 {
        self.downlink_floats[link.idx()]
    }

    /// Uplink message count on a link.
    pub fn uplink_msgs(&self, link: Link) -> u64 {
        self.uplink_msgs[link.idx()]
    }

    /// Downlink message count on a link.
    pub fn downlink_msgs(&self, link: Link) -> u64 {
        self.downlink_msgs[link.idx()]
    }

    /// Synchronisation rounds recorded on a link.
    pub fn rounds(&self, link: Link) -> u64 {
        self.rounds[link.idx()]
    }

    /// Rounds on cloud-terminating links (`EdgeCloud + ClientCloud`) — the
    /// paper's "communication rounds" axis.
    pub fn cloud_rounds(&self) -> u64 {
        self.rounds(Link::EdgeCloud) + self.rounds(Link::ClientCloud)
    }

    /// Total rounds on every link.
    pub fn total_rounds(&self) -> u64 {
        self.rounds.iter().sum()
    }

    /// Total floats moved in either direction over all links.
    pub fn total_floats(&self) -> u64 {
        self.uplink_floats.iter().sum::<u64>() + self.downlink_floats.iter().sum::<u64>()
    }

    /// Floats moved on cloud-terminating links only.
    pub fn cloud_floats(&self) -> u64 {
        let e = Link::EdgeCloud.idx();
        let c = Link::ClientCloud.idx();
        self.uplink_floats[e]
            + self.downlink_floats[e]
            + self.uplink_floats[c]
            + self.downlink_floats[c]
    }

    /// Decompose into the five raw counter arrays, ordered
    /// `[uplink_floats, downlink_floats, uplink_msgs, downlink_msgs,
    /// rounds]` with `Link::idx` ordering inside each. The inverse of
    /// [`CommStats::from_parts`]; used by `hm-checkpoint` to serialise a
    /// snapshot without exposing the private fields.
    pub fn parts(&self) -> [[u64; Link::COUNT]; 5] {
        [
            self.uplink_floats,
            self.downlink_floats,
            self.uplink_msgs,
            self.downlink_msgs,
            self.rounds,
        ]
    }

    /// Rebuild a snapshot from [`CommStats::parts`].
    pub fn from_parts(parts: [[u64; Link::COUNT]; 5]) -> Self {
        CommStats {
            uplink_floats: parts[0],
            downlink_floats: parts[1],
            uplink_msgs: parts[2],
            downlink_msgs: parts[3],
            rounds: parts[4],
        }
    }

    /// Counter-wise difference `self − earlier` (for per-round deltas).
    ///
    /// # Panics
    /// Panics if any counter of `earlier` exceeds the corresponding one
    /// here (snapshots must be ordered).
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        let sub = |a: &[u64; 3], b: &[u64; 3]| -> [u64; 3] {
            [
                a[0].checked_sub(b[0]).expect("snapshot order"),
                a[1].checked_sub(b[1]).expect("snapshot order"),
                a[2].checked_sub(b[2]).expect("snapshot order"),
            ]
        };
        CommStats {
            uplink_floats: sub(&self.uplink_floats, &earlier.uplink_floats),
            downlink_floats: sub(&self.downlink_floats, &earlier.downlink_floats),
            uplink_msgs: sub(&self.uplink_msgs, &earlier.uplink_msgs),
            downlink_msgs: sub(&self.downlink_msgs, &earlier.downlink_msgs),
            rounds: sub(&self.rounds, &earlier.rounds),
        }
    }
}

/// Thread-safe communication recorder.
///
/// Counters are relaxed atomics: totals are exact because every increment
/// is independent (no cross-counter invariants are read mid-run), and
/// snapshots are taken only at round boundaries when client work has been
/// joined.
#[derive(Debug, Default)]
pub struct CommMeter {
    uplink_floats: [AtomicU64; Link::COUNT],
    downlink_floats: [AtomicU64; Link::COUNT],
    uplink_msgs: [AtomicU64; Link::COUNT],
    downlink_msgs: [AtomicU64; Link::COUNT],
    rounds: [AtomicU64; Link::COUNT],
}

impl CommMeter {
    /// New meter with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one uplink message of `floats` payload on a link.
    pub fn record_uplink(&self, link: Link, floats: u64) {
        self.uplink_floats[link.idx()].fetch_add(floats, Ordering::Relaxed);
        self.uplink_msgs[link.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one downlink message of `floats` payload on a link.
    pub fn record_downlink(&self, link: Link, floats: u64) {
        self.downlink_floats[link.idx()].fetch_add(floats, Ordering::Relaxed);
        self.downlink_msgs[link.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a broadcast: one downlink message to each of `recipients`.
    pub fn record_broadcast(&self, link: Link, floats_each: u64, recipients: u64) {
        self.downlink_floats[link.idx()].fetch_add(floats_each * recipients, Ordering::Relaxed);
        self.downlink_msgs[link.idx()].fetch_add(recipients, Ordering::Relaxed);
    }

    /// Record a gather: one uplink message from each of `senders`.
    pub fn record_gather(&self, link: Link, floats_each: u64, senders: u64) {
        self.uplink_floats[link.idx()].fetch_add(floats_each * senders, Ordering::Relaxed);
        self.uplink_msgs[link.idx()].fetch_add(senders, Ordering::Relaxed);
    }

    /// Record one synchronisation round on a link.
    pub fn record_round(&self, link: Link) {
        self.rounds[link.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` synchronisation rounds at once — for callers that know
    /// the round count in closed form (e.g. `τ2` aggregation blocks) and
    /// want one atomic update instead of `n`. Equivalent to calling
    /// [`CommMeter::record_round`] `n` times.
    pub fn record_rounds(&self, link: Link, n: u64) {
        self.rounds[link.idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite every counter with the values of a [`CommStats`]
    /// snapshot. Used when resuming a checkpointed run: the fresh meter is
    /// fast-forwarded to the totals the interrupted run had accumulated, so
    /// subsequent deltas and final totals are bit-identical to an
    /// uninterrupted run.
    ///
    /// Callers must ensure no concurrent recording is in flight (resume
    /// happens before any client work is spawned).
    pub fn restore(&self, stats: &CommStats) {
        let parts = stats.parts();
        let arrays = [
            &self.uplink_floats,
            &self.downlink_floats,
            &self.uplink_msgs,
            &self.downlink_msgs,
            &self.rounds,
        ];
        for (dst, src) in arrays.iter().zip(&parts) {
            for (d, &s) in dst.iter().zip(src) {
                d.store(s, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> CommStats {
        let read = |a: &[AtomicU64; 3]| -> [u64; 3] {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
            ]
        };
        CommStats {
            uplink_floats: read(&self.uplink_floats),
            downlink_floats: read(&self.downlink_floats),
            uplink_msgs: read(&self.uplink_msgs),
            downlink_msgs: read(&self.downlink_msgs),
            rounds: read(&self.rounds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Abstract operations for the model-based meter test.
    #[derive(Debug, Clone)]
    enum Op {
        Up(Link, u64),
        Down(Link, u64),
        Broadcast(Link, u64, u64),
        Gather(Link, u64, u64),
        Round(Link),
    }

    fn arb_link() -> impl Strategy<Value = Link> {
        prop_oneof![
            Just(Link::ClientEdge),
            Just(Link::EdgeCloud),
            Just(Link::ClientCloud)
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_link(), 0u64..1000).prop_map(|(l, f)| Op::Up(l, f)),
            (arb_link(), 0u64..1000).prop_map(|(l, f)| Op::Down(l, f)),
            (arb_link(), 0u64..100, 0u64..20).prop_map(|(l, f, r)| Op::Broadcast(l, f, r)),
            (arb_link(), 0u64..100, 0u64..20).prop_map(|(l, f, r)| Op::Gather(l, f, r)),
            arb_link().prop_map(Op::Round),
        ]
    }

    proptest! {
        /// Model-based check: the atomic meter agrees with a plain
        /// sequential model over arbitrary operation sequences.
        #[test]
        fn prop_meter_matches_reference_model(ops in prop::collection::vec(arb_op(), 0..64)) {
            let meter = CommMeter::new();
            let mut up = [0u64; 3];
            let mut down = [0u64; 3];
            let mut up_msgs = [0u64; 3];
            let mut down_msgs = [0u64; 3];
            let mut rounds = [0u64; 3];
            for op in &ops {
                match *op {
                    Op::Up(l, f) => {
                        meter.record_uplink(l, f);
                        up[l.idx()] += f;
                        up_msgs[l.idx()] += 1;
                    }
                    Op::Down(l, f) => {
                        meter.record_downlink(l, f);
                        down[l.idx()] += f;
                        down_msgs[l.idx()] += 1;
                    }
                    Op::Broadcast(l, f, r) => {
                        meter.record_broadcast(l, f, r);
                        down[l.idx()] += f * r;
                        down_msgs[l.idx()] += r;
                    }
                    Op::Gather(l, f, r) => {
                        meter.record_gather(l, f, r);
                        up[l.idx()] += f * r;
                        up_msgs[l.idx()] += r;
                    }
                    Op::Round(l) => {
                        meter.record_round(l);
                        rounds[l.idx()] += 1;
                    }
                }
            }
            let s = meter.snapshot();
            for link in Link::all() {
                let i = link.idx();
                prop_assert_eq!(s.uplink_floats(link), up[i]);
                prop_assert_eq!(s.downlink_floats(link), down[i]);
                prop_assert_eq!(s.uplink_msgs(link), up_msgs[i]);
                prop_assert_eq!(s.downlink_msgs(link), down_msgs[i]);
                prop_assert_eq!(s.rounds(link), rounds[i]);
            }
            prop_assert_eq!(s.total_rounds(), rounds.iter().sum::<u64>());
            prop_assert_eq!(
                s.cloud_rounds(),
                rounds[Link::EdgeCloud.idx()] + rounds[Link::ClientCloud.idx()]
            );
        }
    }

    #[test]
    fn fresh_meter_is_zero() {
        let m = CommMeter::new();
        let s = m.snapshot();
        assert_eq!(s.total_floats(), 0);
        assert_eq!(s.total_rounds(), 0);
        assert_eq!(s.cloud_rounds(), 0);
    }

    #[test]
    fn broadcast_and_gather_accounting() {
        let m = CommMeter::new();
        m.record_broadcast(Link::EdgeCloud, 100, 5);
        m.record_gather(Link::EdgeCloud, 100, 5);
        m.record_round(Link::EdgeCloud);
        let s = m.snapshot();
        assert_eq!(s.downlink_floats(Link::EdgeCloud), 500);
        assert_eq!(s.uplink_floats(Link::EdgeCloud), 500);
        assert_eq!(s.downlink_msgs(Link::EdgeCloud), 5);
        assert_eq!(s.uplink_msgs(Link::EdgeCloud), 5);
        assert_eq!(s.rounds(Link::EdgeCloud), 1);
        assert_eq!(s.cloud_rounds(), 1);
        assert_eq!(s.cloud_floats(), 1000);
    }

    #[test]
    fn cloud_rounds_ignore_client_edge() {
        let m = CommMeter::new();
        m.record_round(Link::ClientEdge);
        m.record_round(Link::ClientEdge);
        m.record_round(Link::ClientCloud);
        let s = m.snapshot();
        assert_eq!(s.cloud_rounds(), 1);
        assert_eq!(s.total_rounds(), 3);
    }

    #[test]
    fn since_computes_deltas() {
        let m = CommMeter::new();
        m.record_uplink(Link::ClientEdge, 10);
        let a = m.snapshot();
        m.record_uplink(Link::ClientEdge, 7);
        m.record_round(Link::EdgeCloud);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.uplink_floats(Link::ClientEdge), 7);
        assert_eq!(d.rounds(Link::EdgeCloud), 1);
    }

    #[test]
    #[should_panic(expected = "snapshot order")]
    fn since_rejects_reversed_snapshots() {
        let m = CommMeter::new();
        let a = m.snapshot();
        m.record_uplink(Link::ClientEdge, 1);
        let b = m.snapshot();
        let _ = a.since(&b);
    }

    #[test]
    fn concurrent_metering_is_exact() {
        use std::sync::Arc;
        let m = Arc::new(CommMeter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_uplink(Link::ClientEdge, 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.uplink_floats(Link::ClientEdge), 8 * 1000 * 3);
        assert_eq!(s.uplink_msgs(Link::ClientEdge), 8 * 1000);
    }
}
