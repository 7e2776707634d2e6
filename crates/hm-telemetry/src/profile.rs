//! Per-phase runtime profiling: span timers, fixed-bucket histograms, and
//! the [`Profiler`] handle run loops carry next to [`Telemetry`].
//!
//! The design constraints mirror the rest of this crate:
//!
//! - **Provably inert.** A disabled profiler is a `None`: timers never read
//!   the clock and `record` is one branch. An *enabled* profiler emits its
//!   [`TelemetryEvent::Span`] / [`TelemetryEvent::ProfileSummary`] events
//!   *unsequenced*, so the sequenced event stream — and with it checkpoint
//!   `seq` values, resume splices, and conformance digests — is
//!   bit-identical between profiled and unprofiled runs
//!   (`tests/profile.rs` proves this on both executors, with and without
//!   faults).
//! - **No dependencies.** Quantiles come from a small fixed log-spaced
//!   bucket histogram, not a sketch library: bucket 0 holds spans below
//!   1 µs and every later bucket doubles the bound, so 40 buckets cover
//!   1 µs … ≈ 9 minutes with ≤ 2× relative error on p50/p90/p99.
//! - **Deterministic payloads aside from the clock.** All spans are
//!   recorded from the coordinator thread in a fixed order (worker-side
//!   chain timings are measured in the worker but recorded after the
//!   join, in edge order), so two profiled runs differ only in measured
//!   durations, never in event order or shape.

use crate::event::TelemetryEvent;
use crate::json::ObjWriter;
use crate::sink::Telemetry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Number of histogram buckets per phase.
pub const HIST_BUCKETS: usize = 40;
/// Upper bound of bucket 0 in seconds; bucket `i` spans
/// `[HIST_BASE_S * 2^(i-1), HIST_BASE_S * 2^i)`.
pub const HIST_BASE_S: f64 = 1e-6;

/// The profiled phases, one per span taxonomy entry (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One full cloud round (phase 1 + phase 2 + bookkeeping).
    Round,
    /// Phase-1 participant/checkpoint sampling and broadcast setup.
    Phase1Sampling,
    /// One edge's local-SGD chain (all `τ2` blocks), per edge.
    LocalSgdChain,
    /// Cloud-side aggregation of edge results.
    Aggregation,
    /// Phase-2 loss estimation and the projected dual ascent step.
    DualUpdate,
    /// Held-out evaluation snapshot.
    Eval,
    /// Crash-consistent snapshot serialization + atomic write.
    CheckpointWrite,
    /// Fault-injected delivery retry loops (time spent re-attempting).
    FaultRetry,
}

impl Phase {
    /// Every phase, in canonical summary order.
    pub const ALL: [Phase; 8] = [
        Phase::Round,
        Phase::Phase1Sampling,
        Phase::LocalSgdChain,
        Phase::Aggregation,
        Phase::DualUpdate,
        Phase::Eval,
        Phase::CheckpointWrite,
        Phase::FaultRetry,
    ];

    /// The tag this phase serializes under in `span` events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::Phase1Sampling => "phase1_sampling",
            Phase::LocalSgdChain => "local_sgd_chain",
            Phase::Aggregation => "aggregation",
            Phase::DualUpdate => "dual_update",
            Phase::Eval => "eval",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::FaultRetry => "fault_retry",
        }
    }

    /// Position in [`Phase::ALL`] for `tag`, used to order summaries
    /// canonically; unknown tags sort after every known phase.
    fn order(tag: &str) -> usize {
        Phase::ALL
            .iter()
            .position(|p| p.as_str() == tag)
            .unwrap_or(Phase::ALL.len())
    }
}

/// Aggregate statistics for one phase, as carried by
/// [`TelemetryEvent::ProfileSummary`] and rendered by `hm-cli report`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAgg {
    /// Phase tag (a [`Phase::as_str`] value, or an unknown tag when
    /// re-aggregated from a future stream).
    pub phase: String,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations in seconds.
    pub total_s: f64,
    /// Shortest span.
    pub min_s: f64,
    /// Longest span.
    pub max_s: f64,
    /// Estimated median (histogram bucket upper bound, clamped to max).
    pub p50_s: f64,
    /// Estimated 90th percentile.
    pub p90_s: f64,
    /// Estimated 99th percentile.
    pub p99_s: f64,
}

/// Serialize a summary's phase list as a JSON array (fixed key order).
pub fn phases_to_json(phases: &[PhaseAgg]) -> String {
    let mut out = String::from("[");
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut w = ObjWriter::new();
        w.str("phase", &p.phase)
            .u64("count", p.count)
            .f64("total_s", p.total_s)
            .f64("min_s", p.min_s)
            .f64("max_s", p.max_s)
            .f64("p50_s", p.p50_s)
            .f64("p90_s", p.p90_s)
            .f64("p99_s", p.p99_s);
        out.push_str(&w.finish());
    }
    out.push(']');
    out
}

/// Histogram bucket index for a duration: 0 below [`HIST_BASE_S`], then
/// one bucket per doubling, saturating at the last bucket.
fn bucket_for(seconds: f64) -> usize {
    if seconds.is_nan() || seconds <= HIST_BASE_S {
        return 0;
    }
    let b = 1 + (seconds / HIST_BASE_S).log2().floor() as usize;
    b.min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in seconds.
fn bucket_upper(i: usize) -> f64 {
    HIST_BASE_S * (1u64 << i) as f64
}

#[derive(Debug, Clone)]
struct PhaseAcc {
    count: u64,
    total_s: f64,
    min_s: f64,
    max_s: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl PhaseAcc {
    fn new() -> Self {
        Self {
            count: 0,
            total_s: 0.0,
            min_s: f64::INFINITY,
            max_s: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn add(&mut self, seconds: f64) {
        let s = seconds.max(0.0);
        self.count += 1;
        self.total_s += s;
        self.min_s = self.min_s.min(s);
        self.max_s = self.max_s.max(s);
        self.buckets[bucket_for(s)] += 1;
    }

    /// Smallest bucket upper bound covering quantile `q` of the recorded
    /// spans, clamped into the observed `[min, max]` range.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).clamp(self.min_s, self.max_s);
            }
        }
        self.max_s
    }

    fn agg(&self, phase: &str) -> PhaseAgg {
        PhaseAgg {
            phase: phase.to_string(),
            count: self.count,
            total_s: self.total_s,
            min_s: if self.count == 0 { 0.0 } else { self.min_s },
            max_s: self.max_s,
            p50_s: self.quantile(0.50),
            p90_s: self.quantile(0.90),
            p99_s: self.quantile(0.99),
        }
    }
}

/// Accumulates spans into per-phase aggregates. Used live by the
/// [`Profiler`] and offline by `hm-cli report`, which re-aggregates the
/// `span` events of any telemetry stream (including spliced crash/resume
/// streams whose final `profile_summary` covers only the resumed suffix).
#[derive(Debug, Clone, Default)]
pub struct SpanAggregator {
    accs: BTreeMap<String, PhaseAcc>,
}

impl SpanAggregator {
    /// Empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span of `seconds` under `phase`.
    pub fn add(&mut self, phase: &str, seconds: f64) {
        self.accs
            .entry(phase.to_string())
            .or_insert_with(PhaseAcc::new)
            .add(seconds);
    }

    /// `true` when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.accs.is_empty()
    }

    /// Per-phase aggregates in canonical order ([`Phase::ALL`] first,
    /// unknown tags after, alphabetically).
    pub fn summary(&self) -> Vec<PhaseAgg> {
        let mut phases: Vec<PhaseAgg> = self.accs.iter().map(|(tag, a)| a.agg(tag)).collect();
        phases.sort_by(|a, b| {
            (Phase::order(&a.phase), a.phase.as_str())
                .cmp(&(Phase::order(&b.phase), b.phase.as_str()))
        });
        phases
    }
}

/// Cheap, cloneable profiling handle carried in `RunOpts` next to the
/// telemetry handle.
///
/// Disabled (the default) it is a `None`: [`Profiler::start`] never reads
/// the clock and [`Profiler::record`] is one branch. Enabled, it
/// accumulates per-phase aggregates and emits unsequenced `span` events
/// through whatever [`Telemetry`] handle the caller passes (a disabled
/// telemetry handle drops the events but keeps the aggregates, so
/// `--profile` works without `--telemetry`).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Mutex<SpanAggregator>>>,
}

impl Profiler {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with an empty aggregator.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(SpanAggregator::new()))),
        }
    }

    /// `true` when profiling is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a span timer. Disabled handles return a timer that never
    /// touched the clock.
    #[inline]
    pub fn start(&self) -> SpanTimer {
        SpanTimer::start(self.inner.is_some())
    }

    /// Close `timer` and record it under `phase`, emitting an unsequenced
    /// `span` event through `tel`. No-op when disabled.
    #[inline]
    pub fn record(
        &self,
        tel: &Telemetry,
        phase: Phase,
        round: Option<usize>,
        entity: Option<usize>,
        timer: SpanTimer,
    ) {
        if self.inner.is_some() {
            self.record_secs(tel, phase, round, entity, timer.elapsed_s());
        }
    }

    /// Record an externally measured duration (e.g. a chain timed inside a
    /// rayon worker and reported after the join). No-op when disabled.
    pub fn record_secs(
        &self,
        tel: &Telemetry,
        phase: Phase,
        round: Option<usize>,
        entity: Option<usize>,
        elapsed_s: f64,
    ) {
        if let Some(inner) = &self.inner {
            inner.lock().add(phase.as_str(), elapsed_s);
            tel.record(|| TelemetryEvent::Span {
                phase: phase.as_str().to_string(),
                round,
                entity,
                elapsed_s,
            });
        }
    }

    /// Snapshot of the per-phase aggregates so far (empty when disabled).
    pub fn summary(&self) -> Vec<PhaseAgg> {
        match &self.inner {
            Some(inner) => inner.lock().summary(),
            None => Vec::new(),
        }
    }

    /// Emit the end-of-run [`TelemetryEvent::ProfileSummary`]
    /// (unsequenced). No-op when disabled or when nothing was recorded.
    pub fn emit_summary(&self, tel: &Telemetry) {
        if let Some(inner) = &self.inner {
            let phases = inner.lock().summary();
            if !phases.is_empty() {
                tel.record(|| TelemetryEvent::ProfileSummary { phases });
            }
        }
    }
}

/// Scoped monotonic timer handed out by [`Profiler::start`] and
/// [`Telemetry::timer`].
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// A timer that reads the clock only when `on`.
    pub(crate) fn start(on: bool) -> Self {
        SpanTimer(on.then(Instant::now))
    }

    /// Seconds since the timer was started; `0.0` if started disabled.
    pub fn elapsed_s(&self) -> f64 {
        match self.0 {
            Some(t0) => t0.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        p.record(&tel, Phase::Round, Some(0), None, p.start());
        p.record_secs(&tel, Phase::Eval, None, None, 1.0);
        p.emit_summary(&tel);
        assert!(sink.is_empty(), "disabled profiler must emit nothing");
        assert!(p.summary().is_empty());
    }

    #[test]
    fn spans_are_emitted_unsequenced() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let p = Profiler::enabled();
        p.record_secs(&tel, Phase::Round, Some(3), None, 0.25);
        p.record_secs(&tel, Phase::LocalSgdChain, Some(3), Some(1), 0.125);
        p.emit_summary(&tel);
        assert_eq!(tel.seq(), 0, "profiling must not advance the sequence");
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            TelemetryEvent::Span { phase, round: Some(3), entity: None, elapsed_s }
                if phase == "round" && *elapsed_s == 0.25
        ));
        assert!(
            matches!(&events[2], TelemetryEvent::ProfileSummary { phases } if phases.len() == 2)
        );
    }

    #[test]
    fn aggregates_track_count_total_min_max() {
        let p = Profiler::enabled();
        let tel = Telemetry::disabled();
        for s in [0.010, 0.020, 0.040] {
            p.record_secs(&tel, Phase::Aggregation, None, None, s);
        }
        let summary = p.summary();
        assert_eq!(summary.len(), 1);
        let a = &summary[0];
        assert_eq!(a.phase, "aggregation");
        assert_eq!(a.count, 3);
        assert!((a.total_s - 0.070).abs() < 1e-12);
        assert_eq!(a.min_s, 0.010);
        assert_eq!(a.max_s, 0.040);
        // Quantile estimates are clamped into the observed range.
        assert!(a.p50_s >= a.min_s && a.p50_s <= a.max_s);
        assert!(a.p99_s >= a.p50_s && a.p99_s <= a.max_s);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut agg = SpanAggregator::new();
        // 99 spans of ~1 ms, one of ~1 s: p50/p90 near 1 ms, p99+ sees 1 s.
        for _ in 0..99 {
            agg.add("round", 1.0e-3);
        }
        agg.add("round", 1.0);
        let a = &agg.summary()[0];
        assert!(a.p50_s < 4.0e-3, "p50 {} should be ~1ms", a.p50_s);
        assert!(a.p90_s < 4.0e-3, "p90 {} should be ~1ms", a.p90_s);
        assert!(a.p99_s < 4.0e-3, "p99 covers the 99th of 100 spans");
        assert_eq!(a.max_s, 1.0);
    }

    #[test]
    fn summary_orders_phases_canonically() {
        let mut agg = SpanAggregator::new();
        for tag in ["eval", "round", "zz_future_phase", "aggregation"] {
            agg.add(tag, 0.5);
        }
        let order: Vec<String> = agg.summary().into_iter().map(|a| a.phase).collect();
        assert_eq!(order, ["round", "aggregation", "eval", "zz_future_phase"]);
    }

    #[test]
    fn bucket_edges_saturate() {
        assert_eq!(bucket_for(0.0), 0);
        assert_eq!(bucket_for(-1.0), 0);
        assert_eq!(bucket_for(HIST_BASE_S), 0);
        assert_eq!(bucket_for(1e9), HIST_BUCKETS - 1);
        assert!(bucket_for(2.5e-6) >= 1);
    }

    #[test]
    fn phase_tags_round_trip_through_order() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(Phase::order(p.as_str()), i);
        }
        assert_eq!(Phase::order("not_a_phase"), Phase::ALL.len());
    }

    #[test]
    fn summary_json_parses_and_validates_shape() {
        let mut agg = SpanAggregator::new();
        agg.add("round", 0.125);
        let json = phases_to_json(&agg.summary());
        let v = crate::json::parse(&json).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("phase").unwrap().as_str(), Some("round"));
        assert_eq!(arr[0].get("count").unwrap().as_u64(), Some(1));
        assert_eq!(arr[0].get("total_s").unwrap().as_f64(), Some(0.125));
    }
}
