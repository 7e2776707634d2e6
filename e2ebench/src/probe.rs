//! Measurement hooks that sit on the program's own injection points: a
//! sink that stamps evaluations, a timing wrapper around any sink, a
//! timing wrapper around the model, and the span arithmetic that turns
//! profiler phases into self time.

use crate::workload::Shape;
use hierminimax::core::History;
use hierminimax::data::{Dataset, StreamRng};
use hierminimax::nn::{Model, Workspace};
use hierminimax::telemetry::{Sink, TelemetryEvent};
use hierminimax::tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `eval` event as the stamping sink saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStamp {
    /// Round index.
    pub round: usize,
    /// Worst-edge accuracy.
    pub worst: f64,
    /// When the event arrived.
    pub at: Instant,
}

/// Sink that stamps every `eval` event with the wall clock and keeps the
/// `sim_s` of every `round_end`, optionally teeing everything to a second
/// sink (the JSONL file of the workloads that write one).
#[derive(Debug, Default)]
pub struct StampSink {
    evals: Mutex<Vec<EvalStamp>>,
    sim_s: Mutex<Vec<(usize, f64)>>,
    tee: Option<Arc<dyn Sink>>,
}

impl StampSink {
    /// A stamping sink forwarding every event to `tee`, if given.
    pub fn new(tee: Option<Arc<dyn Sink>>) -> Self {
        Self {
            tee,
            ..Self::default()
        }
    }

    /// The eval stamps, in arrival order.
    pub fn evals(&self) -> Vec<EvalStamp> {
        self.evals.lock().expect("no emitter panicked").clone()
    }

    /// `sim_s` of the `round_end` event of `round`.
    pub fn sim_s_at(&self, round: usize) -> Option<f64> {
        let sims = self.sim_s.lock().expect("no emitter panicked");
        sims.iter().find(|(r, _)| *r == round).map(|(_, s)| *s)
    }
}

impl Sink for StampSink {
    fn emit(&self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::Eval { round, worst, .. } => {
                let at = Instant::now();
                self.evals
                    .lock()
                    .expect("no emitter panicked")
                    .push(EvalStamp {
                        round: *round,
                        worst: *worst,
                        at,
                    });
            }
            TelemetryEvent::RoundEnd { round, sim_s, .. } => {
                self.sim_s
                    .lock()
                    .expect("no emitter panicked")
                    .push((*round, *sim_s));
            }
            _ => {}
        }
        if let Some(tee) = &self.tee {
            tee.emit(event);
        }
    }

    fn flush(&self) {
        if let Some(tee) = &self.tee {
            tee.flush();
        }
    }
}

/// Index of the first evaluation of the first run of `consecutive`
/// evaluations at or above `target` — the rule of
/// `History::cloud_rounds_to_worst_sustained`, applied to a worst-accuracy
/// sequence in evaluation order.
pub fn sustained_crossing(worst: &[f64], target: f64, consecutive: usize) -> Option<usize> {
    let mut streak = 0;
    for (i, &w) in worst.iter().enumerate() {
        if w >= target {
            streak += 1;
            if streak >= consecutive {
                return Some(i + 1 - consecutive);
            }
        } else {
            streak = 0;
        }
    }
    None
}

/// Cloud rounds at `round` of a history, if it holds that round.
pub fn cloud_rounds_at(history: &History, round: usize) -> Option<u64> {
    history
        .rounds
        .iter()
        .find(|r| r.round == round)
        .map(|r| r.comm.cloud_rounds())
}

/// One profiler `span` event as a [`TimedSink`] saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStamp {
    /// Phase tag.
    pub phase: String,
    /// Round index, when the span belongs to one.
    pub round: Option<usize>,
    /// Seconds from the sink's creation to the event's arrival, which is
    /// the span's end for spans recorded where they close.
    pub end_s: f64,
    /// Span duration.
    pub elapsed_s: f64,
}

/// Sink wrapper that counts events, times the wrapped sink's `emit`, and
/// stamps every `span` event for [`round_self_s`].
#[derive(Debug)]
pub struct TimedSink {
    inner: Arc<dyn Sink>,
    origin: Instant,
    events: AtomicU64,
    emit_ns: AtomicU64,
    spans: Mutex<Vec<SpanStamp>>,
}

impl TimedSink {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Sink>) -> Self {
        Self {
            inner,
            origin: Instant::now(),
            events: AtomicU64::new(0),
            emit_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Events received.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the wrapped sink's `emit`.
    pub fn emit_s(&self) -> f64 {
        self.emit_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The span stamps, in arrival order.
    pub fn spans(&self) -> Vec<SpanStamp> {
        self.spans.lock().expect("no emitter panicked").clone()
    }
}

impl Sink for TimedSink {
    fn emit(&self, event: &TelemetryEvent) {
        let start = Instant::now();
        if let TelemetryEvent::Span {
            phase,
            round,
            elapsed_s,
            ..
        } = event
        {
            self.spans
                .lock()
                .expect("no emitter panicked")
                .push(SpanStamp {
                    phase: phase.clone(),
                    round: *round,
                    end_s: (start - self.origin).as_secs_f64(),
                    elapsed_s: *elapsed_s,
                });
        }
        let t = Instant::now();
        self.inner.emit(event);
        let ns = t.elapsed().as_nanos() as u64;
        self.emit_ns.fetch_add(ns, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Sizes of the contiguous runs the thread pool splits `n` tasks into
/// over `parts` workers (the first `n % parts` runs get one extra task).
pub fn part_sizes(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts)
        .map(|p| n / parts + usize::from(p < n % parts))
        .collect()
}

/// Self time of the `round` spans: each round span's duration minus the
/// part of its interval that child spans cover (nested children count
/// once).
///
/// Coordinator-side spans arrive where they close, so their interval is
/// `[end − elapsed, end]`. Per-edge `local_sgd_chain` spans are measured
/// in the workers and arrive after the join, in edge order: each run of
/// consecutive chain spans is one fan-out, split into contiguous parts by
/// `workers(n)`, and covers `[end − longest part, end]` with `end` the
/// arrival of its first span.
pub fn round_self_s(spans: &[SpanStamp], workers: impl Fn(usize) -> usize) -> f64 {
    let mut total = 0.0;
    let mut i = 0;
    while i < spans.len() {
        let round = spans[i].round;
        let mut j = i;
        while j < spans.len() && spans[j].round == round {
            j += 1;
        }
        if round.is_some() {
            total += rounds_self_in(&spans[i..j], &workers);
        }
        i = j;
    }
    total
}

/// [`round_self_s`] over the spans of one round.
fn rounds_self_in(spans: &[SpanStamp], workers: &impl Fn(usize) -> usize) -> f64 {
    let mut children: Vec<(f64, f64)> = Vec::new();
    let mut self_s = 0.0;
    let mut rounds = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let s = &spans[i];
        if s.phase == "local_sgd_chain" {
            let mut j = i;
            while j < spans.len() && spans[j].phase == "local_sgd_chain" {
                j += 1;
            }
            let mut longest: f64 = 0.0;
            let mut at = i;
            for len in part_sizes(j - i, workers(j - i)) {
                longest = longest.max(spans[at..at + len].iter().map(|c| c.elapsed_s).sum());
                at += len;
            }
            children.push((s.end_s - longest, s.end_s));
            i = j;
            continue;
        }
        let interval = (s.end_s - s.elapsed_s, s.end_s);
        if s.phase == "round" {
            rounds.push(interval);
        } else {
            children.push(interval);
        }
        i += 1;
    }
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (lo, hi) in rounds {
        let mut covered = 0.0;
        let mut reach = lo;
        for &(a, b) in &children {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self_s += (hi - lo) - covered;
    }
    self_s
}

/// Call count, busy time and processed rows of one model entry point.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    rows: AtomicU64,
}

impl CallStats {
    fn add(&self, start: Instant, rows: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the calls, summed over threads.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Samples processed.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// Per-entry-point statistics of a [`TimedModel`].
#[derive(Debug, Default)]
pub struct ModelStats {
    /// `loss_grad` and `loss_grad_ws` (local SGD steps).
    pub loss_grad: CallStats,
    /// `loss` (Phase-2 loss estimates).
    pub loss: CallStats,
    /// `predict` (evaluation, through `accuracy`).
    pub predict: CallStats,
}

/// Timing wrapper around the model handed to `FederatedProblem::new`.
/// It forwards every call unchanged, so the trained bits are identical.
pub struct TimedModel {
    inner: Arc<dyn Model>,
    stats: Arc<ModelStats>,
}

impl TimedModel {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn new(inner: Arc<dyn Model>, stats: Arc<ModelStats>) -> Self {
        Self { inner, stats }
    }
}

impl Model for TimedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn init_params(&self, rng: &mut StreamRng) -> Vec<f32> {
        self.inner.init_params(rng)
    }

    fn loss(&self, params: &[f32], batch: &Dataset) -> f64 {
        let t = Instant::now();
        let out = self.inner.loss(params, batch);
        self.stats.loss.add(t, batch.len());
        out
    }

    fn loss_grad(&self, params: &[f32], batch: &Dataset, grad: &mut [f32]) -> f64 {
        let t = Instant::now();
        let out = self.inner.loss_grad(params, batch, grad);
        self.stats.loss_grad.add(t, batch.len());
        out
    }

    fn loss_grad_ws(
        &self,
        params: &[f32],
        batch: &Dataset,
        grad: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        let t = Instant::now();
        let out = self.inner.loss_grad_ws(params, batch, grad, ws);
        self.stats.loss_grad.add(t, batch.len());
        out
    }

    fn predict(&self, params: &[f32], x: &Matrix) -> Vec<usize> {
        let t = Instant::now();
        let out = self.inner.predict(params, x);
        self.stats.predict.add(t, x.rows());
        out
    }
}

/// Achieved GFLOP/s of the `loss_grad` calls of a model of `shape`.
pub fn loss_grad_gflops(stats: &ModelStats, shape: &Shape) -> f64 {
    let busy = stats.loss_grad.busy_s();
    if busy <= 0.0 {
        return 0.0;
    }
    stats.loss_grad.rows() as f64 * shape.loss_grad_flops() as f64 / busy * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierminimax::core::history::RoundRecord;
    use hierminimax::core::EvalReport;
    use hierminimax::simnet::{CommMeter, Link};

    fn span(phase: &str, round: usize, end_s: f64, elapsed_s: f64) -> SpanStamp {
        SpanStamp {
            phase: phase.into(),
            round: Some(round),
            end_s,
            elapsed_s,
        }
    }

    #[test]
    fn crossing_matches_history_rule() {
        // Worst accuracies with a false start, a dip and a sustained run.
        let worst = [0.2, 0.7, 0.71, 0.5, 0.68, 0.69, 0.7, 0.9, 0.4];
        let meter = CommMeter::new();
        let mut h = History::default();
        for (k, &w) in worst.iter().enumerate() {
            // Evaluate every other round; one cloud round per round.
            meter.record_round(Link::EdgeCloud);
            h.push(RoundRecord {
                round: 2 * k,
                slots_done: 0,
                comm: meter.snapshot(),
                p: vec![1.0],
                eval: None,
            });
            meter.record_round(Link::EdgeCloud);
            h.push(RoundRecord {
                round: 2 * k + 1,
                slots_done: 0,
                comm: meter.snapshot(),
                p: vec![1.0],
                eval: Some(EvalReport::from_accuracies(vec![w, 1.0])),
            });
        }
        for target in [0.1, 0.66, 0.69, 0.7, 0.95] {
            let i = sustained_crossing(&worst, target, 3);
            let via_stamp = i.and_then(|i| cloud_rounds_at(&h, 2 * i + 1));
            assert_eq!(
                via_stamp,
                h.cloud_rounds_to_worst_sustained(target, 3),
                "target {target}"
            );
        }
        assert_eq!(sustained_crossing(&worst, 0.66, 3), Some(4));
    }

    #[test]
    fn self_time_is_round_minus_sequential_children() {
        // Round [0, 10]: sampling [0, 1], chains 2 s + 3 s ending at 6,
        // aggregation [6, 7], dual update [7, 9].
        let spans = vec![
            span("phase1_sampling", 0, 1.0, 1.0),
            span("local_sgd_chain", 0, 6.0, 2.0),
            span("local_sgd_chain", 0, 6.0, 3.0),
            span("aggregation", 0, 7.0, 1.0),
            span("dual_update", 0, 9.0, 2.0),
            span("round", 0, 10.0, 10.0),
            // Evaluation runs after the round span closes.
            span("eval", 0, 12.0, 2.0),
        ];
        let got = round_self_s(&spans, |_| 1);
        assert!(
            (got - (10.0 - 1.0 - 5.0 - 1.0 - 2.0)).abs() < 1e-12,
            "{got}"
        );
    }

    #[test]
    fn nested_children_count_once_and_parallel_chains_overlap() {
        // A retry inside the dual update, and two chains on two workers.
        let spans = vec![
            span("local_sgd_chain", 3, 4.0, 3.0),
            span("local_sgd_chain", 3, 4.0, 2.0),
            span("fault_retry", 3, 6.0, 1.0),
            span("dual_update", 3, 7.0, 3.0),
            span("round", 3, 8.0, 8.0),
        ];
        // Chains cover [1, 4], dual [4, 7]: 8 − 3 − 3.
        assert!((round_self_s(&spans, |n| n.min(2)) - 2.0).abs() < 1e-12);
        // On one worker the chains cover [−1, 4], clipped to [0, 4].
        assert!((round_self_s(&spans, |_| 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn part_sizes_split_like_the_pool() {
        assert_eq!(part_sizes(5, 2), vec![3, 2]);
        assert_eq!(part_sizes(16, 2), vec![8, 8]);
        assert_eq!(part_sizes(1, 2), vec![1]);
        assert_eq!(part_sizes(4, 1), vec![4]);
    }

    #[test]
    fn stamp_sink_tees_and_keeps_sim_seconds() {
        let mem = Arc::new(hierminimax::telemetry::MemorySink::new());
        let sink = StampSink::new(Some(mem.clone()));
        sink.emit(&TelemetryEvent::RoundStart { round: 0 });
        sink.emit(&TelemetryEvent::Eval {
            round: 0,
            average: 0.5,
            worst: 0.25,
            variance_pp: 0.0,
            per_edge_accuracy: vec![0.25, 0.75],
        });
        assert_eq!(mem.len(), 2);
        assert_eq!(sink.evals().len(), 1);
        assert_eq!(sink.evals()[0].worst, 0.25);
        assert_eq!(sink.sim_s_at(0), None);
    }
}
