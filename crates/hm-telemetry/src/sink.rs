//! Sinks and the [`Telemetry`] handle algorithms carry.
//!
//! A disabled handle is a `None` inside, so `record` is one branch and the
//! event-building closure is never called. Enabling telemetry therefore
//! cannot perturb a run — payload construction (clones of `p`, loss
//! vectors, comm snapshots, the model digest) happens only when a sink is
//! attached, and only at round boundaries.

use crate::event::TelemetryEvent;
use crate::profile::SpanTimer;
use hm_simnet::{CommStats, LatencyModel};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Destination for telemetry events.
///
/// Implementations must be thread-safe: hierarchical algorithms emit
/// block-level events from rayon workers.
pub trait Sink: Send + Sync + std::fmt::Debug {
    /// Consume one event.
    fn emit(&self, event: &TelemetryEvent);

    /// Flush any buffered output (called at run end and on drop of the
    /// last handle). Default: nothing to flush.
    fn flush(&self) {}
}

/// Sink that discards every event. Exists so "telemetry object present but
/// off" costs one virtual call per round-boundary event and nothing more;
/// prefer [`Telemetry::disabled`], which skips even payload construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn emit(&self, _event: &TelemetryEvent) {}
}

/// Sink that buffers events in memory, for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events received so far, in emission order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().clone()
    }

    /// Number of events received so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// `true` when no events have been received.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &TelemetryEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Sink that appends one JSON line per event to a file.
///
/// Writes are buffered; I/O errors after opening are swallowed (telemetry
/// must never abort a training run) but latch a flag queryable via
/// [`JsonlSink::had_errors`].
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
    errored: AtomicBool,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            path,
            file: Mutex::new(BufWriter::new(file)),
            errored: AtomicBool::new(false),
        })
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `true` if any write or flush failed since creation.
    pub fn had_errors(&self) -> bool {
        self.errored.load(Relaxed)
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &TelemetryEvent) {
        let mut f = self.file.lock();
        if writeln!(f, "{}", event.to_json()).is_err() {
            self.errored.store(true, Relaxed);
        }
    }

    fn flush(&self) {
        if self.file.lock().flush().is_err() {
            self.errored.store(true, Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.file.lock().flush();
    }
}

#[derive(Debug)]
struct Inner {
    sink: Arc<dyn Sink>,
    latency: LatencyModel,
    /// Sequenced events emitted through this handle (and its clones).
    /// Checkpoint snapshots store it so a resumed run can continue the
    /// sequence.
    seq: AtomicU64,
}

/// Cheap, cloneable telemetry handle carried in `RunOpts`.
///
/// Disabled (the default) it is a `None`: recording is one branch, timers
/// never read the clock, and simulated-seconds queries return `0.0`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Enabled handle emitting into `sink`, with the
    /// [`LatencyModel::mobile_edge`] cost model.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                latency: LatencyModel::mobile_edge(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// Enabled handle writing JSONL to `path` (truncates).
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(Arc::new(JsonlSink::create(path)?)))
    }

    /// `true` when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event, advancing the sequence counter when the event
    /// [is sequenced](TelemetryEvent::is_sequenced). The closure runs only
    /// when enabled, so payload clones cost nothing on the disabled path.
    #[inline]
    pub fn record(&self, make: impl FnOnce() -> TelemetryEvent) {
        if let Some(inner) = &self.inner {
            let event = make();
            inner.sink.emit(&event);
            if event.is_sequenced() {
                inner.seq.fetch_add(1, Relaxed);
            }
        }
    }

    /// Sequenced events emitted so far through this handle and its clones
    /// (`0` when disabled).
    pub fn seq(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.seq.load(Relaxed),
            None => 0,
        }
    }

    /// Set the sequence counter, inheriting a checkpointed run's position
    /// on resume. No-op when disabled.
    pub fn set_seq(&self, seq: u64) {
        if let Some(inner) = &self.inner {
            inner.seq.store(seq, Relaxed);
        }
    }

    /// Start a phase timer. Disabled handles return a timer that never
    /// touched the clock and reports `0.0`.
    #[inline]
    pub fn timer(&self) -> SpanTimer {
        SpanTimer::start(self.inner.is_some())
    }

    /// Simulated deployment seconds for a run prefix under this handle's
    /// latency model; `0.0` when disabled.
    ///
    /// `edge_areas` is the number of disjoint client-edge networks
    /// transferring concurrently per round (the participating edge count
    /// for hierarchical methods, `1` for flat methods, which meter no
    /// `ClientEdge` floats anyway) — see
    /// [`LatencyModel::simulated_seconds_parallel`].
    pub fn sim_seconds(&self, stats: &CommStats, slots: usize, edge_areas: usize) -> f64 {
        match &self.inner {
            Some(inner) => inner
                .latency
                .simulated_seconds_parallel(stats, slots, edge_areas),
            None => 0.0,
        }
    }

    /// Extra simulated seconds caused by injected faults: straggler wait
    /// slots priced at the latency model's per-slot client step time, plus
    /// retry backoff (already in seconds). `0.0` when disabled, matching
    /// [`Telemetry::sim_seconds`].
    pub fn fault_seconds(&self, extra_slots: f64, backoff_s: f64) -> f64 {
        match &self.inner {
            Some(inner) => extra_slots * inner.latency.client_step_s + backoff_s,
            None => 0.0,
        }
    }

    /// Flush the sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_simnet::CommMeter;

    fn ev(round: usize) -> TelemetryEvent {
        TelemetryEvent::RoundStart { round }
    }

    #[test]
    fn disabled_handle_never_builds_payloads() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record(|| unreachable!("closure must not run when disabled"));
        assert_eq!(t.timer().elapsed_s(), 0.0);
        let stats = CommMeter::new().snapshot();
        assert_eq!(t.sim_seconds(&stats, 100, 1), 0.0);
        t.flush();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        assert!(t.is_enabled());
        for k in 0..3 {
            t.record(|| ev(k));
        }
        assert_eq!(sink.events(), vec![ev(0), ev(1), ev(2)]);
        assert_eq!(sink.len(), 3);
        assert!(!sink.is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        let t2 = t.clone();
        t.record(|| ev(0));
        t2.record(|| ev(1));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("hm_telemetry_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let t = Telemetry::jsonl(&path).unwrap();
        t.record(|| ev(0));
        t.record(|| TelemetryEvent::RunEnd {
            rounds: 1,
            slots: 4,
            comm_total: CommMeter::new().snapshot(),
            sim_s: 0.0,
            elapsed_s: 0.0,
        });
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::json::parse(line).unwrap();
        }
        assert!(lines[0].contains("\"ev\":\"round_start\""));
        assert!(lines[1].contains("\"ev\":\"run_end\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enabled_timer_reads_the_clock() {
        let t = Telemetry::with_sink(Arc::new(NoopSink));
        let timer = t.timer();
        assert!(timer.elapsed_s() >= 0.0);
    }

    #[test]
    fn fault_seconds_prices_slots_and_backoff() {
        let t = Telemetry::with_sink(Arc::new(NoopSink));
        // mobile_edge() sets client_step_s = 1e-3.
        assert!((t.fault_seconds(3.0, 0.25) - (3.0 * 1e-3 + 0.25)).abs() < 1e-12);
        assert_eq!(Telemetry::disabled().fault_seconds(3.0, 0.25), 0.0);
    }

    #[test]
    fn seq_counts_sequenced_emissions_only() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        assert_eq!(t.seq(), 0);
        t.record(|| ev(0));
        t.record(|| ev(1));
        assert_eq!(t.seq(), 2);
        t.record(|| TelemetryEvent::ProfileSummary { phases: vec![] });
        assert_eq!(t.seq(), 2, "unsequenced emission must not count");
        assert_eq!(sink.len(), 3, "but it still reaches the sink");
        t.set_seq(50);
        assert_eq!(t.seq(), 50);
        t.record(|| ev(3));
        assert_eq!(t.seq(), 51);
        // Clones share the counter; disabled handles report 0 and ignore
        // set_seq.
        assert_eq!(t.clone().seq(), 51);
        let off = Telemetry::disabled();
        off.set_seq(9);
        assert_eq!(off.seq(), 0);
    }

    #[test]
    fn sinks_are_thread_safe() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for k in 0..100 {
                        t.record(|| ev(k));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 400);
    }
}
