//! Structured run telemetry.
//!
//! The paper's whole evaluation argument (Figs. 3–5, Table 2) is a
//! *trajectory* story — loss, worst-edge accuracy, communication cost, and
//! the dual weights `p^(k)` over rounds — yet end-of-run numbers alone
//! cannot tell you why a seed diverged or where a round's wall-clock went.
//! This crate is the observability layer: algorithms emit structured
//! [`TelemetryEvent`]s through a [`Telemetry`] handle into a pluggable
//! [`Sink`], one JSON object per line when written to disk.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** A disabled handle is a `None`; every
//!    `record` call is one branch and the event payload is never built
//!    (closure form), so the per-round [`model_digest`] of `phase1_done`
//!    is computed only when a sink listens. Timers started on a
//!    disabled handle never call `Instant::now`. The training hot path
//!    (`local_sgd`) is not instrumented at all — telemetry observes round
//!    boundaries, where the run already synchronises.
//! 2. **No new dependencies.** The JSON writer and parser in [`json`] are
//!    hand-rolled; the event grammar is small and fixed, so a serde
//!    dependency would buy nothing. [`TelemetryEvent::to_json`] and its
//!    inverse [`TelemetryEvent::from_json`] state that grammar once.
//! 3. **Deterministic payloads.** Everything except the `elapsed_s` wall
//!    -clock fields is a pure function of the run; enabling telemetry must
//!    not (and does not — asserted by the workspace determinism tests)
//!    change a single trained bit.
//!
//! The event schema is documented in `DESIGN.md` §10. A line is valid
//! when it decodes; [`schema::validate_stream`] adds the stream grammar on
//! the decoded events, and CI runs its strict form on every smoke-test
//! stream.
//! The stream is a run's one event log: it carries every protocol fact
//! the conformance replay in `hm-testkit` checks against Algorithm 1
//! (DESIGN.md §9).
//! Per-phase wall-clock profiling (span timers, fixed-bucket histograms,
//! the `span`/`profile_summary` events) lives in [`profile`] and is
//! documented in `DESIGN.md` §13.

pub mod event;
pub mod json;
pub mod profile;
pub mod schema;
pub mod sink;

pub use event::{model_digest, DecodeError, TelemetryEvent};
pub use profile::{Phase, PhaseAgg, Profiler, SpanAggregator, SpanTimer};
pub use schema::{
    validate_stream, validate_stream_strict, validate_stream_with, SchemaError, StreamSummary,
};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink, Telemetry};
