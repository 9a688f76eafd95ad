//! `snp-trace`: dependency-free tracing and metrics for the SNP engine.
//!
//! Two substrates, one crate:
//!
//! * **Spans** — a [`Tracer`] handle records timestamped slices onto named
//!   tracks. Timestamps are plain `u64` nanoseconds, so the simulator's
//!   deterministic virtual clock and the host's wall clock coexist; each
//!   track declares its [`TimeDomain`] and the exporters keep the domains
//!   separated. A disabled tracer (the default everywhere) turns every
//!   recording call into a branch-and-return no-op.
//! * **Metrics** — a process-wide [`registry`] of named
//!   [`Counter`]s and [`Gauge`]s. Hot paths use [`LazyCounter`] statics so
//!   an increment costs one relaxed atomic add after first touch.
//!
//! Exporters: [`chrome::export_chrome_trace`] writes Chrome `trace_event`
//! JSON (loadable in Perfetto / `chrome://tracing`, with virtual and wall
//! time as separate processes), and [`summary::render_summary`] renders an
//! indented text tree nested by time containment. The matching
//! [`chrome::validate`] checks an emitted document is schema-well-formed —
//! CI runs it against the artifact of a real `snpgpu trace` invocation.
//!
//! The span model, metric naming scheme, and the virtual-ns → trace-track
//! mapping are documented in `DESIGN.md` §8.

#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod span;
pub mod summary;

pub use flight::{merge_into, FlightRecorder};
pub use metrics::{
    bucket_upper_bound, registry, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot,
    LazyCounter, LazyHistogram, MetricValue, MetricsRegistry,
};
pub use prometheus::{render_prometheus, render_registry};
pub use span::{
    ArgValue, CounterSample, QueryCtx, SpanId, TimeDomain, Trace, TraceEvent, Tracer, TrackId,
    TrackInfo,
};
