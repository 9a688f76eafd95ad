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
//! * **Metrics** — one run's named counters and [`Histogram`]s, a plain
//!   [`Metrics`] value that the run records through `&mut` and its report
//!   carries; [`Metrics::merge`] folds several runs into one.
//!
//! Exporters: [`chrome::export_chrome_trace`] writes Chrome `trace_event`
//! JSON (loadable in Perfetto / `chrome://tracing`, with virtual and wall
//! time as separate processes), and [`summary::render_summary`] renders an
//! indented text tree nested by time containment. The matching
//! [`chrome::validate`] checks an emitted document is schema-well-formed —
//! CI runs it against the artifacts of real `snpgpu ld --trace`, `snpgpu
//! search --trace` and `snpgpu loadgen` invocations.
//!
//! [`json`] is the workspace's one JSON writer — every report and trace
//! document goes through it — next to the reader the validator uses.
//! [`merge_into`] places per-query traces on one stream clock, and
//! [`postmortem`] renders the last *N* spans of such a timeline as a
//! flight-recorder dump; both work on traces their caller already keeps.
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

pub use flight::{merge_into, postmortem};
pub use metrics::{bucket_upper_bound, Bucket, Exemplar, Histogram, MetricValue, Metrics};
pub use prometheus::render_prometheus;
pub use span::{
    ArgValue, CounterSample, QueryCtx, SpanId, TimeDomain, Trace, TraceEvent, Tracer, TrackId,
    TrackInfo,
};
