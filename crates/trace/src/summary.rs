//! Plain-text hierarchical summary of a trace.
//!
//! Spans within one track are nested by time containment (a span whose
//! interval lies inside another's renders as its child), which recovers the
//! logical run → pass → command structure without the recorder having to
//! thread parent ids through every call site. A metrics section rendered by
//! [`render_metrics`] can be appended for a complete run report.

use crate::metrics::{MetricValue, Metrics};
use crate::span::{TimeDomain, Trace, TraceEvent};
use std::fmt::Write as _;

/// Formats nanoseconds for humans (`1.234 ms`-style).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats `x` with three significant digits in fixed notation (`0.0512`,
/// `3.58`, `1862`), so a small nonzero rate never prints as `0`.
pub fn fmt_sig3(x: f64) -> String {
    let magnitude = if x == 0.0 || !x.is_finite() {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (2 - magnitude).max(0) as usize)
}

fn write_span(out: &mut String, ev: &TraceEvent, depth: usize) {
    let indent = "  ".repeat(depth + 1);
    let _ = write!(
        out,
        "{indent}{} [{}] {} .. {}  ({})",
        ev.name,
        ev.cat,
        ev.start_ns,
        ev.end_ns,
        fmt_ns(ev.duration_ns())
    );
    if !ev.args.is_empty() {
        let _ = write!(out, "  {{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            match v {
                crate::span::ArgValue::U64(n) => {
                    let _ = write!(out, "{k}={n}");
                }
                crate::span::ArgValue::F64(f) => {
                    let _ = write!(out, "{k}={f}");
                }
                crate::span::ArgValue::Str(s) => {
                    let _ = write!(out, "{k}={s}");
                }
            }
        }
        let _ = write!(out, "}}");
    }
    out.push('\n');
}

/// Renders the span tree of every track as indented text.
///
/// Within a track, spans are ordered by `(start asc, end desc)` so a parent
/// sorts before the children it contains; nesting depth is then derived with
/// a containment stack.
pub fn render_summary(trace: &Trace) -> String {
    let mut out = String::new();
    for (idx, info) in trace.tracks.iter().enumerate() {
        let domain = match info.domain {
            TimeDomain::Virtual => "virtual ns",
            TimeDomain::Wall => "wall ns",
        };
        let mut spans: Vec<&TraceEvent> = trace
            .events
            .iter()
            .filter(|e| e.track.index() as usize == idx)
            .collect();
        let _ = writeln!(
            out,
            "track {idx}: {} [{domain}] — {} span(s)",
            info.name,
            spans.len()
        );
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        // Stack of (end_ns) for currently-open ancestors.
        let mut stack: Vec<u64> = Vec::new();
        for ev in spans {
            while let Some(&end) = stack.last() {
                // A parent must strictly contain the child; equal intervals
                // nest in sort order (first recorded wins the outer slot).
                let past_parent = ev.start_ns >= end && !(ev.start_ns == end && ev.end_ns == end);
                if past_parent || end < ev.end_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            write_span(&mut out, ev, stack.len());
            stack.push(ev.end_ns);
        }
        // Queue wait per track: simulator command spans carry their
        // enqueue instant as a `queued_ns` arg, and the gap to the span's
        // start is time the command sat in a device queue. Reported
        // explicitly — folding it into a parent's self-time would hide
        // exactly the contention a latency budget needs to name.
        let (mut queue_wait_ns, mut queued_spans) = (0u64, 0usize);
        for ev in trace
            .events
            .iter()
            .filter(|e| e.track.index() as usize == idx)
        {
            if let Some(crate::span::ArgValue::U64(queued)) = ev
                .args
                .iter()
                .find_map(|(k, v)| (*k == "queued_ns").then_some(v))
            {
                queue_wait_ns += ev.start_ns.saturating_sub(*queued);
                queued_spans += 1;
            }
        }
        if queued_spans > 0 {
            let _ = writeln!(
                out,
                "  queue wait: {} across {queued_spans} queued span(s)",
                fmt_ns(queue_wait_ns)
            );
        }
        let samples = trace
            .counters
            .iter()
            .filter(|c| c.track.index() as usize == idx)
            .count();
        if samples > 0 {
            let _ = writeln!(out, "  ({samples} counter sample(s))");
        }
    }
    out
}

/// Renders a run's metrics as a sorted `name = value` block.
/// Histograms render their count, quantile estimates, and mean.
pub fn render_metrics(metrics: &Metrics) -> String {
    let mut out = String::from("metrics:\n");
    for (name, value) in metrics.iter() {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "  {name} = {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "  {name} = count={} p50={} p95={} p99={} p999={} mean={:.1}",
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.mean()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    #[test]
    fn three_significant_digits_keep_small_rates_nonzero() {
        assert_eq!(fmt_sig3(0.051_234), "0.0512");
        assert_eq!(fmt_sig3(0.179), "0.179");
        assert_eq!(fmt_sig3(3.5849), "3.58");
        assert_eq!(fmt_sig3(42.26), "42.3");
        assert_eq!(fmt_sig3(1862.4), "1862");
        assert_eq!(fmt_sig3(0.0), "0.00");
    }

    #[test]
    fn nesting_follows_time_containment() {
        let t = Tracer::enabled();
        let tr = t.track("engine", TimeDomain::Virtual);
        t.span(tr, "run", "run ld", 0, 100);
        t.span(tr, "kernel", "k0", 10, 40);
        t.span(tr, "transfer", "read C", 40, 60);
        t.span(tr, "run", "run 2", 200, 300);
        let text = render_summary(&t.snapshot().unwrap());
        let lines: Vec<&str> = text.lines().collect();
        let depth_of = |needle: &str| {
            let line = lines.iter().find(|l| l.contains(needle)).unwrap();
            (line.len() - line.trim_start().len()) / 2
        };
        assert_eq!(depth_of("run ld"), 1);
        assert_eq!(depth_of("k0"), 2, "kernel nests inside the run span");
        assert_eq!(depth_of("read C"), 2);
        assert_eq!(depth_of("run 2"), 1, "disjoint span is a sibling");
    }

    #[test]
    fn per_track_queue_wait_is_reported_not_folded_into_self_time() {
        let t = Tracer::enabled();
        let q0 = t.track("queue 0", TimeDomain::Virtual);
        let host = t.track("host", TimeDomain::Virtual);
        // Two commands enqueued at 0 and 10 but starting at 5 and 50:
        // 5 + 40 = 45 ns of queue wait on this track.
        t.span_with(q0, "kernel", "k0", 5, 30, vec![("queued_ns", 0u64.into())]);
        t.span_with(
            q0,
            "transfer",
            "read",
            50,
            80,
            vec![("queued_ns", 10u64.into())],
        );
        // Host spans without a queued_ns arg contribute nothing.
        t.span(host, "pack", "host pack", 0, 4);
        let text = render_summary(&t.snapshot().unwrap());
        let track0 = text
            .lines()
            .skip_while(|l| !l.starts_with("track 0"))
            .take_while(|l| !l.starts_with("track 1"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            track0.contains("queue wait: 45 ns across 2 queued span(s)"),
            "{text}"
        );
        let track1 = text
            .lines()
            .skip_while(|l| !l.starts_with("track 1"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!track1.contains("queue wait"), "{text}");
    }

    #[test]
    fn durations_format_readably() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500 s");
    }

    #[test]
    fn metrics_section_lists_sorted_names() {
        let mut m = Metrics::new();
        m.add("test.summary.z", 0);
        m.add("test.summary.a", 7);
        let text = render_metrics(&m);
        let za = text.find("test.summary.a = 7").unwrap();
        let zz = text.find("test.summary.z = 0").unwrap();
        assert!(za < zz);
    }

    #[test]
    fn metrics_section_renders_histogram_quantiles() {
        let mut m = Metrics::new();
        for _ in 0..99 {
            m.record("test.summary.histo", 600); // octave 9 [512, 1024), sub-bucket 1: [576, 639]
        }
        m.record("test.summary.histo", 1_000_000);
        let text = render_metrics(&m);
        let line = text
            .lines()
            .find(|l| l.contains("test.summary.histo"))
            .unwrap();
        // A pure log2 histogram would pin both quantiles at 1023 (the whole
        // octave); linear sub-buckets tighten them to one eighth of it.
        assert!(line.contains("count=100"), "{line}");
        assert!(line.contains("p50=639"), "{line}");
        assert!(line.contains("p99=639"), "{line}");
        assert!(line.contains("p999=1048575"), "{line}");
        assert!(line.contains("mean=10594.0"), "{line}");
    }
}
