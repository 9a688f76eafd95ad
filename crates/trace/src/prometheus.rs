//! Prometheus text-format exposition of a run's metrics.
//!
//! [`render_prometheus`] renders a run's [`Metrics`] in the Prometheus
//! text exposition format (version 0.0.4): counters gain the conventional
//! `_total` suffix, and histograms expand into cumulative
//! `_bucket{le="…"}` series (one per non-empty bucket, plus the mandatory
//! `+Inf`) with `_sum`/`_count`. Dot-separated metric names are
//! sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset Prometheus requires,
//! so `engine.recovery.retries` exposes as `engine_recovery_retries_total`.
//!
//! Metric names may carry labels after a `|`: a name like
//! `load.tenant.latency_ns|tenant=casework` renders as the
//! `load_tenant_latency_ns` family with a `{tenant="casework"}` label set
//! (composed with `le` on histogram buckets). Same-family labeled series
//! are adjacent in the sorted [`Metrics`], so the renderer emits one
//! `# TYPE` line per family, not per series.

use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, Histogram, MetricValue, Metrics};

/// Sanitizes a dot-separated metric name into a Prometheus metric name.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' if i > 0 => out.push(c),
            '0'..='9' => {
                out.push('_');
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Splits a metric name into its metric family and label set: everything
/// after the first `|` is a comma-separated `key=value` list (e.g.
/// `load.tenant.latency_ns|tenant=casework`). Tokens without `=` are
/// ignored rather than guessed at.
fn split_labels(name: &str) -> (&str, Vec<(String, String)>) {
    match name.split_once('|') {
        None => (name, Vec::new()),
        Some((base, rest)) => (
            base,
            rest.split(',')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (sanitize_name(k), escape_label_value(v)))
                .collect(),
        ),
    }
}

/// Renders a label set as `{k="v",…}`, or nothing when empty.
fn label_str(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Emits a `# TYPE` header unless it would repeat the one just emitted —
/// labeled series of the same family are adjacent in the sorted metrics
/// and share a single header.
fn emit_type(out: &mut String, last: &mut String, name: &str, kind: &str) {
    let line = format!("# TYPE {name} {kind}");
    if *last != line {
        let _ = writeln!(out, "{line}");
        *last = line;
    }
}

fn render_histogram(
    out: &mut String,
    last_type: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &Histogram,
) {
    emit_type(out, last_type, name, "histogram");
    // Buckets compose the series labels with `le` (conventionally last).
    let bucket_labels = |le: String| {
        let mut ls = labels.to_vec();
        ls.push(("le".to_string(), le));
        label_str(&ls)
    };
    let mut cumulative = 0u64;
    for (i, bucket) in h.buckets() {
        cumulative += bucket.count;
        // OpenMetrics-style exemplar suffix: `# {labels} value timestamp`,
        // here carrying the query identity and its stream-clock offset so a
        // tail bucket links straight to the flight-recorder span.
        let exemplar = match &bucket.exemplar {
            None => String::new(),
            Some(e) => {
                let tenant = e
                    .tenant
                    .as_deref()
                    .map(|t| format!(",tenant=\"{}\"", escape_label_value(t)))
                    .unwrap_or_default();
                format!(
                    " # {{query_id=\"{}\"{tenant}}} {} {}",
                    e.query_id, e.value, e.offset_ns
                )
            }
        };
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}{exemplar}",
            bucket_labels(bucket_upper_bound(i).to_string())
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {cumulative}",
        bucket_labels("+Inf".to_string()),
    );
    let _ = writeln!(out, "{name}_sum{} {}", label_str(labels), h.sum());
    let _ = writeln!(out, "{name}_count{} {cumulative}", label_str(labels));
}

/// Renders `metrics` in the Prometheus text exposition format.
pub fn render_prometheus(metrics: &Metrics) -> String {
    let mut out = String::new();
    let mut last_type = String::new();
    for (raw, value) in metrics.iter() {
        let (base, labels) = split_labels(raw);
        let name = sanitize_name(base);
        match value {
            MetricValue::Counter(v) => {
                emit_type(
                    &mut out,
                    &mut last_type,
                    &format!("{name}_total"),
                    "counter",
                );
                let _ = writeln!(out, "{name}_total{} {v}", label_str(&labels));
            }
            MetricValue::Histogram(h) => {
                render_histogram(&mut out, &mut last_type, &name, &labels, h)
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic metrics with every metric kind, including
    /// labeled per-tenant series (adjacent in sorted order).
    fn golden_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.add("engine.recovery.retries", 42);
        let h = m.histogram_mut("load.latency_ns.fastid");
        for _ in 0..3 {
            h.record(100); // octave 6, sub 4: upper bound 103
        }
        h.record(0);
        // Tail sample with an exemplar: the rendered bucket line links the
        // p99 bucket to query 17 at stream offset 912000.
        h.record_with_exemplar(100_000, 17, Some("casework"), 912_000); // upper bound 106495
        m.record("load.tenant.latency_ns|tenant=casework", 100);
        m.record("load.tenant.latency_ns|tenant=research", 100);
        m
    }

    #[test]
    fn golden_file_pins_the_exposition_format() {
        let got = render_prometheus(&golden_metrics());
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(
                concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/prometheus.golden"),
                &got,
            )
            .unwrap();
        }
        let want = include_str!("../testdata/prometheus.golden");
        assert_eq!(
            got, want,
            "Prometheus exposition drifted from the golden file \
             (UPDATE_GOLDEN=1 regenerates)"
        );
    }

    #[test]
    fn labeled_series_share_one_type_line_and_compose_le() {
        let got = render_prometheus(&golden_metrics());
        assert_eq!(
            got.matches("# TYPE load_tenant_latency_ns histogram")
                .count(),
            1,
            "labeled series of one family share a single TYPE line:\n{got}"
        );
        assert!(
            got.contains("load_tenant_latency_ns_bucket{tenant=\"casework\",le=\"103\"} 1"),
            "{got}"
        );
        assert!(
            got.contains("load_tenant_latency_ns_bucket{tenant=\"research\",le=\"+Inf\"} 1"),
            "{got}"
        );
        assert!(got.contains("load_tenant_latency_ns_sum{tenant=\"casework\"} 100"));
        assert!(got.contains("load_tenant_latency_ns_count{tenant=\"research\"} 1"));
    }

    #[test]
    fn label_values_are_escaped_and_bad_tokens_ignored() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let (base, labels) = split_labels("m|tenant=a,junk,k=v");
        assert_eq!(base, "m");
        assert_eq!(
            labels,
            vec![
                ("tenant".to_string(), "a".to_string()),
                ("k".to_string(), "v".to_string())
            ]
        );
        let (plain, none) = split_labels("load.queries");
        assert_eq!(plain, "load.queries");
        assert!(none.is_empty());
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            sanitize_name("engine.recovery.retries"),
            "engine_recovery_retries"
        );
        assert_eq!(sanitize_name("load.latency-ns/p99"), "load_latency_ns_p99");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let got = render_prometheus(&golden_metrics());
        let lines: Vec<&str> = got
            .lines()
            .filter(|l| l.starts_with("load_latency_ns_fastid_bucket"))
            .collect();
        // zero bucket (1), value-100 bucket (cum 4), value-100000 bucket
        // (cum 5), then +Inf pinned at the total count.
        assert_eq!(
            lines,
            vec![
                "load_latency_ns_fastid_bucket{le=\"0\"} 1",
                "load_latency_ns_fastid_bucket{le=\"103\"} 4",
                "load_latency_ns_fastid_bucket{le=\"106495\"} 5 \
                 # {query_id=\"17\",tenant=\"casework\"} 100000 912000",
                "load_latency_ns_fastid_bucket{le=\"+Inf\"} 5",
            ]
        );
        assert!(got.contains("load_latency_ns_fastid_sum 100300\n"));
        assert!(got.contains("load_latency_ns_fastid_count 5\n"));
    }

    #[test]
    fn exemplars_attach_only_to_their_bucket() {
        let mut m = Metrics::new();
        let h = m.histogram_mut("load.latency_ns.ld");
        h.record(10);
        h.record_with_exemplar(5_000, 3, None, 40);
        let got = render_prometheus(&m);
        // Only the hit bucket carries the suffix; a missing tenant renders
        // without a tenant label.
        assert_eq!(got.matches(" # {").count(), 1, "{got}");
        assert!(got.contains("} 2 # {query_id=\"3\"} 5000 40\n"), "{got}");
        assert!(!got.contains("tenant="), "{got}");
    }
}
