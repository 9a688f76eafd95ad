//! Trace merging and flight-recorder post-mortems.
//!
//! [`merge_into`] places per-query traces on one stream clock, shifting
//! their timestamps; tracks are deduplicated by name and domain, so
//! per-query traces recorded on identically-named tracks collapse onto
//! shared lanes. [`postmortem`] renders the recent past of such a timeline
//! when a run hits a trigger (a typed fault, a device loss, a shed storm or
//! an SLO breach): its last *N* spans and counter samples, the window a
//! bounded flight recorder would hold.
//! The bundle is a valid Chrome `trace_event` document — it passes
//! [`chrome::validate`](crate::chrome::validate) and loads in Perfetto —
//! with one extra top-level `"flightRecorder"` object carrying the trigger
//! reason and the failing query's context.

use crate::json::{self, Val};
use crate::span::{QueryCtx, Trace, TrackId};

/// Merges `src` into `dst`, shifting every `src` timestamp forward by
/// `shift_ns`. Tracks are matched by `(name, domain)` — a `src` track with
/// the same name and time domain as an existing `dst` track lands on it;
/// new tracks are appended.
pub fn merge_into(dst: &mut Trace, src: &Trace, shift_ns: u64) {
    let map: Vec<TrackId> = src
        .tracks
        .iter()
        .map(|info| {
            let found = dst
                .tracks
                .iter()
                .position(|d| d.name == info.name && d.domain == info.domain);
            let idx = found.unwrap_or_else(|| {
                dst.tracks.push(info.clone());
                dst.tracks.len() - 1
            });
            TrackId(idx as u32)
        })
        .collect();
    for ev in &src.events {
        let mut ev = ev.clone();
        ev.track = map[ev.track.index() as usize];
        ev.start_ns += shift_ns;
        ev.end_ns += shift_ns;
        dst.events.push(ev);
    }
    for c in &src.counters {
        let mut c = c.clone();
        c.track = map[c.track.index() as usize];
        c.ts_ns += shift_ns;
        dst.counters.push(c);
    }
}

/// Renders the post-mortem bundle of `timeline`: its last
/// `capacity.max(1)` spans and last `capacity.max(1)` counter samples as
/// Chrome `trace_event` JSON, under a `"flightRecorder"` header naming the
/// trigger `reason`, the failing query's context when known, and how many
/// spans and counter samples fell outside the window.
pub fn postmortem(
    mut timeline: Trace,
    capacity: usize,
    reason: &str,
    ctx: Option<&QueryCtx>,
) -> String {
    let capacity = capacity.max(1);
    let dropped_spans = timeline.events.len().saturating_sub(capacity);
    let dropped_counters = timeline.counters.len().saturating_sub(capacity);
    timeline.events.drain(..dropped_spans);
    timeline.counters.drain(..dropped_counters);
    json::document(|o| {
        o.key("flightRecorder").obj(|h| {
            h.key("reason").str(reason);
            h.key("query_id").opt(ctx.map(|c| c.query_id), Val::int);
            h.key("tenant").opt(ctx.map(|c| &*c.tenant), Val::str);
            h.key("capacity").int(capacity);
            h.key("retained_spans").int(timeline.events.len());
            h.key("dropped_spans").int(dropped_spans);
            h.key("dropped_counters").int(dropped_counters);
        });
        crate::chrome::write_trace(o, &timeline);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TimeDomain, Tracer};

    fn query_trace(query_id: u64, spans: usize) -> Trace {
        let t = Tracer::enabled().with_query_ctx(QueryCtx::new(query_id, "tenant-a"));
        let tr = t.track("engine", TimeDomain::Virtual);
        for i in 0..spans {
            let ns = i as u64 * 10;
            t.span(tr, "kernel", format!("k{i}"), ns, ns + 10);
        }
        t.counter(tr, "inflight", 0, 1.0);
        t.snapshot().unwrap()
    }

    /// `(query id, spans, stream-clock start)` per query, merged in order.
    fn timeline(queries: &[(u64, usize, u64)]) -> Trace {
        let mut merged = Trace::default();
        for &(query_id, spans, start_ns) in queries {
            merge_into(&mut merged, &query_trace(query_id, spans), start_ns);
        }
        merged
    }

    fn header(bundle: &str) -> json::Value {
        let doc = json::parse(bundle).unwrap();
        doc.as_obj().unwrap()["flightRecorder"].clone()
    }

    #[test]
    fn postmortem_keeps_only_the_last_n_spans() {
        let bundle = postmortem(timeline(&[(1, 3, 0), (2, 3, 100)]), 4, "r", None);
        let head = header(&bundle);
        let head = head.as_obj().unwrap();
        assert_eq!(head["retained_spans"].as_num(), Some(4.0));
        assert_eq!(head["dropped_spans"].as_num(), Some(2.0));
        assert_eq!(head["dropped_counters"].as_num(), Some(0.0));
        assert_eq!(
            bundle.matches("\"thread_name\"").count(),
            1,
            "same-named tracks are deduplicated"
        );
        // The survivors are the last span of query 1 and all of query 2,
        // shifted onto the stream clock.
        let spans: Vec<&str> = bundle
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(spans.len(), 4);
        assert!(spans[0].contains("\"name\":\"k2\",\"cat\":\"kernel\",\"ts\":0.020,"));
        assert!(spans[3].contains("\"ts\":0.120,"), "{}", spans[3]);
        // 4 queries × 5 spans into a 3-span window: 17 dropped.
        let many = timeline(&[(0, 5, 0), (1, 5, 1_000), (2, 5, 2_000), (3, 5, 3_000)]);
        let head = header(&postmortem(many, 3, "shed storm", None));
        let head = head.as_obj().unwrap();
        assert_eq!(head["capacity"].as_num(), Some(3.0));
        assert_eq!(head["retained_spans"].as_num(), Some(3.0));
        assert_eq!(head["dropped_spans"].as_num(), Some(17.0));
        assert_eq!(head["dropped_counters"].as_num(), Some(1.0));
    }

    #[test]
    fn postmortem_is_a_valid_chrome_trace_with_the_failing_query_id() {
        let ctx = QueryCtx::new(7, "tenant-a");
        let bundle = postmortem(
            timeline(&[(7, 2, 50)]),
            16,
            "typed fault: DeviceLoss",
            Some(&ctx),
        );
        let stats = crate::chrome::validate(&bundle).expect("bundle must validate");
        assert_eq!(stats.slices, 2);
        let head = header(&bundle);
        let head = head.as_obj().unwrap();
        assert_eq!(head["query_id"].as_num(), Some(7.0));
        assert_eq!(head["reason"].as_str(), Some("typed fault: DeviceLoss"));
        assert_eq!(head["capacity"].as_num(), Some(16.0));
        assert_eq!(head["retained_spans"].as_num(), Some(2.0));
        // Every retained span still carries the query attribution.
        assert!(bundle.contains("\"query_id\":7"));
        assert!(bundle.contains("tenant-a"));
    }

    #[test]
    fn postmortem_without_context_is_still_valid() {
        let bundle = postmortem(Trace::default(), 2, "slo breach", None);
        crate::chrome::validate(&bundle).expect("empty bundle validates");
        assert!(bundle.contains("\"query_id\":null"));
    }

    #[test]
    fn postmortem_bytes_are_pinned() {
        let one = timeline(&[(7, 2, 1_250)]);
        let ctx = QueryCtx::new(7, "tenant \"a\"");
        let reason = "typed fault: \"DeviceLoss\"\n";
        assert_eq!(
            postmortem(one.clone(), 8, reason, Some(&ctx)),
            PINNED_WITH_CTX
        );
        assert_eq!(postmortem(one, 8, "slo breach", None), PINNED_WITHOUT_CTX);
        // A window that drops spans and counter samples.
        let three = timeline(&[(4, 3, 0), (5, 2, 500), (6, 1, 900)]);
        let ctx = QueryCtx::new(6, "tenant-a");
        assert_eq!(
            postmortem(three, 2, "shed storm", Some(&ctx)),
            PINNED_DROPPED
        );
        // A zero capacity keeps a one-span window.
        assert_eq!(postmortem(Trace::default(), 0, "empty", None), PINNED_EMPTY);
    }

    const PINNED_WITH_CTX: &str = r#"{"flightRecorder":{"reason":"typed fault: \"DeviceLoss\"\n","query_id":7,"tenant":"tenant \"a\"","capacity":8,"retained_spans":2,"dropped_spans":0,"dropped_counters":0},"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"virtual time (simulated ns)"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"thread_sort_index","pid":0,"tid":0,"args":{"sort_index":0}},
{"ph":"X","name":"k0","cat":"kernel","ts":1.250,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":7,"tenant":"tenant-a"}},
{"ph":"X","name":"k1","cat":"kernel","ts":1.260,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":7,"tenant":"tenant-a"}},
{"ph":"C","name":"inflight","ts":1.250,"pid":0,"tid":0,"args":{"value":1}}
]}
"#;

    const PINNED_WITHOUT_CTX: &str = r#"{"flightRecorder":{"reason":"slo breach","query_id":null,"tenant":null,"capacity":8,"retained_spans":2,"dropped_spans":0,"dropped_counters":0},"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"virtual time (simulated ns)"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"thread_sort_index","pid":0,"tid":0,"args":{"sort_index":0}},
{"ph":"X","name":"k0","cat":"kernel","ts":1.250,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":7,"tenant":"tenant-a"}},
{"ph":"X","name":"k1","cat":"kernel","ts":1.260,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":7,"tenant":"tenant-a"}},
{"ph":"C","name":"inflight","ts":1.250,"pid":0,"tid":0,"args":{"value":1}}
]}
"#;

    const PINNED_DROPPED: &str = r#"{"flightRecorder":{"reason":"shed storm","query_id":6,"tenant":"tenant-a","capacity":2,"retained_spans":2,"dropped_spans":4,"dropped_counters":1},"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"virtual time (simulated ns)"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"thread_sort_index","pid":0,"tid":0,"args":{"sort_index":0}},
{"ph":"X","name":"k1","cat":"kernel","ts":0.510,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":5,"tenant":"tenant-a"}},
{"ph":"X","name":"k0","cat":"kernel","ts":0.900,"dur":0.010,"pid":0,"tid":0,"args":{"query_id":6,"tenant":"tenant-a"}},
{"ph":"C","name":"inflight","ts":0.500,"pid":0,"tid":0,"args":{"value":1}},
{"ph":"C","name":"inflight","ts":0.900,"pid":0,"tid":0,"args":{"value":1}}
]}
"#;

    const PINNED_EMPTY: &str = r#"{"flightRecorder":{"reason":"empty","query_id":null,"tenant":null,"capacity":1,"retained_spans":0,"dropped_spans":0,"dropped_counters":0},"displayTimeUnit":"ns","traceEvents":[

]}
"#;

    #[test]
    fn merge_into_shifts_and_deduplicates_tracks() {
        let mut dst = query_trace(1, 1);
        let n = dst.events.len();
        merge_into(&mut dst, &query_trace(2, 2), 1_000);
        assert_eq!(dst.tracks.len(), 1);
        assert_eq!(dst.events.len(), n + 2);
        assert_eq!(dst.events[n].start_ns, 1_000);
        assert_eq!(dst.counters.last().unwrap().ts_ns, 1_000);
        // A differently-named track stays separate.
        let t = Tracer::enabled();
        let other = t.track("loadgen", TimeDomain::Virtual);
        t.span(other, "query", "q", 0, 5);
        merge_into(&mut dst, &t.snapshot().unwrap(), 0);
        assert_eq!(dst.tracks.len(), 2);
    }
}
