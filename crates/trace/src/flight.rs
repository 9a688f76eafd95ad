//! Bounded flight-recorder ring buffer and trace merging.
//!
//! A [`FlightRecorder`] keeps the last *N* spans and counter samples fed to
//! it (oldest dropped first), so that when a query ends in a typed fault or
//! an SLO breach, a post-mortem bundle covering the recent past can be
//! dumped without the recorder ever holding an unbounded trace. The bundle
//! ([`FlightRecorder::postmortem`]) is a valid Chrome `trace_event`
//! document — it passes [`chrome::validate`](crate::chrome::validate) and
//! loads in Perfetto — with one extra top-level `"flightRecorder"` object
//! carrying the trigger reason and the failing query's context.
//!
//! Feeding the recorder is pull-based: callers
//! [`absorb`](FlightRecorder::absorb) whole [`Trace`] snapshots (e.g. one per
//! query), optionally shifting their timestamps onto a global clock. Tracks
//! are deduplicated by name and domain, so per-query traces recorded on
//! identically-named tracks collapse onto shared lanes. The same remapping
//! is available standalone as [`merge_into`] for building one global
//! timeline out of per-query traces.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::{self, Val};
use crate::metrics::LazyCounter;
use crate::span::{CounterSample, QueryCtx, Trace, TraceEvent, TrackId, TrackInfo};

/// Spans evicted from any flight-recorder ring, process-wide. Exposed on
/// the metrics registry so truncation is visible in `snpgpu metrics`
/// output, not only in postmortem headers.
static DROPPED_SPANS: LazyCounter = LazyCounter::new("trace.flight.dropped_spans");

/// Merges `src` into `dst`, shifting every `src` timestamp forward by
/// `shift_ns`. Tracks are matched by `(name, domain)` — a `src` track with
/// the same name and time domain as an existing `dst` track lands on it;
/// new tracks are appended.
pub fn merge_into(dst: &mut Trace, src: &Trace, shift_ns: u64) {
    let map = remap_tracks(&mut dst.tracks, &src.tracks);
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

/// Maps every `src` track onto `dst` (matching by name + domain, appending
/// the rest); returns the per-`src`-index translation table.
fn remap_tracks(dst: &mut Vec<TrackInfo>, src: &[TrackInfo]) -> Vec<TrackId> {
    src.iter()
        .map(|info| {
            let found = dst
                .iter()
                .position(|d| d.name == info.name && d.domain == info.domain);
            let idx = found.unwrap_or_else(|| {
                dst.push(info.clone());
                dst.len() - 1
            });
            TrackId(idx as u32)
        })
        .collect()
}

#[derive(Debug, Default)]
struct FlightState {
    tracks: Vec<TrackInfo>,
    events: VecDeque<TraceEvent>,
    counters: VecDeque<CounterSample>,
    dropped_events: u64,
    dropped_counters: u64,
}

/// The bounded ring buffer. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` spans and `capacity` counter
    /// samples (at least one each).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(FlightState::default()),
        }
    }

    /// The retention capacity (spans and counter samples each).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Feeds every span and counter sample of `trace` into the ring,
    /// shifting timestamps forward by `shift_ns` (use the query's global
    /// start time to place a per-query trace on the stream clock).
    pub fn absorb(&self, trace: &Trace, shift_ns: u64) {
        let mut st = self.state.lock().unwrap();
        let map = remap_tracks(&mut st.tracks, &trace.tracks);
        for ev in &trace.events {
            let mut ev = ev.clone();
            ev.track = map[ev.track.index() as usize];
            ev.start_ns += shift_ns;
            ev.end_ns += shift_ns;
            if st.events.len() == self.capacity {
                st.events.pop_front();
                st.dropped_events += 1;
                DROPPED_SPANS.add(1);
            }
            st.events.push_back(ev);
        }
        for c in &trace.counters {
            let mut c = c.clone();
            c.track = map[c.track.index() as usize];
            c.ts_ns += shift_ns;
            if st.counters.len() == self.capacity {
                st.counters.pop_front();
                st.dropped_counters += 1;
            }
            st.counters.push_back(c);
        }
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().events.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(spans, counter samples)` evicted so far.
    pub fn dropped(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.dropped_events, st.dropped_counters)
    }

    /// The retained window as an ordinary [`Trace`].
    pub fn snapshot(&self) -> Trace {
        let st = self.state.lock().unwrap();
        Trace {
            tracks: st.tracks.clone(),
            events: st.events.iter().cloned().collect(),
            counters: st.counters.iter().cloned().collect(),
        }
    }

    /// Renders the post-mortem bundle: the retained window as Chrome
    /// `trace_event` JSON with a `"flightRecorder"` header naming the
    /// trigger `reason` and, when known, the failing query's context.
    /// The document still validates with [`crate::chrome::validate`].
    pub fn postmortem(&self, reason: &str, ctx: Option<&QueryCtx>) -> String {
        let trace = self.snapshot();
        let (dropped_events, dropped_counters) = self.dropped();
        json::document(|o| {
            o.key("flightRecorder").obj(|h| {
                h.key("reason").str(reason);
                h.key("query_id").opt(ctx.map(|c| c.query_id), Val::int);
                h.key("tenant").opt(ctx.map(|c| &*c.tenant), Val::str);
                h.key("capacity").int(self.capacity);
                h.key("retained_spans").int(trace.events.len());
                h.key("dropped_spans").int(dropped_events);
                h.key("dropped_counters").int(dropped_counters);
            });
            crate::chrome::write_trace(o, &trace);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TimeDomain, Tracer};

    /// Serialises the tests that evict spans: `DROPPED_SPANS` is
    /// process-wide, so exact-count assertions need the drops of one test
    /// at a time.
    static DROP_LOCK: Mutex<()> = Mutex::new(());

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

    #[test]
    fn ring_retains_only_the_last_n_spans() {
        let _guard = DROP_LOCK.lock().unwrap();
        let rec = FlightRecorder::new(4);
        rec.absorb(&query_trace(1, 3), 0);
        rec.absorb(&query_trace(2, 3), 100);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), (2, 0));
        let snap = rec.snapshot();
        assert_eq!(snap.tracks.len(), 1, "same-named tracks are deduplicated");
        // The survivors are the last span of query 1 and all of query 2.
        assert_eq!(snap.events[0].name, "k2");
        assert_eq!(snap.events[0].start_ns, 20);
        assert_eq!(
            snap.events[3].start_ns, 120,
            "shifted onto the stream clock"
        );
    }

    #[test]
    fn postmortem_is_a_valid_chrome_trace_with_the_failing_query_id() {
        let rec = FlightRecorder::new(16);
        rec.absorb(&query_trace(7, 2), 50);
        let ctx = QueryCtx::new(7, "tenant-a");
        let bundle = rec.postmortem("typed fault: DeviceLoss", Some(&ctx));
        let stats = crate::chrome::validate(&bundle).expect("bundle must validate");
        assert_eq!(stats.slices, 2);
        let doc = json::parse(&bundle).unwrap();
        let head = doc.as_obj().unwrap()["flightRecorder"].as_obj().unwrap();
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
        let rec = FlightRecorder::new(2);
        let bundle = rec.postmortem("slo breach", None);
        crate::chrome::validate(&bundle).expect("empty bundle validates");
        assert!(bundle.contains("\"query_id\":null"));
    }

    #[test]
    fn dropped_spans_counter_matches_the_postmortem_header_under_pressure() {
        let _guard = DROP_LOCK.lock().unwrap();
        DROPPED_SPANS.reset();
        let rec = FlightRecorder::new(3);
        // 4 queries × 5 spans into a 3-slot ring: 17 evictions.
        for q in 0..4 {
            rec.absorb(&query_trace(q, 5), q * 1_000);
        }
        let bundle = rec.postmortem("shed storm", None);
        let doc = json::parse(&bundle).unwrap();
        let head = doc.as_obj().unwrap()["flightRecorder"].as_obj().unwrap();
        assert_eq!(head["capacity"].as_num(), Some(3.0));
        assert_eq!(head["retained_spans"].as_num(), Some(3.0));
        assert_eq!(head["dropped_spans"].as_num(), Some(17.0));
        assert_eq!(rec.dropped().0, 17);
        assert_eq!(
            DROPPED_SPANS.get(),
            17,
            "metrics counter agrees with the header"
        );
    }

    #[test]
    fn postmortem_bytes_are_pinned() {
        let _guard = DROP_LOCK.lock().unwrap();
        let rec = FlightRecorder::new(8);
        rec.absorb(&query_trace(7, 2), 1_250);
        let ctx = QueryCtx::new(7, "tenant \"a\"");
        let reason = "typed fault: \"DeviceLoss\"\n";
        assert_eq!(rec.postmortem(reason, Some(&ctx)), PINNED_WITH_CTX);
        assert_eq!(rec.postmortem("slo breach", None), PINNED_WITHOUT_CTX);
        // A ring that has dropped spans and counter samples.
        let small = FlightRecorder::new(2);
        small.absorb(&query_trace(4, 3), 0);
        small.absorb(&query_trace(5, 2), 500);
        small.absorb(&query_trace(6, 1), 900);
        let ctx = QueryCtx::new(6, "tenant-a");
        assert_eq!(small.postmortem("shed storm", Some(&ctx)), PINNED_DROPPED);
        assert_eq!(
            FlightRecorder::new(1).postmortem("empty", None),
            PINNED_EMPTY
        );
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
