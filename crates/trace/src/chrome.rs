//! Chrome `trace_event` JSON export and a schema validator.
//!
//! The exporter emits the stable subset of the Trace Event Format that
//! `chrome://tracing` and Perfetto both accept: a `{"traceEvents": [...]}`
//! container holding `ph:"M"` metadata (process/thread names), `ph:"X"`
//! complete slices, and `ph:"C"` counter samples, one event per line,
//! written through [`crate::json`]'s writer. Timestamps are microseconds,
//! so nanosecond inputs keep sub-µs precision as exact fractions.
//!
//! Time domains map to processes: every [`TimeDomain::Virtual`] track is a
//! thread of pid [`VIRTUAL_PID`] and every [`TimeDomain::Wall`] track a
//! thread of pid [`WALL_PID`]. Viewers group threads under their process,
//! so the two clocks render as separate lanes and are never visually
//! compared against each other.

use crate::json::{self, Obj, Value};
use crate::span::{ArgValue, TimeDomain, Trace};

/// Chrome-trace pid hosting all virtual-time tracks.
pub const VIRTUAL_PID: u32 = 0;
/// Chrome-trace pid hosting all wall-time tracks.
pub const WALL_PID: u32 = 1;

fn pid_for(domain: TimeDomain) -> u32 {
    match domain {
        TimeDomain::Virtual => VIRTUAL_PID,
        TimeDomain::Wall => WALL_PID,
    }
}

/// Renders a [`Trace`] as a Chrome `trace_event` JSON document.
///
/// Slices and counter samples are sorted by timestamp; metadata events come
/// first. Load the result in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
pub fn export_chrome_trace(trace: &Trace) -> String {
    json::document(|o| write_trace(o, trace))
}

/// Writes the members of a Chrome `trace_event` document into `o`: the
/// display unit and the `traceEvents` array, one event per line.
pub(crate) fn write_trace(o: &mut Obj, trace: &Trace) {
    o.key("displayTimeUnit").str("ns");
    o.key("traceEvents").lines(|a| {
        // Process metadata: one per time domain actually in use.
        let mut domains: Vec<TimeDomain> = trace.tracks.iter().map(|t| t.domain).collect();
        domains.sort_by_key(|d| pid_for(*d));
        domains.dedup();
        for d in &domains {
            let label = match d {
                TimeDomain::Virtual => "virtual time (simulated ns)",
                TimeDomain::Wall => "wall time (host ns)",
            };
            a.item().obj(|e| {
                metadata(e, "process_name", pid_for(*d), 0);
                e.key("args").obj(|args| args.key("name").str(label));
            });
        }

        // Thread metadata: one per track, plus an explicit sort order so
        // tracks render in registration order rather than alphabetically.
        for (idx, track) in trace.tracks.iter().enumerate() {
            let pid = pid_for(track.domain);
            a.item().obj(|e| {
                metadata(e, "thread_name", pid, idx);
                e.key("args").obj(|args| args.key("name").str(&track.name));
            });
            a.item().obj(|e| {
                metadata(e, "thread_sort_index", pid, idx);
                e.key("args").obj(|args| args.key("sort_index").int(idx));
            });
        }

        // Complete slices, sorted by start time (ties keep recording order).
        let mut order: Vec<usize> = (0..trace.events.len()).collect();
        order.sort_by_key(|&i| trace.events[i].start_ns);
        for i in order {
            let ev = &trace.events[i];
            a.item().obj(|e| {
                e.key("ph").str("X");
                e.key("name").str(&ev.name);
                e.key("cat").str(ev.cat);
                e.key("ts").fixed(ev.start_ns, 3);
                e.key("dur").fixed(ev.duration_ns(), 3);
                e.key("pid").int(pid_for(trace.track(ev.track).domain));
                e.key("tid").int(ev.track.index());
                e.key("args").obj(|args| {
                    for (k, v) in &ev.args {
                        match v {
                            ArgValue::U64(n) => args.key(k).int(*n),
                            ArgValue::F64(f) => args.key(k).shortest(*f),
                            ArgValue::Str(s) => args.key(k).str(s),
                        }
                    }
                });
            });
        }

        // Counter samples, sorted by timestamp. Viewers need a number, so a
        // non-finite sample is drawn as 0.
        let mut corder: Vec<usize> = (0..trace.counters.len()).collect();
        corder.sort_by_key(|&i| trace.counters[i].ts_ns);
        for i in corder {
            let c = &trace.counters[i];
            a.item().obj(|e| {
                e.key("ph").str("C");
                e.key("name").str(&c.name);
                e.key("ts").fixed(c.ts_ns, 3);
                e.key("pid").int(pid_for(trace.track(c.track).domain));
                e.key("tid").int(c.track.index());
                let v = if c.value.is_finite() { c.value } else { 0.0 };
                e.key("args").obj(|args| args.key("value").shortest(v));
            });
        }
    });
}

/// The leading members of a `ph:"M"` metadata event.
fn metadata(e: &mut Obj, name: &str, pid: u32, tid: usize) {
    e.key("ph").str("M");
    e.key("name").str(name);
    e.key("pid").int(pid);
    e.key("tid").int(tid);
}

/// Counts from a validated Chrome-trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceStats {
    /// `ph:"M"` metadata events.
    pub metadata: usize,
    /// `ph:"X"` complete slices.
    pub slices: usize,
    /// `ph:"C"` counter samples.
    pub counters: usize,
}

fn require_num(obj: &std::collections::BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("event missing numeric {key:?} field"))
}

fn require_str<'a>(
    obj: &'a std::collections::BTreeMap<String, Value>,
    key: &str,
) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event missing string {key:?} field"))
}

/// Validates that `text` is a schema-well-formed Chrome `trace_event`
/// document as produced by [`export_chrome_trace`]: parses as JSON, has a
/// `traceEvents` array, every event carries the fields its phase requires,
/// timestamps are finite and non-negative, and slices on each `(pid, tid)`
/// lane are sorted by start time. Returns per-phase counts on success.
pub fn validate(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let root = doc.as_obj().ok_or("document root is not an object")?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing \"traceEvents\" array")?;

    let mut stats = ChromeTraceStats::default();
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let ph = require_str(obj, "ph").map_err(|e| format!("traceEvents[{i}]: {e}"))?;
        let check = |r: Result<f64, String>| r.map_err(|e| format!("traceEvents[{i}]: {e}"));
        match ph {
            "M" => {
                let name =
                    require_str(obj, "name").map_err(|e| format!("traceEvents[{i}]: {e}"))?;
                if !matches!(name, "process_name" | "thread_name" | "thread_sort_index") {
                    return Err(format!("traceEvents[{i}]: unknown metadata {name:?}"));
                }
                obj.get("args")
                    .and_then(Value::as_obj)
                    .ok_or_else(|| format!("traceEvents[{i}]: metadata missing args object"))?;
                stats.metadata += 1;
            }
            "X" => {
                require_str(obj, "name").map_err(|e| format!("traceEvents[{i}]: {e}"))?;
                let ts = check(require_num(obj, "ts"))?;
                let dur = check(require_num(obj, "dur"))?;
                let pid = check(require_num(obj, "pid"))?;
                let tid = check(require_num(obj, "tid"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("traceEvents[{i}]: negative or non-finite ts"));
                }
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("traceEvents[{i}]: negative or non-finite dur"));
                }
                let lane = (pid as u64, tid as u64);
                if let Some(prev) = last_ts.get(&lane) {
                    if ts < *prev {
                        return Err(format!(
                            "traceEvents[{i}]: slice ts {ts} out of order on pid {pid} tid {tid}"
                        ));
                    }
                }
                last_ts.insert(lane, ts);
                stats.slices += 1;
            }
            "C" => {
                require_str(obj, "name").map_err(|e| format!("traceEvents[{i}]: {e}"))?;
                let ts = check(require_num(obj, "ts"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("traceEvents[{i}]: negative or non-finite ts"));
                }
                let args = obj
                    .get("args")
                    .and_then(Value::as_obj)
                    .ok_or_else(|| format!("traceEvents[{i}]: counter missing args object"))?;
                if args.is_empty() || !args.values().all(|v| v.as_num().is_some()) {
                    return Err(format!(
                        "traceEvents[{i}]: counter args must be non-empty numeric"
                    ));
                }
                stats.counters += 1;
            }
            other => return Err(format!("traceEvents[{i}]: unsupported phase {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::enabled();
        let q0 = t.track("queue 0 (transfer)", TimeDomain::Virtual);
        let q1 = t.track("queue 1 (compute)", TimeDomain::Virtual);
        let cpu = t.track("cpu tasks", TimeDomain::Wall);
        t.span_with(
            q0,
            "transfer",
            "write B",
            0,
            1_500,
            vec![("bytes", 4096u64.into())],
        );
        t.span(q1, "kernel", "gamma 64x128", 1_500, 9_000);
        t.span(q0, "transfer", "read C", 9_000, 10_250);
        t.span(cpu, "task", "pack", 100, 900);
        t.counter(q0, "sim.timing_cache.hits", 9_000, 3.0);
        t.snapshot().unwrap()
    }

    #[test]
    fn export_validates_and_counts() {
        let text = export_chrome_trace(&sample_trace());
        let stats = validate(&text).unwrap();
        // 2 process_name + 3 × (thread_name + thread_sort_index)
        assert_eq!(stats.metadata, 8);
        assert_eq!(stats.slices, 4);
        assert_eq!(stats.counters, 1);
    }

    #[test]
    fn export_uses_fractional_microseconds() {
        let text = export_chrome_trace(&sample_trace());
        // read C: start 9_000 ns, 1_250 ns long → ts 9 µs, dur "1.250" µs.
        assert!(text.contains("\"ts\":9,"));
        assert!(text.contains("\"dur\":1.250"));
        // kernel starts at 1_500 ns → fractional "1.500" µs timestamp.
        assert!(text.contains("\"ts\":1.500"));
    }

    #[test]
    fn domains_map_to_distinct_pids() {
        let text = export_chrome_trace(&sample_trace());
        let doc = json::parse(&text).unwrap();
        let events = doc.as_obj().unwrap()["traceEvents"].as_arr().unwrap();
        let pid_of = |name: &str| -> f64 {
            events
                .iter()
                .filter_map(Value::as_obj)
                .find(|o| o.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|o| o.get("pid"))
                .and_then(Value::as_num)
                .unwrap()
        };
        assert_eq!(pid_of("gamma 64x128") as u32, VIRTUAL_PID);
        assert_eq!(pid_of("pack") as u32, WALL_PID);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(validate(r#"{"traceEvents":[{"ph":"Q","name":"x"}]}"#).is_err());
        assert!(validate(
            r#"{"traceEvents":[{"ph":"X","name":"a","ts":-1,"dur":0,"pid":0,"tid":0,"args":{}}]}"#
        )
        .is_err());
        // Out-of-order slices on one lane.
        assert!(validate(
            r#"{"traceEvents":[
                {"ph":"X","name":"a","ts":5,"dur":1,"pid":0,"tid":0,"args":{}},
                {"ph":"X","name":"b","ts":2,"dur":1,"pid":0,"tid":0,"args":{}}
            ]}"#
        )
        .is_err());
        // Same timestamps on different lanes are fine.
        assert!(validate(
            r#"{"traceEvents":[
                {"ph":"X","name":"a","ts":5,"dur":1,"pid":0,"tid":0,"args":{}},
                {"ph":"X","name":"b","ts":2,"dur":1,"pid":0,"tid":1,"args":{}}
            ]}"#
        )
        .is_ok());
    }

    #[test]
    fn counter_only_trace_exports_and_validates() {
        // A trace with counter samples but no spans (e.g. a metrics-only
        // sampling run) must still export a schema-valid document.
        let t = Tracer::enabled();
        let tr = t.track("metrics", TimeDomain::Virtual);
        t.counter(tr, "load.inflight", 0, 1.0);
        t.counter(tr, "load.inflight", 500, 3.0);
        t.counter(tr, "load.inflight", 1_000, 0.0);
        let text = export_chrome_trace(&t.snapshot().unwrap());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.slices, 0);
        assert_eq!(stats.counters, 3);
        // 1 process_name + thread_name + thread_sort_index for the track.
        assert_eq!(stats.metadata, 3);
        // Counter samples with non-numeric args are rejected.
        assert!(validate(
            r#"{"traceEvents":[{"ph":"C","name":"c","ts":1,"pid":0,"tid":0,"args":{"value":"x"}}]}"#
        )
        .is_err());
        assert!(validate(
            r#"{"traceEvents":[{"ph":"C","name":"c","ts":1,"pid":0,"tid":0,"args":{}}]}"#
        )
        .is_err());
    }

    /// Both time domains, every `ArgValue` kind (non-finite floats among
    /// them), fractional-µs timestamps, non-finite counter samples, and
    /// names that need escaping.
    fn pinned_trace() -> Trace {
        let t = Tracer::enabled();
        let dev = t.track("dev \"0\" · virtual", TimeDomain::Virtual);
        let host = t.track("host\\cpu", TimeDomain::Wall);
        t.span_with(
            dev,
            "ker\"nel",
            "gamma\t64x128\n",
            1_500,
            10_250,
            vec![
                ("words", 4096u64.into()),
                ("ratio", 0.1f64.into()),
                ("scale", 1e21f64.into()),
                ("tiny", (-2.5e-7f64).into()),
                ("nan", f64::NAN.into()),
                ("inf", f64::INFINITY.into()),
                ("label", "a\"b\\c\u{1}é".into()),
            ],
        );
        t.span(host, "task", "pack", 7, 1_000_003);
        t.span(dev, "transfer", "read C", 0, 999);
        t.counter(dev, "sim.busy", 2_001, 0.25);
        t.counter(host, "load.inflight", 999, f64::NAN);
        t.counter(dev, "neg \"inf\"", 3_000, f64::NEG_INFINITY);
        t.counter(dev, "whole", 4_000, 3.0);
        t.snapshot().unwrap()
    }

    #[test]
    fn export_bytes_are_pinned() {
        assert_eq!(export_chrome_trace(&pinned_trace()), PINNED_EXPORT);
        assert_eq!(
            export_chrome_trace(&Trace::default()),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n"
        );
    }

    const PINNED_EXPORT: &str = r#"{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"virtual time (simulated ns)"}},
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"wall time (host ns)"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"dev \"0\" · virtual"}},
{"ph":"M","name":"thread_sort_index","pid":0,"tid":0,"args":{"sort_index":0}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"host\\cpu"}},
{"ph":"M","name":"thread_sort_index","pid":1,"tid":1,"args":{"sort_index":1}},
{"ph":"X","name":"read C","cat":"transfer","ts":0,"dur":0.999,"pid":0,"tid":0,"args":{}},
{"ph":"X","name":"pack","cat":"task","ts":0.007,"dur":999.996,"pid":1,"tid":1,"args":{}},
{"ph":"X","name":"gamma\t64x128\n","cat":"ker\"nel","ts":1.500,"dur":8.750,"pid":0,"tid":0,"args":{"words":4096,"ratio":0.1,"scale":1000000000000000000000,"tiny":-0.00000025,"nan":null,"inf":null,"label":"a\"b\\c\u0001é"}},
{"ph":"C","name":"load.inflight","ts":0.999,"pid":1,"tid":1,"args":{"value":0}},
{"ph":"C","name":"sim.busy","ts":2.001,"pid":0,"tid":0,"args":{"value":0.25}},
{"ph":"C","name":"neg \"inf\"","ts":3,"pid":0,"tid":0,"args":{"value":0}},
{"ph":"C","name":"whole","ts":4,"pid":0,"tid":0,"args":{"value":3}}
]}
"#;

    #[test]
    fn empty_trace_exports_cleanly() {
        let stats = validate(&export_chrome_trace(&Trace::default())).unwrap();
        assert_eq!(stats, ChromeTraceStats::default());
    }
}
