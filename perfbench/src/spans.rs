//! The traced run's span recorder. Spans are kept in memory and written
//! out when the run ends, as Chrome trace JSON and a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`<layer>.<call>`) or grouping (`op`, `probe.<layer>`).
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to, for spans inside a workload op.
    pub op: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records strictly nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }
}

impl Recorder {
    /// A recorder whose spans only run their closure (untraced ops).
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children. Returns `f`'s result and the span's duration in ns.
    pub fn span<T>(
        &mut self,
        name: &str,
        op: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            return (f(self), 0);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let op = op.or_else(|| parent.and_then(|p| self.spans[p].op));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        (out, end - start_ns)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the
    /// span's duration minus the part its children cover (children are
    /// nested and sequential, so that part is the sum of their durations).
    pub fn self_times(&self) -> BTreeMap<String, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut table: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = table.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(child_ns[i]);
        }
        table
    }

    /// The self-time table as text, heaviest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<_> = self.self_times().into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then_with(|| a.0.cmp(&b.0)));
        let mut out = format!(
            "{:<44} {:>7} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_us/call"
        );
        for (name, (count, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<44} {count:>7} {:>12.3} {:>12.3} {:>12.2}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / 1e3 / count as f64
            );
        }
        out
    }

    /// Chrome `trace_event` JSON: one complete (`X`) slice per span on a
    /// single wall-clock lane, with its op id and parent index as args.
    pub fn chrome_json(&self, label: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"perfbench {label}\"}}}},\n\
             {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"benchmark thread\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.op.map_or(-1, |o| o as i64),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_subtracts_children_and_ops_propagate() {
        let mut r = Recorder::default();
        r.span("op", Some(7), |r| {
            spin(200_000);
            r.span("child", None, |_| spin(300_000));
        });
        let t = r.self_times();
        let (_, op_total, op_self) = t["op"];
        let (_, child_total, child_self) = t["child"];
        assert_eq!(child_total, child_self);
        assert_eq!(op_self, op_total - child_total);
        assert!(op_self >= 200_000);
        assert_eq!(r.spans()[1].op, Some(7));
        assert_eq!(r.spans()[1].parent, Some(0));
    }

    #[test]
    fn chrome_export_passes_the_program_validator() {
        let mut r = Recorder::default();
        r.span("op", Some(0), |r| {
            r.span("a", None, |_| ());
            r.span("b", None, |_| ());
        });
        let stats = snp_trace::chrome::validate(&r.chrome_json("test")).expect("valid trace");
        assert_eq!(stats.slices, 3);
    }
}
