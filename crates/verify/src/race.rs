//! Vector-clock race detection over the simulated host's command DAG.
//!
//! The simulator executes functionally in enqueue order, so a missing event
//! dependency never corrupts *data* in simulation — but it would on a real
//! OpenCL device, where queues run concurrently and only in-order queue
//! semantics plus event waits order commands. This analyzer finds exactly
//! those latent bugs: pairs of commands that touch overlapping buffer
//! ranges without a happens-before edge.
//!
//! ## Ordering model
//!
//! Two sources of guaranteed ordering exist (DESIGN.md §9):
//!
//! * **in-order queues** — command `k+1` on a queue starts after command
//!   `k` on the same queue completes;
//! * **event waits** — a command starts after every event in its wait list
//!   completes.
//!
//! Resource serialization (the single host↔device link, the one-kernel-at-
//! a-time compute engine) also orders commands *in this simulator*, but it
//! is incidental — a device with two DMA engines would not provide it — so
//! it deliberately contributes no happens-before edges here.
//!
//! Happens-before is computed with per-queue vector clocks: each command's
//! clock is the join of its queue predecessor's clock and its dependencies'
//! clocks, bumped in its own queue slot. `a` happens-before `b` iff `b`'s
//! clock at `a`'s queue has reached `a`'s position in that queue.

use crate::diag::{Diagnostic, Report, Severity};
use snp_gpu_sim::host::{CommandKind, CommandLog, CommandRecord};

fn kind_name(kind: CommandKind) -> &'static str {
    match kind {
        CommandKind::Write => "write",
        CommandKind::Read => "read",
        CommandKind::Kernel => "kernel",
    }
}

/// Per-command ordering state derived from the log.
struct Clocks {
    /// `vc[i][q]` = highest position on queue `q` known to precede (or be)
    /// command `i`.
    vc: Vec<Vec<u64>>,
    /// 1-based position of command `i` within its own queue.
    pos: Vec<u64>,
    /// Enqueue index of command `i`'s predecessor on its queue.
    prev_on_queue: Vec<Option<usize>>,
}

fn join_into(acc: &mut [u64], other: &[u64]) {
    for (a, o) in acc.iter_mut().zip(other) {
        *a = (*a).max(*o);
    }
}

fn compute_clocks(log: &CommandLog) -> Clocks {
    let n = log.commands.len();
    let nq = log.queue_count.max(1);
    let mut vc: Vec<Vec<u64>> = Vec::with_capacity(n);
    let mut pos = Vec::with_capacity(n);
    let mut prev_on_queue = Vec::with_capacity(n);
    let mut frontier: Vec<Option<usize>> = vec![None; nq];
    let mut queue_len = vec![0u64; nq];
    for (i, rec) in log.commands.iter().enumerate() {
        let q = rec.queue.index();
        let mut clock = vec![0u64; nq];
        if let Some(p) = frontier[q] {
            join_into(&mut clock, &vc[p]);
        }
        for d in &rec.deps {
            // Event index == command index by construction of the log.
            if let Some(dvc) = vc.get(d.index()) {
                join_into(&mut clock, dvc);
            }
        }
        queue_len[q] += 1;
        clock[q] = queue_len[q];
        pos.push(queue_len[q]);
        prev_on_queue.push(frontier[q]);
        frontier[q] = Some(i);
        vc.push(clock);
    }
    Clocks {
        vc,
        pos,
        prev_on_queue,
    }
}

impl Clocks {
    /// Does command `a` happen before command `b` (a ≠ b)?
    fn happens_before(&self, log: &CommandLog, a: usize, b: usize) -> bool {
        let qa = log.commands[a].queue.index();
        self.vc[b][qa] >= self.pos[a]
    }
}

fn hazard_between(i: &CommandRecord, j: &CommandRecord) -> Option<(&'static str, usize)> {
    // Priority: a write/write conflict is reported as WAW even if one side
    // also reads (kernels read their inputs and write their output).
    for wi in &i.writes {
        for wj in &j.writes {
            if wi.overlaps(wj) {
                return Some(("V003-WAW", wi.buffer.index()));
            }
        }
    }
    for wi in &i.writes {
        for rj in &j.reads {
            if wi.overlaps(rj) {
                return Some(("V001-RAW", wi.buffer.index()));
            }
        }
    }
    for ri in &i.reads {
        for wj in &j.writes {
            if ri.overlaps(wj) {
                return Some(("V002-WAR", ri.buffer.index()));
            }
        }
    }
    None
}

/// Runs the full command-DAG analysis: hazards (errors), dead events
/// (warnings), transitively redundant waits and cross-queue overlap
/// statistics (infos).
pub fn verify_command_log(log: &CommandLog) -> Report {
    let mut report = Report::default();
    let n = log.commands.len();
    if n == 0 {
        return report;
    }
    let clocks = compute_clocks(log);

    // --- Hazards: unordered pairs touching overlapping ranges. -----------
    for j in 1..n {
        let rj = &log.commands[j];
        if rj.reads.is_empty() && rj.writes.is_empty() {
            continue;
        }
        for i in 0..j {
            let ri = &log.commands[i];
            if clocks.happens_before(log, i, j) {
                continue;
            }
            if let Some((code, buffer)) = hazard_between(ri, rj) {
                let sev = Severity::Error;
                let msg = format!(
                    "{} #{} (queue {}) and {} #{} (queue {}) touch buffer {} with no \
                     happens-before edge; enqueue order is not execution order on a real device",
                    kind_name(ri.kind),
                    i,
                    ri.queue.index(),
                    kind_name(rj.kind),
                    j,
                    rj.queue.index(),
                    buffer,
                );
                report.diagnostics.push(Diagnostic {
                    code,
                    severity: sev,
                    message: msg,
                    commands: vec![i, j],
                    buffer: Some(buffer),
                });
            }
        }
    }

    // --- Dead events: never waited on and never profiled. -----------------
    let mut waited = vec![false; n];
    for rec in &log.commands {
        for d in &rec.deps {
            if let Some(w) = waited.get_mut(d.index()) {
                *w = true;
            }
        }
    }
    for (i, rec) in log.commands.iter().enumerate() {
        let profiled = log.profiled.get(i).copied().unwrap_or(false);
        if !waited[i] && !profiled {
            report.diagnostics.push(Diagnostic {
                code: "V004-UNUSED-EVENT",
                severity: Severity::Warning,
                message: format!(
                    "event of {} #{} (queue {}) is never waited on and never profiled",
                    kind_name(rec.kind),
                    i,
                    rec.queue.index(),
                ),
                commands: vec![i],
                buffer: None,
            });
        }
    }

    // --- Redundant waits: deps already implied by the remaining edges. ----
    let nq = log.queue_count.max(1);
    for (i, rec) in log.commands.iter().enumerate() {
        for (k, d) in rec.deps.iter().enumerate() {
            let di = d.index();
            if di >= n {
                continue;
            }
            // Join of the queue predecessor and every *other* dependency.
            let mut without = vec![0u64; nq];
            if let Some(p) = clocks.prev_on_queue[i] {
                join_into(&mut without, &clocks.vc[p]);
            }
            for (k2, d2) in rec.deps.iter().enumerate() {
                if k2 != k {
                    if let Some(dvc) = clocks.vc.get(d2.index()) {
                        join_into(&mut without, dvc);
                    }
                }
            }
            let dq = log.commands[di].queue.index();
            if without[dq] >= clocks.pos[di] {
                report.diagnostics.push(Diagnostic {
                    code: "V005-REDUNDANT-WAIT",
                    severity: Severity::Info,
                    message: format!(
                        "{} #{}: wait on event #{} is already implied transitively",
                        kind_name(rec.kind),
                        i,
                        di,
                    ),
                    commands: vec![i, di],
                    buffer: None,
                });
            }
        }
    }

    // --- Cross-queue overlap statistics. ----------------------------------
    if log.queue_count > 1 {
        let mut pairs = 0u64;
        let mut overlap_ns = 0u64;
        for j in 1..n {
            let rj = &log.commands[j];
            for ri in log.commands.iter().take(j) {
                if ri.queue == rj.queue {
                    continue;
                }
                let lo = ri.profile.start_ns.max(rj.profile.start_ns);
                let hi = ri.profile.end_ns.min(rj.profile.end_ns);
                if lo < hi {
                    pairs += 1;
                    overlap_ns += hi - lo;
                }
            }
        }
        report.diagnostics.push(Diagnostic {
            code: "V006-OVERLAP",
            severity: Severity::Info,
            message: format!(
                "{pairs} cross-queue command pair(s) overlap in time for {overlap_ns} ns total",
            ),
            commands: Vec::new(),
            buffer: None,
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::devices;
    use snp_gpu_sim::host::{Gpu, KernelCost};
    use snp_gpu_sim::macro_engine::Traffic;

    fn cost() -> KernelCost {
        KernelCost {
            core_cycles: 100_000.0,
            active_cores: 4,
            traffic: Traffic::default(),
        }
    }

    fn errors(report: &Report) -> Vec<&'static str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn ordered_stream_is_clean() {
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(1024).unwrap();
        let c = g.create_virtual_buffer(1024).unwrap();
        let ew = g.enqueue_virtual_write(q0, b, 0, 1024, &[]).unwrap();
        let ek = g
            .enqueue_kernel_timed_on(q1, &cost(), &[b], c, &[ew])
            .unwrap();
        let er = g.enqueue_virtual_read(q0, c, 0, 1024, &[ek]).unwrap();
        let _ = g.event_profile(er).unwrap();
        let report = verify_command_log(&g.command_log());
        assert!(errors(&report).is_empty(), "{}", report.render_text("t"));
        assert!(!report.has_blocking(), "{}", report.render_text("t"));
    }

    #[test]
    fn missing_kernel_dep_is_a_raw_hazard() {
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(1024).unwrap();
        let c = g.create_virtual_buffer(1024).unwrap();
        let _ew = g.enqueue_virtual_write(q0, b, 0, 1024, &[]).unwrap();
        let ek = g
            .enqueue_kernel_timed_on(q1, &cost(), &[b], c, &[]) // missing ew!
            .unwrap();
        let _ = g.event_profile(ek).unwrap();
        let report = verify_command_log(&g.command_log());
        assert_eq!(errors(&report), vec!["V001-RAW"]);
        let d = report.with_code("V001-RAW").next().unwrap();
        assert_eq!(d.commands, vec![0, 1]);
        assert_eq!(d.buffer, Some(b.index()));
    }

    #[test]
    fn unordered_reader_then_writer_is_war() {
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(256).unwrap();
        let c = g.create_virtual_buffer(256).unwrap();
        let ew = g.enqueue_virtual_write(q0, b, 0, 256, &[]).unwrap();
        let ek = g
            .enqueue_kernel_timed_on(q1, &cost(), &[b], c, &[ew])
            .unwrap();
        // Overwrite b without waiting for the kernel that reads it.
        let e2 = g.enqueue_virtual_write(q0, b, 0, 256, &[]).unwrap();
        for e in [ek, e2] {
            let _ = g.event_profile(e).unwrap();
        }
        let report = verify_command_log(&g.command_log());
        assert_eq!(errors(&report), vec!["V002-WAR"]);
    }

    #[test]
    fn unordered_writers_are_waw_and_disjoint_ranges_are_not() {
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(1024).unwrap();
        let e0 = g.enqueue_virtual_write(q0, b, 0, 512, &[]).unwrap();
        let e1 = g.enqueue_virtual_write(q1, b, 256, 512, &[]).unwrap();
        // Disjoint halves from a third command: no extra hazard.
        let e2 = g.enqueue_virtual_write(q1, b, 768, 256, &[]).unwrap();
        for e in [e0, e1, e2] {
            let _ = g.event_profile(e).unwrap();
        }
        let report = verify_command_log(&g.command_log());
        assert_eq!(errors(&report), vec!["V003-WAW"]);
        let d = report.with_code("V003-WAW").next().unwrap();
        assert_eq!(d.commands, vec![0, 1]);
    }

    #[test]
    fn same_queue_ordering_needs_no_events() {
        let g = Gpu::new(devices::gtx_980());
        let q = g.create_queue();
        let b = g.create_virtual_buffer(64).unwrap();
        let e0 = g.enqueue_virtual_write(q, b, 0, 64, &[]).unwrap();
        let e1 = g.enqueue_virtual_write(q, b, 0, 64, &[]).unwrap();
        for e in [e0, e1] {
            let _ = g.event_profile(e).unwrap();
        }
        let report = verify_command_log(&g.command_log());
        assert!(errors(&report).is_empty());
    }

    #[test]
    fn transitive_ordering_through_a_third_queue_is_seen() {
        // w(b) on q0 -> kernel on q1 (dep) -> read waits on the kernel; a
        // later write to b waits only on the read but is still ordered
        // after the kernel transitively.
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(128).unwrap();
        let c = g.create_virtual_buffer(128).unwrap();
        let ew = g.enqueue_virtual_write(q0, b, 0, 128, &[]).unwrap();
        let ek = g
            .enqueue_kernel_timed_on(q1, &cost(), &[b], c, &[ew])
            .unwrap();
        let er = g.enqueue_virtual_read(q0, c, 0, 128, &[ek]).unwrap();
        let e2 = g.enqueue_virtual_write(q0, b, 0, 128, &[er]).unwrap();
        let _ = g.event_profile(e2).unwrap();
        let report = verify_command_log(&g.command_log());
        assert!(errors(&report).is_empty(), "{}", report.render_text("t"));
    }

    #[test]
    fn dead_event_warns_and_profiling_silences() {
        let g = Gpu::new(devices::gtx_980());
        let q = g.create_queue();
        let b = g.create_virtual_buffer(16).unwrap();
        let ev = g.enqueue_virtual_write(q, b, 0, 16, &[]).unwrap();
        let report = verify_command_log(&g.command_log());
        assert_eq!(report.with_code("V004-UNUSED-EVENT").count(), 1);
        let _ = g.event_profile(ev).unwrap();
        let report = verify_command_log(&g.command_log());
        assert_eq!(report.with_code("V004-UNUSED-EVENT").count(), 0);
    }

    #[test]
    fn redundant_same_queue_wait_is_an_info() {
        let g = Gpu::new(devices::gtx_980());
        let q = g.create_queue();
        let b = g.create_virtual_buffer(16).unwrap();
        let c = g.create_virtual_buffer(16).unwrap();
        let e0 = g.enqueue_virtual_write(q, b, 0, 16, &[]).unwrap();
        // Same queue: the wait adds nothing the queue order does not.
        let e1 = g
            .enqueue_kernel_timed_on(q, &cost(), &[b], c, &[e0])
            .unwrap();
        let _ = g.event_profile(e1).unwrap();
        let report = verify_command_log(&g.command_log());
        let d = report.with_code("V005-REDUNDANT-WAIT").next().unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.commands, vec![1, 0]);
        assert!(!report.has_blocking());
    }

    #[test]
    fn overlap_stats_reported_for_multi_queue_streams() {
        let g = Gpu::new(devices::gtx_980());
        let q0 = g.create_queue();
        let q1 = g.create_queue();
        let b = g.create_virtual_buffer(1 << 20).unwrap();
        let c0 = g.create_virtual_buffer(16).unwrap();
        let c1 = g.create_virtual_buffer(16).unwrap();
        // A long transfer on q0 overlapping a kernel on q1.
        let e0 = g.enqueue_virtual_write(q0, b, 0, 1 << 20, &[]).unwrap();
        let e1 = g
            .enqueue_kernel_timed_on(q1, &cost(), &[c0], c1, &[])
            .unwrap();
        for e in [e0, e1] {
            let _ = g.event_profile(e).unwrap();
        }
        let report = verify_command_log(&g.command_log());
        let d = report.with_code("V006-OVERLAP").next().unwrap();
        assert!(d.message.starts_with("1 cross-queue"), "{}", d.message);
    }
}
