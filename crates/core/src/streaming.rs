//! Streaming top-k identity search.
//!
//! Fig. 8's end-to-end time is dominated by reading the full `γ` matrix
//! back to the host (32 × 20.97 M × 4 B ≈ 2.7 GB) — but a forensic search
//! only needs the best few candidates per query. This module adds the
//! natural production refinement: after each comparison pass, a small
//! device-side *reduction kernel* scans the pass's `γ` chunk and keeps the
//! `k` lowest difference counts per query, so only `k` (index, score) pairs
//! per query per pass cross the PCIe link. The comparison kernel, pass
//! planner, and double buffering are unchanged — this is a drop-in
//! alternative readback strategy, and an ablation quantifies what it saves.

use snp_bitmat::{BitMatrix, CompareOp};
use snp_cpu::CpuEngine;
use snp_faults::{checksum_words, DeviceFault, FaultKind, FaultOp, FaultPlan};
use snp_gpu_model::config::{Algorithm, ProblemShape};
use snp_gpu_model::InstrClass;
use snp_gpu_sim::host::{EventId, Gpu, KernelCost, SimError};
use snp_gpu_sim::macro_engine::Traffic;

use crate::autoconf::{config_for, word_op_kind};
use crate::cpu_model::CpuModel;
use crate::engine::{device_words, EngineError, ExecMode, GpuEngine, Timing};
use crate::kernel::{execute_gamma, KernelPlan};
use crate::recovery::{metrics, QueueHealth, RecoverySummary};
use crate::tiling::plan_passes;

/// One retained candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Database row index.
    pub profile: usize,
    /// Difference count (`γ`); lower is better.
    pub differences: u32,
}

/// Result of a streaming top-k search.
#[derive(Debug, Clone)]
pub struct TopKReport {
    /// Per query: the best `k` candidates, ascending by difference count
    /// (ties broken by profile index). `None` in timing-only mode.
    pub matches: Option<Vec<Vec<Match>>>,
    /// Timing breakdown (same semantics as [`crate::Timing`]).
    pub timing: Timing,
    /// Kernel launches (comparison + reduction).
    pub passes: usize,
    /// Bytes the full-γ readback would have moved.
    pub full_readback_bytes: u64,
    /// Bytes the top-k readback actually moved.
    pub topk_readback_bytes: u64,
    /// What the recovery layer did (None on the fault-free fast path).
    pub recovery: Option<RecoverySummary>,
}

/// Merges `candidates` into the per-query top-k lists.
fn merge_topk(best: &mut Vec<Match>, candidates: impl IntoIterator<Item = Match>, k: usize) {
    best.extend(candidates);
    best.sort_by_key(|m| (m.differences, m.profile));
    best.truncate(k);
}

/// Host-side reference: top-k from a full γ row (used by tests and by the
/// functional reduction).
pub fn topk_of_row(row: &[u32], base_index: usize, k: usize) -> Vec<Match> {
    let mut v: Vec<Match> = row
        .iter()
        .enumerate()
        .map(|(j, &d)| Match {
            profile: base_index + j,
            differences: d,
        })
        .collect();
    v.sort_by_key(|m| (m.differences, m.profile));
    v.truncate(k);
    v
}

impl GpuEngine {
    /// FastID identity search returning only the best `k` database matches
    /// per query. Identical candidate sets to a full
    /// [`identity_search`](Self::identity_search) followed by host-side
    /// selection (tested), at a fraction of the readback traffic.
    pub fn identity_search_topk(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
        k: usize,
    ) -> Result<TopKReport, EngineError> {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(
            queries.words_per_row(),
            database.words_per_row(),
            "packed width mismatch"
        );
        if let Some(fault_plan) = self.fault_plan() {
            return self.identity_search_topk_recovering(queries, database, k, fault_plan.clone());
        }
        let full = self.options().mode == ExecMode::Full;
        let op = CompareOp::Xor;
        let k_words = 2 * queries.words_per_row();
        let (m, n) = (queries.rows(), database.rows());
        let cfg = config_for(
            self.spec(),
            Algorithm::IdentitySearch,
            ProblemShape { m, n, k_words },
        );
        let plan = plan_passes(
            self.spec(),
            &cfg,
            m,
            n,
            k_words,
            self.options().double_buffer,
        )?;

        let gpu = Gpu::with_tracer(self.spec().clone(), self.tracer().clone());
        gpu.set_cost_scale(self.options().cost_scale);
        let tracer = self.tracer();
        let run_track = tracer.track("engine", snp_trace::TimeDomain::Virtual);
        let run_span = tracer.begin_span(run_track, "run", "run: streaming top-k", 0);
        let init_ns = gpu.now_ns();
        let q_xfer = gpu.create_queue_labeled("transfer");
        let q_comp = gpu.create_queue_labeled("compute");
        let copies = if plan.double_buffered { 2 } else { 1 };

        let mk = |words: usize| -> Result<_, EngineError> {
            Ok(if full {
                gpu.create_buffer(words)?
            } else {
                gpu.create_virtual_buffer(words)?
            })
        };
        let a_buf = mk(plan.a_buffer_words().max(1))?;
        let b_bufs: Vec<_> = (0..copies)
            .map(|_| mk(plan.b_buffer_words().max(1)))
            .collect::<Result<_, _>>()?;
        let c_bufs: Vec<_> = (0..copies)
            .map(|_| mk(plan.c_buffer_words().max(1)))
            .collect::<Result<_, _>>()?;
        // Per-slot top-k staging buffer: m x k (index, score) pairs.
        let t_bufs: Vec<_> = (0..copies)
            .map(|_| mk((m * k * 2).max(1)))
            .collect::<Result<_, _>>()?;

        let mut matches: Option<Vec<Vec<Match>>> = full.then(|| vec![Vec::new(); m]);
        let mut pack_ns = 0u64;
        let mut kernel_events: Vec<EventId> = Vec::new();
        let mut in_events: Vec<EventId> = Vec::new();
        let mut out_events: Vec<EventId> = Vec::new();
        let mut last_use: Vec<Option<EventId>> = vec![None; copies];
        let mut topk_bytes = 0u64;

        // Upload all queries once.
        let a_bytes = (m * k_words * 4) as u64;
        pack_ns += self.spec().transfer.pack_ns(a_bytes);
        gpu.host_pack(a_bytes);
        let ev_a = if full {
            let data = device_words(queries, 0, m);
            gpu.enqueue_write(q_xfer, a_buf, 0, &data, &[])?
        } else {
            gpu.enqueue_virtual_write(q_xfer, a_buf, 0, m * k_words, &[])?
        };
        in_events.push(ev_a);

        for (i, nc) in plan.n_chunks.iter().enumerate() {
            let slot = i % copies;
            let b_bytes = (nc.len() * k_words * 4) as u64;
            pack_ns += self.spec().transfer.pack_ns(b_bytes);
            gpu.host_pack(b_bytes);
            let mut deps = Vec::new();
            if let Some(ev) = last_use[slot] {
                deps.push(ev);
            }
            let ev_b = if full {
                let data = device_words(database, nc.lo, nc.hi);
                gpu.enqueue_write(q_xfer, b_bufs[slot], 0, &data, &deps)?
            } else {
                gpu.enqueue_virtual_write(q_xfer, b_bufs[slot], 0, nc.len() * k_words, &deps)?
            };
            in_events.push(ev_b);

            // Comparison kernel (unchanged).
            let kplan = KernelPlan::new(self.spec(), &cfg, op, m, nc.len(), k_words);
            let kdeps = [ev_a, ev_b];
            let ev_k = if full {
                let (m_len, n_len) = (m, nc.len());
                gpu.enqueue_kernel(
                    q_comp,
                    &kplan.cost(),
                    &[a_buf, b_bufs[slot]],
                    c_bufs[slot],
                    &kdeps,
                    |reads, out| {
                        execute_gamma(op, reads[0], reads[1], out, m_len, n_len, k_words);
                    },
                )?
            } else {
                gpu.enqueue_kernel_timed_on(
                    q_comp,
                    &kplan.cost(),
                    &[a_buf, b_bufs[slot]],
                    c_bufs[slot],
                    &kdeps,
                )?
            };
            kernel_events.push(ev_k);

            // Reduction kernel: streams the γ chunk once from global memory
            // (bandwidth-bound) and emits m x k winners. The comparison work
            // per element is a compare+select on the ALU pipe.
            let gamma_bytes = (m * nc.len() * 4) as u64;
            let reduce_cost = reduction_cost(self.spec(), m, nc.len(), gamma_bytes);
            let (base, n_len_r) = (nc.lo, nc.len());
            let ev_r = if full {
                gpu.enqueue_kernel(
                    q_comp,
                    &reduce_cost,
                    &[c_bufs[slot]],
                    t_bufs[slot],
                    &[ev_k],
                    move |reads, out| {
                        let gamma = reads[0];
                        for q in 0..m {
                            let row = &gamma[q * n_len_r..(q + 1) * n_len_r];
                            let top = topk_of_row(row, base, k);
                            for (slot_idx, mt) in top.iter().enumerate() {
                                out[(q * k + slot_idx) * 2] = mt.profile as u32;
                                out[(q * k + slot_idx) * 2 + 1] = mt.differences;
                            }
                            // Pad unused slots with sentinel (u32::MAX).
                            for s in top.len()..k {
                                out[(q * k + s) * 2] = u32::MAX;
                                out[(q * k + s) * 2 + 1] = u32::MAX;
                            }
                        }
                    },
                )?
            } else {
                gpu.enqueue_kernel_timed_on(
                    q_comp,
                    &reduce_cost,
                    &[c_bufs[slot]],
                    t_bufs[slot],
                    &[ev_k],
                )?
            };
            kernel_events.push(ev_r);
            last_use[slot] = Some(ev_r);

            // Read back only the winners.
            let t_bytes = (m * k * 8) as u64;
            topk_bytes += t_bytes;
            let ev_out = if full {
                let mut out = vec![0u32; m * k * 2];
                let ev = gpu.enqueue_read(q_xfer, t_bufs[slot], 0, &mut out, &[ev_r], false)?;
                let lists = matches.as_mut().expect("full mode");
                for (q, list) in lists.iter_mut().enumerate() {
                    let cands = (0..k).filter_map(|s| {
                        let idx = out[(q * k + s) * 2];
                        let d = out[(q * k + s) * 2 + 1];
                        (idx != u32::MAX).then_some(Match {
                            profile: idx as usize,
                            differences: d,
                        })
                    });
                    merge_topk(list, cands, k);
                }
                ev
            } else {
                gpu.enqueue_virtual_read(q_xfer, t_bufs[slot], 0, m * k * 2, &[ev_r])?
            };
            out_events.push(ev_out);
        }
        gpu.finish_all();
        let end_to_end_ns = gpu.now_ns();
        if tracer.is_enabled() {
            tracer.end_span_with(
                run_span,
                end_to_end_ns,
                vec![
                    ("passes", (kernel_events.len() as u64).into()),
                    ("topk_readback_bytes", topk_bytes.into()),
                    ("device", self.spec().name.as_str().into()),
                    ("double_buffered", u64::from(plan.double_buffered).into()),
                ],
            );
        }

        let sum = |evs: &[EventId]| -> u64 {
            evs.iter()
                .map(|&e| gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0))
                .sum()
        };
        let timing = Timing {
            init_ns,
            pack_ns,
            kernel_ns: crate::engine::record_kernel_chunks(&gpu, &kernel_events),
            transfer_in_ns: sum(&in_events),
            transfer_out_ns: sum(&out_events),
            recovery_ns: 0,
            end_to_end_ns,
        };
        // Race-check the finished stream after the timing sums, which
        // profiled every event, so events used only for timing count as
        // used.
        if self.options().verify {
            let report = snp_verify::verify_command_log(&gpu.command_log());
            if report.has_errors() {
                return Err(EngineError::Device(SimError::Hazard(
                    report.render_text("streaming command stream"),
                )));
            }
        }
        Ok(TopKReport {
            matches,
            timing,
            passes: kernel_events.len(),
            full_readback_bytes: (m * n * 4) as u64,
            topk_readback_bytes: topk_bytes,
            recovery: None,
        })
    }

    /// The fault-tolerant streaming search used when a fault plan is armed:
    /// chunk-sequential with bounded retry, checksum-verified winner
    /// readbacks, per-chunk checkpointing of the merged top-k lists, and
    /// CPU fallback for the database chunks after the last checkpoint on
    /// permanent device loss (DESIGN.md §10). Requires [`ExecMode::Full`].
    #[allow(clippy::too_many_lines)]
    fn identity_search_topk_recovering(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
        k: usize,
        faults: FaultPlan,
    ) -> Result<TopKReport, EngineError> {
        let policy = self.options().recovery;
        let op = CompareOp::Xor;
        let k_words = 2 * queries.words_per_row();
        let (m, n) = (queries.rows(), database.rows());
        let cfg = config_for(
            self.spec(),
            Algorithm::IdentitySearch,
            ProblemShape { m, n, k_words },
        );
        let plan = plan_passes(self.spec(), &cfg, m, n, k_words, false)?;

        let gpu = Gpu::with_tracer(self.spec().clone(), self.tracer().clone());
        gpu.set_cost_scale(self.options().cost_scale);
        gpu.set_fault_plan(faults);
        let init_ns = gpu.now_ns();
        let mut q_xfer = gpu.create_queue_labeled("transfer");
        let mut q_comp = gpu.create_queue_labeled("compute");
        let mut health_xfer = QueueHealth::default();
        let mut health_comp = QueueHealth::default();

        let a_buf = gpu.create_buffer(plan.a_buffer_words().max(1))?;
        let b_buf = gpu.create_buffer(plan.b_buffer_words().max(1))?;
        let c_buf = gpu.create_buffer(plan.c_buffer_words().max(1))?;
        let t_buf = gpu.create_buffer((m * k * 2).max(1))?;

        let mut matches: Vec<Vec<Match>> = vec![Vec::new(); m];
        let mut pack_ns = 0u64;
        let mut kernel_events: Vec<EventId> = Vec::new();
        let mut in_events: Vec<EventId> = Vec::new();
        let mut out_events: Vec<EventId> = Vec::new();
        let mut topk_bytes = 0u64;
        let mut summary = RecoverySummary {
            total_chunks: plan.n_chunks.len(),
            ..Default::default()
        };
        let mut lost_at: Option<usize> = None;
        let mut lost_err: Option<EngineError> = None;

        macro_rules! try_or_lose {
            ($lbl:lifetime, $ci:expr, $res:expr) => {
                match $res {
                    Ok(v) => v,
                    Err(e) => {
                        if e.device_fault()
                            .is_some_and(|f| f.kind == FaultKind::DeviceLoss)
                        {
                            lost_at = Some($ci);
                            lost_err = Some(e);
                            break $lbl;
                        }
                        return Err(e);
                    }
                }
            };
        }

        let mut ev_a: Option<EventId> = None;
        'chunks: for (ci, nc) in plan.n_chunks.iter().enumerate() {
            // Queries upload once, before the first chunk (retried here so a
            // loss during upload still checkpoints as "resumed from 0").
            if ev_a.is_none() {
                let a_bytes = (m * k_words * 4) as u64;
                pack_ns += self.spec().transfer.pack_ns(a_bytes);
                gpu.host_pack(a_bytes);
                let data = device_words(queries, 0, m);
                let ev = try_or_lose!(
                    'chunks,
                    ci,
                    Self::attempt_with_retry(
                        &gpu,
                        &policy,
                        &mut summary,
                        &mut health_xfer,
                        &mut q_xfer,
                        "transfer",
                        |q| gpu.enqueue_write(q, a_buf, 0, &data, &[]),
                    )
                );
                in_events.push(ev);
                ev_a = Some(ev);
            }
            let ev_a = ev_a.expect("queries uploaded");

            let b_bytes = (nc.len() * k_words * 4) as u64;
            pack_ns += self.spec().transfer.pack_ns(b_bytes);
            gpu.host_pack(b_bytes);
            let data = device_words(database, nc.lo, nc.hi);
            let bdeps: Vec<EventId> = kernel_events.last().copied().into_iter().collect();
            let ev_b = try_or_lose!(
                'chunks,
                ci,
                Self::attempt_with_retry(
                    &gpu,
                    &policy,
                    &mut summary,
                    &mut health_xfer,
                    &mut q_xfer,
                    "transfer",
                    |q| gpu.enqueue_write(q, b_buf, 0, &data, &bdeps),
                )
            );
            in_events.push(ev_b);

            let kplan = KernelPlan::new(self.spec(), &cfg, op, m, nc.len(), k_words);
            let kdeps = [ev_a, ev_b];
            let (m_len, n_len) = (m, nc.len());
            let ev_k = try_or_lose!(
                'chunks,
                ci,
                Self::attempt_with_retry(
                    &gpu,
                    &policy,
                    &mut summary,
                    &mut health_comp,
                    &mut q_comp,
                    "compute",
                    |q| gpu.enqueue_kernel(
                        q,
                        &kplan.cost(),
                        &[a_buf, b_buf],
                        c_buf,
                        &kdeps,
                        |reads, out| {
                            execute_gamma(op, reads[0], reads[1], out, m_len, n_len, k_words);
                        },
                    ),
                )
            );
            kernel_events.push(ev_k);

            let gamma_bytes = (m * nc.len() * 4) as u64;
            let reduce_cost = reduction_cost(self.spec(), m, nc.len(), gamma_bytes);
            let (base, n_len_r) = (nc.lo, nc.len());
            let ev_r = try_or_lose!(
                'chunks,
                ci,
                Self::attempt_with_retry(
                    &gpu,
                    &policy,
                    &mut summary,
                    &mut health_comp,
                    &mut q_comp,
                    "compute",
                    |q| gpu.enqueue_kernel(
                        q,
                        &reduce_cost,
                        &[c_buf],
                        t_buf,
                        &[ev_k],
                        move |reads, out| {
                            let gamma = reads[0];
                            for qi in 0..m {
                                let row = &gamma[qi * n_len_r..(qi + 1) * n_len_r];
                                let top = topk_of_row(row, base, k);
                                for (slot_idx, mt) in top.iter().enumerate() {
                                    out[(qi * k + slot_idx) * 2] = mt.profile as u32;
                                    out[(qi * k + slot_idx) * 2 + 1] = mt.differences;
                                }
                                for s in top.len()..k {
                                    out[(qi * k + s) * 2] = u32::MAX;
                                    out[(qi * k + s) * 2 + 1] = u32::MAX;
                                }
                            }
                        },
                    ),
                )
            );
            kernel_events.push(ev_r);

            // Winner readback, checksum-verified and re-read on mismatch.
            let t_bytes = (m * k * 8) as u64;
            topk_bytes += t_bytes;
            let mut out = vec![0u32; m * k * 2];
            let mut verify_attempts = 0u32;
            loop {
                let ev_out = try_or_lose!(
                    'chunks,
                    ci,
                    Self::attempt_with_retry(
                        &gpu,
                        &policy,
                        &mut summary,
                        &mut health_xfer,
                        &mut q_xfer,
                        "transfer",
                        |q| gpu.enqueue_read(q, t_buf, 0, &mut out, &[ev_r], true),
                    )
                );
                out_events.push(ev_out);
                if !policy.checksums {
                    break;
                }
                let (dev_sum, ev_s) = try_or_lose!(
                    'chunks,
                    ci,
                    Self::attempt_with_retry(
                        &gpu,
                        &policy,
                        &mut summary,
                        &mut health_xfer,
                        &mut q_xfer,
                        "transfer",
                        |q| gpu.enqueue_checksum_read(q, t_buf, 0, m * k * 2, &[ev_r]),
                    )
                );
                out_events.push(ev_s);
                if dev_sum == checksum_words(&out) {
                    break;
                }
                summary.corruption_detected += 1;
                metrics::CORRUPTION_DETECTED.add(1);
                verify_attempts += 1;
                if verify_attempts > policy.max_retries {
                    return Err(EngineError::Device(SimError::DeviceFault(DeviceFault {
                        kind: FaultKind::ReadCorruption,
                        op: FaultOp::Read,
                        command_index: gpu.command_log().commands.len() as u64,
                    })));
                }
            }
            for (qi, list) in matches.iter_mut().enumerate() {
                let cands = (0..k).filter_map(|s| {
                    let idx = out[(qi * k + s) * 2];
                    let d = out[(qi * k + s) * 2 + 1];
                    (idx != u32::MAX).then_some(Match {
                        profile: idx as usize,
                        differences: d,
                    })
                });
                merge_topk(list, cands, k);
            }
            summary.verified_chunks += 1;
            metrics::CHECKPOINT_CHUNKS.add(1);
        }

        // Device loss: finish the remaining database chunks on the CPU,
        // merging into the checkpointed top-k lists.
        let mut fallback_ns_total = 0u64;
        if let Some(ci) = lost_at {
            summary.device_lost = true;
            summary.resumed_from_chunk = Some(ci);
            metrics::DEVICE_LOSS.add(1);
            if gpu.tracer().is_enabled() {
                gpu.tracer().span_with(
                    gpu.host_track(),
                    "fault",
                    "device lost",
                    gpu.now_ns(),
                    gpu.now_ns(),
                    vec![("resume_chunk", ci.into())],
                );
            }
            if !policy.cpu_fallback {
                return Err(lost_err.expect("loss recorded with its error"));
            }
            let cpu = CpuEngine::new();
            let model = CpuModel::ivy_bridge_workstation();
            let kind = word_op_kind(op);
            let mut fallback_ns = 0f64;
            for nc in &plan.n_chunks[ci..] {
                let sub = cpu.gamma(queries, &database.row_slice(nc.lo, nc.hi), op);
                for (qi, list) in matches.iter_mut().enumerate() {
                    merge_topk(list, topk_of_row(sub.row(qi), nc.lo, k), k);
                }
                fallback_ns += model.time_ns(kind, m, nc.len(), queries.words_per_row());
                summary.cpu_fallback_chunks += 1;
                metrics::CPU_FALLBACK_CHUNKS.add(1);
            }
            fallback_ns_total = fallback_ns.ceil() as u64;
            let fb_start = gpu.now_ns();
            gpu.advance_host_ns(fallback_ns_total);
            if gpu.tracer().is_enabled() {
                gpu.tracer().span_with(
                    gpu.host_track(),
                    "fallback",
                    "cpu fallback",
                    fb_start,
                    fb_start + fallback_ns_total,
                    vec![("chunks", summary.cpu_fallback_chunks.into())],
                );
            }
        }
        gpu.finish_all();
        summary.injected = gpu.fault_stats();
        summary.stalls_absorbed = summary.injected.queue_stalls;

        let sum = |evs: &[EventId]| -> u64 {
            evs.iter()
                .map(|&e| gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0))
                .sum()
        };
        let timing = Timing {
            init_ns,
            pack_ns,
            kernel_ns: crate::engine::record_kernel_chunks(&gpu, &kernel_events),
            transfer_in_ns: sum(&in_events),
            transfer_out_ns: sum(&out_events),
            recovery_ns: summary.backoff_ns + fallback_ns_total,
            end_to_end_ns: gpu.now_ns(),
        };
        // Recovered streams must still verify clean.
        if self.options().verify {
            let report = snp_verify::verify_command_log(&gpu.command_log());
            if report.has_errors() {
                return Err(EngineError::Device(SimError::Hazard(
                    report.render_text("streaming command stream"),
                )));
            }
        }
        Ok(TopKReport {
            matches: Some(matches),
            timing,
            passes: kernel_events.len(),
            full_readback_bytes: (m * n * 4) as u64,
            topk_readback_bytes: topk_bytes,
            recovery: Some(summary),
        })
    }
}

/// Timing model of the reduction: one streaming read of the γ chunk bounded
/// by DRAM bandwidth, plus a compare-select per element on the integer pipe.
fn reduction_cost(
    dev: &snp_gpu_model::DeviceSpec,
    m: usize,
    n: usize,
    gamma_bytes: u64,
) -> KernelCost {
    let elements = (m * n) as f64;
    let lanes = dev.n_fn(InstrClass::IntAdd).unwrap_or(16) as f64 * dev.n_clusters as f64;
    // Two ALU ops (compare + conditional move) per element across all cores.
    let core_cycles = 2.0 * elements / (lanes * dev.n_cores as f64);
    KernelCost::Analytic {
        core_cycles,
        active_cores: dev.n_cores,
        traffic: Traffic {
            read_bytes: gamma_bytes,
            write_bytes: (m * 64) as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::MixtureStrategy;
    use snp_gpu_model::devices;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        // Non-separable hash: no two rows share a bit pattern.
        BitMatrix::from_fn(rows, cols, |r, c| {
            let h = (r * 1_000_003 + c + salt * 7_777_777).wrapping_mul(0x9E37_79B9);
            (h >> 13).is_multiple_of(4)
        })
    }

    #[test]
    fn topk_matches_full_search_selection() {
        let q = matrix(6, 512, 1);
        let db = matrix(700, 512, 2);
        for dev in devices::all_gpus() {
            let engine = GpuEngine::new(dev.clone());
            let full = engine.identity_search(&q, &db).unwrap().gamma.unwrap();
            let topk = engine.identity_search_topk(&q, &db, 5).unwrap();
            let lists = topk.matches.unwrap();
            for (qi, list) in lists.iter().enumerate() {
                let want = topk_of_row(full.row(qi), 0, 5);
                assert_eq!(list, &want, "{} query {qi}", dev.name);
            }
        }
    }

    #[test]
    fn topk_correct_across_chunked_passes() {
        let mut dev = devices::titan_v();
        // Keep the name (and hence the Table II preset with n_r = 1024) but
        // shrink memory so the 1500-row database needs several B chunks
        // while one 1024-row tile still fits.
        dev.max_alloc_bytes = 100_000;
        dev.global_mem_bytes = 1_000_000;
        let q = matrix(4, 600, 3);
        let db = matrix(1500, 600, 4);
        let engine = GpuEngine::new(dev);
        let report = engine.identity_search_topk(&q, &db, 3).unwrap();
        assert!(report.passes > 2, "expected chunked passes");
        let full = GpuEngine::new(devices::titan_v())
            .identity_search(&q, &db)
            .unwrap()
            .gamma
            .unwrap();
        let lists = report.matches.unwrap();
        for (qi, list) in lists.iter().enumerate() {
            assert_eq!(list, &topk_of_row(full.row(qi), 0, 3), "query {qi}");
        }
    }

    #[test]
    fn chunked_topk_stream_verifies_clean() {
        let mut dev = devices::titan_v();
        dev.max_alloc_bytes = 100_000;
        dev.global_mem_bytes = 1_000_000;
        let q = matrix(4, 600, 3);
        let db = matrix(1500, 600, 4);
        for mode in [ExecMode::Full, ExecMode::TimingOnly] {
            let opts = EngineOptions {
                mode,
                verify: true,
                ..Default::default()
            };
            let report = GpuEngine::new(dev.clone())
                .with_options(opts)
                .identity_search_topk(&q, &db, 3)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(report.passes > 2, "{mode:?}: expected chunked passes");
        }
    }

    #[test]
    fn planted_query_is_rank_one() {
        let db = matrix(400, 384, 5);
        let q = db.row_slice(123, 124);
        let engine = GpuEngine::new(devices::vega_64());
        let report = engine.identity_search_topk(&q, &db, 3).unwrap();
        let top = &report.matches.unwrap()[0];
        assert_eq!(
            top[0],
            Match {
                profile: 123,
                differences: 0
            }
        );
        assert!(top[1].differences > 0);
    }

    #[test]
    fn readback_savings_reported_and_time_improves_at_scale() {
        let opts = EngineOptions {
            mode: ExecMode::TimingOnly,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            ..Default::default()
        };
        let q = BitMatrix::<u64>::zeros(32, 1024);
        let db = BitMatrix::<u64>::zeros(20_971_520, 1024);
        let dev = devices::titan_v();
        let engine = GpuEngine::new(dev.clone()).with_options(opts);
        let topk = engine.identity_search_topk(&q, &db, 10).unwrap();
        let full = engine.identity_search(&q, &db).unwrap();
        assert!(topk.topk_readback_bytes < topk.full_readback_bytes / 1000);
        assert!(
            topk.timing.end_to_end_ns < full.timing.end_to_end_ns,
            "top-k must beat the 2.7 GB γ readback: {} vs {}",
            topk.timing.end_to_end_ns,
            full.timing.end_to_end_ns
        );
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let q = matrix(2, 128, 6);
        let db = matrix(5, 128, 7);
        let report = GpuEngine::new(devices::gtx_980())
            .identity_search_topk(&q, &db, 50)
            .unwrap();
        let lists = report.matches.unwrap();
        assert_eq!(lists[0].len(), 5, "only 5 profiles exist");
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        let q = matrix(1, 64, 8);
        let _ = GpuEngine::new(devices::gtx_980()).identity_search_topk(&q, &q, 0);
    }
}
