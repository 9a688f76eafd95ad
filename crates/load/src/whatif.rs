//! Causal what-if profiling: replays the same seeded query stream with one
//! component's **virtual cost** scaled, and measures the causal effect on
//! accepted p50/p99 latency and goodput (DESIGN.md §16).
//!
//! This is the virtual-speedup idea of causal profilers (Coz) made exact:
//! because every clock in the stack is virtual and deterministic, we don't
//! need to slow everything *else* down to emulate a speedup — we rescale
//! the component's modeled duration ([`snp_core::CostScale`]) and replay. Two runs
//! differ **only** in that cost, so any latency/goodput delta is causal by
//! construction, including second-order effects (shorter kernels drain the
//! queue sooner, which changes admission verdicts and brownout pressure).
//! The report ranks perturbations by tail-latency leverage, then confirms
//! the winner with an independent replay under different observation
//! settings — virtual timing must not move under tracing, so predicted and
//! replayed p99 agree to the nanosecond.

use std::fmt::Write as _;

use snp_trace::json;

use crate::runner::{run, LoadConfig};

/// One virtual-cost perturbation applied to a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Scale every kernel's modeled duration by this factor.
    KernelScale(f64),
    /// Scale every H2D/D2H transfer's modeled duration by this factor.
    TransferScale(f64),
    /// Scale the admission deadline slack by this factor (more slack
    /// admits queries the feasibility bound would otherwise shed).
    AdmissionSlack(f64),
    /// Flip the scheduler policy (FIFO ↔ fair queueing + EDF) relative to
    /// the base config.
    SchedulerFlip,
}

impl Perturbation {
    /// Stable label used in reports and JSON (`kernel-x0.80`, …).
    pub fn label(&self) -> String {
        match self {
            Perturbation::KernelScale(f) => format!("kernel-x{f:.2}"),
            Perturbation::TransferScale(f) => format!("transfer-x{f:.2}"),
            Perturbation::AdmissionSlack(f) => format!("admission-slack-x{f:.2}"),
            Perturbation::SchedulerFlip => "scheduler-flip".to_string(),
        }
    }

    /// Parses the CLI spelling: `kernel:0.8`, `transfer:0.8`, `slack:1.5`,
    /// or `sched`.
    pub fn parse(s: &str) -> Result<Perturbation, String> {
        if s == "sched" {
            return Ok(Perturbation::SchedulerFlip);
        }
        let (kind, factor) = s
            .split_once(':')
            .ok_or_else(|| format!("perturbation {s:?} is not kind:factor or `sched`"))?;
        let f: f64 = factor
            .parse()
            .map_err(|_| format!("perturbation factor {factor:?} is not a number"))?;
        if !(f.is_finite() && f > 0.0) {
            return Err(format!("perturbation factor {f} must be finite and > 0"));
        }
        match kind {
            "kernel" => Ok(Perturbation::KernelScale(f)),
            "transfer" => Ok(Perturbation::TransferScale(f)),
            "slack" => Ok(Perturbation::AdmissionSlack(f)),
            other => Err(format!(
                "unknown perturbation kind {other:?} (kernel, transfer, slack, sched)"
            )),
        }
    }

    /// Applies this perturbation to a replay config.
    fn apply(&self, cfg: &mut LoadConfig) {
        match self {
            Perturbation::KernelScale(f) => cfg.cost_scale.kernel *= f,
            Perturbation::TransferScale(f) => cfg.cost_scale.transfer *= f,
            Perturbation::AdmissionSlack(f) => cfg.admission.deadline_slack *= f,
            Perturbation::SchedulerFlip => {
                let current = cfg.scheduler_fifo.unwrap_or(!cfg.admission.enabled);
                cfg.scheduler_fifo = Some(!current);
            }
        }
    }
}

/// The default three-perturbation panel: 20% kernel speedup, 20% transfer
/// speedup, scheduler-policy flip.
pub fn default_perturbations() -> Vec<Perturbation> {
    vec![
        Perturbation::KernelScale(0.8),
        Perturbation::TransferScale(0.8),
        Perturbation::SchedulerFlip,
    ]
}

/// The measured causal effect of one perturbation.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// Perturbation label.
    pub label: String,
    /// Accepted p50 under the perturbation.
    pub p50_ns: u64,
    /// Accepted p99 under the perturbation.
    pub p99_ns: u64,
    /// Goodput under the perturbation (deadline-met completions per
    /// virtual second under admission, completed throughput otherwise).
    pub goodput_qps: f64,
    /// `baseline p50 − perturbed p50` (positive = faster).
    pub p50_delta_ns: i64,
    /// `baseline p99 − perturbed p99` (positive = faster).
    pub p99_delta_ns: i64,
    /// Goodput change (positive = more goodput).
    pub goodput_delta_qps: f64,
    /// p99 delta as a fraction of the baseline p99 — the ranking key.
    pub p99_improvement: f64,
}

/// The confirmation replay of the top-ranked perturbation.
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// Which perturbation was confirmed.
    pub label: String,
    /// The p99 the ranked what-if replay predicted.
    pub predicted_p99_ns: u64,
    /// The p99 an independent replay (timeline + anatomy enabled, so the
    /// observation settings differ) actually measured.
    pub replayed_p99_ns: u64,
    /// `|predicted − replayed| / replayed` (0 when both are 0).
    pub relative_error: f64,
    /// Whether the prediction held within the 5% acceptance bound. In a
    /// deterministic virtual-time simulator this must be exact — any drift
    /// means observation is perturbing the timing model.
    pub within_5_percent: bool,
}

/// A ranked speedup-leverage report over one base config.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Device name.
    pub device: String,
    /// Master seed of every replay.
    pub seed: u64,
    /// Stream length.
    pub queries: usize,
    /// Offered rate.
    pub rate_qps: f64,
    /// Accepted p50 of the unperturbed baseline.
    pub baseline_p50_ns: u64,
    /// Accepted p99 of the unperturbed baseline.
    pub baseline_p99_ns: u64,
    /// Baseline goodput.
    pub baseline_goodput_qps: f64,
    /// Perturbation outcomes, ranked by p99 improvement (best first; ties
    /// break by label so the order is total and reproducible).
    pub outcomes: Vec<WhatIfOutcome>,
    /// Confirmation replay of the top-ranked perturbation.
    pub confirmation: Confirmation,
}

/// Replays `cfg` once per perturbation (plus the baseline) and ranks the
/// causal p99 leverage. Every replay shares the seed, so the offered
/// stream is identical; only the scaled cost differs.
pub fn run_whatif(base: &LoadConfig, perturbations: &[Perturbation]) -> WhatIfReport {
    assert!(!perturbations.is_empty(), "need at least one perturbation");
    // Replays are about timing, not artifacts: strip observation costs.
    let mut quiet = base.clone();
    quiet.record_timeline = false;
    quiet.anatomy = false;

    let baseline = run(&quiet);
    let (base_p50, base_p99) = (baseline.p50_all_ns, baseline.p99_all_ns);
    let base_goodput = baseline.goodput_qps();

    let mut outcomes: Vec<WhatIfOutcome> = perturbations
        .iter()
        .map(|p| {
            let mut cfg = quiet.clone();
            p.apply(&mut cfg);
            let report = run(&cfg);
            let goodput = report.goodput_qps();
            WhatIfOutcome {
                label: p.label(),
                p50_ns: report.p50_all_ns,
                p99_ns: report.p99_all_ns,
                goodput_qps: goodput,
                p50_delta_ns: base_p50 as i64 - report.p50_all_ns as i64,
                p99_delta_ns: base_p99 as i64 - report.p99_all_ns as i64,
                goodput_delta_qps: goodput - base_goodput,
                p99_improvement: if base_p99 == 0 {
                    0.0
                } else {
                    (base_p99 as i64 - report.p99_all_ns as i64) as f64 / base_p99 as f64
                },
            }
        })
        .collect();
    outcomes.sort_by(|a, b| {
        b.p99_delta_ns
            .cmp(&a.p99_delta_ns)
            .then_with(|| a.label.cmp(&b.label))
    });

    // Confirm the winner with an independent replay under *different*
    // observation settings: timeline and anatomy on. Virtual timing must
    // be invariant under tracing, so predicted == replayed.
    let top = &outcomes[0];
    let top_perturbation = perturbations
        .iter()
        .find(|p| p.label() == top.label)
        .expect("top outcome corresponds to an input perturbation");
    let mut confirm_cfg = base.clone();
    confirm_cfg.record_timeline = true;
    confirm_cfg.anatomy = true;
    top_perturbation.apply(&mut confirm_cfg);
    let replayed = run(&confirm_cfg);
    let (predicted, actual) = (top.p99_ns, replayed.p99_all_ns);
    let relative_error = if actual == 0 {
        if predicted == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        predicted.abs_diff(actual) as f64 / actual as f64
    };
    let confirmation = Confirmation {
        label: top.label.clone(),
        predicted_p99_ns: predicted,
        replayed_p99_ns: actual,
        relative_error,
        within_5_percent: relative_error <= 0.05,
    };

    WhatIfReport {
        device: quiet.device.name.clone(),
        seed: quiet.seed,
        queries: quiet.queries,
        rate_qps: quiet.rate_qps,
        baseline_p50_ns: base_p50,
        baseline_p99_ns: base_p99,
        baseline_goodput_qps: base_goodput,
        outcomes,
        confirmation,
    }
}

impl WhatIfReport {
    /// Byte-reproducible JSON (fixed key order, fixed-precision floats, no
    /// wall-clock content).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.key("schema_version").int(1);
            o.key("tool").str("snpgpu whatif");
            o.key("device").str(&self.device);
            o.key("seed").int(self.seed);
            o.key("queries").int(self.queries);
            o.key("rate_qps").float(self.rate_qps, 3);
            o.key("baseline").obj(|b| {
                b.key("p50_ns").int(self.baseline_p50_ns);
                b.key("p99_ns").int(self.baseline_p99_ns);
                b.key("goodput_qps").float(self.baseline_goodput_qps, 3);
            });
            o.key("perturbations").objs(&self.outcomes, |p, w| {
                p.key("label").str(&w.label);
                p.key("p50_ns").int(w.p50_ns);
                p.key("p99_ns").int(w.p99_ns);
                p.key("goodput_qps").float(w.goodput_qps, 3);
                p.key("p50_delta_ns").int(w.p50_delta_ns);
                p.key("p99_delta_ns").int(w.p99_delta_ns);
                p.key("goodput_delta_qps").float(w.goodput_delta_qps, 3);
                p.key("p99_improvement").float(w.p99_improvement, 6);
            });
            let c = &self.confirmation;
            o.key("confirmation").obj(|f| {
                f.key("label").str(&c.label);
                f.key("predicted_p99_ns").int(c.predicted_p99_ns);
                f.key("replayed_p99_ns").int(c.replayed_p99_ns);
                f.key("relative_error").float(c.relative_error, 6);
                f.key("within_5_percent").bool(c.within_5_percent);
            });
        })
    }

    /// The human-readable speedup-leverage table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "what-if: {} queries on {} at {:.0} q/s (seed {}), {} perturbation(s)",
            self.queries,
            self.device,
            self.rate_qps,
            self.seed,
            self.outcomes.len()
        );
        let _ = writeln!(
            out,
            "baseline: p50 {:.3} ms, p99 {:.3} ms, goodput {:.0} q/s",
            self.baseline_p50_ns as f64 / 1e6,
            self.baseline_p99_ns as f64 / 1e6,
            self.baseline_goodput_qps
        );
        let _ = writeln!(
            out,
            "{:<4} {:<22} {:>10} {:>10} {:>11} {:>12}",
            "rank", "perturbation", "p50 ms", "p99 ms", "p99 change", "goodput q/s"
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<4} {:<22} {:>10.3} {:>10.3} {:>10.1}% {:>12.0}",
                i + 1,
                o.label,
                o.p50_ns as f64 / 1e6,
                o.p99_ns as f64 / 1e6,
                o.p99_improvement * 100.0,
                o.goodput_qps
            );
        }
        let c = &self.confirmation;
        let _ = writeln!(
            out,
            "confirmation: {} replayed at p99 {:.3} ms vs predicted {:.3} ms \
             ({:.3}% error, {})",
            c.label,
            c.replayed_p99_ns as f64 / 1e6,
            c.predicted_p99_ns as f64 / 1e6,
            c.relative_error * 100.0,
            if c.within_5_percent {
                "within 5%"
            } else {
                "OUT OF BOUNDS"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::arrival::ArrivalKind;
    use crate::workload::Template;
    use snp_gpu_model::devices;

    fn base_cfg() -> LoadConfig {
        let mut cfg = LoadConfig::new(
            devices::titan_v(),
            vec![Template::Ld, Template::FastIdTopK, Template::Mixture],
        );
        cfg.queries = 24;
        cfg.rate_qps = 8_000.0; // queueing pressure so speedups compound
        cfg.record_timeline = false;
        cfg
    }

    #[test]
    fn kernel_speedup_has_causal_p99_leverage() {
        let report = run_whatif(&base_cfg(), &default_perturbations());
        let kernel = report
            .outcomes
            .iter()
            .find(|o| o.label == "kernel-x0.80")
            .expect("kernel outcome present");
        assert!(
            kernel.p99_delta_ns > 0,
            "20% kernel speedup must cut tail latency: {:?}",
            kernel
        );
        assert!(kernel.p99_improvement > 0.0);
        // The ranking is by p99 leverage, best first.
        for w in report.outcomes.windows(2) {
            assert!(w[0].p99_delta_ns >= w[1].p99_delta_ns);
        }
    }

    #[test]
    fn confirmation_replay_matches_prediction_exactly() {
        let report = run_whatif(&base_cfg(), &default_perturbations());
        let c = &report.confirmation;
        assert!(c.within_5_percent, "{c:?}");
        // Determinism is stronger than the 5% bar: observation settings
        // (timeline + anatomy) must not move virtual time at all.
        assert_eq!(c.predicted_p99_ns, c.replayed_p99_ns, "{c:?}");
        assert_eq!(c.relative_error, 0.0);
    }

    #[test]
    fn json_is_byte_reproducible_and_parses() {
        let a = run_whatif(&base_cfg(), &default_perturbations()).to_json();
        let b = run_whatif(&base_cfg(), &default_perturbations()).to_json();
        assert_eq!(a, b);
        let doc = snp_trace::json::parse(&a).expect("valid JSON");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["schema_version"].as_num(), Some(1.0));
        assert_eq!(obj["perturbations"].as_arr().unwrap().len(), 3);
        assert!(obj["confirmation"].as_obj().is_some());
        assert!(a.contains("\"within_5_percent\":true"), "{a}");
        let text = run_whatif(&base_cfg(), &default_perturbations()).render_text();
        assert!(text.contains("confirmation:"), "{text}");
    }

    #[test]
    fn admission_slack_perturbation_runs_under_admission() {
        let mut cfg = base_cfg();
        cfg.queries = 48;
        cfg.arrival = ArrivalKind::Bursty;
        cfg.rate_qps = 64_000.0;
        cfg.admission = AdmissionConfig::standard();
        let perturbations = vec![
            Perturbation::AdmissionSlack(1.5),
            Perturbation::KernelScale(0.8),
        ];
        let report = run_whatif(&cfg, &perturbations);
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.baseline_goodput_qps > 0.0);
        assert!(report.confirmation.within_5_percent);
    }

    #[test]
    fn perturbation_parsing_round_trips_and_rejects_junk() {
        assert_eq!(
            Perturbation::parse("kernel:0.8").unwrap(),
            Perturbation::KernelScale(0.8)
        );
        assert_eq!(
            Perturbation::parse("transfer:0.5").unwrap(),
            Perturbation::TransferScale(0.5)
        );
        assert_eq!(
            Perturbation::parse("slack:1.5").unwrap(),
            Perturbation::AdmissionSlack(1.5)
        );
        assert_eq!(
            Perturbation::parse("sched").unwrap(),
            Perturbation::SchedulerFlip
        );
        assert!(Perturbation::parse("kernel").is_err());
        assert!(Perturbation::parse("warp:0.5").is_err());
        assert!(Perturbation::parse("kernel:-1").is_err());
        assert!(Perturbation::parse("kernel:zero").is_err());
    }

    #[test]
    fn scheduler_flip_toggles_relative_to_base() {
        let mut cfg = base_cfg();
        Perturbation::SchedulerFlip.apply(&mut cfg);
        assert_eq!(cfg.scheduler_fifo, Some(false), "FIFO base flips to WFQ");
        let mut adm = base_cfg();
        adm.admission = AdmissionConfig::standard();
        Perturbation::SchedulerFlip.apply(&mut adm);
        assert_eq!(adm.scheduler_fifo, Some(true), "WFQ base flips to FIFO");
    }
}
