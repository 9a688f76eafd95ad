//! Report rendering: the `slo-report.json` machine format and the human
//! text table.
//!
//! The JSON goes through [`snp_trace::json`]'s writer with a fixed key
//! order and fixed-precision floats, so a seeded run renders
//! byte-identically everywhere: the umbrella crate's golden test pins the
//! seeded loadgen, overload-chaos and what-if reports under `results/`.

use std::fmt::Write as _;

use snp_trace::json::{self, Obj, Val};

use crate::runner::{AdmissionReport, ChaosReport, LoadReport, SweepReport, CHAOS_RATE_MULTIPLIER};
use crate::slo::SloOutcome;

/// A load run's verdict, in rising severity: silent corruption outranks a
/// blown shed budget, which outranks a latency breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every objective held.
    Ok,
    /// A latency objective or error budget was breached.
    SloBreach,
    /// Admission shed more of the offered load than its budget allows.
    ShedBudgetExceeded,
    /// The corruption oracle caught a wrong result.
    Corruption,
}

impl Verdict {
    /// The `snpgpu` exit code for this verdict (README "Exit codes").
    pub fn exit_code(self) -> u8 {
        match self {
            Verdict::Ok => 0,
            Verdict::Corruption => 5,
            Verdict::SloBreach => 6,
            Verdict::ShedBudgetExceeded => 7,
        }
    }
}

fn slo_json(o: &mut Obj, s: &SloOutcome) {
    o.key("algorithm").str(s.algorithm);
    o.key("count").int(s.count);
    o.key("p50_ns").int(s.p50_ns);
    o.key("p95_ns").int(s.p95_ns);
    o.key("p99_ns").int(s.p99_ns);
    o.key("max_ns").int(s.max_ns);
    o.key("mean_ns").float(s.mean_ns, 1);
    o.key("queue_wait_p99_ns").int(s.queue_wait_p99_ns);
    o.key("failed").int(s.failed);
    o.key("objective").obj(|obj| {
        obj.key("p50_ns").int(s.objective.p50_ns);
        obj.key("p99_ns").int(s.objective.p99_ns);
        obj.key("error_budget").float(s.objective.error_budget, 6);
    });
    o.key("budget_burn").float(s.budget_burn, 6);
    o.key("breached").bool(s.breached);
    o.key("reasons").arr(|a| {
        for r in &s.reasons {
            a.item().str(r);
        }
    });
}

fn admission_json(o: &mut Obj, a: &AdmissionReport) {
    o.key("offered").int(a.offered);
    o.key("admitted").int(a.admitted);
    o.key("shed").obj(|shed| {
        shed.key("quota_exceeded").int(a.shed_quota);
        shed.key("queue_full").int(a.shed_queue_full);
        shed.key("deadline_unmeetable").int(a.shed_deadline);
        shed.key("total")
            .int(a.shed_quota + a.shed_queue_full + a.shed_deadline);
    });
    o.key("shed_fraction").float(a.shed_fraction, 6);
    o.key("shed_budget_exceeded").bool(a.shed_budget_exceeded);
    o.key("goodput").int(a.goodput);
    o.key("goodput_qps").float(a.goodput_qps, 3);
    o.key("tenant_goodput_ratio")
        .float(a.tenant_goodput_ratio, 3);
    o.key("corruptions").int(a.corruptions);
    o.key("final_tier").str(a.final_tier.label());
    o.key("transitions").objs(&a.transitions, |t, step| {
        t.key("at_ns").int(step.at_ns);
        t.key("to").str(step.to.label());
    });
    o.key("tenants").objs(&a.tenants, |t, tenant| {
        t.key("name").str(tenant.name);
        // Every tenant gets an equal share; the key keeps the schema.
        t.key("weight").float(1.0, 3);
        t.key("offered").int(tenant.offered);
        t.key("admitted").int(tenant.admitted);
        t.key("shed").int(tenant.shed);
        t.key("completed").int(tenant.completed);
        t.key("goodput").int(tenant.goodput);
    });
}

impl LoadReport {
    /// The run's verdict: the most severe one that applies.
    pub fn verdict(&self) -> Verdict {
        let adm = self.admission.as_ref();
        [
            (self.breached, Verdict::SloBreach),
            (
                adm.is_some_and(|a| a.shed_budget_exceeded),
                Verdict::ShedBudgetExceeded,
            ),
            (adm.is_some_and(|a| a.corruptions > 0), Verdict::Corruption),
        ]
        .into_iter()
        .filter_map(|(hit, verdict)| hit.then_some(verdict))
        .max()
        .unwrap_or(Verdict::Ok)
    }

    /// The `slo-report.json` document for a single run. Deterministic for
    /// a fixed config: no wall-clock content, fixed-precision floats.
    pub fn to_json(&self) -> String {
        json::document(|o| self.write_json(o))
    }

    /// Writes the run report's members into `o`; a report that nests a
    /// run (a sweep point, an overload-chaos cell) writes it in place.
    pub fn write_json(&self, o: &mut Obj) {
        o.key("schema_version").int(3);
        o.key("tool").str("snpgpu loadgen");
        o.key("device").str(&self.device);
        o.key("seed").int(self.seed);
        o.key("arrival").str(self.arrival.name());
        o.key("rate_qps").float(self.rate_qps, 3);
        o.key("queries").int(self.records.len());
        o.key("fault_profile")
            .opt(self.fault_profile.as_deref(), Val::str);
        o.key("duration_virtual_ns").int(self.duration_ns);
        o.key("achieved_qps").float(self.achieved_qps, 3);
        o.key("overall").obj(|p| {
            p.key("p50_ns").int(self.p50_all_ns);
            p.key("p99_ns").int(self.p99_all_ns);
        });
        let c = &self.outcomes;
        o.key("outcomes").obj(|n| {
            n.key("clean").int(c.clean);
            n.key("recovered").int(c.recovered);
            n.key("degraded").int(c.degraded);
            n.key("fault").int(c.fault);
            n.key("error").int(c.error);
            n.key("shed").int(c.shed);
        });
        o.key("admission").opt(self.admission.as_ref(), |v, a| {
            v.obj(|o| admission_json(o, a))
        });
        o.key("anatomy")
            .opt(self.anatomy.as_ref(), |v, a| v.obj(|o| a.write_json(o)));
        o.key("flight_dropped_spans")
            .int(self.flight_dropped_spans());
        o.key("algorithms").objs(&self.slo, slo_json);
        o.key("slo_breached").bool(self.breached);
        let reason = self.postmortem.as_ref().map(|p| p.reason.as_str());
        o.key("postmortem_reason").opt(reason, Val::str);
    }

    /// The human-readable run report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} queries on {} at {:.0} q/s ({} arrivals, seed {})",
            self.records.len(),
            self.device,
            self.rate_qps,
            self.arrival.name(),
            self.seed
        );
        if let Some(p) = &self.fault_profile {
            let _ = writeln!(out, "fault injection: profile {p}");
        }
        let _ = writeln!(
            out,
            "makespan {:.3} ms virtual, achieved {:.0} q/s, overall p50 {:.3} ms p99 {:.3} ms",
            self.duration_ns as f64 / 1e6,
            self.achieved_qps,
            self.p50_all_ns as f64 / 1e6,
            self.p99_all_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "outcomes: {} clean, {} recovered, {} degraded, {} fault, {} error, {} shed",
            self.outcomes.clean,
            self.outcomes.recovered,
            self.outcomes.degraded,
            self.outcomes.fault,
            self.outcomes.error,
            self.outcomes.shed
        );
        if let Some(a) = &self.admission {
            let _ = writeln!(
                out,
                "admission: {} offered, {} admitted, {} shed ({:.1}%){} [quota {}, queue {}, deadline {}]",
                a.offered,
                a.admitted,
                a.offered - a.admitted,
                a.shed_fraction * 100.0,
                if a.shed_budget_exceeded {
                    " OVER BUDGET"
                } else {
                    ""
                },
                a.shed_quota,
                a.shed_queue_full,
                a.shed_deadline
            );
            for t in &a.tenants {
                let _ = writeln!(
                    out,
                    "  tenant {:<10} weight 1.0: offered {:>3} admitted {:>3} shed {:>3} goodput {:>3}",
                    t.name, t.offered, t.admitted, t.shed, t.goodput
                );
            }
            let ratio = if a.tenant_goodput_ratio.is_finite() {
                format!("{:.2}", a.tenant_goodput_ratio)
            } else {
                "inf (starved tenant)".to_string()
            };
            let _ = writeln!(
                out,
                "goodput {} ({:.0} q/s), tenant goodput ratio {}, corruptions {}",
                a.goodput, a.goodput_qps, ratio, a.corruptions
            );
            let _ = writeln!(
                out,
                "brownout: final tier {}, {} transition(s)",
                a.final_tier.label(),
                a.transitions.len()
            );
        }
        let dropped = self.flight_dropped_spans();
        if dropped > 0 {
            let _ = writeln!(
                out,
                "flight recorder dropped {dropped} span(s) (raise --flight-capacity to keep more)"
            );
        }
        let _ = writeln!(
            out,
            "{:<9} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7} {:>6}  slo",
            "algorithm", "count", "p50 ms", "p95 ms", "p99 ms", "wait p99", "failed", "burn"
        );
        for o in &self.slo {
            let _ = writeln!(
                out,
                "{:<9} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7} {:>6.2}  {}",
                o.algorithm,
                o.count,
                o.p50_ns as f64 / 1e6,
                o.p95_ns as f64 / 1e6,
                o.p99_ns as f64 / 1e6,
                o.queue_wait_p99_ns as f64 / 1e6,
                o.failed,
                o.budget_burn,
                if o.breached { "BREACH" } else { "ok" }
            );
            for r in &o.reasons {
                let _ = writeln!(out, "          ! {r}");
            }
        }
        if let Some(anatomy) = &self.anatomy {
            out.push_str(&anatomy.render_text());
        }
        if let Some(pm) = &self.postmortem {
            let _ = writeln!(out, "flight recorder dumped: {}", pm.reason);
        }
        out
    }
}

impl SweepReport {
    /// The `slo-report.json` document for a sweep: per-point run reports
    /// (each with per-algorithm percentiles) plus the detected knee.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.key("schema_version").int(1);
            o.key("tool").str("snpgpu loadgen --sweep");
            let knee = self.knee.map(|i| self.points[i].rate_qps);
            o.key("knee_rate_qps").opt(knee, |v, r| v.float(r, 3));
            o.key("goodput_retention")
                .opt(self.goodput_retention(), |v, r| v.float(r, 6));
            o.key("points").objs(&self.points, |p, point| {
                p.key("rate_qps").float(point.rate_qps, 3);
                p.key("goodput_qps").float(point.report.goodput_qps(), 3);
                p.key("report").obj(|r| point.report.write_json(r));
            });
        })
    }

    /// The human-readable sweep table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "saturation sweep: {} offered-load points",
            self.points.len()
        );
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10} {:>7}  slo",
            "offered q/s",
            "achieved q/s",
            "goodput q/s",
            "shed %",
            "p50 ms",
            "p99 ms",
            "wait p99",
            "failed"
        );
        for (i, p) in self.points.iter().enumerate() {
            let r = &p.report;
            let failed: usize = r.slo.iter().map(|o| o.failed).sum();
            let wait_p99 = r.slo.iter().map(|o| o.queue_wait_p99_ns).max().unwrap_or(0);
            let shed_pct = r
                .admission
                .as_ref()
                .map_or(0.0, |a| a.shed_fraction * 100.0);
            let _ = writeln!(
                out,
                "{:>12.0} {:>12.0} {:>12.0} {:>8.1} {:>10.3} {:>10.3} {:>10.3} {:>7}  {}{}",
                p.rate_qps,
                r.achieved_qps,
                r.goodput_qps(),
                shed_pct,
                r.p50_all_ns as f64 / 1e6,
                r.p99_all_ns as f64 / 1e6,
                wait_p99 as f64 / 1e6,
                failed,
                if r.breached { "BREACH" } else { "ok" },
                if self.knee == Some(i) {
                    "  <- knee"
                } else {
                    ""
                }
            );
        }
        if let Some(r) = self.goodput_retention() {
            let _ = writeln!(
                out,
                "goodput past the knee stays within {:.1}% of the knee point",
                (1.0 - r) * 100.0
            );
        }
        match self.knee {
            Some(i) => {
                let _ = writeln!(
                    out,
                    "saturation knee at ~{:.0} q/s offered (p99 >= 2x the lightest point)",
                    self.points[i].rate_qps
                );
            }
            None => {
                let _ = writeln!(out, "no saturation knee within the swept range");
            }
        }
        out
    }

    /// Whether any point breached its SLO.
    pub fn breached(&self) -> bool {
        self.points.iter().any(|p| p.report.breached)
    }
}

impl ChaosReport {
    /// The worst cell's verdict.
    pub fn verdict(&self) -> Verdict {
        let cells = self.cells.iter().map(|c| c.report.verdict());
        cells.max().unwrap_or(Verdict::Ok)
    }

    /// Silent corruptions caught across every cell.
    fn corruptions(&self) -> usize {
        let cells = self
            .cells
            .iter()
            .filter_map(|c| c.report.admission.as_ref());
        cells.map(|a| a.corruptions).sum()
    }

    /// The overload-chaos document: the scenario, the verdict, and each
    /// cell's run report.
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let fault = cfg.fault.as_ref().expect("overload-chaos arms a fault");
        json::document(|o| {
            o.key("schema_version").int(1);
            o.key("kind").str("overload-chaos");
            o.key("device").str(&cfg.device.name);
            o.key("rate_qps").float(cfg.rate_qps, 3);
            o.key("arrival").str(cfg.arrival.name());
            o.key("fault_profile").str(&fault.profile_name);
            o.key("silent_corruptions").int(self.corruptions());
            o.key("worst_exit").int(self.verdict().exit_code());
            o.key("cells").objs(&self.cells, |c, cell| {
                c.key("algorithm").str(cell.algorithm);
                c.key("exit").int(cell.report.verdict().exit_code());
                c.key("report").obj(|r| cell.report.write_json(r));
            });
        })
    }

    /// The human-readable matrix: the scenario, one row per cell, the
    /// verdict.
    pub fn render_text(&self) -> String {
        let cfg = &self.config;
        let fault = cfg.fault.as_ref().expect("overload-chaos arms a fault");
        let armed = match fault.at_query {
            Some(q) => format!("at query {q}"),
            None => "on every query".to_string(),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "overload-chaos: {} cell(s) on {} — bursty arrivals at {:.0} q/s ({}x), \
             fault {} {armed}, admission on (shed budget {:.0}%)",
            self.cells.len(),
            cfg.device.name,
            cfg.rate_qps,
            CHAOS_RATE_MULTIPLIER,
            fault.profile_name,
            cfg.admission.shed_budget * 100.0,
        );
        for cell in &self.cells {
            let adm = cell.report.admission.as_ref().expect("admission is on");
            let ratio = if adm.tenant_goodput_ratio.is_finite() {
                format!("{:.2}", adm.tenant_goodput_ratio)
            } else {
                "inf (starved tenant)".to_string()
            };
            let _ = writeln!(
                out,
                "  cell {:<8} offered {:>3}, admitted {:>3}, shed {:>5.1}%, \
                 goodput {:>8.1} q/s, tenant ratio {ratio}, corruptions {}, \
                 final tier {}, exit {}",
                cell.algorithm,
                adm.offered,
                adm.admitted,
                adm.shed_fraction * 100.0,
                adm.goodput_qps,
                adm.corruptions,
                adm.final_tier.label(),
                cell.report.verdict().exit_code(),
            );
        }
        let _ = writeln!(
            out,
            "verdict: {} silent corruption(s) across {} cell(s), worst exit {}",
            self.corruptions(),
            self.cells.len(),
            self.verdict().exit_code(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run, saturation_sweep, LoadConfig};
    use crate::workload::Template;
    use snp_gpu_model::devices;

    fn cfg() -> LoadConfig {
        let mut cfg = LoadConfig::new(devices::titan_v(), vec![Template::Ld, Template::FastId]);
        cfg.queries = 12;
        cfg.record_timeline = false;
        cfg
    }

    #[test]
    fn json_is_byte_reproducible_and_parses() {
        let a = run(&cfg()).to_json();
        let b = run(&cfg()).to_json();
        assert_eq!(a, b, "seeded run JSON must be byte-identical");
        let doc = snp_trace::json::parse(&a).expect("valid JSON");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["schema_version"].as_num(), Some(3.0));
        assert!(obj.contains_key("anatomy"), "schema v3 carries anatomy");
        assert!(
            obj["anatomy"].as_obj().is_none(),
            "anatomy renders null when not requested"
        );
        let algs = obj["algorithms"].as_arr().unwrap();
        assert!(!algs.is_empty());
        for a in algs {
            let o = a.as_obj().unwrap();
            for key in ["p50_ns", "p95_ns", "p99_ns"] {
                assert!(o[key].as_num().is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn sweep_json_parses_and_embeds_points() {
        let sweep = saturation_sweep(&cfg(), &[1.0, 2.0]);
        let json = sweep.to_json();
        let doc = snp_trace::json::parse(&json).expect("valid JSON");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["points"].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn admission_block_renders_in_json_and_text() {
        use crate::admission::AdmissionConfig;
        use crate::arrival::ArrivalKind;
        let mut c = cfg();
        c.queries = 32;
        c.rate_qps = 100_000.0;
        c.arrival = ArrivalKind::Bursty;
        c.admission = AdmissionConfig::standard();
        let r = run(&c);
        let json = r.to_json();
        let doc = snp_trace::json::parse(&json).expect("valid JSON");
        let adm = doc.as_obj().unwrap()["admission"].as_obj().unwrap();
        assert_eq!(adm["offered"].as_num(), Some(32.0));
        let shed = adm["shed"].as_obj().unwrap();
        assert!(shed["total"].as_num().is_some());
        assert!(adm["final_tier"].as_str().is_some());
        let text = r.render_text();
        assert!(text.contains("admission:"), "{text}");
        assert!(text.contains("tenant casework"), "{text}");
        assert!(text.contains("brownout:"), "{text}");
    }

    #[test]
    fn anatomy_block_renders_in_json_and_text() {
        let mut c = cfg();
        c.anatomy = true;
        let r = run(&c);
        let json = r.to_json();
        let doc = snp_trace::json::parse(&json).expect("valid JSON");
        let anatomy = doc.as_obj().unwrap()["anatomy"].as_obj().unwrap();
        assert_eq!(anatomy["bands"].as_arr().unwrap().len(), 4);
        assert!(anatomy["attributed_fraction"].as_num().unwrap() >= 0.95);
        let text = r.render_text();
        assert!(text.contains("latency anatomy"), "{text}");
        assert!(text.contains("sched_queue"), "{text}");
    }

    #[test]
    fn text_reports_render() {
        let r = run(&cfg());
        let text = r.render_text();
        assert!(text.contains("loadgen:"));
        assert!(text.contains("ld"));
        let sweep = saturation_sweep(&cfg(), &[1.0]);
        assert!(sweep.render_text().contains("saturation sweep"));
    }
}
