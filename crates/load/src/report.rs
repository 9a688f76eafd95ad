//! Report rendering: the `slo-report.json` machine format and the human
//! text table.
//!
//! The JSON is written by hand (the workspace is offline — no serde) with
//! a fixed key order and fixed-precision floats, so a seeded run renders
//! byte-identically everywhere: the umbrella crate's golden test pins the
//! seeded loadgen, overload-chaos and what-if reports under `results/`.

use std::fmt::Write as _;

use crate::runner::{AdmissionReport, LoadReport, SweepReport};
use crate::slo::SloOutcome;

fn escape(s: &str) -> String {
    let mut out = String::new();
    snp_trace::json::escape_into(&mut out, s);
    out
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".to_string(),
    }
}

fn slo_json(o: &SloOutcome) -> String {
    let reasons: Vec<String> = o
        .reasons
        .iter()
        .map(|r| format!("\"{}\"", escape(r)))
        .collect();
    format!(
        concat!(
            "{{\"algorithm\":\"{alg}\",\"count\":{count},",
            "\"p50_ns\":{p50},\"p95_ns\":{p95},\"p99_ns\":{p99},\"max_ns\":{max},",
            "\"mean_ns\":{mean:.1},\"queue_wait_p99_ns\":{qw},\"failed\":{failed},",
            "\"objective\":{{\"p50_ns\":{op50},\"p99_ns\":{op99},\"error_budget\":{budget:.6}}},",
            "\"budget_burn\":{burn:.6},\"breached\":{breached},\"reasons\":[{reasons}]}}"
        ),
        alg = o.algorithm,
        count = o.count,
        p50 = o.p50_ns,
        p95 = o.p95_ns,
        p99 = o.p99_ns,
        max = o.max_ns,
        mean = o.mean_ns,
        qw = o.queue_wait_p99_ns,
        failed = o.failed,
        op50 = o.objective.p50_ns,
        op99 = o.objective.p99_ns,
        budget = o.objective.error_budget,
        burn = o.budget_burn,
        breached = o.breached,
        reasons = reasons.join(","),
    )
}

fn admission_json(a: &AdmissionReport) -> String {
    let ratio = if a.tenant_goodput_ratio.is_finite() {
        format!("{:.3}", a.tenant_goodput_ratio)
    } else {
        "null".to_string()
    };
    let transitions: Vec<String> = a
        .transitions
        .iter()
        .map(|t| format!("{{\"at_ns\":{},\"to\":\"{}\"}}", t.at_ns, t.to.label()))
        .collect();
    let tenants: Vec<String> = a
        .tenants
        .iter()
        .map(|t| {
            format!(
                concat!(
                    "{{\"name\":\"{name}\",\"weight\":{weight:.3},\"offered\":{offered},",
                    "\"admitted\":{admitted},\"shed\":{shed},\"completed\":{completed},",
                    "\"goodput\":{goodput}}}"
                ),
                name = escape(t.name),
                weight = t.weight,
                offered = t.offered,
                admitted = t.admitted,
                shed = t.shed,
                completed = t.completed,
                goodput = t.goodput,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"offered\":{offered},\"admitted\":{admitted},",
            "\"shed\":{{\"quota_exceeded\":{quota},\"queue_full\":{qfull},",
            "\"deadline_unmeetable\":{dline},\"total\":{total}}},",
            "\"shed_fraction\":{frac:.6},\"shed_budget_exceeded\":{over},",
            "\"goodput\":{goodput},\"goodput_qps\":{gqps:.3},",
            "\"tenant_goodput_ratio\":{ratio},\"corruptions\":{corr},",
            "\"final_tier\":\"{tier}\",\"transitions\":[{transitions}],",
            "\"tenants\":[{tenants}]}}"
        ),
        offered = a.offered,
        admitted = a.admitted,
        quota = a.shed_quota,
        qfull = a.shed_queue_full,
        dline = a.shed_deadline,
        total = a.shed_quota + a.shed_queue_full + a.shed_deadline,
        frac = a.shed_fraction,
        over = a.shed_budget_exceeded,
        goodput = a.goodput,
        gqps = a.goodput_qps,
        ratio = ratio,
        corr = a.corruptions,
        tier = a.final_tier.label(),
        transitions = transitions.join(","),
        tenants = tenants.join(","),
    )
}

impl LoadReport {
    /// The `slo-report.json` document for a single run. Deterministic for
    /// a fixed config: no wall-clock content, fixed-precision floats.
    pub fn to_json(&self) -> String {
        let algorithms: Vec<String> = self.slo.iter().map(slo_json).collect();
        let admission = match &self.admission {
            Some(a) => admission_json(a),
            None => "null".to_string(),
        };
        let anatomy = match &self.anatomy {
            Some(a) => a.to_json(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"schema_version\":3,\"tool\":\"snpgpu loadgen\",",
                "\"device\":\"{device}\",\"seed\":{seed},\"arrival\":\"{arrival}\",",
                "\"rate_qps\":{rate:.3},\"queries\":{queries},",
                "\"fault_profile\":{fault},",
                "\"duration_virtual_ns\":{dur},\"achieved_qps\":{aqps:.3},",
                "\"overall\":{{\"p50_ns\":{p50},\"p99_ns\":{p99}}},",
                "\"outcomes\":{{\"clean\":{clean},\"recovered\":{rec},\"degraded\":{deg},",
                "\"fault\":{fault_n},\"error\":{err},\"shed\":{shed}}},",
                "\"admission\":{admission},",
                "\"anatomy\":{anatomy},",
                "\"flight_dropped_spans\":{dropped},",
                "\"algorithms\":[{algorithms}],",
                "\"slo_breached\":{breached},",
                "\"postmortem_reason\":{pm}}}\n"
            ),
            device = escape(&self.device),
            seed = self.seed,
            arrival = self.arrival.name(),
            rate = self.rate_qps,
            queries = self.records.len(),
            fault = opt_str(&self.fault_profile),
            dur = self.duration_ns,
            aqps = self.achieved_qps,
            p50 = self.p50_all_ns,
            p99 = self.p99_all_ns,
            clean = self.outcomes.clean,
            rec = self.outcomes.recovered,
            deg = self.outcomes.degraded,
            fault_n = self.outcomes.fault,
            err = self.outcomes.error,
            shed = self.outcomes.shed,
            admission = admission,
            anatomy = anatomy,
            dropped = self.flight_dropped_spans,
            algorithms = algorithms.join(","),
            breached = self.breached,
            pm = opt_str(&self.postmortem.as_ref().map(|p| p.reason.clone())),
        )
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
                    "  tenant {:<10} weight {:.1}: offered {:>3} admitted {:>3} shed {:>3} goodput {:>3}",
                    t.name, t.weight, t.offered, t.admitted, t.shed, t.goodput
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
        if self.flight_dropped_spans > 0 {
            let _ = writeln!(
                out,
                "flight recorder dropped {} span(s) (raise --flight-capacity to keep more)",
                self.flight_dropped_spans
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
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let mut run_json = p.report.to_json();
                // Embed without the trailing newline a bare run emits.
                run_json.truncate(run_json.trim_end().len());
                format!(
                    "{{\"rate_qps\":{:.3},\"goodput_qps\":{:.3},\"report\":{}}}",
                    p.rate_qps,
                    p.goodput_qps(),
                    run_json
                )
            })
            .collect();
        let knee = match self.knee {
            Some(i) => format!("{:.3}", self.points[i].rate_qps),
            None => "null".to_string(),
        };
        let retention = match self.goodput_retention() {
            Some(r) => format!("{r:.6}"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"schema_version\":1,\"tool\":\"snpgpu loadgen --sweep\",",
                "\"knee_rate_qps\":{knee},\"goodput_retention\":{retention},",
                "\"points\":[{points}]}}\n"
            ),
            knee = knee,
            retention = retention,
            points = points.join(","),
        )
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
                p.goodput_qps(),
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
