//! `bench_diff` forensics: compare two [`BenchReport`]s (and optional
//! `gridmon-hotpath` reports) and explain *where* a wall-time change
//! came from — per-scenario wall/events-per-sec deltas, kernel event-mix
//! shifts, per-site wall-clock attribution, and workload-drift flags.
//! Turns `bench_gate`'s pass/fail into an explanation.

use crate::bench::{BenchReport, BenchRow};
use std::fmt::Write as _;
use telemetry::Table;

/// One scenario's comparison.
#[derive(Debug, Clone)]
pub struct ScenarioDiff {
    /// Scenario name.
    pub name: String,
    /// Baseline / candidate wall seconds.
    pub wall: (f64, f64),
    /// Baseline / candidate events per wall second.
    pub events_per_sec: (f64, f64),
    /// Deterministic-count mismatches (`metric old→new`); non-empty
    /// means the two runs measured different workloads.
    pub drift: Vec<String>,
    /// Queue-depth high-watermark, when both sides carry kernel stats.
    pub peak_depth: Option<(u64, u64)>,
    /// Timer share of scheduled events, when both sides carry kernel
    /// stats.
    pub timer_share: Option<(f64, f64)>,
    /// Largest per-event-type executed-count shifts (`type old→new`).
    pub type_shifts: Vec<String>,
    /// SLO compliance (baseline, candidate), when both sides carry the
    /// v3 freshness rows.
    pub slo_compliance: Option<(f64, f64)>,
    /// Delivery-latency p99 ms (baseline, candidate), v3 rows only.
    pub slo_p99_ms: Option<(f64, f64)>,
    /// Deadline misses late+lost (baseline, candidate), v3 rows only.
    pub slo_misses: Option<(u64, u64)>,
}

impl ScenarioDiff {
    /// Wall-time change as a fraction of baseline (+0.2 = 20 % slower).
    pub fn wall_delta_frac(&self) -> f64 {
        if self.wall.0 > 0.0 {
            (self.wall.1 - self.wall.0) / self.wall.0
        } else {
            0.0
        }
    }
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Set when one side is an older schema: names what is unavailable.
    pub schema_note: Option<String>,
    /// Scenarios present in the baseline but not the candidate.
    pub missing: Vec<String>,
    /// Scenarios present in the candidate but not the baseline.
    pub added: Vec<String>,
    /// Per-scenario comparisons, baseline order.
    pub scenarios: Vec<ScenarioDiff>,
    /// Baseline / candidate total wall seconds.
    pub total_wall: (f64, f64),
    /// Regression-flag threshold (fractional).
    pub tolerance: f64,
}

fn timer_share(row: &BenchRow) -> Option<f64> {
    let k = row.kernel.as_ref()?;
    if k.scheduled_total == 0 {
        return None;
    }
    Some(k.timer_scheduled as f64 / k.scheduled_total as f64)
}

/// Compare `baseline` against `candidate`.
pub fn diff(baseline: &BenchReport, candidate: &BenchReport, tolerance: f64) -> DiffReport {
    // The schema tags order lexically ("…/1" < "…/2" < "…/3"), so the
    // older side is the one missing rows newer schemas added (kernel
    // event accounting in v2, freshness/SLO in v3).
    let schema_note = if baseline.schema == candidate.schema {
        None
    } else {
        let (older_side, older, newer) = if baseline.schema < candidate.schema {
            ("baseline", &baseline.schema, &candidate.schema)
        } else {
            ("candidate", &candidate.schema, &baseline.schema)
        };
        Some(format!(
            "{older_side} is {older}: rows added by newer schemas (kernel event \
             accounting, freshness/SLO) unavailable for it (the other side is {newer})"
        ))
    };
    let mut scenarios = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.experiments {
        let Some(c) = candidate.experiments.iter().find(|c| c.name == b.name) else {
            missing.push(b.name.clone());
            continue;
        };
        let mut drift = Vec::new();
        for (metric, old, new) in [
            ("sent", b.sent, c.sent),
            ("received", b.received, c.received),
            ("events", b.events, c.events),
        ] {
            if old != new {
                drift.push(format!("{metric} {old}→{new}"));
            }
        }
        let (peak_depth, type_shifts) = match (&b.kernel, &c.kernel) {
            (Some(bk), Some(ck)) => {
                // Largest absolute executed-count shifts across the union
                // of type names.
                let mut shifts: Vec<(u64, String)> = Vec::new();
                let mut names: Vec<&str> = bk.event_types.iter().map(|t| t.name.as_str()).collect();
                for t in &ck.event_types {
                    if !names.contains(&t.name.as_str()) {
                        names.push(&t.name);
                    }
                }
                for name in names {
                    let old = bk
                        .event_types
                        .iter()
                        .find(|t| t.name == name)
                        .map_or(0, |t| t.executed);
                    let new = ck
                        .event_types
                        .iter()
                        .find(|t| t.name == name)
                        .map_or(0, |t| t.executed);
                    if old != new {
                        shifts.push((old.abs_diff(new), format!("{name} {old}→{new}")));
                    }
                }
                shifts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                (
                    Some((bk.peak_queue_depth, ck.peak_queue_depth)),
                    shifts.into_iter().take(3).map(|(_, s)| s).collect(),
                )
            }
            _ => (None, Vec::new()),
        };
        let slo = b.slo.as_ref().zip(c.slo.as_ref());
        scenarios.push(ScenarioDiff {
            name: b.name.clone(),
            wall: (b.wall_secs, c.wall_secs),
            events_per_sec: (b.events_per_sec(), c.events_per_sec()),
            drift,
            peak_depth,
            timer_share: timer_share(b).zip(timer_share(c)),
            type_shifts,
            slo_compliance: slo.map(|(x, y)| (x.compliance, y.compliance)),
            slo_p99_ms: slo.map(|(x, y)| (x.delivery_p99_ms, y.delivery_p99_ms)),
            slo_misses: slo.map(|(x, y)| (x.late + x.lost, y.late + y.lost)),
        });
    }
    let added = candidate
        .experiments
        .iter()
        .filter(|c| !baseline.experiments.iter().any(|b| b.name == c.name))
        .map(|c| c.name.clone())
        .collect();
    DiffReport {
        schema_note,
        missing,
        added,
        scenarios,
        total_wall: (baseline.total_wall_secs, candidate.total_wall_secs),
        tolerance,
    }
}

fn pct_str(old: f64, new: f64) -> String {
    if old > 0.0 {
        format!("{:+.1}%", (new - old) / old * 100.0)
    } else {
        "n/a".into()
    }
}

/// Render the comparison as a markdown attribution report.
pub fn render_markdown(d: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## bench_diff — baseline vs candidate\n");
    let _ = writeln!(
        out,
        "Total wall: {:.3}s → {:.3}s ({}); regression flag at +{:.0}%.\n",
        d.total_wall.0,
        d.total_wall.1,
        pct_str(d.total_wall.0, d.total_wall.1),
        d.tolerance * 100.0
    );
    if let Some(note) = &d.schema_note {
        let _ = writeln!(out, "> **schema:** {note}\n");
    }
    for name in &d.missing {
        let _ = writeln!(out, "> **missing from candidate:** {name}\n");
    }
    for name in &d.added {
        let _ = writeln!(out, "> **new in candidate:** {name}\n");
    }

    let mut t = Table::new(
        "Per-scenario wall time",
        &[
            "scenario",
            "wall s (old→new)",
            "Δ wall",
            "events/s (old→new)",
            "Δ ev/s",
            "flags",
        ],
    );
    for s in &d.scenarios {
        let frac = s.wall_delta_frac();
        let mut flags = Vec::new();
        if !s.drift.is_empty() {
            flags.push(format!("WORKLOAD DRIFT: {}", s.drift.join(", ")));
        }
        if frac > d.tolerance {
            flags.push("REGRESSION".into());
        } else if frac < -d.tolerance {
            flags.push("improvement".into());
        }
        t.push_row(vec![
            s.name.clone(),
            format!("{:.3} → {:.3}", s.wall.0, s.wall.1),
            pct_str(s.wall.0, s.wall.1),
            format!("{:.0} → {:.0}", s.events_per_sec.0, s.events_per_sec.1),
            pct_str(s.events_per_sec.0, s.events_per_sec.1),
            flags.join("; "),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let with_kernel: Vec<&ScenarioDiff> = d
        .scenarios
        .iter()
        .filter(|s| s.peak_depth.is_some())
        .collect();
    if !with_kernel.is_empty() {
        let mut k = Table::new(
            "Kernel event accounting",
            &[
                "scenario",
                "peak queue depth (old→new)",
                "timer share (old→new)",
                "largest executed-count shifts",
            ],
        );
        for s in with_kernel {
            let (po, pn) = s.peak_depth.unwrap();
            let ts = s.timer_share.map_or("n/a".to_owned(), |(o, n)| {
                format!("{:.1}% → {:.1}%", o * 100.0, n * 100.0)
            });
            k.push_row(vec![
                s.name.clone(),
                format!("{po} → {pn}"),
                ts,
                if s.type_shifts.is_empty() {
                    "none".into()
                } else {
                    s.type_shifts.join("; ")
                },
            ]);
        }
        out.push_str(&k.to_markdown());
        out.push('\n');
    }

    let with_slo: Vec<&ScenarioDiff> = d
        .scenarios
        .iter()
        .filter(|s| s.slo_compliance.is_some())
        .collect();
    if !with_slo.is_empty() {
        let mut f = Table::new(
            "Freshness / SLO",
            &[
                "scenario",
                "compliance (old→new)",
                "delivery p99 ms (old→new)",
                "Δ p99",
                "misses (old→new)",
                "flags",
            ],
        );
        for s in with_slo {
            let (co, cn) = s.slo_compliance.unwrap();
            let (po, pn) = s.slo_p99_ms.unwrap();
            let (mo, mn) = s.slo_misses.unwrap();
            let mut flags = Vec::new();
            // Virtual-clock metrics: any compliance drop is readings
            // newly missing their deadline, not measurement noise.
            if cn + 1e-6 < co {
                flags.push("COMPLIANCE DROP".to_owned());
            }
            if po > 0.0 && (pn - po) / po > d.tolerance {
                flags.push("P99 REGRESSION".to_owned());
            }
            f.push_row(vec![
                s.name.clone(),
                format!("{:.4} → {:.4}", co, cn),
                format!("{:.3} → {:.3}", po, pn),
                pct_str(po, pn),
                format!("{mo} → {mn}"),
                flags.join("; "),
            ]);
        }
        out.push_str(&f.to_markdown());
        out.push('\n');
    }
    out
}

/// Render a per-site wall-clock attribution table comparing two
/// `gridmon-hotpath/1` reports (same run name, two builds).
pub fn hotpath_markdown(
    baseline: &simscope::HotpathReport,
    candidate: &simscope::HotpathReport,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Hot-path attribution — {} (probe overhead {} → {} ns/op)\n",
        candidate.run, baseline.probe_overhead_ns, candidate.probe_overhead_ns
    );
    let mut names: Vec<&str> = baseline.sites.iter().map(|s| s.site.as_str()).collect();
    for s in &candidate.sites {
        if !names.contains(&s.site.as_str()) {
            names.push(&s.site);
        }
    }
    let total_abs_delta: f64 = names
        .iter()
        .map(|n| {
            let old = baseline.site(n).map_or(0, |s| s.nanos) as f64;
            let new = candidate.site(n).map_or(0, |s| s.nanos) as f64;
            (new - old).abs()
        })
        .sum();
    let mut t = Table::new(
        "",
        &[
            "site",
            "old ms",
            "new ms",
            "Δ ms",
            "Δ %",
            "share of |Δ|",
            "ns/op (old→new)",
        ],
    );
    for name in names {
        let (old_ns, old_count) = baseline.site(name).map_or((0, 0), |s| (s.nanos, s.count));
        let (new_ns, new_count) = candidate.site(name).map_or((0, 0), |s| (s.nanos, s.count));
        let delta_ms = (new_ns as f64 - old_ns as f64) / 1e6;
        let per_op = |ns: u64, count: u64| {
            if count > 0 {
                format!("{:.0}", ns as f64 / count as f64)
            } else {
                "-".into()
            }
        };
        t.push_row(vec![
            name.to_owned(),
            format!("{:.1}", old_ns as f64 / 1e6),
            format!("{:.1}", new_ns as f64 / 1e6),
            format!("{delta_ms:+.1}"),
            pct_str(old_ns as f64, new_ns as f64),
            if total_abs_delta > 0.0 {
                format!(
                    "{:.0}%",
                    (new_ns as f64 - old_ns as f64).abs() / total_abs_delta * 100.0
                )
            } else {
                "-".into()
            },
            format!(
                "{} → {}",
                per_op(old_ns, old_count),
                per_op(new_ns, new_count)
            ),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{EventTypeRow, KernelRow, SloRow, SCHEMA, SCHEMA_V1};

    fn row(name: &str, wall: f64, executed: u64) -> BenchRow {
        BenchRow {
            name: name.into(),
            generators: 800,
            sent: 16000,
            received: 16000,
            events: executed,
            sim_secs: 600.0,
            rtt_mean_ms: 1.0,
            rtt_p95_ms: 2.0,
            rtt_p99_ms: 3.0,
            rtt_max_ms: 4.0,
            peak_rss_mb: 50.0,
            kernel: Some(KernelRow {
                peak_queue_depth: 800,
                scheduled_total: executed,
                timer_scheduled: executed / 4,
                message_scheduled: executed - executed / 4,
                event_types: vec![EventTypeRow {
                    name: "Delivery".into(),
                    scheduled: executed,
                    executed,
                    dropped: 0,
                    timers: 0,
                }],
            }),
            slo: Some(SloRow {
                deadline_ms: 5000.0,
                target: 0.99,
                on_time: 15995,
                late: 5,
                lost: 0,
                compliance: 0.999_687_5,
                worst_burn: 0.1,
                delivery_p50_ms: 1.0,
                delivery_p99_ms: 3.0,
            }),
            wall_secs: wall,
        }
    }

    fn report(rows: Vec<BenchRow>) -> BenchReport {
        let total = rows.iter().map(|r| r.wall_secs).sum();
        BenchReport {
            schema: SCHEMA.into(),
            scale: 20,
            threads: 2,
            experiments: rows,
            total_wall_secs: total,
        }
    }

    #[test]
    fn regression_is_flagged_with_scenario_name() {
        let base = report(vec![row("bench/a", 1.0, 1000), row("bench/b", 1.0, 1000)]);
        let cand = report(vec![row("bench/a", 1.6, 1000), row("bench/b", 1.0, 1000)]);
        let d = diff(&base, &cand, 0.15);
        let md = render_markdown(&d);
        assert!(md.contains("REGRESSION"));
        assert!(md.contains("bench/a"));
        assert!(d.scenarios[0].wall_delta_frac() > 0.5);
        assert!(d.scenarios[1].drift.is_empty());
    }

    #[test]
    fn v1_baseline_gets_schema_note_and_no_kernel_table() {
        let mut base = report(vec![row("bench/a", 1.0, 1000)]);
        base.schema = SCHEMA_V1.into();
        for e in &mut base.experiments {
            e.kernel = None;
        }
        let cand = report(vec![row("bench/a", 1.0, 1000)]);
        let d = diff(&base, &cand, 0.15);
        assert!(d.schema_note.as_deref().unwrap().contains(SCHEMA_V1));
        assert!(d.scenarios[0].peak_depth.is_none());
        let md = render_markdown(&d);
        assert!(md.contains("**schema:**"));
        assert!(!md.contains("Kernel event accounting"));
    }

    #[test]
    fn drift_and_missing_are_reported() {
        let base = report(vec![
            row("bench/a", 1.0, 1000),
            row("bench/gone", 1.0, 1000),
        ]);
        let mut changed = row("bench/a", 1.0, 1200);
        changed.sent = 17000;
        let cand = report(vec![changed, row("bench/new", 1.0, 1000)]);
        let d = diff(&base, &cand, 0.15);
        assert_eq!(d.missing, vec!["bench/gone"]);
        assert_eq!(d.added, vec!["bench/new"]);
        let md = render_markdown(&d);
        assert!(md.contains("WORKLOAD DRIFT"));
        assert!(md.contains("sent 16000→17000"));
        assert!(md.contains("Delivery 1000→1200"));
    }

    #[test]
    fn freshness_regressions_are_attributed() {
        let base = report(vec![row("bench/a", 1.0, 1000), row("bench/b", 1.0, 1000)]);
        let mut cand = report(vec![row("bench/a", 1.0, 1000), row("bench/b", 1.0, 1000)]);
        {
            let s = cand.experiments[0].slo.as_mut().unwrap();
            s.delivery_p99_ms = 9.0;
        }
        {
            let s = cand.experiments[1].slo.as_mut().unwrap();
            s.on_time -= 7;
            s.lost += 7;
            s.compliance = 0.999_25;
        }
        let d = diff(&base, &cand, 0.15);
        assert_eq!(d.scenarios[0].slo_p99_ms, Some((3.0, 9.0)));
        assert_eq!(d.scenarios[1].slo_misses, Some((5, 12)));
        let md = render_markdown(&d);
        assert!(md.contains("Freshness / SLO"), "{md}");
        assert!(md.contains("P99 REGRESSION"), "{md}");
        assert!(md.contains("COMPLIANCE DROP"), "{md}");
        // SLO-less sides (v2 files) skip the freshness table entirely.
        let mut v2 = base.clone();
        v2.schema = crate::bench::SCHEMA_V2.into();
        for e in &mut v2.experiments {
            e.slo = None;
        }
        let d = diff(&v2, &cand, 0.15);
        assert!(d.scenarios[0].slo_compliance.is_none());
        assert!(!render_markdown(&d).contains("Freshness / SLO"));
    }

    #[test]
    fn hotpath_table_attributes_deltas() {
        let mk = |dispatch: u64| {
            let mut r = simscope::HotpathReport {
                schema: simscope::SCHEMA.into(),
                run: "bench/a".into(),
                probe_overhead_ns: 25,
                wall_secs: 1.0,
                sites: Vec::new(),
            };
            r.push(
                "kernel.dispatch",
                simcore::WallAccum {
                    nanos: dispatch,
                    count: 1000,
                },
            );
            r.push(
                "jms.match",
                simcore::WallAccum {
                    nanos: 100_000_000,
                    count: 500,
                },
            );
            r
        };
        let md = hotpath_markdown(&mk(500_000_000), &mk(900_000_000));
        assert!(md.contains("kernel.dispatch"));
        assert!(md.contains("+400.0"));
        assert!(md.contains("100%"));
        assert!(md.contains("| jms.match | 100.0 | 100.0 | +0.0 |"));
    }
}
