//! The profiler kernel service and its report.

use crate::component::{Component, COMPONENT_COUNT};
use simcore::SimDuration;
use std::collections::BTreeMap;

/// Accumulated time and charge count of one collapsed stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Simulated busy time attributed to this exact path.
    pub time: SimDuration,
    /// Number of charges that landed on this path.
    pub charges: u64,
}

/// Kernel service attributing simulated CPU time and event counts to
/// the [`Component`] taxonomy. Registered only when profiling is on;
/// every instrumentation site degrades to one failed type-map probe
/// when it is absent.
#[derive(Debug, Default)]
pub struct Profiler {
    /// Open span stack (component per `profile_span!` level).
    stack: Vec<Component>,
    /// Self time per component (exactly the effective CPU cost charged).
    self_time: [SimDuration; COMPONENT_COUNT],
    /// Events per component: span entries plus `hit()` counts.
    hits: [u64; COMPONENT_COUNT],
    /// CPU charges per component.
    charges: [u64; COMPONENT_COUNT],
    /// Collapsed stacks: full path -> accumulated time. BTreeMap keeps
    /// the export deterministic without a sort pass.
    frames: BTreeMap<Vec<Component>, FrameStat>,
}

impl Profiler {
    /// New empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span.
    pub fn enter(&mut self, c: Component) {
        self.stack.push(c);
        self.hits[c as usize] += 1;
    }

    /// Close the innermost span. Must pair with [`Profiler::enter`];
    /// imbalance is an instrumentation bug caught in debug builds.
    pub fn exit(&mut self, c: Component) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(c), "unbalanced profile_span! nesting");
        let _ = top;
    }

    /// Count one event without attributing time.
    pub fn hit(&mut self, c: Component) {
        self.hits[c as usize] += 1;
    }

    /// Attribute `d` of effective CPU time to `c` under the current
    /// span stack.
    pub fn charge(&mut self, c: Component, d: SimDuration) {
        self.self_time[c as usize] += d;
        self.charges[c as usize] += 1;
        let mut path = self.stack.clone();
        if path.last() != Some(&c) {
            path.push(c);
        }
        let f = self.frames.entry(path).or_default();
        f.time += d;
        f.charges += 1;
    }

    /// Total simulated time attributed so far (sum of all self times).
    pub fn total_attributed(&self) -> SimDuration {
        self.self_time
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// Self time of one component.
    pub fn self_time(&self, c: Component) -> SimDuration {
        self.self_time[c as usize]
    }

    /// Event count of one component (span entries + hits).
    pub fn hits_of(&self, c: Component) -> u64 {
        self.hits[c as usize]
    }

    /// The collapsed stacks accumulated so far.
    pub fn frames(&self) -> &BTreeMap<Vec<Component>, FrameStat> {
        &self.frames
    }

    /// Flamegraph-compatible collapsed-stack output: one
    /// `path;to;frame <microseconds>` line per stack, feedable straight
    /// into `flamegraph.pl` / `inferno-flamegraph`. Deterministic.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.frames {
            let names: Vec<&str> = path.iter().map(|c| c.name()).collect();
            out.push_str(&names.join(";"));
            out.push(' ');
            out.push_str(&stat.time.as_micros().to_string());
            out.push('\n');
        }
        out
    }

    /// Build the per-component report against the kernel's total
    /// simulated busy time (`simos::OsModel::total_submitted_work`).
    /// Any gap between attributed and kernel time becomes the
    /// `unattributed` row, so the table total always equals the kernel
    /// total (conservation) and gaps are visible instead of silent.
    pub fn report(&self, kernel_busy: SimDuration) -> ProfileReport {
        let mut rows: Vec<ProfileRow> = Vec::new();
        for c in Component::ALL {
            let ix = c as usize;
            let total_time = self
                .frames
                .iter()
                .filter(|(path, _)| path.contains(&c))
                .fold(SimDuration::ZERO, |acc, (_, s)| acc + s.time);
            if self.self_time[ix] == SimDuration::ZERO
                && self.hits[ix] == 0
                && total_time == SimDuration::ZERO
            {
                continue;
            }
            rows.push(ProfileRow {
                component: c,
                self_time: self.self_time[ix],
                total_time,
                hits: self.hits[ix],
                charges: self.charges[ix],
            });
        }
        let attributed = self.total_attributed();
        let unattributed = kernel_busy.saturating_sub(attributed);
        if unattributed > SimDuration::ZERO {
            rows.push(ProfileRow {
                component: Component::Unattributed,
                self_time: unattributed,
                total_time: unattributed,
                hits: 0,
                charges: 0,
            });
        }
        rows.sort_by(|a, b| {
            b.self_time
                .cmp(&a.self_time)
                .then_with(|| a.component.name().cmp(b.component.name()))
        });
        ProfileReport {
            rows,
            attributed,
            kernel_busy,
            unattributed,
        }
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRow {
    /// The component.
    pub component: Component,
    /// Simulated busy time charged directly to this component.
    pub self_time: SimDuration,
    /// Simulated busy time of every stack this component appears in.
    pub total_time: SimDuration,
    /// Events observed (span entries + hits).
    pub hits: u64,
    /// CPU charges recorded.
    pub charges: u64,
}

/// Self-time/total-time report. Row self times (including the
/// `unattributed` remainder) sum exactly to `kernel_busy`.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Rows, hottest self time first.
    pub rows: Vec<ProfileRow>,
    /// Time attributed by instrumentation sites.
    pub attributed: SimDuration,
    /// Kernel total: every effective cost the CPU models accepted.
    pub kernel_busy: SimDuration,
    /// `kernel_busy - attributed` (zero when instrumentation is
    /// complete; asserted by the conservation tests).
    pub unattributed: SimDuration,
}

impl ProfileReport {
    /// Render as a paper-style table. The `self%` column is relative to
    /// the kernel total, so the column sums to 100.
    pub fn table(&self, title: impl Into<String>) -> telemetry::Table {
        let mut t = telemetry::Table::new(
            title,
            &[
                "component",
                "self ms",
                "self %",
                "total ms",
                "events",
                "charges",
            ],
        );
        let busy_us = self.kernel_busy.as_micros();
        for r in &self.rows {
            let pct = if busy_us == 0 {
                0.0
            } else {
                100.0 * r.self_time.as_micros() as f64 / busy_us as f64
            };
            t.push_row(vec![
                r.component.name().to_owned(),
                telemetry::trim_float(r.self_time.as_micros() as f64 / 1000.0),
                telemetry::trim_float(pct),
                telemetry::trim_float(r.total_time.as_micros() as f64 / 1000.0),
                r.hits.to_string(),
                r.charges.to_string(),
            ]);
        }
        t.push_row(vec![
            "TOTAL".into(),
            telemetry::trim_float(busy_us as f64 / 1000.0),
            if busy_us == 0 {
                telemetry::trim_float(0.0)
            } else {
                telemetry::trim_float(100.0)
            },
            String::new(),
            String::new(),
            String::new(),
        ]);
        t
    }

    /// Conservation check: do the row self times sum to the kernel
    /// total? Holds by construction (the `unattributed` row absorbs any
    /// gap); `unattributed == 0` is the stronger completeness check.
    pub fn conserves(&self) -> bool {
        let sum = self
            .rows
            .iter()
            .fold(SimDuration::ZERO, |acc, r| acc + r.self_time);
        sum == self.kernel_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn charges_accumulate_under_spans() {
        let mut p = Profiler::new();
        p.enter(Component::NaradaRoute);
        p.charge(Component::NaradaMatch, us(30));
        p.charge(Component::NaradaRoute, us(70)); // dedup: top of stack
        p.exit(Component::NaradaRoute);
        p.charge(Component::OsGc, us(10));
        assert_eq!(p.self_time(Component::NaradaMatch), us(30));
        assert_eq!(p.self_time(Component::NaradaRoute), us(70));
        assert_eq!(p.total_attributed(), us(110));
        let collapsed = p.collapsed();
        assert!(
            collapsed.contains("narada.route;narada.match 30\n"),
            "{collapsed}"
        );
        assert!(collapsed.contains("narada.route 70\n"), "{collapsed}");
        assert!(collapsed.contains("simos.gc 10\n"), "{collapsed}");
    }

    #[test]
    fn report_conserves_and_surfaces_unattributed() {
        let mut p = Profiler::new();
        p.charge(Component::RgmaInsert, us(400));
        let r = p.report(us(1000));
        assert_eq!(r.unattributed, us(600));
        assert!(r.conserves());
        assert_eq!(r.rows[0].component, Component::Unattributed);
        assert_eq!(r.rows[1].component, Component::RgmaInsert);
        // Complete attribution: no unattributed row.
        let r2 = p.report(us(400));
        assert_eq!(r2.unattributed, SimDuration::ZERO);
        assert!(r2
            .rows
            .iter()
            .all(|r| r.component != Component::Unattributed));
        assert!(r2.conserves());
    }

    #[test]
    fn total_time_covers_nested_frames() {
        let mut p = Profiler::new();
        p.enter(Component::RgmaServlet);
        p.charge(Component::RgmaInsert, us(80));
        p.charge(Component::RgmaServlet, us(20));
        p.exit(Component::RgmaServlet);
        let r = p.report(us(100));
        let servlet = r
            .rows
            .iter()
            .find(|row| row.component == Component::RgmaServlet)
            .unwrap();
        assert_eq!(servlet.self_time, us(20));
        assert_eq!(servlet.total_time, us(100), "includes nested insert frame");
        let table = r.table("t").render();
        assert!(table.contains("rgma.insert"), "{table}");
    }

    #[test]
    fn hits_count_without_time() {
        let mut p = Profiler::new();
        p.hit(Component::NetFabric);
        p.hit(Component::NetFabric);
        assert_eq!(p.hits_of(Component::NetFabric), 2);
        let r = p.report(SimDuration::ZERO);
        let row = r
            .rows
            .iter()
            .find(|r| r.component == Component::NetFabric)
            .unwrap();
        assert_eq!(row.hits, 2);
        assert_eq!(row.self_time, SimDuration::ZERO);
    }
}
