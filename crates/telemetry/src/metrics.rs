//! Time-series metrics plane: named counters, gauges, and latency
//! histograms sampled on the vmstat cadence.
//!
//! The paper's resource story is told in 1 s vmstat rows (CPU idle,
//! memory); the metrics plane generalizes that cadence to middleware
//! internals — per-broker queue depth, per-servlet backlog, in-flight
//! count, reconnect attempts — and exports both Prometheus
//! text-exposition format (end-of-run snapshot) and a deterministic
//! long-format time-series CSV that lands next to the fig CSVs.
//!
//! Registered as a kernel service only when profiling/metrics are on;
//! instrumentation sites go through [`with_metrics`] which reduces to a
//! single failed type-map probe when the service is absent.

use crate::histogram::LatencyHistogram;
use crate::report::trim_float;
use simcore::{Context, SimTime};
use std::collections::BTreeMap;

/// One recorded mutation of the registry, replayable at end of run.
#[derive(Debug, Clone)]
enum MetricOp {
    /// `add_counter(name, delta)`.
    CounterAdd(String, u64),
    /// `set_gauge(name, value)`.
    GaugeSet(String, f64),
    /// `observe(name, micros)`.
    Observe(String, u64),
    /// `sample(at)` — snapshot the live maps into the series.
    Sample,
}

#[derive(Debug, Clone)]
struct OpRec {
    at: SimTime,
    lane: u32,
    seq: u64,
    op: MetricOp,
}

/// Registry of named metrics plus the sampled time series.
///
/// Names are dotted (`narada.broker0.queue_depth`); exporters sanitize
/// them where the target format requires it. `BTreeMap` keys keep every
/// export deterministic.
///
/// Every mutation is also appended to an op log keyed by
/// `(time, recorder lane, per-lane seq)` — an interleaving-invariant key,
/// since each lane's op stream is a function of that actor's own
/// deterministic execution. [`replayed`](Self::replayed) rebuilds the
/// registry from the log in key order, so a snapshot sees every update
/// of its instant from a lower lane, whatever order they executed in.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LatencyHistogram>,
    /// Long-format samples: (instant, metric, value).
    series: Vec<(SimTime, String, f64)>,
    ops: Vec<OpRec>,
    lane_seqs: std::collections::HashMap<u32, u64>,
    cur_lane: u32,
    cur_at: SimTime,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the recording context for subsequent ops; called by
    /// [`with_metrics`] with the acting actor's lane and the kernel
    /// clock so op keys are interleaving-invariant.
    pub fn set_recorder(&mut self, lane: u32, at: SimTime) {
        self.cur_lane = lane;
        self.cur_at = at;
    }

    fn record(&mut self, at: SimTime, op: MetricOp) {
        let seq = self.lane_seqs.entry(self.cur_lane).or_insert(0);
        self.ops.push(OpRec {
            at,
            lane: self.cur_lane,
            seq: *seq,
            op,
        });
        *seq += 1;
    }

    fn apply_counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    fn apply_gauge(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    fn apply_observe(&mut self, name: &str, micros: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(micros);
        } else {
            let mut h = LatencyHistogram::new();
            h.record(micros);
            self.hists.insert(name.to_owned(), h);
        }
    }

    fn apply_sample(&mut self, at: SimTime) {
        for (name, &v) in &self.counters {
            self.series.push((at, name.clone(), v as f64));
        }
        for (name, &v) in &self.gauges {
            self.series.push((at, name.clone(), v));
        }
    }

    /// Add `delta` to a monotonic counter (created at 0 on first use).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.apply_counter(name, delta);
        self.record(self.cur_at, MetricOp::CounterAdd(name.to_owned(), delta));
    }

    /// Set an instantaneous gauge level.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.apply_gauge(name, value);
        self.record(self.cur_at, MetricOp::GaugeSet(name.to_owned(), value));
    }

    /// Record one observation (microseconds) into a latency histogram.
    pub fn observe(&mut self, name: &str, micros: u64) {
        self.apply_observe(name, micros);
        self.record(self.cur_at, MetricOp::Observe(name.to_owned(), micros));
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current level of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Borrow a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// Snapshot every counter and gauge into the time series at `at`
    /// (called by the vmstat sampler on its cadence).
    pub fn sample(&mut self, at: SimTime) {
        self.apply_sample(at);
        self.record(at, MetricOp::Sample);
    }

    /// Rebuild the registry by replaying its op log in
    /// `(time, lane, seq)` order: the canonical end-of-run state. The
    /// result's own op log is empty.
    ///
    /// `derived_gauges` are whole-run gauges computed after the run
    /// (e.g. `probes_in_flight`, which needs every RTT record): each is a
    /// time-ordered series spliced in just before every `Sample`
    /// snapshot. Names are owned because some series are minted per
    /// subscriber lane (`freshness_age_ms/lane3`) rather than static.
    pub fn replayed(mut self, derived_gauges: &[(String, Vec<(SimTime, f64)>)]) -> MetricsRegistry {
        self.ops.sort_by_key(|r| (r.at, r.lane, r.seq));
        let mut out = MetricsRegistry::new();
        let mut cursors = vec![0usize; derived_gauges.len()];
        for rec in self.ops {
            match rec.op {
                MetricOp::CounterAdd(n, d) => out.apply_counter(&n, d),
                MetricOp::GaugeSet(n, v) => out.apply_gauge(&n, v),
                MetricOp::Observe(n, us) => out.apply_observe(&n, us),
                MetricOp::Sample => {
                    for (i, (name, points)) in derived_gauges.iter().enumerate() {
                        while cursors[i] < points.len() && points[cursors[i]].0 <= rec.at {
                            out.apply_gauge(name, points[cursors[i]].1);
                            cursors[i] += 1;
                        }
                    }
                    out.apply_sample(rec.at);
                }
            }
        }
        // Late derived points (after the final snapshot) still set the
        // end-of-run gauge level for the Prometheus export.
        for (name, points) in derived_gauges {
            if let Some(&(_, v)) = points.last() {
                out.apply_gauge(name, v);
            }
        }
        out
    }

    /// The sampled time series, in (instant, registration-name) order.
    pub fn series(&self) -> &[(SimTime, String, f64)] {
        &self.series
    }

    /// Deterministic long-format CSV: `t_s,metric,value`, one row per
    /// metric per sample instant.
    pub fn csv(&self) -> String {
        let mut out = String::from("t_s,metric,value\n");
        for (at, name, v) in &self.series {
            out.push_str(&trim_float(at.as_micros() as f64 / 1e6));
            out.push(',');
            out.push_str(name);
            out.push(',');
            out.push_str(&trim_float(*v));
            out.push('\n');
        }
        out
    }

    /// End-of-run snapshot in Prometheus text exposition format.
    /// Counters and gauges export their final value; histograms export
    /// as summaries (p50/p95/p99 + `_sum`/`_count`, the sum backed by
    /// the histogram's exact Welford mean).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, &v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", trim_float(v)));
        }
        for (name, h) in &self.hists {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("{n}{{quantile=\"{label}\"}} {v}\n"));
                }
            }
            let sum = (h.mean() * h.count() as f64).round() as u64;
            out.push_str(&format!("{n}_sum {sum}\n{n}_count {}\n", h.count()));
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]` only.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Run `f` against the metrics registry if one is registered; no-op
/// (one failed type-map probe) otherwise — the same pattern as
/// `simtrace::with_trace`, so metrics-off runs stay byte-identical.
#[inline]
pub fn with_metrics(ctx: &mut Context<'_>, f: impl FnOnce(&mut MetricsRegistry, SimTime)) {
    let now = ctx.now();
    let lane = ctx.self_id().index() as u32;
    if let Some(m) = ctx.try_service_mut::<MetricsRegistry>() {
        m.set_recorder(lane, now);
        f(m, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.add_counter("a.x", 2);
        m.add_counter("a.x", 3);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        m.observe("h_us", 100);
        m.observe("h_us", 300);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("untouched"), 0);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.histogram("h_us").unwrap().count(), 2);
        assert!((m.histogram("h_us").unwrap().mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn csv_is_long_format_and_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add_counter("z.count", 1);
            m.set_gauge("a.level", 3.0);
            m.sample(SimTime::from_secs(1));
            m.add_counter("z.count", 1);
            m.sample(SimTime::from_secs(2));
            m.csv()
        };
        let csv = build();
        assert_eq!(build(), csv, "byte-deterministic");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,metric,value");
        assert_eq!(lines[1], "1,z.count,1");
        assert_eq!(lines[2], "1,a.level,3");
        assert_eq!(lines[3], "2,z.count,2");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn replay_orders_same_instant_ops_by_lane_and_splices_derived_gauges() {
        let t = SimTime::from_secs;
        let mut m = MetricsRegistry::new();
        m.set_recorder(2, t(0));
        m.add_counter("a.sent", 1);
        m.set_recorder(5, t(0));
        m.add_counter("b.sent", 2);
        // The sampler (lane 9) snapshots at 1 s before lane 2's update of
        // the same instant executes; the replay puts lane 2 first.
        m.set_recorder(9, t(1));
        m.sample(t(1));
        m.set_recorder(2, t(1));
        m.add_counter("a.sent", 4);
        m.observe("a.cost_us", 300);
        m.set_recorder(9, t(2));
        m.sample(t(2));
        assert!(m.csv().contains("1,a.sent,1\n"), "{}", m.csv());

        let derived = [(
            "probes_in_flight".to_string(),
            vec![(t(1), 3.0), (t(2), 0.0)],
        )];
        let r = m.replayed(&derived);
        let csv = r.csv();
        assert!(csv.contains("1,a.sent,5\n"), "{csv}");
        assert!(csv.contains("1,probes_in_flight,3\n"), "{csv}");
        assert!(csv.contains("2,probes_in_flight,0\n"), "{csv}");
        assert_eq!(r.counter("a.sent"), 5);
        assert_eq!(r.counter("b.sent"), 2);
        assert_eq!(r.gauge("probes_in_flight"), Some(0.0));
        assert_eq!(r.histogram("a.cost_us").unwrap().count(), 1);
    }

    #[test]
    fn prometheus_format_shape() {
        let mut m = MetricsRegistry::new();
        m.add_counter("narada.broker0.publishes", 7);
        m.set_gauge("probes_in_flight", 4.0);
        for v in 1..=100u64 {
            m.observe("insert_us", v * 10);
        }
        let p = m.prometheus();
        assert!(
            p.contains("# TYPE narada_broker0_publishes counter\n"),
            "{p}"
        );
        assert!(p.contains("narada_broker0_publishes 7\n"));
        assert!(p.contains("# TYPE probes_in_flight gauge\nprobes_in_flight 4\n"));
        assert!(p.contains("# TYPE insert_us summary\n"));
        assert!(p.contains("insert_us{quantile=\"0.5\"}"));
        assert!(p.contains("insert_us_count 100\n"));
        // sum = mean * count = 505 * 100.
        assert!(p.contains("insert_us_sum 50500\n"), "{p}");
    }
}
