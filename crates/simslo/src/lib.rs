#![warn(missing_docs)]
//! # simslo — data freshness (Age-of-Information) and deadline/SLO plane
//!
//! The planes built so far measure *mechanism* (RTT probes, self-time,
//! hot paths). This one measures the monitoring-level outcome the paper
//! actually asks about: how **stale** is the freshest reading each
//! subscriber holds, and what fraction of readings beat a deadline.
//!
//! * [`SloSpec`] — a declarative per-scenario objective:
//!   `{ deadline, target_fraction }`.
//! * [`SloCollector`] — the kernel service publish/delivery sites report
//!   to. Like [`telemetry::RttCollector`] it stores only raw,
//!   content-keyed records during the run; every derived statistic is a
//!   pure function of the record set.
//! * [`SloReport`] — Age-of-Information sawtooth samples on the vmstat
//!   cadence, windowed delivery-latency percentiles, deadline-miss
//!   counters, compliance, and windowed error-budget burn.
//!
//! ## Record keys
//!
//! Records are keyed by the content-derived [`telemetry::ProbeId`]
//! (publish) and `(subscriber lane, probe)` (delivery) — never by event
//! interleaving. The publish instant additionally rides **out-of-band** on
//! the wire message (the way `simtrace` threads `TraceId` through
//! `wire::Headers`, zero wire bytes); the report cross-checks the
//! carried stamp against the publish record and counts disagreements —
//! any non-zero count means an instrumentation path is buggy.
//!
//! ## Accounting semantics
//!
//! The unit of SLO accounting is the **published reading**. A reading
//! is *on time* when its earliest delivery age (virtual delivery time −
//! virtual publish time, minimized across subscribers) is within the
//! deadline; *late* when delivered only after it; *lost* when never
//! delivered. Deadline misses = late + lost, so a broker crash burns
//! error budget instead of vanishing from a delivered-only denominator.

use simcore::{Context, SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::{trim_float, HistogramSummary, LatencyHistogram, ProbeId};

/// A declarative service-level objective for one scenario: the fraction
/// of published readings that must be delivered within the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Maximum acceptable delivery age (publish → subscriber delivery).
    pub deadline: SimDuration,
    /// Fraction of published readings that must beat the deadline,
    /// in `[0, 1]` (e.g. `0.99`).
    pub target_fraction: f64,
}

impl SloSpec {
    /// An SLO with the given deadline and target fraction.
    pub fn new(deadline: SimDuration, target_fraction: f64) -> SloSpec {
        SloSpec {
            deadline,
            target_fraction: target_fraction.clamp(0.0, 1.0),
        }
    }

    /// The paper's §I soft real-time budget: 99 % of readings within 5 s.
    pub fn grid_default() -> SloSpec {
        SloSpec::new(SimDuration::from_secs(5), 0.99)
    }
}

/// Window length for burn / windowed-percentile accounting: three
/// publish periods of the paper workload, so every generator
/// contributes a few readings per window.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(30);

/// The sawtooth sampling cadence — the existing vmstat cadence, so the
/// staleness series lines up with the CPU/memory series sample for
/// sample.
pub const SAMPLE_CADENCE: SimDuration = SimDuration::from_secs(1);

#[derive(Debug, Clone)]
struct PublishRec {
    topic: String,
    at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct DeliveryRec {
    at: SimTime,
    /// The out-of-band publish stamp carried on the wire message, when
    /// the contender could thread it. Cross-checked against the publish
    /// record at report time.
    carried: Option<SimTime>,
}

/// The freshness measurement service: publish and delivery sites report
/// instants; the experiment driver computes the report at end of run.
///
/// Raw records only — no derived state.
#[derive(Debug, Clone, Default)]
pub struct SloCollector {
    /// Keyed by probe id (content-derived, interleaving-invariant).
    publishes: BTreeMap<u64, PublishRec>,
    /// Keyed by `(subscriber lane, probe id)`: the same reading delivered
    /// to two subscribers is two records; a duplicate redelivery to the
    /// same subscriber keeps the first instant.
    deliveries: BTreeMap<(u32, u64), DeliveryRec>,
}

impl SloCollector {
    /// Empty collector.
    pub fn new() -> SloCollector {
        SloCollector::default()
    }

    /// The application published a reading on `topic`. First write wins
    /// (publish-side retries reuse the probe id).
    pub fn record_publish(&mut self, probe: ProbeId, topic: &str, at: SimTime) {
        self.publishes.entry(probe.0).or_insert_with(|| PublishRec {
            topic: topic.to_owned(),
            at,
        });
    }

    /// The subscriber application on kernel lane `sub_lane` received the
    /// reading. Duplicate deliveries (UDP retransmit, log replay) keep
    /// the earliest instant, mirroring `RttCollector::after_receiving`.
    pub fn record_delivery(
        &mut self,
        probe: ProbeId,
        sub_lane: u32,
        at: SimTime,
        carried: Option<SimTime>,
    ) {
        let e = self
            .deliveries
            .entry((sub_lane, probe.0))
            .or_insert(DeliveryRec { at, carried });
        if at < e.at {
            e.at = at;
            e.carried = carried;
        }
    }

    /// Readings published so far.
    pub fn published(&self) -> u64 {
        self.publishes.len() as u64
    }

    /// Deliveries recorded so far (unique per subscriber × reading).
    pub fn delivered(&self) -> u64 {
        self.deliveries.len() as u64
    }

    /// Windowed delivery-latency histograms: delivery ages (µs) bucketed
    /// by the delivery-time window `floor(delivered_at / window)`.
    /// Deliveries without a publish record are skipped.
    pub fn windowed_histograms(&self, window: SimDuration) -> BTreeMap<u64, LatencyHistogram> {
        let w = window.as_micros().max(1);
        let mut out: BTreeMap<u64, LatencyHistogram> = BTreeMap::new();
        for ((_lane, probe), d) in &self.deliveries {
            let Some(p) = self.publishes.get(probe) else {
                continue;
            };
            let age = d.at.saturating_since(p.at).as_micros();
            out.entry(d.at.as_micros() / w).or_default().record(age);
        }
        out
    }

    /// Compute the end-of-run report. A pure function of the record set
    /// (iteration in key order, no clocks, no RNG).
    ///
    /// `horizon` bounds the sawtooth sampling (use the run's final
    /// virtual time); `cadence` is the sample period
    /// ([`SAMPLE_CADENCE`] in the experiment driver); `window` the burn
    /// window ([`DEFAULT_WINDOW`]).
    pub fn report(
        &self,
        spec: &SloSpec,
        horizon: SimTime,
        cadence: SimDuration,
        window: SimDuration,
    ) -> SloReport {
        let deadline = spec.deadline;
        let w_us = window.as_micros().max(1);

        // Per-reading outcome: earliest delivery age across subscribers.
        let mut first_delivery: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut stamp_disagreements = 0u64;
        let mut age_hist = LatencyHistogram::new();
        for ((_lane, probe), d) in &self.deliveries {
            let Some(p) = self.publishes.get(probe) else {
                continue;
            };
            if let Some(carried) = d.carried {
                if carried != p.at {
                    stamp_disagreements += 1;
                }
            }
            age_hist.record(d.at.saturating_since(p.at).as_micros());
            let e = first_delivery.entry(*probe).or_insert(d.at);
            *e = (*e).min(d.at);
        }

        let mut on_time = 0u64;
        let mut late = 0u64;
        let mut lost = 0u64;
        // Burn windows keyed by the *publish* instant: a reading that a
        // crash window swallowed burns the budget of the window it was
        // published in.
        let mut burn_windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (published, missed)
        for (probe, p) in &self.publishes {
            let slot = burn_windows
                .entry(p.at.as_micros() / w_us)
                .or_insert((0, 0));
            slot.0 += 1;
            match first_delivery.get(probe) {
                Some(&rx) if rx.saturating_since(p.at) <= deadline => on_time += 1,
                Some(_) => {
                    late += 1;
                    slot.1 += 1;
                }
                None => {
                    lost += 1;
                    slot.1 += 1;
                }
            }
        }
        let published = self.publishes.len() as u64;
        let compliance = if published == 0 {
            1.0
        } else {
            on_time as f64 / published as f64
        };
        let budget = (1.0 - spec.target_fraction).max(1e-9);

        // Assemble windows: burn (publish-keyed) + delivery percentiles
        // (delivery-keyed) on the same window grid.
        let delivery_windows = self.windowed_histograms(window);
        let mut keys: Vec<u64> = burn_windows
            .keys()
            .chain(delivery_windows.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut worst_burn = 0.0f64;
        let windows: Vec<SloWindow> = keys
            .into_iter()
            .map(|k| {
                let (published, missed) = burn_windows.get(&k).copied().unwrap_or((0, 0));
                let burn = if published == 0 {
                    0.0
                } else {
                    (missed as f64 / published as f64) / budget
                };
                worst_burn = worst_burn.max(burn);
                let hist = delivery_windows.get(&k);
                SloWindow {
                    start: SimTime::from_micros(k.saturating_mul(w_us)),
                    published,
                    missed,
                    burn,
                    delivered: hist.map_or(0, LatencyHistogram::count),
                    age_us: hist.and_then(LatencyHistogram::summary),
                }
            })
            .collect();

        SloReport {
            spec: spec.clone(),
            published,
            delivered: self.deliveries.len() as u64,
            on_time,
            late,
            lost,
            compliance,
            compliant: compliance >= spec.target_fraction,
            age_us: age_hist.summary(),
            aoi: self.sample_aoi(horizon, cadence),
            windows,
            worst_burn,
            stamp_disagreements,
        }
    }

    /// Group deliveries into per-`(subscriber lane, topic)` streams of
    /// `(delivered_at, published_at)`, sorted by delivery time — the raw
    /// material for the sawtooth and the per-subscriber gauge series.
    fn pair_streams(&self) -> BTreeMap<(u32, &str), Vec<(SimTime, SimTime)>> {
        let mut pairs: BTreeMap<(u32, &str), Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for ((lane, probe), d) in &self.deliveries {
            let Some(p) = self.publishes.get(probe) else {
                continue;
            };
            pairs
                .entry((*lane, p.topic.as_str()))
                .or_default()
                .push((d.at, p.at));
        }
        for stream in pairs.values_mut() {
            stream.sort_unstable();
        }
        pairs
    }

    /// Sample the Age-of-Information sawtooth on `cadence` up to
    /// `horizon`. At instant `t` a `(subscriber, topic)` pair's age is
    /// `t − max{publish_at : delivered_at ≤ t}` — the staleness of the
    /// freshest reading the subscriber holds. Pairs that have not yet
    /// received anything are excluded (age undefined). The series
    /// aggregates mean and peak across pairs; accumulation order is the
    /// `(lane, topic)` key order, never event interleaving.
    fn sample_aoi(&self, horizon: SimTime, cadence: SimDuration) -> Vec<AoiSample> {
        let step = cadence.as_micros().max(1);
        let n = (horizon.as_micros() / step) as usize;
        if n == 0 {
            return Vec::new();
        }
        let mut sum = vec![0.0f64; n];
        let mut peak = vec![0.0f64; n];
        let mut live = vec![0u64; n];
        for stream in self.pair_streams().values() {
            let mut i = 0usize;
            let mut freshest: Option<SimTime> = None;
            for s in 0..n {
                let t = SimTime::from_micros((s as u64 + 1) * step);
                while i < stream.len() && stream[i].0 <= t {
                    let pub_at = stream[i].1;
                    freshest = Some(freshest.map_or(pub_at, |f| f.max(pub_at)));
                    i += 1;
                }
                if let Some(f) = freshest {
                    let age = t.saturating_since(f).as_millis_f64();
                    sum[s] += age;
                    peak[s] = peak[s].max(age);
                    live[s] += 1;
                }
            }
        }
        (0..n)
            .map(|s| AoiSample {
                at: SimTime::from_micros((s as u64 + 1) * step),
                mean_ms: if live[s] == 0 {
                    0.0
                } else {
                    sum[s] / live[s] as f64
                },
                peak_ms: peak[s],
                pairs: live[s],
            })
            .collect()
    }

    /// Derived metric series for the `MetricsRegistry` plane, sampled on
    /// `cadence`: aggregate + per-subscriber `freshness_age_ms` gauges
    /// (a subscriber's gauge is its stalest topic's age) and cumulative
    /// `deadline_miss_total` counters (late deliveries, attributed to
    /// the subscriber that received them late). Spliced into the metrics
    /// op log by the experiment merge exactly like `probes_in_flight`.
    pub fn metric_series(
        &self,
        deadline: SimDuration,
        horizon: SimTime,
        cadence: SimDuration,
    ) -> Vec<(String, Vec<(SimTime, f64)>)> {
        let step = cadence.as_micros().max(1);
        let n = (horizon.as_micros() / step) as usize;
        if n == 0 {
            return Vec::new();
        }
        let ts = |s: usize| SimTime::from_micros((s as u64 + 1) * step);
        // Per-lane peak age and cumulative late-delivery counts.
        let mut lane_age: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut lane_miss: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for ((lane, _topic), stream) in self.pair_streams() {
            let age = lane_age.entry(lane).or_insert_with(|| vec![0.0; n]);
            let miss = lane_miss.entry(lane).or_insert_with(|| vec![0.0; n]);
            let mut i = 0usize;
            let mut freshest: Option<SimTime> = None;
            let mut late_so_far = 0u64;
            for s in 0..n {
                let t = ts(s);
                while i < stream.len() && stream[i].0 <= t {
                    let (rx, pub_at) = stream[i];
                    freshest = Some(freshest.map_or(pub_at, |f| f.max(pub_at)));
                    if rx.saturating_since(pub_at) > deadline {
                        late_so_far += 1;
                    }
                    i += 1;
                }
                if let Some(f) = freshest {
                    age[s] = age[s].max(t.saturating_since(f).as_millis_f64());
                }
                miss[s] += late_so_far as f64;
            }
        }
        let mut out: Vec<(String, Vec<(SimTime, f64)>)> = Vec::new();
        let series = |vals: &[f64]| -> Vec<(SimTime, f64)> {
            vals.iter().enumerate().map(|(s, &v)| (ts(s), v)).collect()
        };
        let mut total_miss = vec![0.0f64; n];
        let mut peak_age = vec![0.0f64; n];
        for (lane, vals) in &lane_age {
            for s in 0..n {
                peak_age[s] = peak_age[s].max(vals[s]);
            }
            out.push((format!("freshness_age_ms/lane{lane}"), series(vals)));
        }
        for (lane, vals) in &lane_miss {
            for s in 0..n {
                total_miss[s] += vals[s];
            }
            out.push((format!("deadline_miss_total/lane{lane}"), series(vals)));
        }
        out.push(("freshness_age_ms/peak".into(), series(&peak_age)));
        out.push(("deadline_miss_total".into(), series(&total_miss)));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// One sample of the aggregated Age-of-Information sawtooth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AoiSample {
    /// Sample instant (multiples of the cadence).
    pub at: SimTime,
    /// Mean staleness across live `(subscriber, topic)` pairs, ms.
    pub mean_ms: f64,
    /// Worst staleness across live pairs, ms.
    pub peak_ms: f64,
    /// Pairs that had received at least one reading by this instant.
    pub pairs: u64,
}

/// One burn/percentile window of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    /// Window start (multiples of the window length).
    pub start: SimTime,
    /// Readings published in this window.
    pub published: u64,
    /// Of those, readings that missed the deadline (late or lost).
    pub missed: u64,
    /// Error-budget burn: window miss fraction ÷ (1 − target). 1.0
    /// means this window consumed its budget exactly; >1 overspent.
    pub burn: f64,
    /// Deliveries landing in this window (by delivery time).
    pub delivered: u64,
    /// Delivery-age distribution of those deliveries, µs.
    pub age_us: Option<HistogramSummary>,
}

/// End-of-run freshness/SLO report for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The objective this report was evaluated against.
    pub spec: SloSpec,
    /// Readings published.
    pub published: u64,
    /// Deliveries (unique per subscriber × reading).
    pub delivered: u64,
    /// Readings whose earliest delivery beat the deadline.
    pub on_time: u64,
    /// Readings delivered only after the deadline.
    pub late: u64,
    /// Readings never delivered.
    pub lost: u64,
    /// `on_time / published` (1.0 when nothing was published).
    pub compliance: f64,
    /// `compliance >= target_fraction`.
    pub compliant: bool,
    /// Whole-run delivery-age distribution, µs.
    pub age_us: Option<HistogramSummary>,
    /// Aggregated AoI sawtooth samples on the vmstat cadence.
    pub aoi: Vec<AoiSample>,
    /// Burn/percentile windows.
    pub windows: Vec<SloWindow>,
    /// The worst single-window burn (the fault-campaign headline).
    pub worst_burn: f64,
    /// Carried out-of-band stamps that disagreed with the publish
    /// record. Always 0 unless an instrumentation path is buggy.
    pub stamp_disagreements: u64,
}

impl SloReport {
    /// Deadline misses: late + lost readings.
    pub fn deadline_misses(&self) -> u64 {
        self.late + self.lost
    }

    /// Render `slo.csv`: `t_s,metric,value` rows (the metrics-CSV
    /// shape), AoI sawtooth first, then the window series. Deterministic
    /// byte-for-byte for a given report.
    pub fn csv(&self) -> String {
        let mut out = String::from("t_s,metric,value\n");
        use std::fmt::Write as _;
        for s in &self.aoi {
            let t = trim_float(s.at.as_secs_f64());
            let _ = writeln!(out, "{t},aoi_mean_ms,{}", trim_float(s.mean_ms));
            let _ = writeln!(out, "{t},aoi_peak_ms,{}", trim_float(s.peak_ms));
        }
        for w in &self.windows {
            let t = trim_float(w.start.as_secs_f64());
            let _ = writeln!(out, "{t},window_published,{}", w.published);
            let _ = writeln!(out, "{t},window_missed,{}", w.missed);
            let _ = writeln!(out, "{t},window_burn,{}", trim_float(w.burn));
            let _ = writeln!(out, "{t},window_delivered,{}", w.delivered);
            if let Some(a) = &w.age_us {
                let _ = writeln!(
                    out,
                    "{t},window_age_p50_ms,{}",
                    trim_float(a.p50 as f64 / 1000.0)
                );
                let _ = writeln!(
                    out,
                    "{t},window_age_p99_ms,{}",
                    trim_float(a.p99 as f64 / 1000.0)
                );
            }
        }
        out
    }

    /// One row of the per-contender compliance table; pair with
    /// [`SloReport::table_columns`].
    pub fn table_row(&self, name: &str) -> Vec<String> {
        let (p50, p99) = self
            .age_us
            .map(|a| (a.p50 as f64 / 1000.0, a.p99 as f64 / 1000.0))
            .unwrap_or((0.0, 0.0));
        vec![
            name.to_owned(),
            format!("{}", self.spec.deadline),
            format!("{:.1}%", self.spec.target_fraction * 100.0),
            self.published.to_string(),
            self.on_time.to_string(),
            self.late.to_string(),
            self.lost.to_string(),
            format!("{:.2}%", self.compliance * 100.0),
            trim_float(p50),
            trim_float(p99),
            trim_float(self.worst_burn),
            if self.compliant { "PASS" } else { "FAIL" }.to_owned(),
        ]
    }

    /// Column headers matching [`SloReport::table_row`].
    pub fn table_columns() -> &'static [&'static str] {
        &[
            "scenario",
            "deadline",
            "target",
            "published",
            "on-time",
            "late",
            "lost",
            "compliance",
            "age p50 ms",
            "age p99 ms",
            "worst burn",
            "slo",
        ]
    }
}

/// Run `f` against the SLO collector if one is registered; a no-op
/// otherwise — the off-by-default discipline shared with `simtrace` and
/// `simprof`: when the plane is off, the only cost at an
/// instrumentation site is one failed type-map probe.
#[inline]
pub fn with_slo(ctx: &mut Context<'_>, f: impl FnOnce(&mut SloCollector, SimTime)) {
    let now = ctx.now();
    if let Some(slo) = ctx.try_service_mut::<SloCollector>() {
        f(slo, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn probe(lane: u32, seq: u32) -> ProbeId {
        ProbeId::compose(lane, seq)
    }

    #[test]
    fn on_time_late_lost_classification() {
        let mut c = SloCollector::new();
        let spec = SloSpec::new(SimDuration::from_millis(100), 0.9);
        // On time: delivered at +50 ms.
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_delivery(probe(1, 0), 7, t(50), Some(t(0)));
        // Late: delivered at +500 ms.
        c.record_publish(probe(1, 1), "a", t(1000));
        c.record_delivery(probe(1, 1), 7, t(1500), Some(t(1000)));
        // Lost: never delivered.
        c.record_publish(probe(1, 2), "a", t(2000));
        let r = c.report(
            &spec,
            t(3000),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert_eq!((r.published, r.delivered), (3, 2));
        assert_eq!((r.on_time, r.late, r.lost), (1, 1, 1));
        assert_eq!(r.deadline_misses(), 2);
        assert!((r.compliance - 1.0 / 3.0).abs() < 1e-12);
        assert!(!r.compliant);
        assert_eq!(r.stamp_disagreements, 0);
    }

    #[test]
    fn earliest_delivery_wins_and_duplicates_collapse() {
        let mut c = SloCollector::new();
        let spec = SloSpec::new(SimDuration::from_millis(100), 0.5);
        c.record_publish(probe(1, 0), "a", t(0));
        // Subscriber 7 gets it late, subscriber 8 on time: the reading
        // is on time (earliest delivery), and sub 7's copy still counts
        // as one delivery even if redelivered.
        c.record_delivery(probe(1, 0), 7, t(400), Some(t(0)));
        c.record_delivery(probe(1, 0), 7, t(900), Some(t(0))); // dup, ignored
        c.record_delivery(probe(1, 0), 8, t(60), Some(t(0)));
        let r = c.report(
            &spec,
            t(1000),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert_eq!(r.delivered, 2);
        assert_eq!(r.on_time, 1);
        assert!(r.compliant);
    }

    #[test]
    fn aoi_sawtooth_tracks_freshest_reading() {
        let mut c = SloCollector::new();
        // One pair: publishes at 0 s and 4 s, delivered at 1 s and 5 s.
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_delivery(probe(1, 0), 7, t(1000), None);
        c.record_publish(probe(1, 1), "a", t(4000));
        c.record_delivery(probe(1, 1), 7, t(5000), None);
        let spec = SloSpec::grid_default();
        let r = c.report(&spec, t(6000), SimDuration::from_secs(1), DEFAULT_WINDOW);
        assert_eq!(r.aoi.len(), 6);
        // t=1s: freshest published at 0 → age 1000 ms; grows linearly.
        assert_eq!(r.aoi[0].peak_ms, 1000.0);
        assert_eq!(r.aoi[1].peak_ms, 2000.0);
        assert_eq!(r.aoi[3].peak_ms, 4000.0);
        // t=5s: second reading (published 4 s) arrived → age resets to 1 s.
        assert_eq!(r.aoi[4].peak_ms, 1000.0);
        assert_eq!(r.aoi[4].pairs, 1);
        assert_eq!(r.aoi[0].mean_ms, r.aoi[0].peak_ms, "single pair");
    }

    #[test]
    fn out_of_order_delivery_keeps_freshest_publish() {
        let mut c = SloCollector::new();
        // The older reading (published 0 s) arrives *after* the newer
        // one (published 2 s): age must track the newer publish.
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_publish(probe(1, 1), "a", t(2000));
        c.record_delivery(probe(1, 1), 7, t(2500), None);
        c.record_delivery(probe(1, 0), 7, t(3500), None);
        let r = c.report(
            &SloSpec::grid_default(),
            t(4000),
            SimDuration::from_secs(1),
            DEFAULT_WINDOW,
        );
        // t=4s: freshest is still the 2 s publish → age 2000 ms.
        assert_eq!(r.aoi[3].peak_ms, 2000.0);
    }

    #[test]
    fn burn_windows_attribute_loss_to_publish_window() {
        let mut c = SloCollector::new();
        let spec = SloSpec::new(SimDuration::from_millis(100), 0.9);
        // Window 0 (0–10 s): 10 readings, all on time.
        for i in 0..10 {
            c.record_publish(probe(1, i), "a", t(u64::from(i) * 100));
            c.record_delivery(probe(1, i), 7, t(u64::from(i) * 100 + 10), None);
        }
        // Window 1 (10–20 s): 10 readings, 5 lost in a crash.
        for i in 0..10 {
            c.record_publish(probe(2, i), "a", t(10_000 + u64::from(i) * 100));
            if i < 5 {
                c.record_delivery(probe(2, i), 7, t(10_000 + u64::from(i) * 100 + 10), None);
            }
        }
        let r = c.report(
            &spec,
            t(20_000),
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
        );
        let w: Vec<_> = r.windows.iter().filter(|w| w.published > 0).collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].missed, 0);
        assert_eq!(w[0].burn, 0.0);
        assert_eq!(w[1].missed, 5);
        // Miss fraction 0.5 against a 0.1 budget → burn 5×.
        assert!((w[1].burn - 5.0).abs() < 1e-9);
        assert!((r.worst_burn - 5.0).abs() < 1e-9);
    }

    #[test]
    fn carried_stamp_cross_check_counts_disagreements() {
        let mut c = SloCollector::new();
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_delivery(probe(1, 0), 7, t(50), Some(t(1))); // wrong stamp
        let r = c.report(
            &SloSpec::grid_default(),
            t(1000),
            SimDuration::from_secs(1),
            DEFAULT_WINDOW,
        );
        assert_eq!(r.stamp_disagreements, 1);
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let mut c = SloCollector::new();
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_delivery(probe(1, 0), 7, t(50), None);
        let spec = SloSpec::grid_default();
        let r = c.report(
            &spec,
            t(3000),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        let csv = r.csv();
        assert!(csv.starts_with("t_s,metric,value\n"));
        assert!(csv.contains("aoi_mean_ms"));
        assert!(csv.contains("window_burn"));
        assert_eq!(csv, r.csv(), "rendering is a pure function");
        // Table row/columns stay in lockstep.
        assert_eq!(r.table_row("x").len(), SloReport::table_columns().len());
    }

    #[test]
    fn metric_series_expose_lanes_and_totals() {
        let mut c = SloCollector::new();
        let deadline = SimDuration::from_millis(100);
        c.record_publish(probe(1, 0), "a", t(0));
        c.record_delivery(probe(1, 0), 7, t(50), None); // on time
        c.record_publish(probe(1, 1), "b", t(0));
        c.record_delivery(probe(1, 1), 9, t(600), None); // late
        let series = c.metric_series(deadline, t(2000), SimDuration::from_secs(1));
        let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "deadline_miss_total",
                "deadline_miss_total/lane7",
                "deadline_miss_total/lane9",
                "freshness_age_ms/lane7",
                "freshness_age_ms/lane9",
                "freshness_age_ms/peak",
            ]
        );
        let total = &series[0].1;
        assert_eq!(total.len(), 2);
        assert_eq!(total[1].1, 1.0, "one late delivery in total");
        // Gauge grows with staleness: lane 7's age at 1 s then 2 s.
        let lane7 = &series[3].1;
        assert_eq!(lane7[0].1, 1000.0);
        assert_eq!(lane7[1].1, 2000.0);
    }

    #[test]
    fn empty_collector_reports_cleanly() {
        let c = SloCollector::new();
        let r = c.report(
            &SloSpec::grid_default(),
            t(1000),
            SimDuration::from_secs(1),
            DEFAULT_WINDOW,
        );
        assert_eq!((r.published, r.delivered), (0, 0));
        assert_eq!(r.compliance, 1.0);
        assert!(r.compliant);
        assert!(r.age_us.is_none());
        assert_eq!(r.aoi.len(), 1);
        assert_eq!(r.aoi[0].pairs, 0);
        assert!(r.windows.is_empty());
    }
}
