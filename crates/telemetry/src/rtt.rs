//! Per-message round-trip records, loss accounting, and the paper's RTT
//! decomposition `RTT = PRT + PT + SRT`.
//!
//! Instrumentation points mirror fig 15:
//!
//! * `before_sending`  — the application calls publish/insert.
//! * `after_sending`   — the synchronous send operation returns.
//! * `before_receiving`— the middleware makes the message available to the
//!   receiving client (notification fired / poll response begins).
//! * `after_receiving` — the receiving application has the message.
//!
//! PRT = after_sending − before_sending (Publishing Response Time),
//! PT = before_receiving − after_sending (Process Time),
//! SRT = after_receiving − before_receiving (Subscribing Response Time).

use crate::histogram::{HistogramSummary, LatencyHistogram};
use crate::stats::Welford;
use simcore::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Handle to one in-flight probe record.
///
/// The id is content-derived, not allocation-order-derived: the high 32
/// bits are the publisher's kernel lane (its actor index) and the low 32
/// bits a per-publisher sequence number. A probe's id therefore does not
/// depend on how publishers interleave, and iteration in id order is
/// stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeId(pub u64);

impl ProbeId {
    /// Compose an id from the publisher's lane and its own probe count.
    pub fn compose(lane: u32, seq: u32) -> ProbeId {
        ProbeId(u64::from(lane) << 32 | u64::from(seq))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Record {
    // All four instants are optional: a lost message never gets its
    // receive half.
    before_sending: Option<SimTime>,
    after_sending: Option<SimTime>,
    before_receiving: Option<SimTime>,
    after_receiving: Option<SimTime>,
}

/// Keep the earliest instant. Calls arrive in time order, so this is
/// plain first-wins idempotence (duplicate deliveries keep the first).
fn keep_min(slot: &mut Option<SimTime>, now: SimTime) {
    match slot {
        Some(t) if *t <= now => {}
        _ => *slot = Some(now),
    }
}

/// The four raw instants of one probe, in fig 15 order. Exposed so an
/// independent observer (the `simtrace` subsystem) can cross-check its
/// own per-message reconstruction against this collector — any
/// disagreement means one of the two instrumentation paths is buggy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInstants {
    /// The application called publish/insert.
    pub before_sending: SimTime,
    /// The synchronous send returned.
    pub after_sending: Option<SimTime>,
    /// The middleware made the message available.
    pub before_receiving: Option<SimTime>,
    /// The receiving application had the message.
    pub after_receiving: Option<SimTime>,
}

/// Summary of a completed experiment's message telemetry.
#[derive(Debug, Clone)]
pub struct RttSummary {
    /// Messages sent.
    pub sent: u64,
    /// Messages fully received.
    pub received: u64,
    /// Loss rate in `[0,1]`.
    pub loss_rate: f64,
    /// Mean round-trip time, milliseconds.
    pub rtt_mean_ms: f64,
    /// RTT standard deviation, milliseconds.
    pub rtt_stddev_ms: f64,
    /// RTT at 95..100 percentiles, milliseconds.
    pub percentiles_ms: Vec<(u32, f64)>,
    /// Full RTT distribution (p50/p90/p95/p99/p99.9 + moments), in
    /// microseconds — so repro tables need not truncate at p95.
    /// `None` when no message completed the round trip.
    pub distribution_us: Option<HistogramSummary>,
    /// Mean PRT (publishing response time), ms.
    pub prt_mean_ms: f64,
    /// Mean PT (middleware process time), ms.
    pub pt_mean_ms: f64,
    /// Mean SRT (subscribing response time), ms.
    pub srt_mean_ms: f64,
    /// Fraction of messages within 100 ms (paper's "99.8 % within 100 ms").
    pub within_100ms: f64,
    /// Fraction within the 5 s soft real-time budget of §I.
    pub within_5s: f64,
}

/// Exhaustive end-of-run classification of every sent message: each is
/// delivered, dropped (with a known cause), or still in flight when the
/// clock stops. Fault-injection campaigns assert [`Conservation::holds`]
/// to prove no message is double-counted or silently lost by the
/// accounting itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Messages the application sent.
    pub sent: u64,
    /// Messages the receiving application got (duplicates counted once).
    pub delivered: u64,
    /// Messages dropped with an attributed cause (link burst, partition,
    /// crash window, …) — supplied by the fault-injection accounting.
    pub dropped: u64,
    /// Messages neither delivered nor attributed-dropped by the end of
    /// the run (queued, buffered offline, or mid-retransmit).
    pub in_flight_at_end: u64,
}

impl Conservation {
    /// The conservation identity `sent == delivered + dropped +
    /// in_flight_at_end`. Fails only when causes are double-counted
    /// (`delivered + dropped > sent`), since `in_flight_at_end` is the
    /// residual class.
    pub fn holds(&self) -> bool {
        self.delivered
            .checked_add(self.dropped)
            .and_then(|v| v.checked_add(self.in_flight_at_end))
            == Some(self.sent)
    }
}

/// The measurement service: middlewares and clients report instants; the
/// experiment reads the summary at the end.
///
/// Raw instants are the only thing stored during the run. All derived
/// statistics (Welford moments, the latency histogram) are computed by
/// [`summary`](Self::summary) from the record map in probe-id order — the
/// accumulation order is a function of the *keys*, never of the event
/// interleaving that produced the records.
pub struct RttCollector {
    records: BTreeMap<u64, Record>,
    lane_seqs: HashMap<u32, u32>,
}

impl Default for RttCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl RttCollector {
    /// Empty collector.
    pub fn new() -> Self {
        RttCollector {
            records: BTreeMap::new(),
            lane_seqs: HashMap::new(),
        }
    }

    /// The application is about to send; returns the probe handle.
    /// `lane` is the publishing actor's kernel lane (actor index) — it
    /// keys the id so probe identities are interleaving-invariant.
    pub fn before_sending(&mut self, lane: u32, now: SimTime) -> ProbeId {
        let seq = self.lane_seqs.entry(lane).or_insert(0);
        let id = ProbeId::compose(lane, *seq);
        *seq = seq.checked_add(1).expect("2^32 probes from one publisher");
        keep_min(
            &mut self.records.entry(id.0).or_default().before_sending,
            now,
        );
        id
    }

    /// The synchronous send completed.
    pub fn after_sending(&mut self, id: ProbeId, now: SimTime) {
        let r = self.records.entry(id.0).or_default();
        debug_assert!(r.after_sending.is_none(), "double after_sending");
        keep_min(&mut r.after_sending, now);
    }

    /// The middleware made the message available to the subscriber.
    /// Idempotent: with redelivery (UDP retransmit) the first instant
    /// wins.
    pub fn before_receiving(&mut self, id: ProbeId, now: SimTime) {
        keep_min(
            &mut self.records.entry(id.0).or_default().before_receiving,
            now,
        );
    }

    /// The receiving application has the message. Duplicate deliveries
    /// (UDP retransmission) are counted once — first delivery wins.
    pub fn after_receiving(&mut self, id: ProbeId, now: SimTime) {
        keep_min(
            &mut self.records.entry(id.0).or_default().after_receiving,
            now,
        );
    }

    /// Messages sent so far (records with a publish instant).
    pub fn sent(&self) -> u64 {
        self.records
            .values()
            .filter(|r| r.before_sending.is_some())
            .count() as u64
    }

    /// Messages received so far.
    pub fn received(&self) -> u64 {
        self.records
            .values()
            .filter(|r| r.after_receiving.is_some())
            .count() as u64
    }

    /// Every probe id with a record, in id order.
    pub fn probe_ids(&self) -> impl Iterator<Item = ProbeId> + '_ {
        self.records.keys().map(|&k| ProbeId(k))
    }

    /// Raw instants of one probe (`None` if the id was never issued).
    pub fn instants(&self, id: ProbeId) -> Option<ProbeInstants> {
        let r = self.records.get(&id.0)?;
        Some(ProbeInstants {
            before_sending: r.before_sending?,
            after_sending: r.after_sending,
            before_receiving: r.before_receiving,
            after_receiving: r.after_receiving,
        })
    }

    /// Classify every sent message at end of run. `dropped` is the
    /// cause-attributed drop count from the fault accounting; messages
    /// neither delivered nor attributed fall into `in_flight_at_end`.
    /// The result's [`Conservation::holds`] detects double-counting:
    /// it is violated exactly when `delivered + dropped > sent`.
    pub fn conservation(&self, dropped: u64) -> Conservation {
        let sent = self.sent();
        let delivered = self.received();
        let in_flight_at_end = sent.saturating_sub(delivered).saturating_sub(dropped);
        Conservation {
            sent,
            delivered,
            dropped,
            in_flight_at_end,
        }
    }

    /// Summarize at end of experiment. Statistics accumulate in probe-id
    /// order — a pure function of the record map.
    pub fn summary(&self) -> RttSummary {
        let mut rtt = Welford::new();
        let mut prt = Welford::new();
        let mut pt = Welford::new();
        let mut srt = Welford::new();
        let mut hist = LatencyHistogram::new();
        for r in self.records.values() {
            let (Some(sent_at), Some(rx)) = (r.before_sending, r.after_receiving) else {
                continue;
            };
            let d = rx.saturating_since(sent_at);
            rtt.push(d.as_millis_f64());
            hist.record(d.as_micros());
            if let Some(aft) = r.after_sending {
                prt.push(aft.saturating_since(sent_at).as_millis_f64());
                if let Some(bef_rx) = r.before_receiving {
                    pt.push(bef_rx.saturating_since(aft).as_millis_f64());
                    srt.push(rx.saturating_since(bef_rx).as_millis_f64());
                }
            }
        }
        let sent = self.sent();
        let received = rtt.count();
        let loss_rate = if sent == 0 {
            0.0
        } else {
            (sent - received) as f64 / sent as f64
        };
        RttSummary {
            sent,
            received,
            loss_rate,
            rtt_mean_ms: rtt.mean(),
            rtt_stddev_ms: rtt.stddev(),
            percentiles_ms: hist
                .percentile_series()
                .into_iter()
                .map(|(p, us)| (p, us as f64 / 1000.0))
                .collect(),
            distribution_us: hist.summary(),
            prt_mean_ms: prt.mean(),
            pt_mean_ms: pt.mean(),
            srt_mean_ms: srt.mean(),
            within_100ms: hist.fraction_le(100_000),
            within_5s: hist.fraction_le(5_000_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn full_lifecycle_decomposition() {
        let mut c = RttCollector::new();
        let id = c.before_sending(0, t(1000));
        c.after_sending(id, t(1010));
        c.before_receiving(id, t(1500));
        c.after_receiving(id, t(1520));
        let s = c.summary();
        assert_eq!(s.sent, 1);
        assert_eq!(s.received, 1);
        assert_eq!(s.loss_rate, 0.0);
        assert!((s.rtt_mean_ms - 520.0).abs() < 1e-9);
        assert!((s.prt_mean_ms - 10.0).abs() < 1e-9);
        assert!((s.pt_mean_ms - 490.0).abs() < 1e-9);
        assert!((s.srt_mean_ms - 20.0).abs() < 1e-9);
        // RTT = PRT + PT + SRT (the paper's equation).
        assert!((s.rtt_mean_ms - (s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms)).abs() < 1e-9);
    }

    #[test]
    fn probe_ids_are_lane_keyed() {
        // Two publishers (lanes 3 and 9) interleaved: each mints its own
        // sequence, and iteration follows the ids, not the call order.
        let mut c = RttCollector::new();
        for i in 0..20u64 {
            let lane = if i % 2 == 0 { 3 } else { 9 };
            let id = c.before_sending(lane, t(i));
            assert_eq!(id, ProbeId::compose(lane, (i / 2) as u32));
        }
        let ids: Vec<ProbeId> = c.probe_ids().collect();
        assert_eq!(ids.len(), 20);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids[0], ProbeId::compose(3, 0));
        assert_eq!(ids[10], ProbeId::compose(9, 0));
    }

    #[test]
    fn loss_counts_unreceived() {
        let mut c = RttCollector::new();
        for i in 0..10 {
            let id = c.before_sending(0, t(i));
            c.after_sending(id, t(i + 1));
            if i % 5 != 0 {
                c.after_receiving(id, t(i + 3));
            }
        }
        let s = c.summary();
        assert_eq!(s.sent, 10);
        assert_eq!(s.received, 8);
        assert!((s.loss_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn duplicate_delivery_counted_once() {
        let mut c = RttCollector::new();
        let id = c.before_sending(0, t(0));
        c.after_sending(id, t(1));
        c.after_receiving(id, t(5));
        c.after_receiving(id, t(9)); // retransmitted duplicate
        let s = c.summary();
        assert_eq!(s.received, 1);
        assert!((s.rtt_mean_ms - 5.0).abs() < 1e-9, "first delivery wins");
    }

    #[test]
    fn percentiles_and_budgets() {
        let mut c = RttCollector::new();
        for i in 1..=100u64 {
            let id = c.before_sending(0, t(0));
            c.after_sending(id, t(0));
            c.before_receiving(id, t(i));
            c.after_receiving(id, t(i));
        }
        let s = c.summary();
        assert_eq!(s.percentiles_ms.len(), 6);
        assert_eq!(s.percentiles_ms[5], (100, 100.0));
        assert!(s.within_100ms >= 0.99);
        assert_eq!(s.within_5s, 1.0);
        // The full distribution rides along, below p95 included.
        let d = s.distribution_us.expect("messages completed");
        assert_eq!(d.count, 100);
        assert_eq!(d.max, 100_000);
        assert!(d.p50 <= d.p90 && d.p90 <= d.p99 && d.p999 <= d.max);
    }

    #[test]
    fn stddev_matches_paper_definition() {
        // Two RTTs: 10 and 20 ms → mean 15, population stddev 5.
        let mut c = RttCollector::new();
        for ms in [10u64, 20] {
            let id = c.before_sending(0, t(0));
            c.after_sending(id, t(0));
            c.after_receiving(id, t(ms));
        }
        let s = c.summary();
        assert!((s.rtt_mean_ms - 15.0).abs() < 1e-9);
        assert!((s.rtt_stddev_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_classifies_exhaustively() {
        let mut c = RttCollector::new();
        for i in 0..10 {
            let id = c.before_sending(0, t(i));
            c.after_sending(id, t(i + 1));
            if i < 6 {
                c.after_receiving(id, t(i + 3));
            }
        }
        // 10 sent, 6 delivered, 3 attributed drops → 1 in flight.
        let cons = c.conservation(3);
        assert_eq!(cons.sent, 10);
        assert_eq!(cons.delivered, 6);
        assert_eq!(cons.dropped, 3);
        assert_eq!(cons.in_flight_at_end, 1);
        assert!(cons.holds());
        // Over-attribution (double-counted drops) breaks the identity.
        let over = c.conservation(5);
        assert!(!over.holds(), "delivered + dropped > sent must not hold");
    }

    #[test]
    fn empty_summary() {
        let s = RttCollector::new().summary();
        assert_eq!(s.sent, 0);
        assert_eq!(s.loss_rate, 0.0);
        assert!(s.percentiles_ms.is_empty());
    }
}
