//! Per-message PRT/PT/SRT reconstruction from the event stream.

use crate::collector::TraceCollector;
use crate::event::{EventKind, TraceId};
use simcore::SimTime;
use std::collections::BTreeMap;

/// The four fig-15 instants of one traced message, rebuilt from spans,
/// plus a count of the hops observed in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeBreakdown {
    /// `before_sending`: the application called publish/INSERT.
    pub publish_begin: Option<SimTime>,
    /// `after_sending`: the synchronous send returned.
    pub publish_end: Option<SimTime>,
    /// `before_receiving`: the middleware made the message available.
    pub available: Option<SimTime>,
    /// `after_receiving`: the receiving application has the message.
    pub delivered: Option<SimTime>,
    /// Hop events (broker/storage/network) attributed to this message.
    pub hops: u32,
}

impl ProbeBreakdown {
    /// Publishing response time, when both endpoints were traced.
    pub fn prt(&self) -> Option<u64> {
        Some(
            self.publish_end?
                .saturating_since(self.publish_begin?)
                .as_micros(),
        )
    }

    /// Middleware process time.
    pub fn pt(&self) -> Option<u64> {
        Some(
            self.available?
                .saturating_since(self.publish_end?)
                .as_micros(),
        )
    }

    /// Subscribing response time.
    pub fn srt(&self) -> Option<u64> {
        Some(
            self.delivered?
                .saturating_since(self.available?)
                .as_micros(),
        )
    }

    /// End-to-end round trip.
    pub fn rtt(&self) -> Option<u64> {
        Some(
            self.delivered?
                .saturating_since(self.publish_begin?)
                .as_micros(),
        )
    }

    /// True when all four instants were observed.
    pub fn complete(&self) -> bool {
        self.publish_begin.is_some()
            && self.publish_end.is_some()
            && self.available.is_some()
            && self.delivered.is_some()
    }
}

/// Everything reconstructed from one run's trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Per-message breakdowns, keyed (and therefore ordered) by trace id.
    pub probes: BTreeMap<TraceId, ProbeBreakdown>,
    /// Events the summary was built from.
    pub total_events: u64,
    /// Events lost to the ring bound before the summary ran.
    pub evicted_events: u64,
}

impl TraceSummary {
    /// Rebuild per-message lifecycles from the collector's event ring.
    ///
    /// Duplicate `Available`/`Delivered` events (UDP redelivery) keep
    /// the first instant, matching `RttCollector` idempotence.
    pub fn from_collector(tr: &TraceCollector) -> Self {
        let mut probes: BTreeMap<TraceId, ProbeBreakdown> = BTreeMap::new();
        let mut total = 0u64;
        for ev in tr.events() {
            total += 1;
            let Some(id) = ev.trace else { continue };
            let slot = probes.entry(id).or_default();
            match ev.kind {
                EventKind::PublishBegin => slot.publish_begin = Some(ev.at),
                EventKind::PublishEnd => slot.publish_end = Some(ev.at),
                EventKind::Available => {
                    if slot.available.is_none() {
                        slot.available = Some(ev.at);
                    }
                }
                EventKind::Delivered => {
                    if slot.delivered.is_none() {
                        slot.delivered = Some(ev.at);
                    }
                }
                _ => slot.hops += 1,
            }
        }
        TraceSummary {
            probes,
            total_events: total,
            evicted_events: tr.evicted(),
        }
    }

    /// Cross-check one probe's trace-derived instants against an
    /// independent record of the same four instants (the
    /// `RttCollector`'s). Returns a description of the first
    /// disagreement, or `None` when they match exactly. Because the
    /// decomposition telescopes (PRT + PT + SRT = RTT by construction),
    /// instant-level equality is the strongest possible check.
    ///
    /// `evicted_events > 0` disables the "missing from trace" direction
    /// for absent probes, since eviction legitimately loses history.
    pub fn check_probe(
        &self,
        id: TraceId,
        before_sending: SimTime,
        after_sending: Option<SimTime>,
        before_receiving: Option<SimTime>,
        after_receiving: Option<SimTime>,
    ) -> Option<String> {
        let Some(b) = self.probes.get(&id) else {
            if self.evicted_events > 0 {
                return None;
            }
            return Some(format!("probe {} missing from trace", id.0));
        };
        let pairs = [
            ("before_sending", Some(before_sending), b.publish_begin),
            ("after_sending", after_sending, b.publish_end),
            ("before_receiving", before_receiving, b.available),
            ("after_receiving", after_receiving, b.delivered),
        ];
        for (name, collector, trace) in pairs {
            if let Some(c) = collector {
                match trace {
                    None if self.evicted_events == 0 => {
                        return Some(format!("probe {}: {name} missing from trace", id.0));
                    }
                    Some(t) if t != c => {
                        return Some(format!(
                            "probe {}: {name} disagrees (trace {} us, collector {} us)",
                            id.0,
                            t.as_micros(),
                            c.as_micros()
                        ));
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn collector_with_full_lifecycle() -> TraceCollector {
        let mut c = TraceCollector::new();
        let id = Some(TraceId(7));
        c.record(t(10), id, 1, EventKind::PublishBegin);
        c.record(t(12), id, 1, EventKind::PublishEnd);
        c.record(t(13), id, 2, EventKind::BrokerRecv { broker: 0 });
        c.record(
            t(13),
            id,
            2,
            EventKind::SelectorMatch {
                matched: 1,
                missed: 3,
            },
        );
        c.record(t(40), id, 3, EventKind::Available);
        c.record(t(45), id, 3, EventKind::Delivered);
        c.record(t(50), id, 3, EventKind::Delivered); // duplicate redelivery
        c
    }

    #[test]
    fn decomposition_telescopes() {
        let c = collector_with_full_lifecycle();
        let s = TraceSummary::from_collector(&c);
        let b = s.probes[&TraceId(7)];
        assert!(b.complete());
        assert_eq!(b.prt(), Some(2_000));
        assert_eq!(b.pt(), Some(28_000));
        assert_eq!(b.srt(), Some(5_000));
        assert_eq!(b.rtt(), Some(35_000));
        assert_eq!(
            b.rtt().unwrap(),
            b.prt().unwrap() + b.pt().unwrap() + b.srt().unwrap()
        );
        assert_eq!(b.hops, 2);
        assert_eq!(b.delivered, Some(t(45)), "first delivery wins");
    }

    #[test]
    fn cross_check_detects_disagreement() {
        let c = collector_with_full_lifecycle();
        let s = TraceSummary::from_collector(&c);
        assert_eq!(
            s.check_probe(TraceId(7), t(10), Some(t(12)), Some(t(40)), Some(t(45))),
            None
        );
        let bad = s.check_probe(TraceId(7), t(10), Some(t(12)), Some(t(41)), Some(t(45)));
        assert!(bad.unwrap().contains("before_receiving"));
        let missing = s.check_probe(TraceId(9), t(0), None, None, None);
        assert!(missing.unwrap().contains("missing"));
    }

    #[test]
    fn eviction_suppresses_missing_probe_reports() {
        let mut c = TraceCollector::with_capacity(1);
        c.record(t(1), Some(TraceId(0)), 0, EventKind::PublishBegin);
        c.record(t(2), Some(TraceId(1)), 0, EventKind::PublishBegin);
        // The capacity bound is applied by the finish every run goes
        // through; the live store is unbounded.
        c.finish();
        let s = TraceSummary::from_collector(&c);
        assert_eq!(s.evicted_events, 1);
        assert_eq!(s.check_probe(TraceId(0), t(1), None, None, None), None);
    }
}
