//! The trace collector kernel service.
//!
//! Each record is keyed `(time, recorder lane, per-lane seq)` —
//! interleaving-invariant, because a lane's record stream is a function
//! of that actor's own deterministic execution — and
//! [`TraceCollector::finish`] sorts the store by that key. Gauges (the
//! NIC backlog has many writers) are rebuilt by replaying a keyed op log
//! in the same order, so every counter sample sees the gauge levels of
//! all same-instant ops with a lower key. The ring bound is applied at
//! finish time (`evicted` counts what the trim discarded), so the
//! retained window is a function of the key order.

use crate::event::{Counter, EventKind, Gauge, TraceEvent, TraceId, COUNTER_COUNT, GAUGE_COUNT};
use crate::sampler::CounterSample;
use simcore::{Context, SimTime};
use std::collections::HashMap;

/// Default ring capacity: enough for every event of the scaled
/// experiment suite while bounding the exported artifact to a few MB of
/// `Copy` events.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
enum GaugeOpKind {
    Set(u64),
    Add(i64),
}

#[derive(Debug, Clone, Copy)]
struct GaugeOp {
    at: SimTime,
    lane: u32,
    seq: u64,
    gauge: usize,
    kind: GaugeOpKind,
}

impl GaugeOp {
    fn key(&self) -> (SimTime, u32, u64, usize, u8, u64) {
        let (tag, raw) = match self.kind {
            GaugeOpKind::Set(v) => (0u8, v),
            GaugeOpKind::Add(d) => (1u8, d as u64),
        };
        (self.at, self.lane, self.seq, self.gauge, tag, raw)
    }

    fn apply(&self, gauges: &mut [u64; GAUGE_COUNT]) {
        let slot = &mut gauges[self.gauge];
        match self.kind {
            GaugeOpKind::Set(v) => *slot = v,
            GaugeOpKind::Add(d) => *slot = slot.saturating_add_signed(d),
        }
    }
}

/// Event sink plus live counters, registered as a kernel service. The
/// store is unbounded during the run; the capacity bound is enforced by
/// [`finish`](TraceCollector::finish), which every run goes through
/// before exporting.
pub struct TraceCollector {
    /// `(lane, seq, event)` in recording order.
    events: Vec<(u32, u64, TraceEvent)>,
    capacity: usize,
    /// Events discarded by the finish-time capacity trim.
    evicted: u64,
    counters: [u64; COUNTER_COUNT],
    gauges: [u64; GAUGE_COUNT],
    samples: Vec<CounterSample>,
    gauge_ops: Vec<GaugeOp>,
    cur_lane: u32,
    cur_at: SimTime,
    lane_seqs: HashMap<u32, u64>,
}

impl TraceCollector {
    /// Collector with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Collector bounded to `capacity` retained events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCollector {
            events: Vec::new(),
            capacity: capacity.max(1),
            evicted: 0,
            counters: [0; COUNTER_COUNT],
            gauges: [0; GAUGE_COUNT],
            samples: Vec::new(),
            gauge_ops: Vec::new(),
            cur_lane: 0,
            cur_at: SimTime::ZERO,
            lane_seqs: HashMap::new(),
        }
    }

    /// Set the recording context for subsequent records; called by
    /// [`with_trace`] with the acting actor's lane and the kernel clock
    /// so record keys are interleaving-invariant.
    pub fn set_recorder(&mut self, lane: u32, at: SimTime) {
        self.cur_lane = lane;
        self.cur_at = at;
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.lane_seqs.entry(self.cur_lane).or_insert(0);
        let n = *seq;
        *seq += 1;
        n
    }

    /// Record one event.
    #[inline]
    pub fn record(&mut self, at: SimTime, trace: Option<TraceId>, actor: u64, kind: EventKind) {
        let seq = self.next_seq();
        self.events.push((
            self.cur_lane,
            seq,
            TraceEvent {
                at,
                trace,
                actor,
                kind,
            },
        ));
    }

    /// Bump a counter.
    #[inline]
    pub fn count(&mut self, c: Counter, delta: u64) {
        self.counters[c as usize] += delta;
    }

    /// Set a gauge level.
    #[inline]
    pub fn gauge_set(&mut self, g: Gauge, v: u64) {
        self.gauges[g as usize] = v;
        let op = GaugeOp {
            at: self.cur_at,
            lane: self.cur_lane,
            seq: self.next_seq(),
            gauge: g as usize,
            kind: GaugeOpKind::Set(v),
        };
        self.gauge_ops.push(op);
    }

    /// Adjust a gauge level by a signed delta (saturating at zero).
    #[inline]
    pub fn gauge_add(&mut self, g: Gauge, delta: i64) {
        let slot = &mut self.gauges[g as usize];
        *slot = slot.saturating_add_signed(delta);
        let op = GaugeOp {
            at: self.cur_at,
            lane: self.cur_lane,
            seq: self.next_seq(),
            gauge: g as usize,
            kind: GaugeOpKind::Add(delta),
        };
        self.gauge_ops.push(op);
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Current level of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Snapshot all counters/gauges into the sample log (called by
    /// [`crate::TraceSampler`] on the vmstat cadence).
    pub fn sample(&mut self, at: SimTime) {
        self.samples.push(CounterSample {
            at,
            counters: self.counters,
            gauges: self.gauges,
        });
    }

    /// All counter samples, in time order.
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().map(|(_, _, ev)| ev)
    }

    /// Events recorded and still retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the capacity bound (0 means the trace is
    /// complete). Set by [`finish`](Self::finish).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Put the store into its canonical end-of-run form:
    ///
    /// * events: sorted by `(time, lane, seq)`, then trimmed to the
    ///   capacity bound keeping the newest;
    /// * gauges: the op log replayed in key order, both at every counter
    ///   sample instant and for the final levels.
    pub fn finish(&mut self) {
        self.events
            .sort_by_key(|(lane, seq, ev)| (ev.at, *lane, *seq));
        let evicted = self.events.len().saturating_sub(self.capacity);
        self.events.drain(..evicted);
        self.evicted += evicted as u64;
        self.gauge_ops.sort_by_key(GaugeOp::key);
        let mut gauges = [0u64; GAUGE_COUNT];
        let mut cursor = 0usize;
        for sample in &mut self.samples {
            while cursor < self.gauge_ops.len() && self.gauge_ops[cursor].at <= sample.at {
                self.gauge_ops[cursor].apply(&mut gauges);
                cursor += 1;
            }
            sample.gauges = gauges;
        }
        for op in &self.gauge_ops[cursor..] {
            op.apply(&mut gauges);
        }
        self.gauges = gauges;
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `f` against the trace collector if one is registered; a no-op
/// otherwise. This is the only call instrumentation sites need: when
/// tracing is off the service is simply absent and the cost is one
/// type-map probe — no allocation, no event, no branch on message data.
/// Sets the recorder context (acting actor's lane, kernel clock) so
/// records carry interleaving-invariant keys.
#[inline]
pub fn with_trace(ctx: &mut Context<'_>, f: impl FnOnce(&mut TraceCollector, SimTime)) {
    let now = ctx.now();
    let lane = ctx.self_id().index() as u32;
    if let Some(tr) = ctx.try_service_mut::<TraceCollector>() {
        tr.set_recorder(lane, now);
        f(tr, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> (SimTime, Option<TraceId>, u64, EventKind) {
        (
            SimTime::from_micros(n),
            Some(TraceId(n)),
            0,
            EventKind::PublishBegin,
        )
    }

    #[test]
    fn merge_trims_to_capacity_keeping_newest() {
        let mut c = TraceCollector::with_capacity(3);
        for n in 0..5 {
            let (at, t, a, k) = ev(n);
            c.record(at, t, a, k);
        }
        assert_eq!(c.len(), 5, "live store is unbounded");
        c.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.evicted(), 2);
        let ids: Vec<u64> = c.events().map(|e| e.trace.unwrap().0).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest first, newest retained");
    }

    #[test]
    fn counters_and_gauges() {
        let mut c = TraceCollector::new();
        c.count(Counter::NetDrops, 2);
        c.count(Counter::NetDrops, 1);
        c.gauge_add(Gauge::NicBacklogUs, 5);
        c.gauge_add(Gauge::NicBacklogUs, -2);
        c.gauge_add(Gauge::BatchOccupancy, -9); // saturates at 0
        assert_eq!(c.counter(Counter::NetDrops), 3);
        assert_eq!(c.gauge(Gauge::NicBacklogUs), 3);
        assert_eq!(c.gauge(Gauge::BatchOccupancy), 0);
        c.sample(SimTime::from_secs(1));
        assert_eq!(c.samples().len(), 1);
        assert_eq!(c.samples()[0].counter(Counter::NetDrops), 3);
    }

    #[test]
    fn finish_sorts_by_key_and_replays_gauges() {
        // Lane 2 executes before lane 1 at t=1; the sampler snapshots at
        // t=1 before lane 1's gauge update of the same instant.
        let t = SimTime::from_micros;
        let mut c = TraceCollector::new();
        c.set_recorder(2, t(1));
        c.record(t(1), Some(TraceId(20)), 2, EventKind::Available);
        c.gauge_add(Gauge::NicBacklogUs, -3);
        c.sample(t(1));
        c.set_recorder(1, t(1));
        c.record(t(1), Some(TraceId(10)), 1, EventKind::PublishBegin);
        c.gauge_add(Gauge::NicBacklogUs, 7);
        c.count(Counter::BrokerPublishes, 2);
        c.set_recorder(1, t(3));
        c.record(t(3), Some(TraceId(11)), 1, EventKind::PublishEnd);
        assert_eq!(
            c.gauge(Gauge::NicBacklogUs),
            7,
            "live: saturated at 0, then +7"
        );

        c.finish();
        let order: Vec<u64> = c.events().map(|e| e.trace.unwrap().0).collect();
        assert_eq!(order, vec![10, 20, 11], "canonical (at, lane, seq) order");
        assert_eq!(c.counter(Counter::BrokerPublishes), 2);
        assert_eq!(c.gauge(Gauge::NicBacklogUs), 4, "7 then -3 in key order");
        assert_eq!(c.samples().len(), 1);
        assert_eq!(c.samples()[0].gauge(Gauge::NicBacklogUs), 4);
    }

    #[test]
    fn with_trace_is_noop_without_service() {
        let mut sim = simcore::Simulation::new(1);
        let probe = sim.add_actor(simcore::FnActor(
            |_m: simcore::Payload, ctx: &mut Context| {
                with_trace(ctx, |tr, now| {
                    tr.record(now, None, 0, EventKind::PublishBegin);
                });
            },
        ));
        sim.schedule(simcore::SimDuration::ZERO, probe, Box::new(()));
        sim.run_until(SimTime::from_secs(1));
        // No collector registered: nothing to observe, nothing panicked.
        assert!(sim.service::<TraceCollector>().is_none());
    }
}
