//! The pending-event set: a time-ordered priority queue with deterministic
//! tie-breaking.
//!
//! Two events scheduled for the same instant fire in *scheduling-lane*
//! order: each scheduling source (an actor, or the external/build path) owns
//! a lane, and the key `(at, lane, lane_seq)` orders ties first by lane,
//! then FIFO within the lane. The key is a pure function of *who* scheduled
//! the event and *how many* events that lane had scheduled before — never of
//! the global interleaving. Within one lane the order is FIFO, which keeps
//! single-source schedules (and the classic external-schedule tests) stable.
//!
//! The queue also keeps always-on, allocation-free accounting: per-payload-
//! type scheduled/executed/dropped counts, the timer vs. message mix, and
//! the queue-depth high-watermark. Counting happens on the schedule/pop
//! path with one `HashMap<TypeId, u16>` probe per schedule (amortised O(1),
//! no allocation after the first event of each type) and plain integer
//! increments elsewhere, so it is cheap enough to leave on for every run.

use crate::actor::ActorId;
use crate::time::SimTime;
use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// Opaque payload delivered to an actor. Actors downcast to their own
/// message enum.
pub type Payload = Box<dyn Any + Send>;

/// Lane used by events scheduled from outside any actor (build-time
/// `Simulation::schedule`). Sorts *after* every actor lane at equal time.
pub const EXTERNAL_LANE: u32 = u32::MAX;

/// A scheduled delivery.
pub struct ScheduledEvent {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling lane: the index of the actor that scheduled this event,
    /// or [`EXTERNAL_LANE`] for build-time schedules. Breaks same-instant
    /// ties deterministically.
    pub lane: u32,
    /// FIFO sequence within the lane.
    pub lane_seq: u64,
    /// Receiving actor.
    pub target: ActorId,
    /// Message payload.
    pub payload: Payload,
    /// Index into the queue's per-type accounting table.
    pub(crate) type_ix: u16,
}

impl ScheduledEvent {
    /// The deterministic ordering key `(at, lane, lane_seq)`.
    pub fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.lane, self.lane_seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the lowest key pops first.
        other.key().cmp(&self.key())
    }
}

/// Lifetime counters for one payload type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTypeStat {
    /// Short payload type name (e.g. `Delivery`), or `<untyped>` for events
    /// scheduled through the raw (already-boxed) paths.
    pub name: String,
    /// Events of this type ever scheduled.
    pub scheduled: u64,
    /// Events of this type dispatched to a live actor.
    pub executed: u64,
    /// Events of this type dropped (target retired or never registered).
    pub dropped: u64,
    /// Of `scheduled`, how many were timer self-sends.
    pub timers: u64,
}

#[derive(Default)]
struct TypeAccount {
    name: Option<&'static str>,
    scheduled: u64,
    executed: u64,
    dropped: u64,
    timers: u64,
}

/// Wall-clock accumulator for one instrumented hot-path site: total
/// monotonic nanoseconds and the number of timed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallAccum {
    /// Total wall-clock nanoseconds spent in the site.
    pub nanos: u64,
    /// Number of timed operations.
    pub count: u64,
}

impl WallAccum {
    /// Fold one timed operation into the accumulator.
    #[inline]
    pub fn add(&mut self, nanos: u64) {
        self.nanos += nanos;
        self.count += 1;
    }
}

#[derive(Default)]
struct QueueWall {
    push: WallAccum,
    pop: WallAccum,
}

/// Time-ordered queue of scheduled events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    lane_seqs: Vec<u64>,
    external_seq: u64,
    scheduled_total: u64,
    timer_scheduled: u64,
    peak_depth: usize,
    type_ix: HashMap<TypeId, u16>,
    types: Vec<TypeAccount>,
    /// Wall-clock push/pop timing; `None` (the default) keeps both probes
    /// off the hot path entirely.
    wall: Option<Box<QueueWall>>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push an event from the external lane; assigns the deterministic
    /// per-lane sequence number.
    pub fn schedule(&mut self, at: SimTime, target: ActorId, payload: Payload) {
        self.schedule_tagged(at, target, payload, None, false);
    }

    /// Push an external-lane event carrying accounting tags: the payload's
    /// type name (if statically known at the call site) and whether it is a
    /// timer self-send. [`schedule`](Self::schedule) delegates here with no
    /// tags.
    pub fn schedule_tagged(
        &mut self,
        at: SimTime,
        target: ActorId,
        payload: Payload,
        name: Option<&'static str>,
        timer: bool,
    ) {
        self.schedule_on_lane(at, EXTERNAL_LANE, target, payload, name, timer);
    }

    /// Push an event on a specific scheduling lane, with full accounting.
    pub fn schedule_on_lane(
        &mut self,
        at: SimTime,
        lane: u32,
        target: ActorId,
        payload: Payload,
        name: Option<&'static str>,
        timer: bool,
    ) {
        let type_ix = self.intern_type(payload.as_ref().type_id(), name);
        self.scheduled_total += 1;
        let acct = &mut self.types[type_ix as usize];
        acct.scheduled += 1;
        if timer {
            acct.timers += 1;
            self.timer_scheduled += 1;
        }
        let lane_seq = self.next_lane_seq(lane);
        let t0 = self.wall.as_ref().map(|_| Instant::now());
        self.heap.push(ScheduledEvent {
            at,
            lane,
            lane_seq,
            target,
            payload,
            type_ix,
        });
        if self.heap.len() > self.peak_depth {
            self.peak_depth = self.heap.len();
        }
        if let (Some(t0), Some(w)) = (t0, self.wall.as_mut()) {
            w.push.add(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Draw the next FIFO sequence number for `lane`, advancing the lane
    /// counter. Lanes are created on first use. Counters advance even for
    /// events that are ultimately dropped, so the key stream of a lane
    /// depends only on what the lane scheduled.
    fn next_lane_seq(&mut self, lane: u32) -> u64 {
        if lane == EXTERNAL_LANE {
            let s = self.external_seq;
            self.external_seq += 1;
            s
        } else {
            let ix = lane as usize;
            if ix >= self.lane_seqs.len() {
                self.lane_seqs.resize(ix + 1, 0);
            }
            let s = self.lane_seqs[ix];
            self.lane_seqs[ix] += 1;
            s
        }
    }

    /// Intern a payload type into the accounting table without counting
    /// anything. Returns the table index used by [`ScheduledEvent`].
    fn intern_type(&mut self, tid: TypeId, name: Option<&'static str>) -> u16 {
        let ix = match self.type_ix.get(&tid) {
            Some(&ix) => ix as usize,
            None => {
                let ix = self.types.len();
                // u16 bounds the taxonomy at 65k distinct payload types; the
                // whole stack defines a few dozen.
                let packed = u16::try_from(ix).expect("too many distinct payload types");
                self.type_ix.insert(tid, packed);
                self.types.push(TypeAccount::default());
                ix
            }
        };
        let acct = &mut self.types[ix];
        if acct.name.is_none() {
            acct.name = name;
        }
        ix as u16
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let t0 = self.wall.as_ref().map(|_| Instant::now());
        let ev = self.heap.pop();
        if let (Some(t0), Some(w)) = (t0, self.wall.as_mut()) {
            w.pop.add(t0.elapsed().as_nanos() as u64);
        }
        ev
    }

    /// Record that a popped event was dispatched to a live actor.
    pub(crate) fn note_executed(&mut self, type_ix: u16) {
        self.types[type_ix as usize].executed += 1;
    }

    /// Record that a popped event was dropped (target retired or missing).
    pub(crate) fn note_dropped(&mut self, type_ix: u16) {
        self.types[type_ix as usize].dropped += 1;
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (monotonic counter).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Of all scheduled events, how many were timer self-sends.
    pub fn timer_scheduled(&self) -> u64 {
        self.timer_scheduled
    }

    /// High-watermark of pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Per-payload-type accounting snapshot, one row per short type name:
    /// distinct types that print alike (two crates' `Tick`) and every
    /// untyped schedule share a row. Sorted by scheduled count descending
    /// then name (deterministic regardless of `TypeId` hashing).
    pub fn type_stats(&self) -> Vec<EventTypeStat> {
        let mut by_name: BTreeMap<String, EventTypeStat> = BTreeMap::new();
        for t in &self.types {
            let name = t
                .name
                .map_or_else(|| "<untyped>".to_owned(), short_type_name);
            let row = by_name
                .entry(name)
                .or_insert_with_key(|name| EventTypeStat {
                    name: name.clone(),
                    ..EventTypeStat::default()
                });
            row.scheduled += t.scheduled;
            row.executed += t.executed;
            row.dropped += t.dropped;
            row.timers += t.timers;
        }
        let mut rows: Vec<EventTypeStat> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.scheduled.cmp(&a.scheduled).then(a.name.cmp(&b.name)));
        rows
    }

    /// Turn on wall-clock timing of heap push/pop. Off by default; when off
    /// the only hot-path cost is one `Option` discriminant check.
    pub fn enable_wall_timing(&mut self) {
        if self.wall.is_none() {
            self.wall = Some(Box::default());
        }
    }

    /// Wall-clock totals for (push, pop), if timing was enabled.
    pub fn wall_timing(&self) -> Option<(WallAccum, WallAccum)> {
        self.wall.as_ref().map(|w| (w.push, w.pop))
    }
}

/// Strip module paths from a `std::any::type_name` string:
/// `narada::protocol::BrokerMsg` becomes `BrokerMsg`, including inside
/// generic arguments.
pub(crate) fn short_type_name(full: &'static str) -> String {
    let mut out = String::new();
    let mut ident = String::new();
    for c in full.chars() {
        if c.is_alphanumeric() || c == '_' || c == ':' {
            ident.push(c);
        } else {
            out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
            ident.clear();
            out.push(c);
        }
    }
    out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: usize) -> ActorId {
        ActorId::from_index(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), aid(0), Box::new(3u32));
        q.schedule(SimTime::from_secs(1), aid(0), Box::new(1u32));
        q.schedule(SimTime::from_secs(2), aid(0), Box::new(2u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, aid(0), Box::new(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_lane_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Interleave schedules across lanes 1, 0 and the external lane; the
        // pop order must be lane 0's events FIFO, then lane 1's, then the
        // external lane's — independent of scheduling interleaving.
        q.schedule_on_lane(t, 1, aid(0), Box::new(10u32), None, false);
        q.schedule_tagged(t, aid(0), Box::new(90u32), None, false);
        q.schedule_on_lane(t, 0, aid(0), Box::new(0u32), None, false);
        q.schedule_on_lane(t, 1, aid(0), Box::new(11u32), None, false);
        q.schedule_on_lane(t, 0, aid(0), Box::new(1u32), None, false);
        q.schedule_tagged(t, aid(0), Box::new(91u32), None, false);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 10, 11, 90, 91]);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(5), aid(1), Box::new(()));
        q.schedule(SimTime::from_secs(2), aid(1), Box::new(()));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn type_accounting_sums_to_scheduled_total() {
        let mut q = EventQueue::new();
        q.schedule_tagged(SimTime::ZERO, aid(0), Box::new(1u32), Some("u32"), false);
        q.schedule_tagged(SimTime::ZERO, aid(0), Box::new(2u32), Some("u32"), true);
        q.schedule_tagged(SimTime::ZERO, aid(0), Box::new("s"), Some("&str"), false);
        q.schedule(SimTime::ZERO, aid(0), Box::new(3.0f64));
        let stats = q.type_stats();
        let scheduled: u64 = stats.iter().map(|s| s.scheduled).sum();
        assert_eq!(scheduled, q.scheduled_total());
        assert_eq!(q.timer_scheduled(), 1);
        assert_eq!(q.peak_depth(), 4);
        let u32_row = stats.iter().find(|s| s.name == "u32").unwrap();
        assert_eq!(u32_row.scheduled, 2);
        assert_eq!(u32_row.timers, 1);
        // The raw path gets the fallback display name.
        assert!(stats.iter().any(|s| s.name == "<untyped>"));
    }

    #[test]
    fn executed_and_dropped_tallies() {
        let mut q = EventQueue::new();
        q.schedule_tagged(SimTime::ZERO, aid(0), Box::new(1u32), Some("u32"), false);
        q.schedule_tagged(SimTime::ZERO, aid(0), Box::new(2u32), Some("u32"), false);
        let a = q.pop().unwrap();
        q.note_executed(a.type_ix);
        let b = q.pop().unwrap();
        q.note_dropped(b.type_ix);
        let stats = q.type_stats();
        assert_eq!(stats[0].executed, 1);
        assert_eq!(stats[0].dropped, 1);
    }

    #[test]
    fn wall_timing_counts_operations() {
        let mut q = EventQueue::new();
        assert_eq!(q.wall_timing(), None);
        q.enable_wall_timing();
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.pop();
        let (push, pop) = q.wall_timing().unwrap();
        assert_eq!(push.count, 2);
        assert_eq!(pop.count, 1);
    }

    #[test]
    fn type_stats_share_a_row_per_short_name() {
        mod a {
            pub struct Tick;
        }
        mod b {
            pub struct Tick;
        }
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_tagged(
            t,
            aid(0),
            Box::new(a::Tick),
            Some(std::any::type_name::<a::Tick>()),
            true,
        );
        q.schedule_tagged(
            t,
            aid(0),
            Box::new(b::Tick),
            Some(std::any::type_name::<b::Tick>()),
            false,
        );
        q.schedule_tagged(t, aid(0), Box::new(1u32), None, false);
        q.schedule_tagged(t, aid(0), Box::new(()), None, false);
        let rows = q.type_stats();
        assert_eq!(rows.len(), 2, "{rows:?}");
        for row in &rows {
            assert_eq!(row.scheduled, 2, "{row:?}");
        }
        let tick = rows.iter().find(|r| r.name == "Tick").unwrap();
        assert_eq!(tick.timers, 1);
        assert!(rows.iter().any(|r| r.name == "<untyped>"));
    }

    #[test]
    fn short_type_name_strips_paths() {
        assert_eq!(short_type_name("narada::protocol::BrokerMsg"), "BrokerMsg");
        assert_eq!(
            short_type_name("alloc::vec::Vec<core::option::Option<u32>>"),
            "Vec<Option<u32>>"
        );
        assert_eq!(short_type_name("()"), "()");
        assert_eq!(short_type_name("u32"), "u32");
    }
}
