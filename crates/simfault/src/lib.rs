#![warn(missing_docs)]
//! # simfault — scripted, virtual-time fault injection
//!
//! The fabric and the middlewares model the *benign* Hydra testbed; this
//! crate adds the misfortunes the paper's systems were designed to
//! survive. A [`FaultSchedule`] is a list of timed events — link-loss
//! bursts, network partitions, broker crash/restart, R-GMA servlet
//! stalls, node slowdowns — replayed by a [`FaultDriver`] actor against a
//! [`FaultInjector`] kernel service. All randomness comes from a private
//! [`SimRng`] stream derived from the experiment seed, so the same seed
//! produces the same faults and byte-identical traces.
//!
//! The injector is *optional*, exactly like `simtrace::TraceCollector`:
//! when no schedule is installed the service is simply absent, every
//! hook (`should_drop_frame`, `node_stalled`, `with_faults`) no-ops, and
//! a no-fault run is byte-identical to a build without this crate.

use simcore::{Actor, ActorId, Context, Payload, SimDuration, SimTime};
use simos::{NodeId, OsModel};
use std::collections::HashMap;

/// Seed-stream tag for the injector's private draws; keeps fault draws
/// off the kernel RNG so an empty schedule perturbs nothing.
pub const FAULT_RNG_STREAM: u64 = 0xFA17_57A6;

/// splitmix64 finalizer: a stateless bijective mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless burst draw: uniform in [0, 1) from (seed, from, to, n).
///
/// Burst loss draws must not depend on the global interleaving of
/// frames: each (from, to) link keys its own draw sequence, so the n-th
/// frame on a link gets the same verdict no matter what other links are
/// doing.
#[inline]
fn link_draw(seed: u64, from: NodeId, to: NodeId, n: u64) -> f64 {
    let h =
        mix(mix(mix(seed ^ FAULT_RNG_STREAM) ^ (u64::from(from.0) << 16 | u64::from(to.0))) ^ n);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One kind of injected misfortune.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Elevated random frame loss on the fabric for a window — the
    /// flaky-switch / half-seated-cable case.
    LinkLossBurst {
        /// How long the burst lasts.
        duration: SimDuration,
        /// Per-frame drop probability while the burst is active.
        loss_prob: f64,
        /// Restrict the burst to frames touching this node
        /// (`None` = every link).
        node: Option<NodeId>,
    },
    /// Network partition: frames crossing the boundary between `group`
    /// and the rest of the world are dropped for `duration`.
    Partition {
        /// How long the partition lasts.
        duration: SimDuration,
        /// Nodes on one side of the cut.
        group: Vec<NodeId>,
    },
    /// Kill a Narada broker JVM: connections die, volatile state is
    /// lost, in-flight deliveries vanish.
    BrokerCrash {
        /// Broker index (deployment order).
        broker: usize,
    },
    /// Restart a previously crashed broker (fresh accept loop, empty
    /// matching engine).
    BrokerRestart {
        /// Broker index (deployment order).
        broker: usize,
    },
    /// Restart the R-GMA registry servlet: the soft-state directory is
    /// wiped and must be repopulated by producer/consumer re-registration.
    RegistryRestart,
    /// An R-GMA servlet node stops accepting HTTP work (Tomcat GC pause
    /// or thread-pool exhaustion): requests get 503 for `duration`.
    ServletStall {
        /// The stalled node.
        node: NodeId,
        /// How long the stall lasts.
        duration: SimDuration,
    },
    /// CPU slowdown: every cost executed on `node` is scaled by `factor`
    /// for `duration` (competing batch job / thermal throttling).
    NodeSlowdown {
        /// The slowed node.
        node: NodeId,
        /// How long the slowdown lasts.
        duration: SimDuration,
        /// Cost multiplier (> 1 slows the node down).
        factor: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A scripted fault scenario: events in schedule order. Empty schedules
/// are the common case and install nothing at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The timed fault events.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder: add a fault at an absolute instant.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Canonical named scenarios for `repro --faults <name>`. The times
    /// are fixed so two invocations replay identically; they target the
    /// paper experiments' publishing window.
    pub fn scenario(name: &str) -> Option<FaultSchedule> {
        let t = SimTime::from_secs;
        let d = SimDuration::from_secs;
        Some(match name {
            "broker-crash" => FaultSchedule::new()
                .at(t(120), FaultKind::BrokerCrash { broker: 0 })
                .at(t(150), FaultKind::BrokerRestart { broker: 0 }),
            "registry-restart" => FaultSchedule::new().at(t(120), FaultKind::RegistryRestart),
            "link-burst" => FaultSchedule::new().at(
                t(120),
                FaultKind::LinkLossBurst {
                    duration: d(30),
                    loss_prob: 0.25,
                    node: None,
                },
            ),
            "partition" => FaultSchedule::new().at(
                t(120),
                FaultKind::Partition {
                    duration: d(20),
                    group: vec![NodeId(0)],
                },
            ),
            "servlet-stall" => FaultSchedule::new().at(
                t(120),
                FaultKind::ServletStall {
                    node: NodeId(0),
                    duration: d(20),
                },
            ),
            "slowdown" => FaultSchedule::new().at(
                t(120),
                FaultKind::NodeSlowdown {
                    node: NodeId(0),
                    duration: d(60),
                    factor: 4.0,
                },
            ),
            "chaos" => FaultSchedule::new()
                .at(
                    t(90),
                    FaultKind::LinkLossBurst {
                        duration: d(15),
                        loss_prob: 0.15,
                        node: None,
                    },
                )
                .at(t(120), FaultKind::BrokerCrash { broker: 0 })
                .at(t(140), FaultKind::BrokerRestart { broker: 0 })
                .at(t(150), FaultKind::RegistryRestart)
                .at(
                    t(170),
                    FaultKind::NodeSlowdown {
                        node: NodeId(0),
                        duration: d(30),
                        factor: 3.0,
                    },
                ),
            _ => return None,
        })
    }

    /// Names accepted by [`FaultSchedule::scenario`].
    pub const SCENARIOS: &'static [&'static str] = &[
        "broker-crash",
        "registry-restart",
        "link-burst",
        "partition",
        "servlet-stall",
        "slowdown",
        "chaos",
    ];
}

/// Graceful-degradation accounting: what the faults did and what the
/// clients got back. All counters are monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events fired by the driver.
    pub injected: u64,
    /// Frames dropped by link-loss bursts.
    pub link_drops: u64,
    /// Frames dropped by partitions.
    pub partition_drops: u64,
    /// Messages discarded because a crashed broker was unreachable.
    pub crash_drops: u64,
    /// HTTP requests rejected (503) by stalled servlets.
    pub stall_rejections: u64,
    /// Client reconnect attempts (each backoff try counts).
    pub reconnect_attempts: u64,
    /// Connections successfully re-established.
    pub reconnects: u64,
    /// Publishes buffered while offline and sent after reconnect.
    pub delayed: u64,
    /// In-flight publishes re-sent over a fresh connection.
    pub republished: u64,
    /// Messages recovered from broker stable storage via resync.
    pub recovered: u64,
    /// R-GMA HTTP operations retried after a 5xx.
    pub http_retries: u64,
    /// R-GMA soft-state re-registrations after a registry wipe.
    pub reregistrations: u64,
}

impl FaultStats {
    /// Per-cause rows for `telemetry`-style degradation tables, in a
    /// stable order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("faults injected", self.injected),
            ("dropped: link burst", self.link_drops),
            ("dropped: partition", self.partition_drops),
            ("dropped: broker crash", self.crash_drops),
            ("rejected: servlet stall", self.stall_rejections),
            ("reconnect attempts", self.reconnect_attempts),
            ("reconnects", self.reconnects),
            ("delayed (offline buffer)", self.delayed),
            ("republished after reconnect", self.republished),
            ("recovered from stable store", self.recovered),
            ("HTTP retries", self.http_retries),
            ("soft-state re-registrations", self.reregistrations),
        ]
    }
}

/// The fault-injection kernel service. Registered only when a schedule
/// is non-empty; holds the live fault windows and the degradation
/// counters, and owns a private RNG so fault draws never perturb the
/// kernel RNG stream.
pub struct FaultInjector {
    /// Degradation accounting, mutated by the driver and by middleware
    /// recovery paths (via [`with_faults`]).
    pub stats: FaultStats,
    seed: u64,
    burst_seqs: HashMap<(NodeId, NodeId), u64>,
    burst_until: SimTime,
    burst_prob: f64,
    burst_node: Option<NodeId>,
    partitions: Vec<(Vec<NodeId>, SimTime)>,
    stalled: HashMap<NodeId, SimTime>,
}

impl FaultInjector {
    /// New injector for the given experiment seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            stats: FaultStats::default(),
            seed,
            burst_seqs: HashMap::new(),
            burst_until: SimTime::ZERO,
            burst_prob: 0.0,
            burst_node: None,
            partitions: Vec::new(),
            stalled: HashMap::new(),
        }
    }

    /// Open a link-loss window.
    pub fn begin_burst(&mut self, until: SimTime, loss_prob: f64, node: Option<NodeId>) {
        self.burst_until = until;
        self.burst_prob = loss_prob;
        self.burst_node = node;
    }

    /// Open a partition window.
    pub fn begin_partition(&mut self, group: Vec<NodeId>, until: SimTime) {
        self.partitions.push((group, until));
    }

    /// Mark a node's servlets stalled until `until`.
    pub fn begin_stall(&mut self, node: NodeId, until: SimTime) {
        self.stalled.insert(node, until);
    }

    /// Should a frame from `from` to `to` be dropped by an active fault?
    /// Burst verdicts come from per-link stateless draws (see
    /// [`link_draw`]) only while a burst window is open, so quiet periods
    /// consume no randomness and interleaving cannot reorder the draws.
    pub fn frame_fault(&mut self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        self.partitions.retain(|(_, until)| *until > now);
        for (group, _) in &self.partitions {
            if group.contains(&from) != group.contains(&to) {
                self.stats.partition_drops += 1;
                return true;
            }
        }
        if now < self.burst_until {
            let hit = match self.burst_node {
                Some(n) => n == from || n == to,
                None => true,
            };
            if hit {
                let n = self.burst_seqs.entry((from, to)).or_insert(0);
                let draw = link_draw(self.seed, from, to, *n);
                *n += 1;
                if draw < self.burst_prob {
                    self.stats.link_drops += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Is `node` inside a servlet-stall window right now?
    pub fn is_stalled(&self, now: SimTime, node: NodeId) -> bool {
        self.stalled.get(&node).is_some_and(|until| now < *until)
    }
}

/// Run `f` against the fault injector if one is installed; no-op (and
/// zero-cost beyond a map probe) otherwise. Mirrors
/// `simtrace::with_trace`.
#[inline]
pub fn with_faults<F: FnOnce(&mut FaultInjector, SimTime)>(ctx: &mut Context<'_>, f: F) {
    let now = ctx.now();
    if let Some(inj) = ctx.try_service_mut::<FaultInjector>() {
        f(inj, now);
    }
}

/// Fabric hook: should this frame be dropped by an active fault window?
/// Always `false` when no injector is installed.
#[inline]
pub fn should_drop_frame(ctx: &mut Context<'_>, from: NodeId, to: NodeId) -> bool {
    let now = ctx.now();
    match ctx.try_service_mut::<FaultInjector>() {
        Some(inj) => inj.frame_fault(now, from, to),
        None => false,
    }
}

/// Servlet hook: is this node inside a stall window? Always `false`
/// when no injector is installed.
#[inline]
pub fn node_stalled(ctx: &mut Context<'_>, node: NodeId) -> bool {
    let now = ctx.now();
    match ctx.try_service_mut::<FaultInjector>() {
        Some(inj) => inj.is_stalled(now, node),
        None => false,
    }
}

/// Process-kill signals delivered to middleware actors by the driver.
/// Actors that model crashable processes handle this payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSignal {
    /// The target broker's JVM dies now.
    BrokerCrash,
    /// The target broker's JVM comes back up.
    BrokerRestart,
    /// The R-GMA registry servlet restarts (soft state wiped).
    RegistryRestart,
}

/// The actor that replays a [`FaultSchedule`]: arms one timer per event
/// and, when it fires, opens injector windows, scales node speed, or
/// signals broker/registry actors.
pub struct FaultDriver {
    schedule: FaultSchedule,
    brokers: Vec<ActorId>,
    registry: Option<ActorId>,
}

struct FaultTick(usize);

impl FaultDriver {
    /// New driver. `brokers` are Narada broker actors in deployment
    /// order; `registry` is the R-GMA registry actor if the experiment
    /// has one. Events naming a missing target are ignored, so one
    /// schedule can drive either middleware.
    pub fn new(schedule: FaultSchedule, brokers: Vec<ActorId>, registry: Option<ActorId>) -> Self {
        FaultDriver {
            schedule,
            brokers,
            registry,
        }
    }
}

impl Actor for FaultDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (ix, ev) in self.schedule.events.iter().enumerate() {
            ctx.timer(ev.at.saturating_since(ctx.now()), FaultTick(ix));
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let Ok(tick) = msg.downcast::<FaultTick>() else {
            return;
        };
        let ev = self.schedule.events[tick.0].clone();
        with_faults(ctx, |inj, _| inj.stats.injected += 1);
        let now = ctx.now();
        match ev.kind {
            FaultKind::LinkLossBurst {
                duration,
                loss_prob,
                node,
            } => {
                with_faults(ctx, |inj, _| {
                    inj.begin_burst(now + duration, loss_prob, node)
                });
            }
            FaultKind::Partition { duration, group } => {
                with_faults(ctx, |inj, _| inj.begin_partition(group, now + duration));
            }
            FaultKind::BrokerCrash { broker } => {
                if let Some(&id) = self.brokers.get(broker) {
                    ctx.send_now(id, FaultSignal::BrokerCrash);
                }
            }
            FaultKind::BrokerRestart { broker } => {
                if let Some(&id) = self.brokers.get(broker) {
                    ctx.send_now(id, FaultSignal::BrokerRestart);
                }
            }
            FaultKind::RegistryRestart => {
                if let Some(id) = self.registry {
                    ctx.send_now(id, FaultSignal::RegistryRestart);
                }
            }
            FaultKind::ServletStall { node, duration } => {
                with_faults(ctx, |inj, _| inj.begin_stall(node, now + duration));
            }
            FaultKind::NodeSlowdown {
                node,
                duration,
                factor,
            } => {
                if let Some(os) = ctx.try_service_mut::<OsModel>() {
                    os.set_slowdown(node, now + duration, factor);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "fault-driver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_default() {
        assert!(FaultSchedule::new().is_empty());
        assert_eq!(FaultSchedule::new(), FaultSchedule::default());
    }

    #[test]
    fn scenarios_resolve_and_unknown_is_none() {
        for name in FaultSchedule::SCENARIOS {
            let s = FaultSchedule::scenario(name).expect("known scenario");
            assert!(!s.is_empty(), "{name} is empty");
        }
        assert!(FaultSchedule::scenario("nope").is_none());
    }

    #[test]
    fn partition_drops_only_cross_boundary_frames() {
        let mut inj = FaultInjector::new(1);
        inj.begin_partition(vec![NodeId(0), NodeId(1)], SimTime::from_secs(10));
        let now = SimTime::from_secs(1);
        assert!(inj.frame_fault(now, NodeId(0), NodeId(2)));
        assert!(inj.frame_fault(now, NodeId(3), NodeId(1)));
        assert!(!inj.frame_fault(now, NodeId(0), NodeId(1)));
        assert!(!inj.frame_fault(now, NodeId(2), NodeId(3)));
        // Window expiry: after `until`, nothing is dropped.
        let later = SimTime::from_secs(11);
        assert!(!inj.frame_fault(later, NodeId(0), NodeId(2)));
        assert_eq!(inj.stats.partition_drops, 2);
    }

    #[test]
    fn burst_respects_window_node_filter_and_probability() {
        let mut inj = FaultInjector::new(2);
        inj.begin_burst(SimTime::from_secs(5), 1.0, Some(NodeId(7)));
        let now = SimTime::from_secs(1);
        assert!(inj.frame_fault(now, NodeId(7), NodeId(1)));
        assert!(inj.frame_fault(now, NodeId(1), NodeId(7)));
        assert!(!inj.frame_fault(now, NodeId(1), NodeId(2)));
        assert!(!inj.frame_fault(SimTime::from_secs(6), NodeId(7), NodeId(1)));
        assert_eq!(inj.stats.link_drops, 2);
        // prob 0 never drops even inside the window.
        let mut calm = FaultInjector::new(2);
        calm.begin_burst(SimTime::from_secs(5), 0.0, None);
        assert!(!calm.frame_fault(now, NodeId(0), NodeId(1)));
    }

    #[test]
    fn burst_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            inj.begin_burst(SimTime::from_secs(100), 0.4, None);
            (0..64)
                .map(|i| inj.frame_fault(SimTime::from_secs(1), NodeId(i), NodeId(i + 1)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn burst_draws_are_interleaving_invariant() {
        // Verdicts on link (0→1) must not change when traffic on an
        // unrelated link is interleaved.
        let now = SimTime::from_secs(1);
        let solo: Vec<bool> = {
            let mut inj = FaultInjector::new(42);
            inj.begin_burst(SimTime::from_secs(100), 0.4, None);
            (0..64)
                .map(|_| inj.frame_fault(now, NodeId(0), NodeId(1)))
                .collect()
        };
        let mixed: Vec<bool> = {
            let mut inj = FaultInjector::new(42);
            inj.begin_burst(SimTime::from_secs(100), 0.4, None);
            (0..64)
                .map(|_| {
                    inj.frame_fault(now, NodeId(8), NodeId(9));
                    inj.frame_fault(now, NodeId(0), NodeId(1))
                })
                .collect()
        };
        assert_eq!(solo, mixed);
    }

    #[test]
    fn stall_windows_expire() {
        let mut inj = FaultInjector::new(3);
        inj.begin_stall(NodeId(4), SimTime::from_secs(2));
        assert!(inj.is_stalled(SimTime::from_secs(1), NodeId(4)));
        assert!(!inj.is_stalled(SimTime::from_secs(1), NodeId(5)));
        assert!(!inj.is_stalled(SimTime::from_secs(3), NodeId(4)));
    }

    #[test]
    fn stats_rows_are_stable_and_complete() {
        let stats = FaultStats {
            injected: 1,
            link_drops: 2,
            partition_drops: 3,
            crash_drops: 4,
            stall_rejections: 5,
            reconnect_attempts: 6,
            reconnects: 7,
            delayed: 8,
            republished: 9,
            recovered: 10,
            http_retries: 11,
            reregistrations: 12,
        };
        let rows = stats.rows();
        assert_eq!(rows.len(), 12);
        let total: u64 = rows.iter().map(|(_, n)| n).sum();
        assert_eq!(total, (1..=12).sum::<u64>());
    }
}
