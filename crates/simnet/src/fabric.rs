//! The network fabric: a switched 100 Mbps LAN connecting the cluster
//! nodes, with per-node NIC serialization, propagation/switch latency,
//! jitter, segmentation, and (for UDP) loss.
//!
//! The Hydra testbed was an isolated star: eight nodes on one 100 Mbps
//! switch, measured at 7–8 MB/s effective application throughput. We model
//! each node's NIC as a FIFO transmit server at the effective rate, a fixed
//! propagation + switch forwarding delay, and exponential jitter. Messages
//! larger than the MSS are segmented and pay per-packet overhead.

use crate::addr::Endpoint;
use simcore::{Context, Payload, SimDuration, SimTime};
use std::collections::HashMap;

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Effective per-node NIC throughput, bytes/second (paper: ~7.5 MB/s).
    pub bandwidth_bps: u64,
    /// One-way propagation + switch forwarding latency.
    pub base_latency: SimDuration,
    /// Mean of the exponential jitter added per packet.
    pub jitter_mean: SimDuration,
    /// Maximum segment size (TCP MSS / UDP datagram fragment), bytes.
    pub mss: usize,
    /// Fixed per-packet processing overhead (NIC interrupt + switch).
    pub per_packet_overhead: SimDuration,
    /// Datagram loss probability (applies to UDP sends only — the switch
    /// drops under burst; TCP retransmission is folded into its higher
    /// per-packet cost).
    pub udp_loss_prob: f64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            bandwidth_bps: 7_500_000,
            base_latency: SimDuration::from_micros(150),
            jitter_mean: SimDuration::from_micros(80),
            mss: 1460,
            per_packet_overhead: SimDuration::from_micros(40),
            udp_loss_prob: 0.002,
        }
    }
}

/// Transport flavour of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Blocking TCP: reliable, per-connection FIFO.
    Tcp,
    /// Non-blocking TCP (Java NIO): identical wire behaviour; endpoints
    /// apply different service costs.
    Nio,
    /// UDP datagrams: lossy, unordered.
    Udp,
    /// HTTP over TCP: reliable FIFO plus per-request header overhead
    /// (applied by the HTTP helper layer).
    Http,
}

impl Transport {
    /// Whether the fabric enforces in-order delivery for this transport.
    pub fn ordered(self) -> bool {
        !matches!(self, Transport::Udp)
    }

    /// Whether datagrams may be dropped in the fabric.
    pub fn lossy(self) -> bool {
        matches!(self, Transport::Udp)
    }
}

/// Identifies an open connection.
///
/// Connections opened during the build phase get sequential ids.
/// Connections opened at runtime (after [`NetworkFabric::finish_build`])
/// get ids packed from the opener's actor index and a per-opener counter:
/// bit 31 set, bits 16..31 the opener's open count, bits 0..16 the opener
/// actor index. Brokers iterate their connections in id order, so the
/// packing is part of every run's output and must not change. The split
/// gives 64 Ki actors and 32 Ki runtime opens per actor — a single UDP
/// client republishing through a long broker outage can legitimately
/// reopen thousands of times, which overflowed the previous 11-bit count
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

const RUNTIME_CONN_BIT: u32 = 0x8000_0000;
const RUNTIME_CONN_COUNT_SHIFT: u32 = 16;
const RUNTIME_CONN_ACTOR_MASK: u32 = (1 << RUNTIME_CONN_COUNT_SHIFT) - 1;

/// One endpoint-to-endpoint connection.
#[derive(Debug, Clone)]
struct Connection {
    transport: Transport,
    a: Endpoint,
    b: Endpoint,
    /// Connection usable from this instant (handshake done).
    ready_at: SimTime,
    /// Last scheduled delivery time in each direction (a→b, b→a), for FIFO.
    last_delivery: [SimTime; 2],
    closed: bool,
}

/// A frame delivered to a receiving actor. The `payload` is the
/// application object; `bytes` is what was charged on the wire.
pub struct Delivery {
    /// Connection the frame arrived on.
    pub conn: ConnId,
    /// Sending endpoint.
    pub from: Endpoint,
    /// Size on the wire.
    pub bytes: usize,
    /// Application payload.
    pub payload: Payload,
    /// When the application handed the frame to the fabric.
    pub sent_at: SimTime,
}

/// Counters for conservation checks (sent = delivered + dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames accepted from applications.
    pub frames_sent: u64,
    /// Frames scheduled for delivery.
    pub frames_delivered: u64,
    /// Frames dropped (UDP loss).
    pub frames_dropped: u64,
    /// Total application bytes accepted.
    pub bytes_sent: u64,
    /// Wire packets transmitted (after segmentation).
    pub packets_sent: u64,
}

/// Per-node NIC state.
#[derive(Debug, Clone, Copy, Default)]
struct Nic {
    tx_busy_until: SimTime,
}

/// The fabric service.
pub struct NetworkFabric {
    cfg: FabricConfig,
    nics: Vec<Nic>,
    conns: HashMap<u32, Connection>,
    /// Sequential id source for build-phase opens.
    build_opens: u32,
    /// Per-opener-actor runtime open counts (id packing).
    runtime_opens: HashMap<u32, u32>,
    /// Set by [`finish_build`](Self::finish_build); switches id allocation
    /// from sequential to opener-derived.
    build_done: bool,
    stats: FabricStats,
}

impl NetworkFabric {
    /// Fabric for `nodes` nodes (NodeId 0..nodes).
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        NetworkFabric {
            cfg,
            nics: vec![Nic::default(); nodes],
            conns: HashMap::new(),
            build_opens: 0,
            runtime_opens: HashMap::new(),
            build_done: false,
            stats: FabricStats::default(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Mark the end of the deterministic build phase. Connections opened
    /// after this call get opener-derived ids (see [`ConnId`]); called by
    /// the experiment driver once deployment wiring is complete.
    pub fn finish_build(&mut self) {
        self.build_done = true;
    }

    /// Open a connection. TCP-family transports pay a handshake
    /// (1.5 × one-way latency); UDP sockets are ready immediately.
    /// By convention `a` is the opener's endpoint — after
    /// [`finish_build`](Self::finish_build) the id is derived from
    /// `a.actor`.
    pub fn open(&mut self, now: SimTime, transport: Transport, a: Endpoint, b: Endpoint) -> ConnId {
        let handshake = if transport == Transport::Udp {
            SimDuration::ZERO
        } else {
            self.cfg.base_latency.saturating_mul(3) / 2
        };
        let id = if self.build_done {
            let opener = u32::try_from(a.actor.index()).expect("actor index fits in u32");
            assert!(
                opener <= RUNTIME_CONN_ACTOR_MASK,
                "opener actor index too large for runtime ConnId packing"
            );
            let count = self.runtime_opens.entry(opener).or_insert(0);
            let id = RUNTIME_CONN_BIT | (*count << RUNTIME_CONN_COUNT_SHIFT) | opener;
            *count = count
                .checked_add(1)
                .filter(|&c| c < (1 << (31 - RUNTIME_CONN_COUNT_SHIFT)))
                .expect("too many runtime connection opens by one actor");
            ConnId(id)
        } else {
            let id = ConnId(self.build_opens);
            self.build_opens += 1;
            id
        };
        self.conns.insert(
            id.0,
            Connection {
                transport,
                a,
                b,
                ready_at: now + handshake,
                last_delivery: [SimTime::ZERO; 2],
                closed: false,
            },
        );
        id
    }

    /// Close a connection; subsequent sends panic (a protocol bug).
    pub fn close(&mut self, conn: ConnId) {
        self.conns.get_mut(&conn.0).expect("unknown conn").closed = true;
    }

    /// The endpoint opposite `from` on `conn`.
    pub fn peer_of(&self, conn: ConnId, from: Endpoint) -> Endpoint {
        let c = &self.conns[&conn.0];
        if c.a == from {
            c.b
        } else {
            debug_assert_eq!(c.b, from, "endpoint not on this connection");
            c.a
        }
    }

    /// Endpoints of a connection `(a, b)`.
    pub fn endpoints(&self, conn: ConnId) -> (Endpoint, Endpoint) {
        let c = &self.conns[&conn.0];
        (c.a, c.b)
    }

    /// Transport of a connection.
    pub fn transport(&self, conn: ConnId) -> Transport {
        self.conns[&conn.0].transport
    }

    /// Send `bytes` of application payload from `from` over `conn`.
    /// Schedules a [`Delivery`] event at the receiving endpoint's actor
    /// (or silently drops it for UDP loss). Returns the scheduled delivery
    /// time, or `None` if dropped.
    pub fn send(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        from: Endpoint,
        bytes: usize,
        payload: Payload,
    ) -> Option<SimTime> {
        let now = ctx.now();
        self.send_at(ctx, conn, from, bytes, payload, now)
    }

    /// Like [`send`], but the frame reaches the NIC no earlier than
    /// `start_at` (used when the sending process finishes its CPU work at
    /// a future completion time computed by the OS model).
    ///
    /// [`send`]: NetworkFabric::send
    pub fn send_at(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        from: Endpoint,
        bytes: usize,
        payload: Payload,
        start_at: SimTime,
    ) -> Option<SimTime> {
        // Wall-clock attribution of the whole fabric path (segmentation,
        // loss/jitter draws, NIC FIFO, delivery scheduling); no-op unless a
        // simscope::WallScope service is registered.
        let t0 = simscope::start(ctx);
        let out = self.send_at_inner(ctx, conn, from, bytes, payload, start_at);
        simscope::record(ctx, simscope::Site::NetFabricSend, t0);
        out
    }

    fn send_at_inner(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        from: Endpoint,
        bytes: usize,
        payload: Payload,
        start_at: SimTime,
    ) -> Option<SimTime> {
        let now = ctx.now().max(start_at);
        let c = &self.conns[&conn.0];
        assert!(!c.closed, "send on closed connection {conn:?}");
        let (dir, to) = if c.a == from {
            (0, c.b)
        } else {
            debug_assert_eq!(c.b, from, "endpoint not on this connection");
            (1, c.a)
        };
        let transport = c.transport;
        let ready_at = c.ready_at;

        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes as u64;

        // UDP loss: decided before any resources are consumed — the frame
        // still occupies the sender NIC (it was transmitted, then lost).
        let dropped = transport.lossy() && ctx.rng().chance(self.cfg.udp_loss_prob);
        // Injected faults (link bursts, partitions) can claim any
        // transport's frames. Checked second so the kernel RNG draw order
        // is identical with and without an injector installed; the
        // injector draws from its own RNG stream.
        let fault_dropped = !dropped && simfault::should_drop_frame(ctx, from.node, to.node);

        // Segmentation.
        let packets = bytes.div_ceil(self.cfg.mss).max(1) as u64;
        self.stats.packets_sent += packets;
        let tx_time = SimDuration::from_micros(
            (bytes as u64)
                .saturating_mul(1_000_000)
                .div_ceil(self.cfg.bandwidth_bps),
        ) + self.cfg.per_packet_overhead.saturating_mul(packets);

        // NIC FIFO.
        let nic = &mut self.nics[from.node.0 as usize];
        let tx_start = now.max(nic.tx_busy_until).max(ready_at);
        let tx_done = tx_start + tx_time;
        nic.tx_busy_until = tx_done;
        let backlog_us = tx_done.saturating_since(now).as_micros();

        if dropped || fault_dropped {
            self.stats.frames_dropped += 1;
            simtrace::with_trace(ctx, |tr, at| {
                tr.record(
                    at,
                    None,
                    from.actor.index() as u64,
                    simtrace::EventKind::NetSend {
                        conn: u64::from(conn.0),
                        bytes: bytes as u32,
                    },
                );
                tr.record(
                    tx_done,
                    None,
                    from.actor.index() as u64,
                    simtrace::EventKind::NetDrop {
                        conn: u64::from(conn.0),
                    },
                );
                tr.count(simtrace::Counter::NetFramesSent, 1);
                tr.count(simtrace::Counter::NetDrops, 1);
                if fault_dropped {
                    tr.count(simtrace::Counter::FaultDrops, 1);
                }
                tr.gauge_set(simtrace::Gauge::NicBacklogUs, backlog_us);
            });
            simprof::hit(ctx, simprof::Component::NetFabric);
            return None;
        }

        // Propagation + jitter.
        let jitter = ctx.rng().exp_duration(self.cfg.jitter_mean);
        let mut deliver_at = tx_done + self.cfg.base_latency + jitter;

        // FIFO per direction for ordered transports.
        let c = self.conns.get_mut(&conn.0).expect("unknown conn");
        if transport.ordered() {
            deliver_at = deliver_at.max(c.last_delivery[dir] + SimDuration::from_micros(1));
        }
        c.last_delivery[dir] = deliver_at;
        // A frame handed over at `now` never arrives sooner than one base
        // latency later.
        debug_assert!(
            deliver_at >= now + self.cfg.base_latency,
            "delivery sooner than the base latency"
        );

        self.stats.frames_delivered += 1;
        simtrace::with_trace(ctx, |tr, at| {
            tr.record(
                at,
                None,
                from.actor.index() as u64,
                simtrace::EventKind::NetSend {
                    conn: u64::from(conn.0),
                    bytes: bytes as u32,
                },
            );
            // Timestamped at the scheduled arrival instant.
            tr.record(
                deliver_at,
                None,
                to.actor.index() as u64,
                simtrace::EventKind::NetDeliver {
                    conn: u64::from(conn.0),
                },
            );
            tr.count(simtrace::Counter::NetFramesSent, 1);
            tr.count(simtrace::Counter::NetFramesDelivered, 1);
            tr.gauge_set(simtrace::Gauge::NicBacklogUs, backlog_us);
        });
        simprof::hit(ctx, simprof::Component::NetFabric);
        simprof::hit(ctx, simprof::Component::NetLink);
        let delay = deliver_at.saturating_since(ctx.now());
        ctx.send_in(
            delay,
            to.actor,
            Delivery {
                conn,
                from,
                bytes,
                payload,
                sent_at: now,
            },
        );
        Some(deliver_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Actor, FnActor, Simulation};
    use simos::NodeId;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ep(node: u16, actor: simcore::ActorId) -> Endpoint {
        Endpoint {
            node: NodeId(node),
            actor,
            port: 0,
        }
    }

    type RecLog = Rc<RefCell<Vec<(u64, usize)>>>;

    struct Recorder {
        log: RecLog,
    }
    impl Actor for Recorder {
        fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
            let d = msg.downcast::<Delivery>().unwrap();
            self.log.borrow_mut().push((ctx.now().as_micros(), d.bytes));
        }
    }

    fn fabric_sim(cfg: FabricConfig) -> (Simulation, RecLog) {
        let mut sim = Simulation::new(42);
        let log: RecLog = Default::default();
        sim.add_actor(Recorder { log: log.clone() }); // ActorId 0 = receiver
        sim.add_service(NetworkFabric::new(cfg, 8));
        (sim, log)
    }

    #[test]
    fn tcp_delivery_includes_tx_latency_and_handshake() {
        let cfg = FabricConfig {
            jitter_mean: SimDuration::ZERO,
            ..FabricConfig::default()
        };
        let (mut sim, log) = fabric_sim(cfg.clone());
        let rx = simcore::ActorId::from_index(0);
        let sender = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            let a = ep(0, ctx.self_id());
            let b = ep(1, rx);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Tcp, a, b);
                net.send(ctx, conn, a, 1000, Box::new(()));
            });
        }));
        sim.schedule(SimDuration::ZERO, sender, Box::new(()));
        sim.run_to_completion(100);
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // handshake 225us + tx (1000B at 7.5MB/s = 134us + 40us pkt) + 150us latency.
        let expected = 225 + 134 + 40 + 150;
        assert_eq!(log[0].0, expected);
    }

    #[test]
    fn nic_serialises_back_to_back_sends() {
        let cfg = FabricConfig {
            jitter_mean: SimDuration::ZERO,
            base_latency: SimDuration::from_micros(100),
            ..FabricConfig::default()
        };
        let (mut sim, log) = fabric_sim(cfg);
        let rx = simcore::ActorId::from_index(0);
        let sender = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            let a = ep(0, ctx.self_id());
            let b = ep(1, rx);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Udp, a, b);
                for _ in 0..3 {
                    net.send(ctx, conn, a, 7500, Box::new(()));
                }
            });
        }));
        sim.schedule(SimDuration::ZERO, sender, Box::new(()));
        sim.run_to_completion(100);
        let log = log.borrow();
        assert_eq!(
            log.len(),
            3,
            "no loss at prob 0 rolls for this seed? see below"
        );
        // 7500B = 1000us tx + 6 packets * 40us = 1240us per frame, serialized:
        // deliveries at ~1340, ~2580, ~3820 (plus jitter=0).
        let times: Vec<u64> = log.iter().map(|e| e.0).collect();
        assert!(times[1] - times[0] >= 1240, "{times:?}");
        assert!(times[2] - times[1] >= 1240, "{times:?}");
    }

    #[test]
    fn tcp_is_fifo_even_with_jitter() {
        let cfg = FabricConfig {
            jitter_mean: SimDuration::from_millis(5),
            ..FabricConfig::default()
        };
        let (mut sim, log) = fabric_sim(cfg);
        let rx = simcore::ActorId::from_index(0);
        let sender = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            let a = ep(0, ctx.self_id());
            let b = ep(1, rx);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Tcp, a, b);
                for i in 0..50usize {
                    net.send(ctx, conn, a, 100 + i, Box::new(()));
                }
            });
        }));
        sim.schedule(SimDuration::ZERO, sender, Box::new(()));
        sim.run_to_completion(1000);
        let log = log.borrow();
        assert_eq!(log.len(), 50);
        let sizes: Vec<usize> = log.iter().map(|e| e.1).collect();
        assert_eq!(sizes, (100..150).collect::<Vec<_>>(), "in-order");
        let times: Vec<u64> = log.iter().map(|e| e.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "delivery times monotone");
    }

    #[test]
    fn udp_drops_at_configured_rate() {
        let cfg = FabricConfig {
            udp_loss_prob: 0.10,
            jitter_mean: SimDuration::ZERO,
            ..FabricConfig::default()
        };
        let (mut sim, log) = fabric_sim(cfg);
        let rx = simcore::ActorId::from_index(0);
        let sender = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            let a = ep(0, ctx.self_id());
            let b = ep(1, rx);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Udp, a, b);
                for _ in 0..2000 {
                    net.send(ctx, conn, a, 200, Box::new(()));
                }
            });
        }));
        sim.schedule(SimDuration::ZERO, sender, Box::new(()));
        sim.run_to_completion(10_000);
        let delivered = log.borrow().len();
        let dropped = 2000 - delivered;
        let rate = dropped as f64 / 2000.0;
        assert!((rate - 0.10).abs() < 0.03, "loss rate {rate}");
        let stats = sim.service::<NetworkFabric>().unwrap().stats();
        assert_eq!(stats.frames_sent, 2000);
        assert_eq!(
            stats.frames_delivered + stats.frames_dropped,
            stats.frames_sent,
            "conservation"
        );
    }

    #[test]
    fn peer_and_endpoints() {
        let mut net = NetworkFabric::new(FabricConfig::default(), 2);
        let a = ep(0, simcore::ActorId::from_index(1));
        let b = ep(1, simcore::ActorId::from_index(2));
        let conn = net.open(SimTime::ZERO, Transport::Tcp, a, b);
        assert_eq!(net.peer_of(conn, a), b);
        assert_eq!(net.peer_of(conn, b), a);
        assert_eq!(net.endpoints(conn), (a, b));
        assert_eq!(net.transport(conn), Transport::Tcp);
    }

    #[test]
    fn runtime_conn_ids_are_opener_derived() {
        // Before finish_build: sequential ids.
        let mut net = NetworkFabric::new(FabricConfig::default(), 4);
        let a1 = ep(0, simcore::ActorId::from_index(3));
        let a2 = ep(1, simcore::ActorId::from_index(7));
        let b = ep(2, simcore::ActorId::from_index(9));
        let c0 = net.open(SimTime::ZERO, Transport::Tcp, a1, b);
        let c1 = net.open(SimTime::ZERO, Transport::Tcp, a2, b);
        assert_eq!((c0, c1), (ConnId(0), ConnId(1)));

        // After finish_build: ids pack (runtime bit, opener's own open
        // count, opener actor index), never the global open order.
        net.finish_build();
        let r0 = net.open(SimTime::ZERO, Transport::Tcp, a1, b);
        let r1 = net.open(SimTime::ZERO, Transport::Tcp, a2, b);
        let r2 = net.open(SimTime::ZERO, Transport::Tcp, a1, b);
        assert_eq!(r0, ConnId(RUNTIME_CONN_BIT | 3));
        assert_eq!(r1, ConnId(RUNTIME_CONN_BIT | 7));
        assert_eq!(
            r2,
            ConnId(RUNTIME_CONN_BIT | (1 << RUNTIME_CONN_COUNT_SHIFT) | 3)
        );
    }

    #[test]
    #[should_panic(expected = "closed connection")]
    fn send_on_closed_panics() {
        let mut sim = Simulation::new(1);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        let a = ep(0, simcore::ActorId::from_index(0));
        let b = ep(1, simcore::ActorId::from_index(0));
        let actor = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Tcp, a, b);
                net.close(conn);
                net.send(ctx, conn, a, 10, Box::new(()));
            });
        }));
        sim.schedule(SimDuration::ZERO, actor, Box::new(()));
        sim.run_to_completion(10);
    }
}
