//! End-to-end R-GMA pipeline tests: insert → producer storage → stream →
//! consumer buffer → subscriber poll, including warm-up loss and the
//! Secondary Producer's 30 s delay.

use rgma::protocol::ConsumerResponse;
use rgma::{
    ConsumerControl, ConsumerServlet, MemoryStorage, ProducerControl, ProducerHandle, ProducerId,
    ProducerServlet, RegistryActor, RgmaClientSet, RgmaConfig, RgmaEvent, RgmaTimer,
    SecondaryProducer,
};
use simcore::{Actor, Context, Payload, SimDuration, SimTime, Simulation};
use simnet::{Delivery, Endpoint, FabricConfig, HttpResponse, NetworkFabric};
use simos::{NodeId, NodeSpec, OsModel, ProcessId, ProcessSpec, VmstatLog};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use telemetry::{ProbeId, RttCollector};
use wire::Tuple;

const TABLE_SQL: &str =
    "CREATE TABLE generator (id INTEGER, power DOUBLE PRECISION, site CHAR(20))";

fn build_world(n: usize, seed: u64) -> (Simulation, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    let mut os = OsModel::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| os.add_node(NodeSpec::hydra(format!("hydra{}", i + 1), 0.0005)))
        .collect();
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(FabricConfig::default(), n));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());
    (sim, nodes)
}

fn rgma_jvm(sim: &mut Simulation, node: NodeId) -> ProcessId {
    // Tomcat-era JVM: 1 MiB thread stacks (the paper's ~800-connection
    // single-server limit follows from this).
    sim.service_mut::<OsModel>().unwrap().add_process(
        node,
        ProcessSpec {
            heap_cap: simos::Bytes::mib(1024),
            stack_size: simos::Bytes::mib(1),
            baseline: simos::Bytes::mib(64),
        },
    )
}

/// Deploys registry + producer servlet + consumer servlet on one node
/// ("single server") and returns their endpoints.
struct SingleServer {
    registry: Endpoint,
    producer: Endpoint,
    consumer: Endpoint,
}

fn deploy_single_server(sim: &mut Simulation, node: NodeId, cfg: &RgmaConfig) -> SingleServer {
    let proc = rgma_jvm(sim, node);
    let reg = sim.add_actor(RegistryActor::new(cfg.clone(), node, proc));
    let reg_ep = Endpoint::new(node, reg);
    let prod = sim.add_actor(ProducerServlet::new(cfg.clone(), node, proc, reg_ep));
    let cons = sim.add_actor(ConsumerServlet::new(cfg.clone(), node, proc, reg_ep));
    // Push the schema replicas.
    sim.schedule(
        SimDuration::ZERO,
        prod,
        Box::new(ProducerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );
    sim.schedule(
        SimDuration::ZERO,
        cons,
        Box::new(ConsumerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );
    SingleServer {
        registry: reg_ep,
        producer: Endpoint::new(node, prod),
        consumer: Endpoint::new(node, cons),
    }
}

#[derive(Default)]
struct Shared {
    producers_ready: u32,
    producers_failed: u32,
    tuples_polled: usize,
}

/// Scripted R-GMA driver: creates `n_producers` producers and one
/// subscriber; after `warmup`, each producer inserts every `interval`
/// until `inserts` messages are out.
struct Driver {
    node: NodeId,
    producer_ep: Endpoint,
    consumer_ep: Endpoint,
    query: String,
    n_producers: usize,
    inserts: u32,
    warmup: SimDuration,
    interval: SimDuration,
    cfg: RgmaConfig,
    set: Option<RgmaClientSet>,
    handles: Vec<ProducerHandle>,
    shared: Rc<RefCell<Shared>>,
}

struct InsertTick {
    handle: ProducerHandle,
    ix: u32,
    remaining: u32,
}

impl Actor for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = RgmaClientSet::new(self.cfg.clone(), self.node);
        set.create_subscriber(ctx, self.consumer_ep, &self.query);
        for _ in 0..self.n_producers {
            let h = set.create_producer(ctx, self.producer_ep, "generator");
            self.handles.push(h);
        }
        self.set = Some(set);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        RgmaEvent::ProducerReady(h) => {
                            self.shared.borrow_mut().producers_ready += 1;
                            ctx.timer(
                                self.warmup,
                                InsertTick {
                                    handle: h,
                                    ix: 0,
                                    remaining: self.inserts,
                                },
                            );
                        }
                        RgmaEvent::ProducerFailed(_, _) => {
                            self.shared.borrow_mut().producers_failed += 1;
                        }
                        RgmaEvent::Polled(_, n) => {
                            self.shared.borrow_mut().tuples_polled += n;
                        }
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RgmaTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        if let Ok(tick) = msg.downcast::<InsertTick>() {
            let InsertTick {
                handle,
                ix,
                remaining,
            } = *tick;
            if remaining == 0 {
                return;
            }
            let sql = format!(
                "INSERT INTO generator (id, power, site) VALUES ({ix}, {p}, 'hydra')",
                p = 800.0 + f64::from(ix)
            );
            set.insert(ctx, handle, sql);
            ctx.timer(
                self.interval,
                InsertTick {
                    handle,
                    ix: ix + 1,
                    remaining: remaining - 1,
                },
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_driver(
    sim: &mut Simulation,
    node: NodeId,
    server: &SingleServer,
    cfg: &RgmaConfig,
    n_producers: usize,
    inserts: u32,
    warmup: SimDuration,
    horizon: SimTime,
) -> Rc<RefCell<Shared>> {
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver {
        node,
        producer_ep: server.producer,
        consumer_ep: server.consumer,
        query: "SELECT * FROM generator".into(),
        n_producers,
        inserts,
        warmup,
        interval: SimDuration::from_secs(10),
        cfg: cfg.clone(),
        set: None,
        handles: Vec::new(),
        shared: shared.clone(),
    });
    sim.run_until(horizon);
    shared
}

#[test]
fn insert_to_poll_pipeline_delivers() {
    let (mut sim, nodes) = build_world(2, 31);
    let cfg = RgmaConfig::glite_3_0();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    let shared = run_driver(
        &mut sim,
        nodes[1],
        &server,
        &cfg,
        5,
        6,
        SimDuration::from_secs(15), // paper's warm-up wait
        SimTime::from_secs(120),
    );
    let s = shared.borrow();
    assert_eq!(s.producers_ready, 5);
    assert_eq!(s.producers_failed, 0);
    assert_eq!(s.tuples_polled, 30, "all tuples reach the subscriber");
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 30);
    assert_eq!(summary.received, 30);
    // R-GMA RTTs are dominated by Process Time and sit far above Narada's
    // few milliseconds.
    assert!(
        summary.rtt_mean_ms > 200.0,
        "rtt = {} ms",
        summary.rtt_mean_ms
    );
    assert!(
        summary.pt_mean_ms > summary.prt_mean_ms && summary.pt_mean_ms > summary.srt_mean_ms,
        "PT dominates: prt={} pt={} srt={}",
        summary.prt_mean_ms,
        summary.pt_mean_ms,
        summary.srt_mean_ms
    );
    // Soft real-time budget of §I still holds at this scale.
    assert!(summary.within_5s > 0.99);
    let _ = server.registry;
}

#[test]
fn publishing_without_warmup_loses_early_tuples() {
    let (mut sim, nodes) = build_world(2, 37);
    // Disable the attach replay window so the mechanism is deterministic
    // at this tiny scale (full-scale behaviour, where the 6 s replay
    // recovers some first tuples, is covered by the harness scenario).
    let mut cfg = RgmaConfig::glite_3_0();
    cfg.attach_replay = simcore::SimDuration::ZERO;
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    let shared = run_driver(
        &mut sim,
        nodes[1],
        &server,
        &cfg,
        10,
        6,
        SimDuration::from_millis(200), // publish almost immediately
        SimTime::from_secs(120),
    );
    let s = shared.borrow();
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 60);
    assert!(
        summary.received < summary.sent,
        "tuples inserted before plan establishment are lost"
    );
    assert!(
        summary.received >= summary.sent - 2 * 10,
        "at a 10 s insert period only the first tuple or two per producer \
         falls in the registration window (received {})",
        summary.received
    );
    assert!(s.tuples_polled as u64 == summary.received);
}

#[test]
fn warmup_wait_eliminates_loss() {
    // The paper's §III.F observation: waiting 5–10 s before publishing
    // avoids the loss entirely.
    let (mut sim, nodes) = build_world(2, 41);
    let cfg = RgmaConfig::glite_3_0();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    run_driver(
        &mut sim,
        nodes[1],
        &server,
        &cfg,
        10,
        6,
        SimDuration::from_secs(12),
        SimTime::from_secs(150),
    );
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 60);
    assert_eq!(summary.received, 60, "no loss after warm-up");
}

#[test]
fn server_refuses_producers_when_thread_pool_exhausted() {
    let (mut sim, nodes) = build_world(2, 43);
    let cfg = RgmaConfig::glite_3_0();
    // A deliberately tiny server process: ~6 threads.
    let proc = sim.service_mut::<OsModel>().unwrap().add_process(
        nodes[0],
        ProcessSpec {
            heap_cap: simos::Bytes::mib(1600),
            stack_size: simos::Bytes::mib(24),
            baseline: simos::Bytes::mib(16),
        },
    );
    let reg = sim.add_actor(RegistryActor::new(cfg.clone(), nodes[0], proc));
    let reg_ep = Endpoint::new(nodes[0], reg);
    let prod = sim.add_actor(ProducerServlet::new(cfg.clone(), nodes[0], proc, reg_ep));
    let cons = sim.add_actor(ConsumerServlet::new(cfg.clone(), nodes[0], proc, reg_ep));
    sim.schedule(
        SimDuration::ZERO,
        prod,
        Box::new(ProducerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );
    sim.schedule(
        SimDuration::ZERO,
        cons,
        Box::new(ConsumerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );
    let server = SingleServer {
        registry: reg_ep,
        producer: Endpoint::new(nodes[0], prod),
        consumer: Endpoint::new(nodes[0], cons),
    };
    let shared = run_driver(
        &mut sim,
        nodes[1],
        &server,
        &cfg,
        20,
        1,
        SimDuration::from_secs(10),
        SimTime::from_secs(60),
    );
    let s = shared.borrow();
    assert!(
        s.producers_failed > 0,
        "thread exhaustion refuses producers"
    );
    assert!(s.producers_ready > 0, "the first few are accepted");
}

#[test]
fn secondary_producer_adds_thirty_second_delay() {
    let (mut sim, nodes) = build_world(3, 47);
    let cfg = RgmaConfig::glite_3_0();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    // Secondary producer on node 1 republishes `generator` as
    // `generator_archive`.
    let sp_proc = rgma_jvm(&mut sim, nodes[1]);
    let sp = SecondaryProducer::new(
        cfg.clone(),
        nodes[1],
        sp_proc,
        server.registry,
        "generator",
        "generator_archive",
    );
    sim.add_actor(sp);

    // The subscriber queries the *archive* table, so data flows
    // generator → primary → secondary (30 s batch) → consumer.
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver {
        node: nodes[2],
        producer_ep: server.producer,
        consumer_ep: server.consumer,
        query: "SELECT * FROM generator_archive".into(),
        n_producers: 3,
        inserts: 4,
        warmup: SimDuration::from_secs(15),
        interval: SimDuration::from_secs(10),
        cfg: cfg.clone(),
        set: None,
        handles: Vec::new(),
        shared: shared.clone(),
    });
    sim.run_until(SimTime::from_secs(240));
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 12);
    assert!(
        summary.received >= 10,
        "most tuples arrive through the chain (got {})",
        summary.received
    );
    assert!(
        summary.rtt_mean_ms > 10_000.0,
        "the 30 s batch dominates: mean RTT = {} ms",
        summary.rtt_mean_ms
    );
    assert!(
        summary.percentiles_ms.last().unwrap().1 < 50_000.0,
        "but bounded by ~35 s as in fig 10"
    );
    assert!(shared.borrow().tuples_polled > 0);
}

#[test]
fn ablation_no_secondary_delay_is_fast() {
    let (mut sim, nodes) = build_world(3, 53);
    let cfg = RgmaConfig::no_secondary_delay();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    let sp_proc = rgma_jvm(&mut sim, nodes[1]);
    sim.add_actor(SecondaryProducer::new(
        cfg.clone(),
        nodes[1],
        sp_proc,
        server.registry,
        "generator",
        "generator_archive",
    ));
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver {
        node: nodes[2],
        producer_ep: server.producer,
        consumer_ep: server.consumer,
        query: "SELECT * FROM generator_archive".into(),
        n_producers: 3,
        inserts: 4,
        warmup: SimDuration::from_secs(15),
        interval: SimDuration::from_secs(10),
        cfg: cfg.clone(),
        set: None,
        handles: Vec::new(),
        shared: shared.clone(),
    });
    sim.run_until(SimTime::from_secs(240));
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert!(summary.received >= 10);
    assert!(
        summary.rtt_mean_ms < 10_000.0,
        "without the deliberate batch the chain is much faster: {} ms",
        summary.rtt_mean_ms
    );
}

#[test]
fn continuous_query_predicate_filters_at_consumer() {
    let (mut sim, nodes) = build_world(2, 59);
    let cfg = RgmaConfig::glite_3_0();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver {
        node: nodes[1],
        producer_ep: server.producer,
        consumer_ep: server.consumer,
        // Only even ids below 3 → ids 0, 1, 2 pass the filter id < 3.
        query: "SELECT * FROM generator WHERE id < 3".into(),
        n_producers: 2,
        inserts: 6,
        warmup: SimDuration::from_secs(12),
        interval: SimDuration::from_secs(10),
        cfg: cfg.clone(),
        set: None,
        handles: Vec::new(),
        shared: shared.clone(),
    });
    sim.run_until(SimTime::from_secs(150));
    // 2 producers × ids 0..6, filter id < 3 → 2 × 3 = 6 tuples delivered.
    assert_eq!(shared.borrow().tuples_polled, 6);
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 12);
    assert_eq!(summary.received, 6);
}

/// A driver that, after the continuous pipeline has run, issues one-time
/// latest and history queries (GMA query/response mode).
struct QueryDriver {
    node: NodeId,
    producer_ep: Endpoint,
    consumer_ep: Endpoint,
    cfg: RgmaConfig,
    set: Option<RgmaClientSet>,
    latest_counts: Rc<RefCell<Vec<usize>>>,
    history_counts: Rc<RefCell<Vec<usize>>>,
    handles: Vec<ProducerHandle>,
}

struct QueryInsertTick(usize, u32);
struct FireQueries;

impl Actor for QueryDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = RgmaClientSet::new(self.cfg.clone(), self.node);
        for _ in 0..3 {
            let h = set.create_producer(ctx, self.producer_ep, "generator");
            self.handles.push(h);
        }
        self.set = Some(set);
        ctx.timer(SimDuration::from_secs(40), FireQueries);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        RgmaEvent::ProducerReady(h) => {
                            let ix = self.handles.iter().position(|&x| x == h).unwrap();
                            ctx.timer(SimDuration::from_secs(10), QueryInsertTick(ix, 4));
                        }
                        RgmaEvent::QueryCompleted(q, entries) => {
                            // QueryHandle ids are allocated after the three
                            // producers: 3 = latest, 4 = history.
                            if q.0 == 3 {
                                self.latest_counts.borrow_mut().push(entries.len());
                            } else {
                                self.history_counts.borrow_mut().push(entries.len());
                            }
                        }
                        RgmaEvent::QueryFailed(_, reason) => panic!("query failed: {reason}"),
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RgmaTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<QueryInsertTick>() {
            Ok(t) => {
                let QueryInsertTick(ix, remaining) = *t;
                if remaining == 0 {
                    return;
                }
                let h = self.handles[ix];
                let sql = format!(
                    "INSERT INTO generator (id, power, site) VALUES ({ix}, {p}, 'hydra')",
                    p = 500.0 + remaining as f64
                );
                set.insert(ctx, h, sql);
                ctx.timer(
                    SimDuration::from_secs(8),
                    QueryInsertTick(ix, remaining - 1),
                );
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<FireQueries>().is_ok() {
            set.one_time_query(
                ctx,
                self.consumer_ep,
                "SELECT * FROM generator",
                rgma::QueryType::Latest,
            );
            set.one_time_query(
                ctx,
                self.consumer_ep,
                "SELECT * FROM generator",
                rgma::QueryType::History,
            );
        }
    }
}

#[test]
fn one_time_latest_and_history_queries() {
    let (mut sim, nodes) = build_world(2, 61);
    let cfg = RgmaConfig::glite_3_0();
    let server = deploy_single_server(&mut sim, nodes[0], &cfg);
    let latest_counts: Rc<RefCell<Vec<usize>>> = Default::default();
    let history_counts: Rc<RefCell<Vec<usize>>> = Default::default();
    sim.add_actor(QueryDriver {
        node: nodes[1],
        producer_ep: server.producer,
        consumer_ep: server.consumer,
        cfg,
        set: None,
        latest_counts: latest_counts.clone(),
        history_counts: history_counts.clone(),
        handles: Vec::new(),
    });
    sim.run_until(SimTime::from_secs(80));
    let latest = latest_counts.borrow();
    let history = history_counts.borrow();
    assert_eq!(latest.len(), 1, "latest query answered");
    assert_eq!(history.len(), 1, "history query answered");
    // Latest: one (most recent) tuple per producer instance.
    assert_eq!(latest[0], 3, "one latest tuple per producer");
    // History: every retained tuple; inserts at t≈10,18,26,34 per
    // producer, queried at t≈40 with 60 s retention → all 4 each.
    assert_eq!(history[0], 12, "full history within retention");
    assert!(history[0] > latest[0]);
}

// ---------------------------------------------------------------------
// Shared tuples: the servlets hand out one stored allocation, and the
// two places that change a tuple copy it first.

/// The paper's 16-column reading: 4 INTEGER, 8 DOUBLE, 4 CHAR(20).
const WIDE_TABLE_SQL: &str = "CREATE TABLE generator (\
     id INTEGER, status INTEGER, seq INTEGER, uptime INTEGER, \
     power DOUBLE PRECISION, energy DOUBLE, rating DOUBLE, voltage DOUBLE, \
     frequency DOUBLE, current DOUBLE, temp DOUBLE, wind DOUBLE, \
     site CHAR(20), operator CHAR(20), model CHAR(20), fw CHAR(20))";

fn wide_insert(id: usize, seq: u32) -> String {
    format!(
        "INSERT INTO generator (id, status, seq, uptime, power, energy, rating, \
         voltage, frequency, current, temp, wind, site, operator, model, fw) VALUES \
         ({id}, 1, {seq}, {up}, {p}, 1.5, 2000.0, 230.0, 50.0, 3.5, 35.5, 7.25, \
         'site-{id:04}', 'gridcc', 'WT-2000/E', 'glite-3.0')",
        up = seq * 10,
        p = 800.0 + f64::from(seq),
    )
}

/// Every tuple a tapped producer ever stored, by probe, with the
/// `inserted_at` it carried when first seen.
type Stored = Rc<RefCell<BTreeMap<ProbeId, (Arc<Tuple>, SimTime)>>>;

/// Runs a producer actor unchanged and, after each of its events,
/// records the tuples in its storage.
struct StorageTap<A> {
    inner: A,
    storages: fn(&A) -> Vec<&MemoryStorage>,
    stored: Stored,
}

impl<A: Actor> Actor for StorageTap<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        self.inner.handle(msg, ctx);
        let mut stored = self.stored.borrow_mut();
        for storage in (self.storages)(&self.inner) {
            for e in storage.history() {
                stored
                    .entry(e.probe)
                    .or_insert_with(|| (Arc::clone(&e.tuple), e.tuple.inserted_at));
            }
        }
    }
}

fn primary_storages(p: &ProducerServlet) -> Vec<&MemoryStorage> {
    (0..8).filter_map(|i| p.storage(ProducerId(i))).collect()
}

/// Registry, tapped producer servlet and consumer servlet on one node,
/// serving the wide table.
fn deploy_tapped(sim: &mut Simulation, node: NodeId, cfg: &RgmaConfig) -> (SingleServer, Stored) {
    let proc = rgma_jvm(sim, node);
    let reg = sim.add_actor(RegistryActor::new(cfg.clone(), node, proc));
    let reg_ep = Endpoint::new(node, reg);
    let stored = Stored::default();
    let prod = sim.add_actor(StorageTap {
        inner: ProducerServlet::new(cfg.clone(), node, proc, reg_ep),
        storages: primary_storages,
        stored: stored.clone(),
    });
    let cons = sim.add_actor(ConsumerServlet::new(cfg.clone(), node, proc, reg_ep));
    sim.schedule(
        SimDuration::ZERO,
        prod,
        Box::new(ProducerControl::DeclareTable {
            sql: WIDE_TABLE_SQL.into(),
        }),
    );
    sim.schedule(
        SimDuration::ZERO,
        cons,
        Box::new(ConsumerControl::DeclareTable {
            sql: WIDE_TABLE_SQL.into(),
        }),
    );
    let server = SingleServer {
        registry: reg_ep,
        producer: Endpoint::new(node, prod),
        consumer: Endpoint::new(node, cons),
    };
    (server, stored)
}

type Received = Rc<RefCell<Vec<(ProbeId, Arc<Tuple>)>>>;

/// Three producers insert three wide readings each (from t≈12 s, every
/// 8 s); one subscriber runs `query`. At 40 s it also issues a latest
/// and a history query when `one_time_queries` is set. Records every
/// polled and every queried `(probe, tuple)`.
struct ShareDriver {
    node: NodeId,
    server: SingleServer,
    query: &'static str,
    one_time_queries: bool,
    cfg: RgmaConfig,
    set: Option<RgmaClientSet>,
    handles: Vec<ProducerHandle>,
    polled: Received,
    queried: Received,
}

struct WideInsertTick(usize, u32);

impl Actor for ShareDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = RgmaClientSet::new(self.cfg.clone(), self.node);
        set.create_subscriber(ctx, self.server.consumer, self.query);
        for _ in 0..3 {
            let h = set.create_producer(ctx, self.server.producer, "generator");
            self.handles.push(h);
        }
        self.set = Some(set);
        if self.one_time_queries {
            ctx.timer(SimDuration::from_secs(40), FireQueries);
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                // Look at a poll result before the client set consumes it.
                let poll = d
                    .payload
                    .downcast_ref::<HttpResponse>()
                    .and_then(|r| r.body.downcast_ref::<ConsumerResponse>());
                if let Some(ConsumerResponse::PollResult { entries }) = poll {
                    self.polled.borrow_mut().extend(entries.iter().cloned());
                }
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        RgmaEvent::ProducerReady(h) => {
                            let ix = self.handles.iter().position(|&x| x == h).unwrap();
                            ctx.timer(SimDuration::from_secs(12), WideInsertTick(ix, 0));
                        }
                        RgmaEvent::QueryCompleted(_, entries) => {
                            self.queried.borrow_mut().extend(entries);
                        }
                        RgmaEvent::QueryFailed(_, reason) => panic!("query failed: {reason}"),
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RgmaTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WideInsertTick>() {
            Ok(t) => {
                let WideInsertTick(ix, seq) = *t;
                if seq < 3 {
                    set.insert(ctx, self.handles[ix], wide_insert(ix, seq));
                    ctx.timer(SimDuration::from_secs(8), WideInsertTick(ix, seq + 1));
                }
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<FireQueries>().is_ok() {
            for query_type in [rgma::QueryType::Latest, rgma::QueryType::History] {
                set.one_time_query(
                    ctx,
                    self.server.consumer,
                    "SELECT * FROM generator",
                    query_type,
                );
            }
        }
    }
}

fn share_driver(
    node: NodeId,
    server: SingleServer,
    query: &'static str,
    one_time_queries: bool,
    cfg: &RgmaConfig,
) -> (ShareDriver, Received, Received) {
    let polled = Received::default();
    let queried = Received::default();
    let driver = ShareDriver {
        node,
        server,
        query,
        one_time_queries,
        cfg: cfg.clone(),
        set: None,
        handles: Vec::new(),
        polled: polled.clone(),
        queried: queried.clone(),
    };
    (driver, polled, queried)
}

#[test]
fn streamed_and_fetched_tuples_share_the_stored_allocation() {
    let (mut sim, nodes) = build_world(2, 67);
    let cfg = RgmaConfig::glite_3_0();
    let (server, stored) = deploy_tapped(&mut sim, nodes[0], &cfg);
    let (driver, polled, queried) =
        share_driver(nodes[1], server, "SELECT * FROM generator", true, &cfg);
    sim.add_actor(driver);
    sim.run_until(SimTime::from_secs(80));

    let stored = stored.borrow();
    assert_eq!(stored.len(), 9, "3 producers × 3 readings stored");
    let polled = polled.borrow();
    assert_eq!(polled.len(), 9, "every reading streamed to the subscriber");
    let queried = queried.borrow();
    // Latest: one per producer; history: inserts at ≈12, 20, 28 s, all
    // within retention at the 40 s query.
    assert_eq!(queried.len(), 3 + 9, "latest + history answers");
    for (probe, tuple) in polled.iter().chain(queried.iter()) {
        let (kept, _) = &stored[probe];
        assert!(
            Arc::ptr_eq(tuple, kept),
            "{probe:?} was copied on its way to the subscriber"
        );
        assert_eq!(tuple.values.len(), 16);
    }
}

#[test]
fn projection_copies_and_leaves_the_stored_tuple_whole() {
    let (mut sim, nodes) = build_world(2, 71);
    let cfg = RgmaConfig::glite_3_0();
    let (server, stored) = deploy_tapped(&mut sim, nodes[0], &cfg);
    let (driver, polled, _) = share_driver(
        nodes[1],
        server,
        "SELECT id, power FROM generator",
        false,
        &cfg,
    );
    sim.add_actor(driver);
    sim.run_until(SimTime::from_secs(80));

    let stored = stored.borrow();
    let polled = polled.borrow();
    assert_eq!(polled.len(), 9);
    for (probe, tuple) in polled.iter() {
        let (kept, _) = &stored[probe];
        assert!(!Arc::ptr_eq(tuple, kept));
        assert_eq!(
            tuple.values,
            vec![kept.values[0].clone(), kept.values[4].clone()]
        );
        assert_eq!(kept.values.len(), 16, "the stored tuple keeps every column");
    }
}

#[test]
fn secondary_restamp_leaves_the_primary_copy_unchanged() {
    let (mut sim, nodes) = build_world(3, 73);
    let cfg = RgmaConfig::glite_3_0();
    let (server, primary) = deploy_tapped(&mut sim, nodes[0], &cfg);
    let sp_proc = rgma_jvm(&mut sim, nodes[1]);
    let secondary = Stored::default();
    sim.add_actor(StorageTap {
        inner: SecondaryProducer::new(
            cfg.clone(),
            nodes[1],
            sp_proc,
            server.registry,
            "generator",
            "generator_archive",
        ),
        storages: |s: &SecondaryProducer| vec![s.storage()],
        stored: secondary.clone(),
    });
    let (driver, polled, _) = share_driver(
        nodes[2],
        server,
        "SELECT * FROM generator_archive",
        false,
        &cfg,
    );
    sim.add_actor(driver);
    sim.run_until(SimTime::from_secs(150));

    let primary = primary.borrow();
    let secondary = secondary.borrow();
    assert_eq!(primary.len(), 9);
    assert_eq!(secondary.len(), 9, "every reading republished");
    for (probe, (copy, restamped)) in secondary.iter() {
        let (original, stamped) = &primary[probe];
        assert!(!Arc::ptr_eq(copy, original), "re-stamping copies");
        assert_eq!(
            original.inserted_at, *stamped,
            "the primary's stored tuple keeps its own stamp"
        );
        assert!(*restamped > *stamped, "the secondary stamps its flush");
        assert_eq!(copy.values, original.values);
        assert_eq!(copy.published_at, original.published_at);
    }
    // Downstream of the secondary, its copy is shared in turn.
    let polled = polled.borrow();
    assert_eq!(polled.len(), 9);
    for (probe, tuple) in polled.iter() {
        assert!(Arc::ptr_eq(tuple, &secondary[probe].0));
    }
}
