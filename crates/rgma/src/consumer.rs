//! The Consumer servlet: runs continuous queries. A mediator cycle
//! refreshes the plan against the Registry, attaches streams to newly
//! visible producer instances, ingests stream chunks into per-instance
//! buffers, and answers subscriber polls.

use crate::config::RgmaConfig;
use crate::protocol::{
    poll_result_bytes, ConsumerId, ConsumerRequest, ConsumerResponse, ProducerRequest,
    ProducerResponse, QueryType, RegistryRequest, RegistryResponse, StreamChunk,
};
use minisql::{Statement, TableSchema};
use simcore::{Actor, ActorId, Context, Payload, SimDuration, SimTime};
use simnet::{
    http, ConnId, Delivery, Endpoint, HttpRequest, HttpResponse, NetworkFabric, Transport,
};
use simos::{NodeId, OsModel, ProcessId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use telemetry::{ProbeId, RttCollector};
use wire::Tuple;

/// Deployment-time control messages.
pub enum ConsumerControl {
    /// Install a table schema replica.
    DeclareTable {
        /// `CREATE TABLE` SQL.
        sql: String,
    },
}

struct CInstance {
    table: String,
    predicate: Option<minisql::Predicate>,
    columns: Vec<String>,
    buffer: Vec<(ProbeId, Arc<Tuple>)>,
    /// Producer-instance endpoints already in the plan (port = pid).
    planned: HashSet<Endpoint>,
}

struct PlanTick;

/// An in-flight one-time (latest/history) query.
struct PendingQuery {
    client_conn: ConnId,
    client_req: u64,
    table: String,
    predicate: Option<minisql::Predicate>,
    columns: Vec<String>,
    query_type: QueryType,
    /// Producer servlets still to answer.
    outstanding: usize,
    collected: Vec<(ProbeId, Arc<Tuple>)>,
}

/// The Consumer servlet actor.
pub struct ConsumerServlet {
    cfg: RgmaConfig,
    node: NodeId,
    proc: ProcessId,
    endpoint: Endpoint,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    schemas: HashMap<String, TableSchema>,
    instances: HashMap<ConsumerId, CInstance>,
    next_instance: u32,
    /// Open producer-servlet connections, by servlet actor endpoint
    /// (port-stripped).
    producer_conns: HashMap<(NodeId, ActorId), ConnId>,
    /// Correlates registry lookups with consumer instances.
    pending_lookups: HashMap<u64, ConsumerId>,
    /// Correlates registry lookups with one-time queries.
    pending_query_lookups: HashMap<u64, u64>,
    /// One-time queries awaiting producer fetches, by query token.
    queries: HashMap<u64, PendingQuery>,
    next_query: u64,
    seen_conns: HashSet<ConnId>,
    next_req: u64,
}

impl ConsumerServlet {
    /// New consumer servlet on `node`/`proc`, mediating via `registry_ep`.
    pub fn new(cfg: RgmaConfig, node: NodeId, proc: ProcessId, registry_ep: Endpoint) -> Self {
        ConsumerServlet {
            cfg,
            node,
            proc,
            endpoint: Endpoint::new(node, ActorId::NONE),
            registry_ep,
            registry_conn: None,
            schemas: HashMap::new(),
            instances: HashMap::new(),
            next_instance: 0,
            producer_conns: HashMap::new(),
            pending_lookups: HashMap::new(),
            pending_query_lookups: HashMap::new(),
            queries: HashMap::new(),
            next_query: 0,
            seen_conns: HashSet::new(),
            next_req: 0,
        }
    }

    fn producer_conn(&mut self, ctx: &mut Context<'_>, node: NodeId, actor: ActorId) -> ConnId {
        let me = self.endpoint;
        match self.producer_conns.get(&(node, actor)) {
            Some(c) => *c,
            None => {
                let servlet_ep = Endpoint::new(node, actor);
                let c = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.open(ctx.now(), Transport::Http, me, servlet_ep)
                });
                self.producer_conns.insert((node, actor), c);
                c
            }
        }
    }

    fn cpu(&self, ctx: &mut Context<'_>, comp: simprof::Component, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, comp, effective);
            done
        })
    }

    fn ensure_thread(&mut self, ctx: &mut Context<'_>, conn: ConnId) -> Result<(), String> {
        if self.seen_conns.contains(&conn) {
            return Ok(());
        }
        let r = ctx.with_service::<OsModel, _>(|os, _| os.spawn_thread(self.proc));
        match r {
            Ok(()) => {
                self.seen_conns.insert(conn);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn respond_at(
        &self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        status: u16,
        bytes: usize,
        body: ConsumerResponse,
        at: SimTime,
    ) {
        let ep = self.endpoint;
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(
                ctx,
                conn,
                ep,
                bytes + http::RESPONSE_OVERHEAD,
                Box::new(HttpResponse {
                    req_id,
                    status,
                    body: Box::new(body),
                }),
                at,
            );
        });
    }

    fn on_create_consumer(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        query: String,
    ) {
        let heap = self.cfg.memory.heap_per_consumer;
        let alloc = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
        if let Err(e) = alloc {
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                503,
                64,
                ConsumerResponse::Error {
                    reason: e.to_string(),
                },
                now,
            );
            return;
        }
        let parsed = minisql::parse(&query);
        let (table, predicate, columns) = match parsed {
            Ok(Statement::Select {
                columns,
                table,
                predicate,
            }) => (table, predicate, columns),
            Ok(_) => {
                let now = ctx.now();
                self.respond_at(
                    ctx,
                    conn,
                    req_id,
                    400,
                    64,
                    ConsumerResponse::Error {
                        reason: "not a SELECT".into(),
                    },
                    now,
                );
                return;
            }
            Err(e) => {
                let now = ctx.now();
                self.respond_at(
                    ctx,
                    conn,
                    req_id,
                    400,
                    64,
                    ConsumerResponse::Error {
                        reason: e.to_string(),
                    },
                    now,
                );
                return;
            }
        };
        let cid = ConsumerId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            cid,
            CInstance {
                table,
                predicate,
                columns,
                buffer: Vec::new(),
                planned: HashSet::new(),
            },
        );
        let done = self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.create_instance,
        );
        // Announce the consumer to the registry (soft-state mode only),
        // then kick an immediate mediation pass for this instance.
        let table = self.instances[&cid].table.clone();
        self.register_interest(ctx, table);
        self.lookup_for(ctx, cid);
        self.respond_at(
            ctx,
            conn,
            req_id,
            200,
            48,
            ConsumerResponse::Created { consumer: cid },
            done,
        );
    }

    fn lookup_for(&mut self, ctx: &mut Context<'_>, cid: ConsumerId) {
        let Some(inst) = self.instances.get(&cid) else {
            return;
        };
        let table = inst.table.clone();
        let rid = self.next_req;
        self.next_req += 1;
        self.pending_lookups.insert(rid, cid);
        let me = self.endpoint;
        let conn = self.registry_conn.expect("opened on start");
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/registry/lookup",
                64,
                Box::new(RegistryRequest::LookupProducers { table }),
            );
        });
    }

    /// Start a one-time latest/history query (GMA query/response mode).
    fn on_one_time_query(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        query: String,
        query_type: QueryType,
    ) {
        let parsed = minisql::parse(&query);
        let (table, predicate, columns) = match parsed {
            Ok(Statement::Select {
                columns,
                table,
                predicate,
            }) => (table, predicate, columns),
            _ => {
                let now = ctx.now();
                self.respond_at(
                    ctx,
                    conn,
                    req_id,
                    400,
                    64,
                    ConsumerResponse::Error {
                        reason: "one-time query must be a SELECT".into(),
                    },
                    now,
                );
                return;
            }
        };
        let qid = self.next_query;
        self.next_query += 1;
        self.queries.insert(
            qid,
            PendingQuery {
                client_conn: conn,
                client_req: req_id,
                table: table.clone(),
                predicate,
                columns,
                query_type,
                outstanding: 0,
                collected: Vec::new(),
            },
        );
        self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.create_instance / 4,
        );
        // Mediate: look the producers up, then fan the fetch out.
        let rid = self.next_req;
        self.next_req += 1;
        self.pending_query_lookups.insert(rid, qid);
        let me = self.endpoint;
        let reg_conn = self.registry_conn.expect("opened on start");
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                reg_conn,
                me,
                rid,
                "/registry/lookup",
                64,
                Box::new(RegistryRequest::LookupProducers { table }),
            );
        });
    }

    /// Fan a one-time query out to the producer servlets the registry
    /// returned.
    fn on_query_lookup_result(
        &mut self,
        ctx: &mut Context<'_>,
        qid: u64,
        endpoints: Vec<Endpoint>,
    ) {
        let me = self.endpoint;
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        let table = q.table.clone();
        let query_type = q.query_type;
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<crate::protocol::ProducerId>> =
            BTreeMap::new();
        for ep in endpoints {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(crate::protocol::ProducerId(u32::from(ep.port)));
        }
        if servlets.is_empty() {
            self.finish_query(ctx, qid);
            return;
        }
        self.queries.get_mut(&qid).expect("checked").outstanding = servlets.len();
        for ((node, actor), producers) in servlets {
            let conn = self.producer_conn(ctx, node, actor);
            let rid = self.next_req;
            self.next_req += 1;
            let req = ProducerRequest::Fetch {
                table: table.clone(),
                query_type,
                producers,
                token: qid,
            };
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                http::send_request(
                    net,
                    ctx,
                    conn,
                    me,
                    rid,
                    "/producer/fetch",
                    96,
                    Box::new(req),
                );
            });
        }
    }

    /// One producer servlet answered a fetch.
    fn on_fetch_result(
        &mut self,
        ctx: &mut Context<'_>,
        qid: u64,
        entries: Vec<(ProbeId, Arc<Tuple>)>,
    ) {
        let n = entries.len() as u64;
        self.cpu(
            ctx,
            simprof::Component::RgmaSelect,
            self.cfg.costs.chunk_ingest_base
                + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n),
        );
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.collected.extend(entries);
        q.outstanding = q.outstanding.saturating_sub(1);
        if q.outstanding == 0 {
            self.finish_query(ctx, qid);
        }
    }

    /// Filter, project and answer the waiting client.
    fn finish_query(&mut self, ctx: &mut Context<'_>, qid: u64) {
        let Some(q) = self.queries.remove(&qid) else {
            return;
        };
        let schema = self.schemas.get(&q.table);
        let entries: Vec<(ProbeId, Arc<Tuple>)> = q
            .collected
            .into_iter()
            .filter(|(_, t)| match (&q.predicate, schema) {
                (None, _) | (_, None) => true,
                (Some(p), Some(s)) => minisql::eval_predicate(p, s, &t.values) == Some(true),
            })
            .map(|(p, mut t)| {
                if let (false, Some(s)) = (q.columns.is_empty(), schema) {
                    if let Ok(projected) = s.project(&t.values, &q.columns) {
                        Arc::make_mut(&mut t).values = projected;
                    }
                }
                (p, t)
            })
            .collect();
        let n = entries.len() as u64;
        let cost = self.cfg.costs.poll_answer
            + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 2);
        let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
        let bytes = poll_result_bytes(&entries);
        self.respond_at(
            ctx,
            q.client_conn,
            q.client_req,
            200,
            bytes,
            ConsumerResponse::QueryResult { entries },
            done,
        );
    }

    fn on_lookup_result(
        &mut self,
        ctx: &mut Context<'_>,
        cid: ConsumerId,
        endpoints: Vec<Endpoint>,
    ) {
        let me = self.endpoint;
        let Some(inst) = self.instances.get_mut(&cid) else {
            return;
        };
        let table = inst.table.clone();
        // Which producer instances are new to the plan?
        let fresh: Vec<Endpoint> = endpoints
            .into_iter()
            .filter(|ep| !inst.planned.contains(ep))
            .collect();
        if fresh.is_empty() {
            return;
        }
        // Group the fresh instances by hosting servlet; one StartStream
        // per servlet attaches exactly those instances.
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<crate::protocol::ProducerId>> =
            BTreeMap::new();
        for ep in &fresh {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(crate::protocol::ProducerId(u32::from(ep.port)));
            inst.planned.insert(*ep);
        }
        for ((node, actor), producers) in servlets {
            let conn = self.producer_conn(ctx, node, actor);
            let rid = self.next_req;
            self.next_req += 1;
            let req = ProducerRequest::StartStream {
                table: table.clone(),
                consumer_ep: me,
                consumer: cid,
                producers,
            };
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                http::send_request(
                    net,
                    ctx,
                    conn,
                    me,
                    rid,
                    "/producer/stream",
                    96,
                    Box::new(req),
                );
            });
        }
    }

    fn on_chunk(&mut self, ctx: &mut Context<'_>, chunk: StreamChunk) {
        let n = chunk.entries.len() as u64;
        let cost = self.cfg.costs.chunk_ingest_base
            + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n);
        let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
        let Some(inst) = self.instances.get_mut(&chunk.consumer) else {
            return;
        };
        let mut accepted = 0u64;
        let mut filtered = 0u64;
        let actor = self.endpoint.actor.index() as u64;
        for (probe, tuple) in chunk.entries {
            // Continuous-query predicate filter at the consumer.
            let matches = match (&inst.predicate, self.schemas.get(&inst.table)) {
                (None, _) => true,
                (Some(p), Some(schema)) => {
                    minisql::eval_predicate(p, schema, &tuple.values) == Some(true)
                }
                (Some(_), None) => true, // no schema replica: pass through
            };
            if !matches {
                filtered += 1;
                continue;
            }
            // The tuple is now *available* to the subscriber.
            ctx.service_mut::<RttCollector>()
                .before_receiving(probe, done);
            simtrace::with_trace(ctx, |tr, _| {
                let id = Some(simtrace::TraceId(probe.0));
                tr.record(
                    done,
                    id,
                    actor,
                    simtrace::EventKind::SelectMatch { consumers: 1 },
                );
                tr.record(done, id, actor, simtrace::EventKind::Available);
            });
            inst.buffer.push((probe, tuple));
            accepted += 1;
        }
        simtrace::with_trace(ctx, |tr, _| {
            tr.count(simtrace::Counter::SelectorMatches, accepted);
            tr.count(simtrace::Counter::SelectorMisses, filtered);
        });
        if accepted > 0 {
            let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * accepted);
            let _ = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
        }
        // Servlet backlog: tuples buffered awaiting the next client poll.
        let instances = &self.instances;
        telemetry::with_metrics(ctx, |m, _| {
            let backlog: usize = instances.values().map(|i| i.buffer.len()).sum();
            m.set_gauge("rgma.consumer.buffered_tuples", backlog as f64);
        });
    }

    fn on_poll(&mut self, ctx: &mut Context<'_>, conn: ConnId, req_id: u64, cid: ConsumerId) {
        let Some(inst) = self.instances.get_mut(&cid) else {
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                404,
                64,
                ConsumerResponse::Error {
                    reason: format!("no consumer {cid:?}"),
                },
                now,
            );
            return;
        };
        let entries: Vec<(ProbeId, Arc<Tuple>)> = {
            let schema = self.schemas.get(&inst.table);
            let drained: Vec<(ProbeId, Arc<Tuple>)> = inst.buffer.drain(..).collect();
            match (&inst.columns[..], schema) {
                ([], _) | (_, None) => drained,
                (cols, Some(schema)) => drained
                    .into_iter()
                    .map(|(p, mut t)| {
                        if let Ok(projected) = schema.project(&t.values, cols) {
                            Arc::make_mut(&mut t).values = projected;
                        }
                        (p, t)
                    })
                    .collect(),
            }
        };
        let n = entries.len() as u64;
        if n > 0 {
            let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * n);
            ctx.with_service::<OsModel, _>(|os, _| os.free(self.proc, heap));
        }
        let cost = self.cfg.costs.poll_answer
            + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 2);
        let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
        let bytes = poll_result_bytes(&entries);
        self.respond_at(
            ctx,
            conn,
            req_id,
            200,
            bytes,
            ConsumerResponse::PollResult { entries },
            done,
        );
    }

    /// Register this servlet's interest in `table` with the registry
    /// (GMA consumer registration). Only sent when the soft-state refresh
    /// is enabled; re-sent every mediation cycle so a restarted registry
    /// re-learns the consumer — the registry dedups live entries.
    fn register_interest(&mut self, ctx: &mut Context<'_>, table: String) {
        if self.cfg.soft_state_refresh.is_none() {
            return;
        }
        let me = self.endpoint;
        let conn = self.registry_conn.expect("opened on start");
        let rid = self.next_req;
        self.next_req += 1;
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/registry/register-consumer",
                96,
                Box::new(RegistryRequest::RegisterConsumer {
                    table,
                    endpoint: me,
                }),
            );
        });
    }

    fn on_plan_tick(&mut self, ctx: &mut Context<'_>) {
        let mut cids: Vec<ConsumerId> = self.instances.keys().copied().collect();
        cids.sort_unstable();
        if self.cfg.soft_state_refresh.is_some() {
            let tables: std::collections::BTreeSet<String> =
                self.instances.values().map(|i| i.table.clone()).collect();
            for table in tables {
                self.register_interest(ctx, table);
            }
        }
        for cid in cids {
            self.lookup_for(ctx, cid);
        }
        ctx.timer(self.cfg.plan_refresh, PlanTick);
    }
}

impl Actor for ConsumerServlet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.endpoint = Endpoint::new(self.node, ctx.self_id());
        let me = self.endpoint;
        let reg = self.registry_ep;
        self.registry_conn = Some(ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, reg)
        }));
        ctx.timer(self.cfg.plan_refresh, PlanTick);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<ConsumerControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    ConsumerControl::DeclareTable { sql } => {
                        let stmt = minisql::parse(&sql).expect("deployment SQL parses");
                        let Statement::CreateTable { table, columns } = stmt else {
                            panic!("DeclareTable needs CREATE TABLE");
                        };
                        self.schemas
                            .insert(table.clone(), TableSchema::new(table, columns));
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlanTick>() {
            Ok(_) => {
                self.on_plan_tick(ctx);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Stream chunks arrive raw (not HTTP-wrapped: persistent stream).
        let payload = match payload.downcast::<StreamChunk>() {
            Ok(chunk) => {
                self.on_chunk(ctx, *chunk);
                return;
            }
            Err(p) => p,
        };
        // Responses from the registry and producer servlets.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(resp) => {
                let HttpResponse { req_id, body, .. } = *resp;
                if let Some(cid) = self.pending_lookups.remove(&req_id) {
                    if let Ok(r) = body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.on_lookup_result(ctx, cid, endpoints);
                        }
                    }
                } else if let Some(qid) = self.pending_query_lookups.remove(&req_id) {
                    if let Ok(r) = body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.on_query_lookup_result(ctx, qid, endpoints);
                        }
                    }
                } else if let Ok(r) = body.downcast::<ProducerResponse>() {
                    if let ProducerResponse::FetchResult { token, entries } = *r {
                        self.on_fetch_result(ctx, token, entries);
                    }
                }
                return;
            }
            Err(p) => p,
        };
        // Subscriber requests.
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let HttpRequest { req_id, body, .. } = *req;
        // Fault injection: a stalled servlet answers 503 without work.
        if simfault::node_stalled(ctx, self.node) {
            simfault::with_faults(ctx, |inj, _| inj.stats.stall_rejections += 1);
            simtrace::with_trace(ctx, |tr, _| {
                tr.count(simtrace::Counter::FaultRejections, 1);
            });
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                503,
                64,
                ConsumerResponse::Error {
                    reason: "servlet stalled".into(),
                },
                now,
            );
            return;
        }
        if let Err(reason) = self.ensure_thread(ctx, conn) {
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                503,
                64,
                ConsumerResponse::Error { reason },
                now,
            );
            return;
        }
        let Ok(body) = body.downcast::<ConsumerRequest>() else {
            return;
        };
        self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.servlet_dispatch,
        );
        match *body {
            ConsumerRequest::CreateConsumer { query } => {
                self.on_create_consumer(ctx, conn, req_id, query)
            }
            ConsumerRequest::Poll { consumer } => self.on_poll(ctx, conn, req_id, consumer),
            ConsumerRequest::OneTimeQuery { query, query_type } => {
                self.on_one_time_query(ctx, conn, req_id, query, query_type)
            }
            ConsumerRequest::CloseConsumer { consumer } => {
                if self.instances.remove(&consumer).is_some() {
                    let heap = self.cfg.memory.heap_per_consumer;
                    ctx.with_service::<OsModel, _>(|os, _| os.free(self.proc, heap));
                }
                let now = ctx.now();
                self.respond_at(
                    ctx,
                    conn,
                    req_id,
                    200,
                    24,
                    ConsumerResponse::PollResult { entries: vec![] },
                    now,
                );
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-consumer-servlet"
    }
}
