//! The Primary Producer servlet: hosts one server-side producer instance
//! per client generator (memory storage, retention), registers instances
//! with the Registry, and streams buffered tuples to attached Consumer
//! streams on the periodic streaming cycle.
//!
//! Convention: an instance's registry entry uses the servlet endpoint
//! with `port = producer instance id`, so lookups return addressable
//! instances without a separate id field.

use crate::config::RgmaConfig;
use crate::protocol::{
    chunk_bytes, ConsumerId, ProducerId, ProducerRequest, ProducerResponse, QueryType,
    RegistryRequest, StreamChunk,
};
use crate::storage::MemoryStorage;
use minisql::{Statement, TableSchema};
use simcore::{Actor, ActorId, Context, Payload, SimDuration, SimTime};
use simnet::{
    http, ConnId, Delivery, Endpoint, HttpRequest, HttpResponse, NetworkFabric, Transport,
};
use simos::{NodeId, OsModel, ProcessId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use telemetry::ProbeId;

/// Deployment-time control messages.
pub enum ProducerControl {
    /// Install a table schema replica (the Schema service push).
    DeclareTable {
        /// `CREATE TABLE` SQL.
        sql: String,
    },
}

struct Instance {
    table: String,
    storage: MemoryStorage,
}

struct StreamState {
    conn: ConnId,
    consumer: ConsumerId,
    /// Per-instance read cursors (BTreeMap: deterministic flush order).
    cursors: BTreeMap<ProducerId, u64>,
}

struct FlushTick;
struct SweepTick;
struct RefreshTick;

/// The Primary Producer servlet actor.
pub struct ProducerServlet {
    cfg: RgmaConfig,
    node: NodeId,
    proc: ProcessId,
    endpoint: Endpoint,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    schemas: HashMap<String, TableSchema>,
    instances: HashMap<ProducerId, Instance>,
    next_instance: u32,
    streams: Vec<StreamState>,
    /// Connections that already hold a service thread.
    seen_conns: HashSet<ConnId>,
    next_req: u64,
}

impl ProducerServlet {
    /// New producer servlet on `node`/`proc`, registering at `registry_ep`.
    pub fn new(cfg: RgmaConfig, node: NodeId, proc: ProcessId, registry_ep: Endpoint) -> Self {
        ProducerServlet {
            cfg,
            node,
            proc,
            endpoint: Endpoint::new(node, ActorId::NONE),
            registry_ep,
            registry_conn: None,
            schemas: HashMap::new(),
            instances: HashMap::new(),
            next_instance: 0,
            streams: Vec::new(),
            seen_conns: HashSet::new(),
            next_req: 0,
        }
    }

    /// Storage of a live producer instance.
    pub fn storage(&self, producer: ProducerId) -> Option<&MemoryStorage> {
        self.instances.get(&producer).map(|inst| &inst.storage)
    }

    fn cpu(&self, ctx: &mut Context<'_>, comp: simprof::Component, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, comp, effective);
            done
        })
    }

    /// First request on a connection costs a Tomcat service thread; OOM
    /// here is the paper's "cannot accept N concurrent connections".
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
        body: ProducerResponse,
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

    fn on_create_producer(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        table: String,
    ) {
        // Heap for the instance.
        let heap = self.cfg.memory.heap_per_producer;
        let alloc = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
        if let Err(e) = alloc {
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                503,
                64,
                ProducerResponse::Error {
                    reason: e.to_string(),
                },
                now,
            );
            return;
        }
        let pid = ProducerId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            pid,
            Instance {
                table: table.clone(),
                storage: MemoryStorage::new(self.cfg.latest_retention, self.cfg.history_retention),
            },
        );
        let done = self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.create_instance,
        );
        // Register the instance with the registry (async; the instance is
        // immediately usable by its client, but invisible to consumers
        // until registration propagates — the warm-up window).
        let my_ep = self.endpoint;
        let reg_conn = self.registry_conn.expect("registry conn opened on start");
        let req = RegistryRequest::RegisterProducer {
            table,
            endpoint: Endpoint::with_port(my_ep.node, my_ep.actor, pid.0 as u16),
        };
        let rid = self.next_req;
        self.next_req += 1;
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                reg_conn,
                my_ep,
                rid,
                "/registry/register",
                96,
                Box::new(req),
            );
        });
        self.respond_at(
            ctx,
            conn,
            req_id,
            200,
            48,
            ProducerResponse::Created { producer: pid },
            done,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_insert(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        producer: ProducerId,
        sql: String,
        probe: ProbeId,
        published_at: simcore::SimTime,
    ) {
        let cost = self.cfg.costs.insert_base
            + SimDuration::from_micros(
                (sql.len() as u64 * self.cfg.costs.insert_per_byte_ns).div_ceil(1000),
            );
        let done = self.cpu(ctx, simprof::Component::RgmaInsert, cost);
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("rgma.inserts", 1);
            m.observe("rgma.insert_cost_us", cost.as_micros());
        });
        let result: Result<u32, String> = (|| {
            let inst = self
                .instances
                .get_mut(&producer)
                .ok_or_else(|| format!("no such producer {producer:?}"))?;
            let stmt = minisql::parse(&sql).map_err(|e| e.to_string())?;
            let Statement::Insert {
                table,
                columns,
                values,
            } = stmt
            else {
                return Err("not an INSERT".into());
            };
            if table != inst.table {
                return Err(format!("wrong table {table}"));
            }
            let schema = self
                .schemas
                .get(table)
                .ok_or_else(|| format!("unknown table {table}"))?;
            let row = schema
                .normalize_insert(&columns, &values)
                .map_err(|e| e.to_string())?;
            let mut tuple = schema.to_tuple(row);
            // Out-of-band freshness stamp: parsed SQL can't carry it, so
            // the servlet copies it from the request onto the stored
            // tuple, whence it rides through streaming/fetch/poll.
            tuple.published_at = Some(published_at);
            inst.storage.insert(Arc::new(tuple), probe, done);
            Ok(inst.storage.len() as u32)
        })();
        match result {
            Ok(rows) => {
                let heap = self.cfg.memory.heap_per_tuple;
                let _ = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
                self.respond_at(ctx, conn, req_id, 200, 24, ProducerResponse::InsertOk, done);
                let actor = self.endpoint.actor.index() as u64;
                simtrace::with_trace(ctx, |tr, _| {
                    tr.record(
                        done,
                        Some(simtrace::TraceId(probe.0)),
                        actor,
                        simtrace::EventKind::StorageInsert { rows },
                    );
                    tr.count(simtrace::Counter::TuplesStored, 1);
                });
            }
            Err(reason) => {
                self.respond_at(
                    ctx,
                    conn,
                    req_id,
                    400,
                    64,
                    ProducerResponse::Error { reason },
                    done,
                );
            }
        }
    }

    fn on_start_stream(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        table: String,
        consumer: ConsumerId,
        producers: Vec<ProducerId>,
    ) {
        let done = self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.servlet_dispatch,
        );
        // Attach (or extend) the stream for this consumer: any instance of
        // `table` not yet covered gets a cursor at its current tail.
        let stream_ix = self
            .streams
            .iter()
            .position(|s| s.consumer == consumer && s.conn == conn);
        let stream_ix = match stream_ix {
            Some(ix) => ix,
            None => {
                let consumer_ep = ctx.service::<NetworkFabric>().peer_of(conn, self.endpoint);
                let _ = consumer_ep;
                self.streams.push(StreamState {
                    conn,
                    consumer,
                    cursors: BTreeMap::new(),
                });
                self.streams.len() - 1
            }
        };
        let stream = &mut self.streams[stream_ix];
        let replay_from = simcore::SimTime::from_micros(
            ctx.now()
                .as_micros()
                .saturating_sub(self.cfg.attach_replay.as_micros()),
        );
        for pid in producers {
            let Some(inst) = self.instances.get(&pid) else {
                continue;
            };
            if inst.table == table {
                stream
                    .cursors
                    .entry(pid)
                    .or_insert_with(|| inst.storage.cursor_since(replay_from));
            }
        }
        self.respond_at(
            ctx,
            conn,
            req_id,
            200,
            24,
            ProducerResponse::StreamStarted,
            done,
        );
    }

    /// One-shot latest/history fetch against instance storage (the GMA
    /// query/response mode).
    #[allow(clippy::too_many_arguments)]
    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        req_id: u64,
        table: String,
        query_type: QueryType,
        producers: Vec<ProducerId>,
        token: u64,
    ) {
        let now = ctx.now();
        let mut entries = Vec::new();
        for pid in producers {
            let Some(inst) = self.instances.get(&pid) else {
                continue;
            };
            if inst.table != table {
                continue;
            }
            match query_type {
                QueryType::Latest => {
                    if let Some(e) = inst.storage.latest(now) {
                        entries.push((e.probe, Arc::clone(&e.tuple)));
                    }
                }
                QueryType::History => {
                    entries.extend(
                        inst.storage
                            .history()
                            .iter()
                            .map(|e| (e.probe, Arc::clone(&e.tuple))),
                    );
                }
            }
        }
        let n = entries.len() as u64;
        let cost = self.cfg.costs.poll_answer
            + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 2);
        let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
        let bytes = crate::protocol::poll_result_bytes(&entries);
        self.respond_at(
            ctx,
            conn,
            req_id,
            200,
            bytes,
            ProducerResponse::FetchResult { token, entries },
            done,
        );
    }

    /// The streaming cycle: collect new tuples per stream and push one
    /// merged chunk per consumer stream.
    fn on_flush(&mut self, ctx: &mut Context<'_>) {
        let ep = self.endpoint;
        let mut sends: Vec<(ConnId, StreamChunk)> = Vec::new();
        for stream in &mut self.streams {
            let mut entries = Vec::new();
            for (pid, cursor) in stream.cursors.iter_mut() {
                if let Some(inst) = self.instances.get(pid) {
                    let (chunk, next) = inst.storage.read_from(*cursor);
                    entries.extend(chunk.iter().map(|e| (e.probe, Arc::clone(&e.tuple))));
                    *cursor = next;
                }
            }
            if !entries.is_empty() {
                sends.push((
                    stream.conn,
                    StreamChunk {
                        consumer: stream.consumer,
                        entries,
                    },
                ));
            }
        }
        for (conn, chunk) in sends {
            let n = chunk.entries.len() as u64;
            let cost = self.cfg.costs.stream_send
                + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 4);
            let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
            let bytes = chunk_bytes(&chunk);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send_at(ctx, conn, ep, bytes, Box::new(chunk), done);
            });
        }
        ctx.timer(self.cfg.streaming_period, FlushTick);
    }

    /// Soft-state refresh: re-register every live instance. After a
    /// registry restart (Tomcat bounce) the wiped directory re-learns
    /// them here; while the registry is healthy these are idempotent.
    fn on_refresh(&mut self, ctx: &mut Context<'_>) {
        let Some(period) = self.cfg.soft_state_refresh else {
            return;
        };
        let my_ep = self.endpoint;
        let reg_conn = self.registry_conn.expect("registry conn opened on start");
        let mut pids: Vec<ProducerId> = self.instances.keys().copied().collect();
        pids.sort_unstable();
        let n = pids.len() as u64;
        for pid in pids {
            let table = self.instances[&pid].table.clone();
            let req = RegistryRequest::RegisterProducer {
                table,
                endpoint: Endpoint::with_port(my_ep.node, my_ep.actor, pid.0 as u16),
            };
            let rid = self.next_req;
            self.next_req += 1;
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                http::send_request(
                    net,
                    ctx,
                    reg_conn,
                    my_ep,
                    rid,
                    "/registry/register",
                    96,
                    Box::new(req),
                );
            });
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.reregistrations += n);
        }
        ctx.timer(period, RefreshTick);
    }

    fn on_sweep(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let mut evicted = 0usize;
        for inst in self.instances.values_mut() {
            evicted += inst.storage.sweep(now);
        }
        if evicted > 0 {
            let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * evicted as u64);
            ctx.with_service::<OsModel, _>(|os, _| os.free(self.proc, heap));
        }
        ctx.timer(SimDuration::from_secs(5), SweepTick);
    }
}

impl Actor for ProducerServlet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.endpoint = Endpoint::new(self.node, ctx.self_id());
        let me = self.endpoint;
        let reg = self.registry_ep;
        self.registry_conn = Some(ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, reg)
        }));
        ctx.timer(self.cfg.streaming_period, FlushTick);
        ctx.timer(SimDuration::from_secs(5), SweepTick);
        if let Some(period) = self.cfg.soft_state_refresh {
            ctx.timer(period, RefreshTick);
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<ProducerControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    ProducerControl::DeclareTable { sql } => {
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
        let msg = match msg.downcast::<FlushTick>() {
            Ok(_) => {
                self.on_flush(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SweepTick>() {
            Ok(_) => {
                self.on_sweep(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RefreshTick>() {
            Ok(_) => {
                self.on_refresh(ctx);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Responses from the registry need no handling (fire-and-forget
        // registration); requests are dispatched below.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(_) => return,
            Err(p) => p,
        };
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let HttpRequest { req_id, body, .. } = *req;
        // Fault injection: a stalled servlet (Tomcat GC pause / overload)
        // answers 503 without doing any work.
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
                ProducerResponse::Error {
                    reason: "servlet stalled".into(),
                },
                now,
            );
            return;
        }
        // Thread-per-connection accept gate.
        if let Err(reason) = self.ensure_thread(ctx, conn) {
            let now = ctx.now();
            self.respond_at(
                ctx,
                conn,
                req_id,
                503,
                64,
                ProducerResponse::Error { reason },
                now,
            );
            return;
        }
        let Ok(body) = body.downcast::<ProducerRequest>() else {
            return;
        };
        // Base servlet dispatch cost applies to every request.
        self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.servlet_dispatch,
        );
        match *body {
            ProducerRequest::CreateProducer { table } => {
                self.on_create_producer(ctx, conn, req_id, table)
            }
            ProducerRequest::Insert {
                producer,
                sql,
                probe,
                published_at,
            } => self.on_insert(ctx, conn, req_id, producer, sql, probe, published_at),
            ProducerRequest::CloseProducer { producer } => {
                if self.instances.remove(&producer).is_some() {
                    let heap = self.cfg.memory.heap_per_producer;
                    ctx.with_service::<OsModel, _>(|os, _| os.free(self.proc, heap));
                }
                let now = ctx.now();
                self.respond_at(ctx, conn, req_id, 200, 24, ProducerResponse::InsertOk, now);
            }
            ProducerRequest::StartStream {
                table,
                consumer_ep: _,
                consumer,
                producers,
            } => self.on_start_stream(ctx, conn, req_id, table, consumer, producers),
            ProducerRequest::Fetch {
                table,
                query_type,
                producers,
                token,
            } => self.on_fetch(ctx, conn, req_id, table, query_type, producers, token),
        }
    }

    fn name(&self) -> &str {
        "rgma-producer-servlet"
    }
}
