//! The Secondary Producer: consumes a table's stream from Primary
//! Producers and republishes it — with the *deliberate 30-second batch
//! delay* the R-GMA developers confirmed to the authors (§III.F.3). This
//! component is why fig 10's percentiles sit at 25–35 s.
//!
//! It plays both roles: towards Primary Producer servlets it behaves like
//! a consumer (registry lookups + StartStream); towards Consumer servlets
//! it behaves like a producer servlet hosting a single instance
//! publishing `output_table`.

use crate::config::RgmaConfig;
use crate::protocol::{
    chunk_bytes, ConsumerId, ProducerRequest, ProducerResponse, RegistryRequest, RegistryResponse,
    StreamChunk,
};
use crate::storage::MemoryStorage;
use simcore::{Actor, ActorId, Context, Payload, SimDuration, SimTime};
use simnet::{
    http, ConnId, Delivery, Endpoint, HttpRequest, HttpResponse, NetworkFabric, Transport,
};
use simos::{NodeId, OsModel, ProcessId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use telemetry::ProbeId;
use wire::Tuple;

struct FlushTick;
struct PlanTick;

struct DownStream {
    conn: ConnId,
    consumer: ConsumerId,
    cursor: u64,
}

/// The Secondary Producer actor.
pub struct SecondaryProducer {
    cfg: RgmaConfig,
    node: NodeId,
    /// Hosting JVM (batch heap is accounted here).
    proc: ProcessId,
    endpoint: Endpoint,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    /// Table consumed from primaries.
    input_table: String,
    /// Table republished (consumers attach to this).
    output_table: String,
    /// Pending batch (accumulates for `secondary_flush`).
    batch: Vec<(ProbeId, Arc<Tuple>)>,
    /// Republished storage (for streams + retention).
    storage: MemoryStorage,
    /// Upstream plan: producer-instance endpoints already streamed from.
    planned: HashSet<Endpoint>,
    upstream_conns: HashMap<(NodeId, ActorId), ConnId>,
    /// Downstream consumer streams.
    downstreams: Vec<DownStream>,
    pending_lookup: Option<u64>,
    next_req: u64,
    /// The well-known id of our single published instance.
    my_pid_port: u16,
}

impl SecondaryProducer {
    /// New Secondary Producer consuming `input_table` and republishing as
    /// `output_table`.
    pub fn new(
        cfg: RgmaConfig,
        node: NodeId,
        proc: ProcessId,
        registry_ep: Endpoint,
        input_table: impl Into<String>,
        output_table: impl Into<String>,
    ) -> Self {
        let storage = MemoryStorage::new(cfg.latest_retention, cfg.history_retention * 10);
        SecondaryProducer {
            cfg,
            node,
            proc,
            endpoint: Endpoint::new(node, ActorId::NONE),
            registry_ep,
            registry_conn: None,
            input_table: input_table.into(),
            output_table: output_table.into(),
            batch: Vec::new(),
            storage,
            planned: HashSet::new(),
            upstream_conns: HashMap::new(),
            downstreams: Vec::new(),
            pending_lookup: None,
            next_req: 0,
            my_pid_port: 0,
        }
    }

    /// Storage of the republished instance.
    pub fn storage(&self) -> &MemoryStorage {
        &self.storage
    }

    fn cpu(&self, ctx: &mut Context<'_>, comp: simprof::Component, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, comp, effective);
            done
        })
    }

    fn req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Mediation towards the primaries.
    fn lookup_upstream(&mut self, ctx: &mut Context<'_>) {
        let rid = self.req_id();
        self.pending_lookup = Some(rid);
        let me = self.endpoint;
        let conn = self.registry_conn.expect("opened on start");
        let table = self.input_table.clone();
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

    fn attach_upstream(&mut self, ctx: &mut Context<'_>, endpoints: Vec<Endpoint>) {
        let me = self.endpoint;
        let fresh: Vec<Endpoint> = endpoints
            .into_iter()
            .filter(|ep| !self.planned.contains(ep))
            .collect();
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<crate::protocol::ProducerId>> =
            BTreeMap::new();
        for ep in &fresh {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(crate::protocol::ProducerId(u32::from(ep.port)));
            self.planned.insert(*ep);
        }
        for ((node, actor), producers) in servlets {
            let servlet_ep = Endpoint::new(node, actor);
            let conn = *self.upstream_conns.entry((node, actor)).or_insert_with(|| {
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.open(ctx.now(), Transport::Http, me, servlet_ep)
                })
            });
            let rid = self.req_id();
            // We pose as consumer id u32::MAX - our port: chunk routing
            // happens by the conn, so any unique value works.
            let req = ProducerRequest::StartStream {
                table: self.input_table.clone(),
                consumer_ep: me,
                consumer: ConsumerId(u32::MAX),
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

    /// The deliberate batch flush: republish everything accumulated in
    /// the last `secondary_flush` window, then push to downstreams.
    fn on_flush(&mut self, ctx: &mut Context<'_>) {
        let n = self.batch.len() as u64;
        if n > 0 {
            // The republished batch leaves the accumulation buffer.
            let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * n);
            let proc = self.proc;
            ctx.with_service::<OsModel, _>(|os, _| os.free(proc, heap));
            let cost = self.cfg.costs.insert_base
                + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n);
            let done = self.cpu(ctx, simprof::Component::RgmaSecondary, cost);
            for (probe, tuple) in std::mem::take(&mut self.batch) {
                self.storage.insert(tuple, probe, done);
            }
            let actor = self.endpoint.actor.index() as u64;
            simtrace::with_trace(ctx, |tr, _| {
                tr.record(
                    done,
                    None,
                    actor,
                    simtrace::EventKind::BatchFlush { tuples: n as u32 },
                );
                tr.count(simtrace::Counter::BatchFlushes, 1);
                tr.gauge_set(simtrace::Gauge::BatchOccupancy, 0);
            });
            // Stream to downstream consumers.
            let ep = self.endpoint;
            let mut sends = Vec::new();
            for ds in &mut self.downstreams {
                let (chunk, next) = self.storage.read_from(ds.cursor);
                if !chunk.is_empty() {
                    sends.push((
                        ds.conn,
                        StreamChunk {
                            consumer: ds.consumer,
                            entries: chunk
                                .iter()
                                .map(|e| (e.probe, Arc::clone(&e.tuple)))
                                .collect(),
                        },
                    ));
                }
                ds.cursor = next;
            }
            for (conn, chunk) in sends {
                let bytes = chunk_bytes(&chunk);
                let at = self.cpu(
                    ctx,
                    simprof::Component::RgmaSecondary,
                    self.cfg.costs.stream_send,
                );
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.send_at(ctx, conn, ep, bytes, Box::new(chunk), at);
                });
            }
        }
        ctx.timer(self.cfg.secondary_flush, FlushTick);
    }
}

impl Actor for SecondaryProducer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.endpoint = Endpoint::new(self.node, ctx.self_id());
        let me = self.endpoint;
        let reg = self.registry_ep;
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, reg)
        });
        self.registry_conn = Some(conn);
        // Register our single republished instance (port 0 by convention).
        let rid = self.req_id();
        let req = RegistryRequest::RegisterProducer {
            table: self.output_table.clone(),
            endpoint: Endpoint::with_port(me.node, me.actor, self.my_pid_port),
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/registry/register",
                96,
                Box::new(req),
            );
        });
        ctx.timer(self.cfg.plan_refresh, PlanTick);
        ctx.timer(self.cfg.secondary_flush, FlushTick);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<FlushTick>() {
            Ok(_) => {
                self.on_flush(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlanTick>() {
            Ok(_) => {
                self.lookup_upstream(ctx);
                ctx.timer(self.cfg.plan_refresh, PlanTick);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Upstream chunks from primaries: accumulate into the batch
        // (heap is held until the 30 s flush republishes it).
        let payload = match payload.downcast::<StreamChunk>() {
            Ok(chunk) => {
                let n = chunk.entries.len() as u64;
                self.cpu(
                    ctx,
                    simprof::Component::RgmaSecondary,
                    self.cfg.costs.chunk_ingest_base
                        + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n),
                );
                let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * n);
                let proc = self.proc;
                let _ = ctx.with_service::<OsModel, _>(|os, _| os.alloc(proc, heap));
                self.batch.extend(chunk.entries);
                let occupancy = self.batch.len() as u32;
                let actor = self.endpoint.actor.index() as u64;
                simtrace::with_trace(ctx, |tr, at| {
                    tr.record(
                        at,
                        None,
                        actor,
                        simtrace::EventKind::BatchEnqueue { occupancy },
                    );
                    tr.gauge_set(simtrace::Gauge::BatchOccupancy, u64::from(occupancy));
                });
                telemetry::with_metrics(ctx, |m, _| {
                    m.set_gauge("rgma.secondary.batch_tuples", f64::from(occupancy));
                });
                return;
            }
            Err(p) => p,
        };
        // Registry lookup responses.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(resp) => {
                if Some(resp.req_id) == self.pending_lookup {
                    self.pending_lookup = None;
                    if let Ok(r) = resp.body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.attach_upstream(ctx, endpoints);
                        }
                    }
                }
                return;
            }
            Err(p) => p,
        };
        // Downstream consumers attaching to our output table.
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let HttpRequest { req_id, body, .. } = *req;
        if let Ok(body) = body.downcast::<ProducerRequest>() {
            if let ProducerRequest::StartStream {
                table, consumer, ..
            } = *body
            {
                debug_assert_eq!(table, self.output_table);
                self.downstreams.push(DownStream {
                    conn,
                    consumer,
                    cursor: self.storage.tail_cursor(),
                });
                let done = self.cpu(
                    ctx,
                    simprof::Component::RgmaSecondary,
                    self.cfg.costs.servlet_dispatch,
                );
                let ep = self.endpoint;
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.send_at(
                        ctx,
                        conn,
                        ep,
                        24 + http::RESPONSE_OVERHEAD,
                        Box::new(HttpResponse {
                            req_id,
                            status: 200,
                            body: Box::new(ProducerResponse::StreamStarted),
                        }),
                        done,
                    );
                });
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-secondary-producer"
    }
}
