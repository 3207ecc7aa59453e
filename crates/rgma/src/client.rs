//! Client-side R-GMA APIs: the Primary Producer client (create + insert)
//! and the subscriber (create consumer + 100 ms polling), managed in bulk
//! by one host actor per driver program — mirroring the paper's Java
//! driver that forked one thread per generator.
//!
//! Host-actor contract: forward [`simnet::Delivery`] payloads to
//! [`RgmaClientSet::handle_delivery`] and [`RgmaTimer`] payloads to
//! [`RgmaClientSet::handle_timer`].

use crate::config::RgmaConfig;
use crate::protocol::{
    ConsumerId, ConsumerRequest, ConsumerResponse, ProducerId, ProducerRequest, ProducerResponse,
    QueryType,
};
use simcore::{Context, SimDuration};
use simnet::{http, ConnId, Delivery, Endpoint, HttpResponse, NetworkFabric, Transport};
use simos::{NodeId, OsModel};
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use telemetry::RttCollector;

/// std's `HashMap` with SipHash under fixed keys. These maps gain and
/// lose an entry per request. Under std's random keys the slots reused
/// and the moment of each rehash differ from run to run, and so does the
/// number of host allocations. Nothing iterates these maps, and their
/// keys are this client's own request, timer and handle ids, so fixed
/// keys change no output and expose no collision risk.
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Timer payload routed back by the host actor.
pub struct RgmaTimer(pub u64);

/// Client-side handle to one producer (== one generator connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProducerHandle(pub u32);

/// Client-side handle to one subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberHandle(pub u32);

/// Client-side handle to one one-time query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle(pub u32);

/// Events surfaced to the host actor.
#[derive(Debug, PartialEq)]
pub enum RgmaEvent {
    /// Producer instance created and usable.
    ProducerReady(ProducerHandle),
    /// Producer creation failed (server refused: OOM / thread limit).
    ProducerFailed(ProducerHandle, String),
    /// An insert was rejected by the server.
    InsertFailed(ProducerHandle, String),
    /// Subscriber's consumer instance created; polling started.
    SubscriberReady(SubscriberHandle),
    /// Subscriber creation failed.
    SubscriberFailed(SubscriberHandle, String),
    /// A poll returned `count` tuples.
    Polled(SubscriberHandle, usize),
    /// A one-time latest/history query completed with its tuples.
    QueryCompleted(QueryHandle, Vec<(telemetry::ProbeId, Arc<wire::Tuple>)>),
    /// A one-time query failed.
    QueryFailed(QueryHandle, String),
}

enum ReqPurpose {
    CreateProducer(ProducerHandle),
    Insert(ProducerHandle),
    CreateConsumer(SubscriberHandle),
    Poll(SubscriberHandle),
    OneTimeQuery(QueryHandle),
}

struct ProducerState {
    conn: ConnId,
    server: Option<ProducerId>,
    table: String,
    /// CreateProducer retries spent (5xx retry policy).
    create_retries: u32,
}

struct SubscriberState {
    conn: ConnId,
    server: Option<ConsumerId>,
    polling: bool,
}

/// Everything needed to retry a synchronous insert with the same probe
/// (and the same freshness stamp — a retry is the same reading).
struct InsertInfo {
    sql: String,
    probe: telemetry::ProbeId,
    published_at: simcore::SimTime,
    retries: u32,
}

enum TimerPurpose {
    Poll(SubscriberHandle),
    InsertRetry {
        handle: ProducerHandle,
        sql: String,
        probe: telemetry::ProbeId,
        published_at: simcore::SimTime,
        retries: u32,
    },
    CreateRetry(ProducerHandle),
}

/// A set of R-GMA client endpoints owned by one host actor.
pub struct RgmaClientSet {
    cfg: RgmaConfig,
    node: NodeId,
    producers: HashMap<ProducerHandle, ProducerState>,
    subscribers: HashMap<SubscriberHandle, SubscriberState>,
    next_handle: u32,
    pending: HashMap<u64, ReqPurpose>,
    /// Outstanding inserts by request id (probe + retry budget).
    insert_info: HashMap<u64, InsertInfo>,
    timers: HashMap<u64, TimerPurpose>,
    next_req: u64,
    next_timer: u64,
}

/// Exponential backoff for the `retries`-th retry.
fn http_backoff(policy: &crate::config::HttpRetryPolicy, retries: u32) -> SimDuration {
    let shift = retries.min(20);
    policy
        .backoff_initial
        .saturating_mul(1u64 << shift)
        .min(policy.backoff_max)
}

impl RgmaClientSet {
    /// New client set on `node`.
    pub fn new(cfg: RgmaConfig, node: NodeId) -> Self {
        RgmaClientSet {
            cfg,
            node,
            producers: HashMap::default(),
            subscribers: HashMap::default(),
            next_handle: 0,
            pending: HashMap::default(),
            insert_info: HashMap::default(),
            timers: HashMap::default(),
            next_req: 0,
            next_timer: 0,
        }
    }

    fn my_ep(&self, ctx: &Context<'_>) -> Endpoint {
        Endpoint::new(self.node, ctx.self_id())
    }

    fn req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Create a Primary Producer publishing into `table` via the producer
    /// servlet at `servlet_ep`. One dedicated HTTP connection per
    /// producer (one server thread), as in the paper's tests.
    pub fn create_producer(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        table: impl Into<String>,
    ) -> ProducerHandle {
        let handle = ProducerHandle(self.next_handle);
        self.next_handle += 1;
        let table: String = table.into();
        let me = self.my_ep(ctx);
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, servlet_ep)
        });
        self.producers.insert(
            handle,
            ProducerState {
                conn,
                server: None,
                table,
                create_retries: 0,
            },
        );
        self.send_create(ctx, handle);
        handle
    }

    /// (Re-)send the CreateProducer request for `handle` on its conn.
    fn send_create(&mut self, ctx: &mut Context<'_>, handle: ProducerHandle) {
        let Some(state) = self.producers.get(&handle) else {
            return;
        };
        let conn = state.conn;
        let table = state.table.clone();
        let me = self.my_ep(ctx);
        let rid = self.req_id();
        self.pending.insert(rid, ReqPurpose::CreateProducer(handle));
        let body = ProducerRequest::CreateProducer { table };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/producer/create",
                96,
                Box::new(body),
            );
        });
    }

    /// Insert one tuple as a full SQL text. Instruments
    /// `before_sending`; `after_sending` fires when the HTTP 200 lands
    /// (insert is synchronous in the R-GMA API).
    pub fn insert(
        &mut self,
        ctx: &mut Context<'_>,
        handle: ProducerHandle,
        sql: String,
    ) -> telemetry::ProbeId {
        let now = ctx.now();
        let lane = ctx.self_id().index() as u32;
        let probe = ctx.service_mut::<RttCollector>().before_sending(lane, now);
        // Freshness plane: the "topic" of an R-GMA reading is the table
        // its producer declares.
        let topic = self.producers.get(&handle).map_or("", |p| p.table.as_str());
        simslo::with_slo(ctx, |slo, at| slo.record_publish(probe, topic, at));
        let actor = ctx.self_id().index() as u64;
        simtrace::with_trace(ctx, |tr, at| {
            tr.record(
                at,
                Some(simtrace::TraceId(probe.0)),
                actor,
                simtrace::EventKind::PublishBegin,
            );
        });
        self.send_insert(ctx, handle, sql, probe, now, 0);
        probe
    }

    /// Send (or retry) an insert carrying `probe` and the original
    /// freshness stamp.
    fn send_insert(
        &mut self,
        ctx: &mut Context<'_>,
        handle: ProducerHandle,
        sql: String,
        probe: telemetry::ProbeId,
        published_at: simcore::SimTime,
        retries: u32,
    ) {
        let state = self.producers.get(&handle).expect("unknown producer");
        let server = state
            .server
            .expect("insert before ProducerReady — wait for the event");
        let conn = state.conn;
        // Client-side HTTP assembly cost.
        let node = self.node;
        let client_cost = self.cfg.costs.client_http;
        let done = ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), client_cost);
            simprof::charge(ctx, simprof::Component::RgmaClient, effective);
            done
        });
        let rid = self.req_id();
        self.pending.insert(rid, ReqPurpose::Insert(handle));
        self.insert_info.insert(
            rid,
            InsertInfo {
                sql: sql.clone(),
                probe,
                published_at,
                retries,
            },
        );
        let bytes = sql.len();
        let me = self.my_ep(ctx);
        let body = ProducerRequest::Insert {
            producer: server,
            sql,
            probe,
            published_at,
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(
                ctx,
                conn,
                me,
                bytes + http::REQUEST_OVERHEAD,
                Box::new(simnet::HttpRequest {
                    req_id: rid,
                    path: "/producer/insert".into(),
                    body: Box::new(body),
                    issued_at: done,
                }),
                done,
            );
        });
    }

    /// Issue a one-time latest/history query against a Consumer servlet
    /// (GMA query/response mode). The result arrives as
    /// [`RgmaEvent::QueryCompleted`].
    pub fn one_time_query(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        query: impl Into<String>,
        query_type: QueryType,
    ) -> QueryHandle {
        let handle = QueryHandle(self.next_handle);
        self.next_handle += 1;
        let me = self.my_ep(ctx);
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, servlet_ep)
        });
        let rid = self.req_id();
        self.pending.insert(rid, ReqPurpose::OneTimeQuery(handle));
        let body = ConsumerRequest::OneTimeQuery {
            query: query.into(),
            query_type,
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/consumer/query",
                128,
                Box::new(body),
            );
        });
        handle
    }

    /// Create a subscriber: a consumer instance running `query`, polled
    /// every `poll_period`.
    pub fn create_subscriber(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        query: impl Into<String>,
    ) -> SubscriberHandle {
        let handle = SubscriberHandle(self.next_handle);
        self.next_handle += 1;
        let me = self.my_ep(ctx);
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, servlet_ep)
        });
        self.subscribers.insert(
            handle,
            SubscriberState {
                conn,
                server: None,
                polling: false,
            },
        );
        let rid = self.req_id();
        self.pending.insert(rid, ReqPurpose::CreateConsumer(handle));
        let body = ConsumerRequest::CreateConsumer {
            query: query.into(),
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/consumer/create",
                128,
                Box::new(body),
            );
        });
        handle
    }

    fn send_poll(&mut self, ctx: &mut Context<'_>, handle: SubscriberHandle) {
        let Some(state) = self.subscribers.get(&handle) else {
            return;
        };
        let Some(server) = state.server else {
            return;
        };
        let conn = state.conn;
        let rid = self.req_id();
        self.pending.insert(rid, ReqPurpose::Poll(handle));
        let me = self.my_ep(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                conn,
                me,
                rid,
                "/consumer/poll",
                32,
                Box::new(ConsumerRequest::Poll { consumer: server }),
            );
        });
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_>, delay: SimDuration, purpose: TimerPurpose) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, purpose);
        ctx.timer(delay, RgmaTimer(token));
    }

    fn arm_poll(&mut self, ctx: &mut Context<'_>, handle: SubscriberHandle) {
        self.arm_timer(ctx, self.cfg.poll_period, TimerPurpose::Poll(handle));
    }

    /// Handle a network delivery addressed to the host actor.
    pub fn handle_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<RgmaEvent> {
        let Ok(resp) = delivery.payload.downcast::<HttpResponse>() else {
            return Vec::new();
        };
        let HttpResponse {
            req_id,
            status,
            body,
        } = *resp;
        let Some(purpose) = self.pending.remove(&req_id) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        match purpose {
            ReqPurpose::CreateProducer(handle) => match body.downcast::<ProducerResponse>() {
                Ok(r) => match *r {
                    ProducerResponse::Created { producer } => {
                        if let Some(s) = self.producers.get_mut(&handle) {
                            s.server = Some(producer);
                        }
                        events.push(RgmaEvent::ProducerReady(handle));
                    }
                    ProducerResponse::Error { reason } => {
                        // Transient server failure (stall / OOM): retry
                        // with backoff when the policy allows it.
                        let retriable = status >= 500
                            && self.cfg.insert_retry.is_some_and(|p| {
                                self.producers
                                    .get(&handle)
                                    .is_some_and(|s| s.create_retries < p.max_retries)
                            });
                        if retriable {
                            let policy = self.cfg.insert_retry.expect("checked");
                            let s = self.producers.get_mut(&handle).expect("checked");
                            let delay = http_backoff(&policy, s.create_retries);
                            s.create_retries += 1;
                            simfault::with_faults(ctx, |inj, _| inj.stats.http_retries += 1);
                            self.arm_timer(ctx, delay, TimerPurpose::CreateRetry(handle));
                        } else {
                            events.push(RgmaEvent::ProducerFailed(handle, reason));
                        }
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::ProducerFailed(
                    handle,
                    format!("unexpected response (status {status})"),
                )),
            },
            ReqPurpose::Insert(handle) => {
                let info = self.insert_info.remove(&req_id);
                match body.downcast::<ProducerResponse>() {
                    Ok(r) => match *r {
                        ProducerResponse::InsertOk => {
                            if let Some(info) = info {
                                // The synchronous insert() has returned.
                                let probe = info.probe;
                                let now = ctx.now();
                                ctx.service_mut::<RttCollector>().after_sending(probe, now);
                                let actor = ctx.self_id().index() as u64;
                                simtrace::with_trace(ctx, |tr, at| {
                                    tr.record(
                                        at,
                                        Some(simtrace::TraceId(probe.0)),
                                        actor,
                                        simtrace::EventKind::PublishEnd,
                                    );
                                });
                            }
                        }
                        ProducerResponse::Error { reason } => {
                            let retriable = status >= 500
                                && info.is_some()
                                && self.cfg.insert_retry.is_some_and(|p| {
                                    info.as_ref().expect("checked").retries < p.max_retries
                                });
                            if retriable {
                                let policy = self.cfg.insert_retry.expect("checked");
                                let info = info.expect("checked");
                                let delay = http_backoff(&policy, info.retries);
                                simfault::with_faults(ctx, |inj, _| inj.stats.http_retries += 1);
                                self.arm_timer(
                                    ctx,
                                    delay,
                                    TimerPurpose::InsertRetry {
                                        handle,
                                        sql: info.sql,
                                        probe: info.probe,
                                        published_at: info.published_at,
                                        retries: info.retries + 1,
                                    },
                                );
                            } else {
                                events.push(RgmaEvent::InsertFailed(handle, reason));
                            }
                        }
                        _ => {}
                    },
                    Err(_) => events.push(RgmaEvent::InsertFailed(handle, "bad response".into())),
                }
            }
            ReqPurpose::CreateConsumer(handle) => match body.downcast::<ConsumerResponse>() {
                Ok(r) => match *r {
                    ConsumerResponse::Created { consumer } => {
                        if let Some(s) = self.subscribers.get_mut(&handle) {
                            s.server = Some(consumer);
                            s.polling = true;
                        }
                        events.push(RgmaEvent::SubscriberReady(handle));
                        self.arm_poll(ctx, handle);
                    }
                    ConsumerResponse::Error { reason } => {
                        events.push(RgmaEvent::SubscriberFailed(handle, reason));
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::SubscriberFailed(handle, "bad response".into())),
            },
            ReqPurpose::OneTimeQuery(handle) => match body.downcast::<ConsumerResponse>() {
                Ok(r) => match *r {
                    ConsumerResponse::QueryResult { entries } => {
                        events.push(RgmaEvent::QueryCompleted(handle, entries));
                    }
                    ConsumerResponse::Error { reason } => {
                        events.push(RgmaEvent::QueryFailed(handle, reason));
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::QueryFailed(handle, "bad response".into())),
            },
            ReqPurpose::Poll(handle) => {
                if let Ok(r) = body.downcast::<ConsumerResponse>() {
                    if let ConsumerResponse::PollResult { entries } = *r {
                        let n = entries.len();
                        // Client-side processing of the poll result.
                        let node = self.node;
                        let cost =
                            self.cfg.costs.client_http + SimDuration::from_micros(50 * n as u64);
                        let done = ctx.with_service::<OsModel, _>(|os, ctx| {
                            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
                            simprof::charge(ctx, simprof::Component::RgmaClient, effective);
                            done
                        });
                        let actor = ctx.self_id().index() as u64;
                        for (probe, tuple) in entries {
                            ctx.service_mut::<RttCollector>()
                                .after_receiving(probe, done);
                            simtrace::with_trace(ctx, |tr, _| {
                                tr.record(
                                    done,
                                    Some(simtrace::TraceId(probe.0)),
                                    actor,
                                    simtrace::EventKind::Delivered,
                                );
                                tr.count(simtrace::Counter::TuplesDelivered, 1);
                            });
                            // Freshness plane: the subscriber has the
                            // tuple once the poll-result processing is
                            // done; the stamp rode on the tuple from the
                            // producer servlet's storage.
                            simslo::with_slo(ctx, |slo, _| {
                                slo.record_delivery(probe, actor as u32, done, tuple.published_at);
                            });
                        }
                        events.push(RgmaEvent::Polled(handle, n));
                    }
                }
                // Schedule the next poll regardless of result.
                if self.subscribers.get(&handle).is_some_and(|s| s.polling) {
                    self.arm_poll(ctx, handle);
                }
            }
        }
        events
    }

    /// Handle a poll or retry timer.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_>, timer: RgmaTimer) {
        let Some(purpose) = self.timers.remove(&timer.0) else {
            return;
        };
        match purpose {
            TimerPurpose::Poll(handle) => self.send_poll(ctx, handle),
            TimerPurpose::InsertRetry {
                handle,
                sql,
                probe,
                published_at,
                retries,
            } => {
                simtrace::with_trace(ctx, |tr, _| {
                    tr.count(simtrace::Counter::Retries, 1);
                });
                if self
                    .producers
                    .get(&handle)
                    .is_some_and(|s| s.server.is_some())
                {
                    self.send_insert(ctx, handle, sql, probe, published_at, retries);
                }
            }
            TimerPurpose::CreateRetry(handle) => {
                simtrace::with_trace(ctx, |tr, _| {
                    tr.count(simtrace::Counter::Retries, 1);
                });
                self.send_create(ctx, handle);
            }
        }
    }

    /// Is the producer usable yet?
    pub fn producer_ready(&self, handle: ProducerHandle) -> bool {
        self.producers
            .get(&handle)
            .is_some_and(|p| p.server.is_some())
    }

    /// Number of producers created through this set.
    pub fn producer_count(&self) -> usize {
        self.producers.len()
    }
}
