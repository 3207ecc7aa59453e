//! Experiment specification, deployment, execution, and result
//! collection — one call reproduces one data point of the paper.
//!
//! The run path has four deterministic stages:
//!
//! 1. [`layout`] — pure arithmetic on the spec: node counts, workload
//!    split, time windows.
//! 2. `build_world` — constructs the whole cluster into one
//!    [`Simulation`].
//! 3. run — `Simulation::run_until` the layout's horizon, on one thread.
//! 4. `finish` — reads every collector from the finished simulation and
//!    derives the result and its artifacts.

use crate::calibration;
use jms::AckMode;
use narada::{BrokerNetwork, ConnSettings, NaradaConfig};
use powergrid::{
    FleetStatsHandle, GridlogFleet, GridlogFleetConfig, GridlogSubscriber, NaradaFleet,
    NaradaFleetConfig, NaradaSubscriber, RgmaFleet, RgmaFleetConfig, RgmaSubscriber, TABLE_SQL,
};
use rgma::{
    ConsumerControl, ConsumerServlet, ProducerControl, ProducerServlet, RegistryActor, RgmaConfig,
    SecondaryProducer,
};
use simcore::{ActorId, SimDuration, SimTime, Simulation};
use simfault::{FaultDriver, FaultInjector, FaultSchedule, FaultStats};
use simnet::{Endpoint, NetworkFabric, Transport};
use simos::{NodeId, OsModel, ProcessId, VmstatLog, VmstatSampler};
use simslo::{SloCollector, SloReport, SloSpec};
use simtrace::{TraceCollector, TraceId, TraceSampler, TraceSummary};
use telemetry::{RttCollector, RttSummary};

/// Which deployment is under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemUnderTest {
    /// One Narada broker on one node.
    NaradaSingle,
    /// A Distributed Broker Network of `brokers` fully-meshed brokers.
    NaradaDbn {
        /// Broker count (paper: 4).
        brokers: usize,
    },
    /// Registry + Primary Producer servlet + Consumer servlet in one
    /// Tomcat on one node.
    RgmaSingle,
    /// Producer servlets on two nodes, Consumer servlets on two nodes
    /// (registry co-located with the first producer node).
    RgmaDistributed,
    /// Single server plus a Secondary Producer in the path (fig 10).
    RgmaSecondary,
    /// One gridlog partitioned-log broker on one node; producers batch
    /// with linger, a two-member consumer group splits the partitions.
    GridlogSingle,
}

impl SystemUnderTest {
    /// Is this an R-GMA deployment?
    pub fn is_rgma(self) -> bool {
        matches!(
            self,
            SystemUnderTest::RgmaSingle
                | SystemUnderTest::RgmaDistributed
                | SystemUnderTest::RgmaSecondary
        )
    }
}

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable name ("fig7/single/2000", "table2/UDP"…).
    pub name: String,
    /// Deployment.
    pub system: SystemUnderTest,
    /// Total simulated generators (concurrent connections).
    pub generators: usize,
    /// Transport for Narada connections (ignored by R-GMA, always HTTP).
    pub transport: Transport,
    /// JMS acknowledge mode (Narada only).
    pub ack_mode: AckMode,
    /// Payload multiplier (Narada "Triple" test).
    pub payload_repeat: usize,
    /// Publish period per generator.
    pub publish_interval: SimDuration,
    /// Messages per generator.
    pub msgs_per_generator: u32,
    /// Warm-up sleep range before first publish.
    pub warmup: (SimDuration, SimDuration),
    /// RNG seed.
    pub seed: u64,
    /// Use the v1.1.3 broadcast DBN (true) or routed ablation (false).
    pub dbn_broadcast: bool,
    /// Override the R-GMA configuration (None = gLite 3.0 defaults).
    pub rgma_config: Option<RgmaConfig>,
    /// Enable `simtrace` lifecycle tracing. Off by default: no collector
    /// service is registered, so every instrumentation site reduces to
    /// one failed type-map probe.
    pub trace: bool,
    /// Scripted fault schedule. Empty by default: no injector service is
    /// registered and no recovery policy is enabled, so fault-free runs
    /// are byte-identical to builds without fault support.
    pub faults: FaultSchedule,
    /// Enable the virtual-time profiler and the metrics plane. Off by
    /// default: no `Profiler`/`MetricsRegistry` service is registered, so
    /// every charge site reduces to one failed type-map probe and the
    /// run is byte-identical to an unprofiled build.
    pub profile: bool,
    /// Enable wall-clock hot-path attribution (`simscope`). Off by
    /// default: no `WallScope` service is registered and the kernel's
    /// internal timers stay disarmed, so every probe reduces to one
    /// failed type-map probe or one `Option` check. Wall-clock reads
    /// never touch the RNG or the event queue, so scoped runs are
    /// byte-identical to plain runs at a fixed seed.
    pub scope: bool,
    /// Data-freshness / SLO accounting (`simslo`). Off by default: no
    /// `SloCollector` service is registered, so every recording site
    /// reduces to one failed type-map probe and the run is
    /// byte-identical to a build without the plane. The publish stamps
    /// ride out-of-band (like the trace id) and cost zero wire bytes,
    /// so enabling it never perturbs timing either.
    pub slo: Option<SloSpec>,
    /// Inert: every run is serial, whatever this holds. It remains (with
    /// [`sharded`](Self::sharded)) only because the wall-time benchmark
    /// under `perfbench/` still sets it for its `shards2` variant; a
    /// later benchmark change drops that variant and this field with it.
    pub shards: usize,
}

impl ExperimentSpec {
    /// A paper-faithful spec with the standard settings; customize from
    /// here.
    pub fn paper_default(
        name: impl Into<String>,
        system: SystemUnderTest,
        generators: usize,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            system,
            generators,
            transport: Transport::Tcp,
            ack_mode: AckMode::Auto,
            payload_repeat: 1,
            publish_interval: calibration::publish_interval(),
            msgs_per_generator: 180,
            warmup: calibration::warmup_range(),
            seed: 0x9e3779b97f4a7c15,
            dbn_broadcast: true,
            rgma_config: None,
            trace: false,
            faults: FaultSchedule::new(),
            profile: false,
            scope: false,
            slo: None,
            shards: 1,
        }
    }

    /// Enable per-message lifecycle tracing for this run.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable the virtual-time profiler and the time-series metrics
    /// plane for this run.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enable wall-clock hot-path attribution for this run.
    pub fn scoped(mut self) -> Self {
        self.scope = true;
        self
    }

    /// Measure data freshness (Age-of-Information) and deadline
    /// compliance against `spec` for this run.
    pub fn with_slo(mut self, spec: SloSpec) -> Self {
        self.slo = Some(spec);
        self
    }

    /// Inert: records `shards` in [`shards`](Self::shards) and changes
    /// nothing else — every run is serial. Kept only for the benchmark's
    /// `shards2` variant, which a later benchmark change removes.
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Inject a scripted fault schedule. Also arms the default client
    /// recovery policies (Narada reconnect, R-GMA HTTP retry and
    /// soft-state refresh) unless an explicit `rgma_config` overrides
    /// them.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// A scaled-down variant for tests and criterion benches: fewer
    /// messages per generator, same mechanisms.
    pub fn scaled(mut self, msgs: u32) -> Self {
        self.msgs_per_generator = msgs;
        self
    }

    /// Total messages this spec will publish.
    pub fn total_messages(&self) -> u64 {
        self.generators as u64 * u64::from(self.msgs_per_generator)
    }
}

/// Trace artifacts produced by a traced run (`spec.trace = true`).
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// JSON Lines export: every event plus the unified resource log
    /// (counter samples merged with vmstat rows).
    pub jsonl: String,
    /// Chrome `trace_event` JSON (open in Perfetto / `chrome://tracing`).
    pub chrome: String,
    /// Per-message PRT/PT/SRT reconstruction.
    pub summary: TraceSummary,
    /// Cross-check failures against the independent `RttCollector`
    /// instants. Always empty in a returned result: `run_experiment`
    /// panics on any disagreement.
    pub disagreements: Vec<String>,
}

/// Profiler and metrics-plane artifacts produced by a profiled run
/// (`spec.profile = true`).
#[derive(Debug, Clone)]
pub struct ProfileArtifacts {
    /// Rendered per-component self-time table (the `repro --profile`
    /// terminal output).
    pub table: String,
    /// Flamegraph-compatible collapsed-stack lines
    /// (`path;to;frame <micros>`).
    pub collapsed: String,
    /// Prometheus text-exposition snapshot of the metrics registry at
    /// the end of the run.
    pub prometheus: String,
    /// Deterministic time-series CSV (`t_s,metric,value`) sampled on the
    /// vmstat cadence.
    pub metrics_csv: String,
    /// Simulated busy time the profiler attributed to components.
    pub attributed: SimDuration,
    /// Total simulated busy time submitted to every CPU in the cluster.
    /// The table's TOTAL row equals this (conservation).
    pub kernel_busy: SimDuration,
    /// `kernel_busy - attributed`; non-zero means a charge site is
    /// missing somewhere.
    pub unattributed: SimDuration,
}

/// Wall-clock hot-path artifacts produced by a scoped run
/// (`spec.scope = true`).
#[derive(Debug, Clone)]
pub struct ScopeArtifacts {
    /// The parsed per-site attribution report.
    pub report: simscope::HotpathReport,
    /// `gridmon-hotpath/1` JSON.
    pub json: String,
    /// Flamegraph-compatible collapsed-stack lines (simprof's format,
    /// wall-clock microseconds).
    pub collapsed: String,
}

/// Freshness / SLO artifacts produced when `spec.slo` was set.
#[derive(Debug, Clone)]
pub struct SloArtifacts {
    /// Per-reading outcome accounting, AoI sawtooth samples, burn
    /// windows and windowed delivery-latency percentiles.
    pub report: SloReport,
    /// Deterministic long-format CSV (`t_s,metric,value`) of the AoI
    /// and burn-window series (the `repro --slo` `slo.csv` file).
    pub csv: String,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Spec name.
    pub name: String,
    /// Requested connection count.
    pub generators: usize,
    /// Message telemetry (RTT, percentiles, loss, decomposition).
    pub summary: RttSummary,
    /// Mean CPU idle fraction across *server* nodes.
    pub server_idle: f64,
    /// Peak memory consumption across server nodes, MB (paper metric).
    pub server_mem_mb: f64,
    /// Connections accepted by the middleware.
    pub connected: u32,
    /// Connections refused (OOM / thread exhaustion).
    pub refused: u32,
    /// Messages the fleets attempted to publish.
    pub published: u64,
    /// Wasted inter-broker messages (DBN broadcast deficiency indicator).
    pub broker_forwards: u64,
    /// Virtual time the run covered.
    pub sim_time: SimTime,
    /// Kernel events processed (cost indicator).
    pub events: u64,
    /// Trace exports and cross-check (only when `spec.trace` was set).
    pub trace: Option<TraceArtifacts>,
    /// Graceful-degradation accounting (only when `spec.faults` was
    /// non-empty): dropped vs delayed vs recovered, per cause.
    pub fault_stats: Option<FaultStats>,
    /// Profiler + metrics artifacts (only when `spec.profile` was set).
    pub profile: Option<ProfileArtifacts>,
    /// Kernel event accounting (always on): per-type counts, timer vs.
    /// message mix, queue-depth high-watermark and depth samples.
    pub kernel: simcore::KernelStats,
    /// Wall-clock hot-path attribution (only when `spec.scope` was set).
    /// Non-deterministic by nature (wall-clock), but producing it never
    /// perturbs the simulation.
    pub scope: Option<ScopeArtifacts>,
    /// Freshness / deadline-SLO accounting (only when `spec.slo` was
    /// set). Derived entirely from the collector's record set.
    pub slo: Option<SloArtifacts>,
    /// Host wall-clock seconds this run took (perf-baseline input; the
    /// only non-deterministic field).
    pub wall_secs: f64,
}

/// Deterministic geometry of one experiment, shared by the build and by
/// `finish`: node counts, workload split, time windows.
struct Layout {
    server_count: usize,
    /// Fleet-hosting client nodes (one more client node hosts the
    /// subscriber program).
    fleet_nodes_n: usize,
    total_nodes: usize,
    per_fleet: Vec<usize>,
    horizon: SimTime,
    steady_from: SimTime,
    steady_to: SimTime,
}

/// Pure arithmetic on the spec — no RNG, no kernel state.
fn layout(spec: &ExperimentSpec) -> Layout {
    let server_count = match spec.system {
        SystemUnderTest::NaradaSingle
        | SystemUnderTest::RgmaSingle
        | SystemUnderTest::GridlogSingle => 1,
        SystemUnderTest::NaradaDbn { brokers } => brokers,
        SystemUnderTest::RgmaDistributed => 4,
        SystemUnderTest::RgmaSecondary => 2,
    };
    // Client nodes: enough for the fleet (≤1000 generators per node; the
    // R-GMA runs used two publishing nodes at 1000 connections, so cap at
    // 500 there — which also spreads connections over both producer
    // servlets in the distributed deployment), plus one node for the
    // subscriber program.
    let per_node_cap = if spec.system.is_rgma() {
        calibration::MAX_GENERATORS_PER_NODE / 2
    } else {
        calibration::MAX_GENERATORS_PER_NODE
    };
    let fleet_nodes_n = spec.generators.div_ceil(per_node_cap).max(1);
    let total_nodes = server_count + fleet_nodes_n + 1;
    let per_fleet = split_evenly(spec.generators, fleet_nodes_n);
    let creation_interval = if spec.system.is_rgma() {
        calibration::rgma_creation_interval()
    } else {
        calibration::narada_creation_interval()
    };
    let max_fleet = per_fleet.iter().copied().max().unwrap_or(0) as u64;
    let ramp = creation_interval.saturating_mul(max_fleet);
    let publishing = spec
        .publish_interval
        .saturating_mul(u64::from(spec.msgs_per_generator));
    let drain = if spec.system == SystemUnderTest::RgmaSecondary {
        SimDuration::from_secs(120)
    } else if spec.system.is_rgma() {
        SimDuration::from_secs(30)
    } else {
        SimDuration::from_secs(10)
    };
    Layout {
        server_count,
        fleet_nodes_n,
        total_nodes,
        per_fleet,
        horizon: SimTime::ZERO + ramp + spec.warmup.1 + publishing + drain,
        steady_from: SimTime::ZERO + ramp + spec.warmup.1,
        steady_to: SimTime::ZERO + ramp + publishing,
    }
}

/// Build artifacts `finish` needs: `Rc` stats handles the world's actors
/// share with the driver.
struct WorldHandles {
    fleet_stats: Vec<FleetStatsHandle>,
    #[allow(dead_code)]
    sub_stats: Vec<FleetStatsHandle>,
    broker_stats: Vec<narada::StatsHandle>,
}

/// Construct the whole cluster into `sim`. Actor registration order
/// fixes actor indices, and with them the per-actor RNG streams and
/// same-instant tie-breaking, so it must not change.
fn build_world(spec: &ExperimentSpec, lay: &Layout, sim: &mut Simulation) -> WorldHandles {
    // --- Cluster ---------------------------------------------------
    let mut os = OsModel::new();
    let mut server_nodes = Vec::new();
    for i in 0..lay.server_count {
        server_nodes.push(os.add_node(calibration::hydra_server(format!("hydra{}", i + 1))));
    }
    let mut client_nodes = Vec::new();
    for i in 0..=lay.fleet_nodes_n {
        client_nodes.push(os.add_node(calibration::hydra_client(format!(
            "hydra{}",
            lay.server_count + i + 1
        ))));
    }
    sim.add_service(NetworkFabric::new(
        calibration::hydra_fabric(),
        lay.total_nodes,
    ));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());
    if spec.trace {
        sim.add_service(TraceCollector::new());
    }
    if !spec.faults.is_empty() {
        // The injector owns a private RNG stream, so registering it does
        // not perturb the kernel RNG; with an empty schedule it is not
        // registered at all and every fault probe is a no-op.
        sim.add_service(FaultInjector::new(spec.seed));
    }
    if spec.profile {
        sim.add_service(simprof::Profiler::new());
        sim.add_service(telemetry::MetricsRegistry::new());
    }
    if spec.slo.is_some() {
        // Pure bookkeeping keyed by content-derived probe ids: recording
        // never touches the RNG or the event queue, so SLO-enabled runs
        // are byte-identical to plain runs on every other artifact.
        sim.add_service(SloCollector::new());
    }
    if spec.scope {
        // Arm the kernel's internal dispatch/queue timers and register the
        // service the simnet/narada probes look up. Wall-clock reads never
        // touch simulation state, so this cannot change the run.
        sim.enable_hotpath_timing();
        sim.add_service(simscope::WallScope::new());
    }

    // Server processes.
    let server_procs: Vec<ProcessId> = server_nodes
        .iter()
        .map(|&n| {
            os.add_process(
                n,
                if spec.system.is_rgma() {
                    calibration::rgma_server_process()
                } else {
                    calibration::narada_broker_process()
                },
            )
        })
        .collect();
    // Driver processes.
    let client_procs: Vec<ProcessId> = client_nodes
        .iter()
        .map(|&n| os.add_process(n, calibration::driver_process()))
        .collect();
    if spec.scope {
        // `execute_metered` has no Context access, so the OS model meters
        // its own wall time instead of using the WallScope service.
        os.enable_wall_metering();
    }
    sim.add_service(os);
    sim.add_actor(VmstatSampler::new(
        SimDuration::from_secs(1),
        server_nodes.clone(),
    ));
    // Stop-the-world GC pauses on the middleware JVMs (the latency-tail
    // mechanism; see simos::gc).
    let gc_cfg = if spec.system.is_rgma() {
        simos::GcConfig::rgma_server()
    } else {
        simos::GcConfig::narada_broker()
    };
    for (&node, &proc) in server_nodes.iter().zip(&server_procs) {
        sim.add_actor(simos::GcPauser::new(gc_cfg.clone(), node, proc));
    }

    // --- Middleware + workload -------------------------------------
    let mut fleet_stats: Vec<FleetStatsHandle> = Vec::new();
    let mut sub_stats: Vec<FleetStatsHandle> = Vec::new();
    let mut broker_stats: Vec<narada::StatsHandle> = Vec::new();
    // Fault targets, filled in by the deployment branches below.
    let mut fault_brokers: Vec<ActorId> = Vec::new();
    let mut fault_registry: Option<ActorId> = None;

    match spec.system {
        SystemUnderTest::NaradaSingle | SystemUnderTest::NaradaDbn { .. } => {
            let ncfg = if spec.dbn_broadcast {
                NaradaConfig::v1_1_3()
            } else {
                NaradaConfig::routed()
            };
            // Brokers.
            let hosts: Vec<(NodeId, ProcessId)> = server_nodes
                .iter()
                .copied()
                .zip(server_procs.iter().copied())
                .collect();
            let endpoints: Vec<Endpoint> = if hosts.len() == 1 {
                let broker = narada::Broker::new(ncfg.clone(), hosts[0].0, hosts[0].1);
                broker_stats.push(broker.stats_handle());
                let id = sim.add_actor(broker);
                vec![Endpoint::new(hosts[0].0, id)]
            } else {
                let network =
                    BrokerNetwork::deploy(&mut *sim, &ncfg, &hosts, SimDuration::from_millis(200));
                broker_stats.extend(network.stats.iter().cloned());
                network.endpoints
            };
            fault_brokers = endpoints.iter().map(|ep| ep.actor).collect();
            let settings = ConnSettings {
                transport: spec.transport,
                ack_mode: spec.ack_mode,
                reconnect: if spec.faults.is_empty() {
                    None
                } else {
                    Some(narada::ReconnectPolicy::default())
                },
            };
            // Fig 5 topology: "Publishers connect to publishing brokers.
            // Subscribers connect to subscribing brokers." The last broker
            // serves subscribers; the rest take publisher connections, so
            // every measured delivery crosses the broker network — which
            // v1.1.3 floods to every peer ("data congestion").
            let pub_eps: Vec<Endpoint> = if endpoints.len() > 1 {
                endpoints[..endpoints.len() - 1].to_vec()
            } else {
                endpoints.clone()
            };
            let sub_eps: Vec<Endpoint> = if endpoints.len() > 1 {
                endpoints[endpoints.len() - 1..].to_vec()
            } else {
                endpoints.clone()
            };
            // Fleets: fleet i connects to broker i % n.
            let mut first_id = 0u32;
            for (i, &n_gens) in lay.per_fleet.iter().enumerate() {
                let broker_ep = pub_eps[i % pub_eps.len()];
                let fleet = NaradaFleet::new(NaradaFleetConfig {
                    node: client_nodes[i],
                    proc: client_procs[i],
                    broker_ep,
                    n_generators: n_gens,
                    first_id,
                    creation_interval: calibration::narada_creation_interval(),
                    warmup: spec.warmup,
                    publish_interval: spec.publish_interval,
                    settings,
                    payload_repeat: spec.payload_repeat,
                    msgs_per_generator: spec.msgs_per_generator,
                    narada: ncfg.clone(),
                });
                fleet_stats.push(fleet.stats_handle());
                sim.add_actor(fleet);
                first_id += n_gens as u32;
            }
            // Subscribers: one per subscribing broker, on the dedicated
            // client node.
            let sub_node = *client_nodes.last().expect("at least one client node");
            for ep in &sub_eps {
                let sub = NaradaSubscriber::new(sub_node, *ep, settings, ncfg.clone());
                sub_stats.push(sub.stats_handle());
                sim.add_actor(sub);
            }
        }
        SystemUnderTest::GridlogSingle => {
            let gcfg = gridlog::GridlogConfig::default();
            let broker = gridlog::LogBroker::new(gcfg.clone(), server_nodes[0], server_procs[0]);
            let id = sim.add_actor(broker);
            let broker_ep = Endpoint::new(server_nodes[0], id);
            fault_brokers = vec![id];
            let reconnect = if spec.faults.is_empty() {
                None
            } else {
                Some(gridlog::ReconnectPolicy::default())
            };
            // The JMS acknowledge axis maps onto Kafka's offset axis:
            // CLIENT_ACKNOWLEDGE ↦ committed-offset resume (zero loss
            // across a broker crash), AUTO_ACKNOWLEDGE ↦
            // auto.offset.reset=latest (the crash window is lost).
            let reset = if spec.ack_mode == AckMode::Client {
                gridlog::OffsetReset::Committed
            } else {
                gridlog::OffsetReset::Latest
            };
            let mut first_id = 0u32;
            for (i, &n_gens) in lay.per_fleet.iter().enumerate() {
                let fleet = GridlogFleet::new(GridlogFleetConfig {
                    node: client_nodes[i],
                    proc: client_procs[i],
                    broker_ep,
                    n_generators: n_gens,
                    first_id,
                    creation_interval: calibration::narada_creation_interval(),
                    warmup: spec.warmup,
                    publish_interval: spec.publish_interval,
                    payload_repeat: spec.payload_repeat,
                    msgs_per_generator: spec.msgs_per_generator,
                    reconnect,
                    gridlog: gcfg.clone(),
                });
                fleet_stats.push(fleet.stats_handle());
                sim.add_actor(fleet);
                first_id += n_gens as u32;
            }
            // One consumer host with a two-member group on the dedicated
            // client node: the partitions split between the members.
            let sub_node = *client_nodes.last().expect("at least one client node");
            let sub = GridlogSubscriber::new(sub_node, broker_ep, 2, reset, reconnect, gcfg);
            sub_stats.push(sub.stats_handle());
            sim.add_actor(sub);
        }
        SystemUnderTest::RgmaSingle
        | SystemUnderTest::RgmaDistributed
        | SystemUnderTest::RgmaSecondary => {
            let mut rcfg = spec
                .rgma_config
                .clone()
                .unwrap_or_else(RgmaConfig::glite_3_0);
            if !spec.faults.is_empty() && spec.rgma_config.is_none() {
                // Default recovery policies ride along with the faults:
                // insert retry-on-5xx and soft-state re-registration.
                rcfg.insert_retry = Some(rgma::HttpRetryPolicy::default());
                rcfg.soft_state_refresh = Some(SimDuration::from_secs(10));
            }
            // Registry always on server node 0.
            let reg = sim.add_actor(RegistryActor::new(
                rcfg.clone(),
                server_nodes[0],
                server_procs[0],
            ));
            fault_registry = Some(reg);
            let reg_ep = Endpoint::new(server_nodes[0], reg);
            // Producer/Consumer servlets.
            let (prod_hosts, cons_hosts): (Vec<usize>, Vec<usize>) = match spec.system {
                SystemUnderTest::RgmaSingle | SystemUnderTest::RgmaSecondary => (vec![0], vec![0]),
                SystemUnderTest::RgmaDistributed => (vec![0, 1], vec![2, 3]),
                _ => unreachable!(),
            };
            let mut prod_eps = Vec::new();
            for &h in &prod_hosts {
                let p = sim.add_actor(ProducerServlet::new(
                    rcfg.clone(),
                    server_nodes[h],
                    server_procs[h],
                    reg_ep,
                ));
                sim.schedule(
                    SimDuration::ZERO,
                    p,
                    Box::new(ProducerControl::DeclareTable {
                        sql: TABLE_SQL.into(),
                    }),
                );
                prod_eps.push(Endpoint::new(server_nodes[h], p));
            }
            let mut cons_eps = Vec::new();
            for &h in &cons_hosts {
                let c = sim.add_actor(ConsumerServlet::new(
                    rcfg.clone(),
                    server_nodes[h],
                    server_procs[h],
                    reg_ep,
                ));
                sim.schedule(
                    SimDuration::ZERO,
                    c,
                    Box::new(ConsumerControl::DeclareTable {
                        sql: TABLE_SQL.into(),
                    }),
                );
                cons_eps.push(Endpoint::new(server_nodes[h], c));
            }
            // The fig-10 chain: a Secondary Producer on the second node.
            let subscriber_table = if spec.system == SystemUnderTest::RgmaSecondary {
                let sp = SecondaryProducer::new(
                    rcfg.clone(),
                    server_nodes[1],
                    server_procs[1],
                    reg_ep,
                    powergrid::TABLE,
                    "generator_archive",
                );
                sim.add_actor(sp);
                "generator_archive"
            } else {
                powergrid::TABLE
            };
            // Fleets spread over producer servlets.
            let mut first_id = 0u32;
            for (i, &n_gens) in lay.per_fleet.iter().enumerate() {
                let fleet = RgmaFleet::new(RgmaFleetConfig {
                    node: client_nodes[i],
                    proc: client_procs[i],
                    producer_ep: prod_eps[i % prod_eps.len()],
                    n_generators: n_gens,
                    first_id,
                    creation_interval: calibration::rgma_creation_interval(),
                    warmup: spec.warmup,
                    publish_interval: spec.publish_interval,
                    msgs_per_generator: spec.msgs_per_generator,
                    rgma: rcfg.clone(),
                });
                fleet_stats.push(fleet.stats_handle());
                sim.add_actor(fleet);
                first_id += n_gens as u32;
            }
            // One subscriber per consumer servlet.
            let sub_node = *client_nodes.last().expect("at least one client node");
            for ep in &cons_eps {
                let sub = RgmaSubscriber::new(
                    sub_node,
                    *ep,
                    format!("SELECT * FROM {subscriber_table}"),
                    rcfg.clone(),
                );
                sub_stats.push(sub.stats_handle());
                sim.add_actor(sub);
            }
        }
    }

    // Conditional observation/fault actors register *after* every
    // production actor: per-actor RNG streams are keyed by actor index, so
    // an actor that only exists in instrumented runs must not shift the
    // indices (and hence the randomness) of the actors common to all runs.
    if spec.trace {
        // Counters sampled on the same cadence as the vmstat sampler so
        // the unified resource log interleaves 1:1.
        sim.add_actor(TraceSampler::new(SimDuration::from_secs(1)));
    }
    // The driver is added last so its `on_start` timers land after every
    // deployment actor exists; targets that a schedule names but the
    // deployment lacks (e.g. a registry in a Narada run) are ignored.
    if !spec.faults.is_empty() {
        sim.add_actor(FaultDriver::new(
            spec.faults.clone(),
            fault_brokers,
            fault_registry,
        ));
    }

    // Build wiring complete: runtime connection ids switch to
    // opener-derived packing (see `simnet::ConnId`).
    sim.service_mut::<NetworkFabric>()
        .expect("fabric registered")
        .finish_build();

    WorldHandles {
        fleet_stats,
        sub_stats,
        broker_stats,
    }
}

/// The whole-run `probes_in_flight` gauge series: +1 at each publish
/// instant, −1 at each delivery instant, cumulative. Derived from the
/// finished RTT collector and spliced into the replayed metrics registry
/// at the sample instants.
fn probes_in_flight_series(rtt: &RttCollector) -> Vec<(SimTime, f64)> {
    let mut deltas: Vec<(SimTime, i64)> = Vec::new();
    for id in rtt.probe_ids() {
        let Some(i) = rtt.instants(id) else { continue };
        deltas.push((i.before_sending, 1));
        if let Some(t) = i.after_receiving {
            deltas.push((t, -1));
        }
    }
    deltas.sort_unstable();
    let mut series: Vec<(SimTime, f64)> = Vec::new();
    let mut level = 0i64;
    for (t, d) in deltas {
        level += d;
        match series.last_mut() {
            Some(last) if last.0 == t => last.1 = level as f64,
            _ => series.push((t, level as f64)),
        }
    }
    series
}

/// Read every collector from the finished simulation and derive the
/// result. The post-run cross-checks (trace vs. RTT instants, carried
/// vs. recorded SLO publish stamps) are hard assertions: each compares
/// two independent instrumentation paths, so a disagreement is a bug.
fn finish(
    spec: &ExperimentSpec,
    lay: &Layout,
    mut sim: Simulation,
    world: &WorldHandles,
    wall_secs: f64,
) -> ExperimentResult {
    let now = sim.now();
    let kernel = sim.stats();
    let mut trace_collector = sim.service_mut::<TraceCollector>().map(std::mem::take);
    let metrics = sim
        .service_mut::<telemetry::MetricsRegistry>()
        .map(std::mem::take);
    let rtt = sim.service::<RttCollector>().expect("collector registered");
    let vm = sim.service::<VmstatLog>().expect("vmstat registered");
    let os = sim.service::<OsModel>().expect("os registered");
    let summary = rtt.summary();

    let server_nodes: Vec<NodeId> = (0..lay.server_count).map(|i| NodeId(i as u16)).collect();
    // CPU idle over the steady publishing window (excludes the ramp).
    let idles: Vec<f64> = server_nodes
        .iter()
        .filter_map(|&n| {
            vm.mean_idle_between(n, lay.steady_from, lay.steady_to.max(lay.steady_from))
        })
        .collect();
    let server_idle = if idles.is_empty() {
        1.0
    } else {
        idles.iter().sum::<f64>() / idles.len() as f64
    };
    let mems: Vec<u64> = server_nodes
        .iter()
        .filter_map(|&n| vm.peak_mem(n))
        .collect();
    let server_mem_mb = mems
        .iter()
        .map(|&m| m as f64 / (1024.0 * 1024.0))
        .fold(0.0f64, f64::max);

    let trace = trace_collector.as_mut().map(|tr| {
        tr.finish();
        let trace_summary = TraceSummary::from_collector(tr);
        // Cross-check: every probe the RttCollector saw must decompose to
        // the exact same four instants in the trace.
        let mut disagreements = Vec::new();
        for id in rtt.probe_ids() {
            let Some(i) = rtt.instants(id) else { continue };
            if let Some(err) = trace_summary.check_probe(
                TraceId(id.0),
                i.before_sending,
                i.after_sending,
                i.before_receiving,
                i.after_receiving,
            ) {
                disagreements.push(err);
            }
        }
        assert!(
            disagreements.is_empty(),
            "trace/RttCollector cross-check failed: {disagreements:?}"
        );
        // Unified resource log: vmstat rows ride along with the counter
        // samples in the JSONL export.
        let resources: Vec<simtrace::export::ResourceRow> = vm
            .samples()
            .iter()
            .map(|s| simtrace::export::ResourceRow {
                at: s.at,
                node: u64::from(s.node.0),
                idle: s.idle,
                mem_bytes: s.mem_bytes,
            })
            .collect();
        TraceArtifacts {
            jsonl: simtrace::export::jsonl(tr, &resources),
            chrome: simtrace::export::chrome_trace(tr),
            summary: trace_summary,
            disagreements,
        }
    });

    let slo_state = spec.slo.as_ref().map(|slo_spec| {
        let col = sim
            .service::<SloCollector>()
            .expect("slo collector registered");
        let report = col.report(
            slo_spec,
            now,
            simslo::SAMPLE_CADENCE,
            simslo::DEFAULT_WINDOW,
        );
        // The carried stamp and the collector's own publish record are
        // independent paths to the same instant.
        assert_eq!(
            report.stamp_disagreements, 0,
            "carried publish stamps disagree with recorded publish instants"
        );
        (col, report)
    });

    let profile = sim.service::<simprof::Profiler>().map(|p| {
        let report = p.report(os.total_submitted_work());
        let mut derived: Vec<(String, Vec<(SimTime, f64)>)> =
            vec![("probes_in_flight".to_string(), probes_in_flight_series(rtt))];
        if let (Some((col, _)), Some(slo_spec)) = (&slo_state, &spec.slo) {
            derived.extend(col.metric_series(slo_spec.deadline, now, simslo::SAMPLE_CADENCE));
        }
        let metrics = metrics
            .expect("metrics registered with the profiler")
            .replayed(&derived);
        ProfileArtifacts {
            table: report
                .table(format!("{} — self time by component", spec.name))
                .render(),
            collapsed: p.collapsed(),
            prometheus: metrics.prometheus(),
            metrics_csv: metrics.csv(),
            attributed: report.attributed,
            kernel_busy: report.kernel_busy,
            unattributed: report.unattributed,
        }
    });

    let scope = sim.hotpath().map(|hp| {
        let ws = sim
            .service::<simscope::WallScope>()
            .expect("scope registered");
        let mut report = simscope::HotpathReport::new(&spec.name, wall_secs);
        report.push(simscope::Site::KernelDispatch.name(), hp.dispatch);
        report.push(simscope::Site::KernelQueuePush.name(), hp.queue_push);
        report.push(simscope::Site::KernelQueuePop.name(), hp.queue_pop);
        report.push(
            simscope::Site::NetFabricSend.name(),
            ws.get(simscope::Site::NetFabricSend),
        );
        report.push(
            simscope::Site::JmsMatch.name(),
            ws.get(simscope::Site::JmsMatch),
        );
        if let Some(w) = os.wall_metering() {
            report.push(simscope::Site::OsExecute.name(), w);
        }
        ScopeArtifacts {
            json: report.to_json(),
            collapsed: report.collapsed(),
            report,
        }
    });

    let fault_stats = sim.service::<FaultInjector>().map(|inj| inj.stats);

    let slo = slo_state.map(|(_, report)| SloArtifacts {
        csv: report.csv(),
        report,
    });

    ExperimentResult {
        name: spec.name.clone(),
        generators: spec.generators,
        summary,
        server_idle,
        server_mem_mb,
        connected: world.fleet_stats.iter().map(|s| s.borrow().connected).sum(),
        refused: world.fleet_stats.iter().map(|s| s.borrow().refused).sum(),
        published: world.fleet_stats.iter().map(|s| s.borrow().published).sum(),
        broker_forwards: world
            .broker_stats
            .iter()
            .map(|s| s.borrow().forwarded)
            .sum(),
        sim_time: now,
        events: kernel.events_processed,
        trace,
        fault_stats,
        profile,
        kernel,
        scope,
        slo,
        wall_secs,
    }
}

/// Deploy and run one experiment to completion on one thread. Same seed +
/// same spec ⇒ byte-identical results.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let wall_start = std::time::Instant::now();
    let lay = layout(spec);
    let mut sim = Simulation::new(spec.seed);
    let world = build_world(spec, &lay, &mut sim);
    sim.run_until(lay.horizon);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    finish(spec, &lay, sim, &world, wall_secs)
}

/// Split `total` into `parts` nearly equal chunks.
fn split_evenly(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_sums() {
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(4000, 4), vec![1000; 4]);
        assert_eq!(split_evenly(1, 1), vec![1]);
        assert_eq!(split_evenly(0, 2), vec![0, 0]);
    }

    #[test]
    fn spec_helpers() {
        let spec =
            ExperimentSpec::paper_default("x", SystemUnderTest::NaradaSingle, 800).scaled(10);
        assert_eq!(spec.total_messages(), 8000);
        assert!(!spec.system.is_rgma());
        assert!(SystemUnderTest::RgmaSingle.is_rgma());
    }

    #[test]
    fn small_narada_experiment_runs_end_to_end() {
        let spec = ExperimentSpec::paper_default("smoke/narada", SystemUnderTest::NaradaSingle, 20)
            .scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 100);
        assert_eq!(r.summary.received, 100);
        assert_eq!(r.connected, 20);
        assert_eq!(r.refused, 0);
        assert!(r.summary.rtt_mean_ms > 0.5 && r.summary.rtt_mean_ms < 50.0);
        assert!(r.server_idle > 0.5, "20 conns should leave the broker idle");
        assert!(r.events > 0);
    }

    #[test]
    fn small_gridlog_experiment_runs_end_to_end() {
        let spec =
            ExperimentSpec::paper_default("smoke/gridlog", SystemUnderTest::GridlogSingle, 20)
                .scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 100);
        assert_eq!(r.summary.received, 100, "fault-free log loses nothing");
        assert_eq!(r.connected, 20);
        assert_eq!(r.refused, 0);
        // Produce RTT is linger-dominated: slower than narada's ~5 ms
        // per-message path, far faster than R-GMA's ~905 ms poll chain.
        assert!(
            r.summary.rtt_mean_ms > 1.0 && r.summary.rtt_mean_ms < 600.0,
            "rtt {}",
            r.summary.rtt_mean_ms
        );
        assert!(r.events > 0);
    }

    #[test]
    fn small_rgma_experiment_runs_end_to_end() {
        let spec =
            ExperimentSpec::paper_default("smoke/rgma", SystemUnderTest::RgmaSingle, 10).scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 50);
        assert_eq!(r.summary.received, 50, "warm-up wait prevents loss");
        assert!(
            r.summary.rtt_mean_ms > 100.0,
            "R-GMA is slow: {}",
            r.summary.rtt_mean_ms
        );
        assert!(r.summary.rtt_mean_ms > 0.0);
    }

    #[test]
    fn identical_seeds_identical_results() {
        let spec = ExperimentSpec::paper_default("det/narada", SystemUnderTest::NaradaSingle, 10)
            .scaled(3);
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.summary.rtt_mean_ms, b.summary.rtt_mean_ms);
        assert_eq!(a.events, b.events);
        let mut spec2 = spec.clone();
        spec2.seed += 1;
        let c = run_experiment(&spec2);
        assert_ne!(a.summary.rtt_mean_ms, c.summary.rtt_mean_ms);
    }

    #[test]
    fn slo_plane_accounts_for_every_reading() {
        for system in [
            SystemUnderTest::NaradaSingle,
            SystemUnderTest::GridlogSingle,
            SystemUnderTest::RgmaSingle,
        ] {
            let spec = ExperimentSpec::paper_default("slo/smoke", system, 8)
                .scaled(3)
                .with_slo(SloSpec::grid_default());
            let r = run_experiment(&spec);
            let slo = r.slo.as_ref().expect("slo artifacts present");
            let rep = &slo.report;
            assert_eq!(rep.published, 24, "{system:?}: every publish recorded once");
            assert_eq!(
                rep.on_time + rep.late + rep.lost,
                rep.published,
                "{system:?}: outcomes partition the readings"
            );
            assert!(rep.delivered > 0, "{system:?}: deliveries recorded");
            assert_eq!(rep.stamp_disagreements, 0);
            assert!(slo.csv.starts_with("t_s,metric,value\n"));
            // Fault-free smoke runs at tiny load meet the grid default.
            assert!(rep.compliant, "{system:?}: {rep:?}");
        }
    }

    #[test]
    fn slo_runs_leave_other_artifacts_untouched() {
        let plain =
            ExperimentSpec::paper_default("slo/inert", SystemUnderTest::NaradaSingle, 8).scaled(3);
        let slo = plain.clone().with_slo(SloSpec::grid_default());
        let a = run_experiment(&plain);
        let b = run_experiment(&slo);
        assert!(a.slo.is_none());
        assert_eq!(a.summary.rtt_mean_ms, b.summary.rtt_mean_ms);
        assert_eq!(a.events, b.events);
        assert_eq!(a.kernel.determinism_digest(), b.kernel.determinism_digest());
    }
}
