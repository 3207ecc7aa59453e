#![warn(missing_docs)]
//! # simscope — kernel-plane observability for the gridmon stack
//!
//! Everything that existed before this crate attributes *virtual* time:
//! `simtrace` follows messages through the simulated system, `simprof`
//! charges simulated CPU work to components. Nobody could say where the
//! simulator's own *wall-clock* time goes — which is the number that
//! matters for ROADMAP item 1's 10–100× events/sec kernel overhaul.
//! simscope closes that gap:
//!
//! * [`Site`] — the fixed taxonomy of instrumented hot paths: kernel
//!   event dispatch, queue push/pop, simnet fabric delivery, `OsModel`
//!   CPU metering, JMS selector matching.
//! * [`WallScope`] — a kernel service (same gating shape as
//!   `simtrace::TraceCollector` and `simprof::Profiler`) accumulating
//!   wall-clock nanoseconds per site. Instrumentation sites look it up
//!   with `Context::try_service_mut`; when the service is absent each
//!   site costs one failed type-map probe and nothing else. Reading a
//!   monotonic clock never touches the RNG, the queue, or any actor
//!   state, so scoped runs are byte-identical to plain runs at a fixed
//!   seed (proptest-enforced in `tests/simulation_invariants.rs`).
//! * [`HotpathReport`] — the `gridmon-hotpath/1` exchange format:
//!   line-oriented JSON (hand-rolled, like `gridmon-bench`) plus a
//!   collapsed-stack rendering that reuses simprof's flamegraph format.
//! * [`calibrate_probe_ns`] — measures the cost of one start/record
//!   timing probe pair on this machine, so readers can subtract the
//!   observer overhead from the attributed totals.
//!
//! The kernel's own sites (dispatch, queue push/pop) cannot use the
//! service — `simcore` sits below this crate — so they accumulate into
//! `Simulation::hotpath()` / `OsModel`'s internal counters and are
//! merged into the report by `gridmon-core::run_experiment`.

mod report;

pub use report::{HotpathReport, SiteRow, SCHEMA};

use simcore::{Context, WallAccum};
use std::time::Instant;

/// Instrumented hot-path sites, in fixed report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Kernel event dispatch (actor `handle` callbacks).
    KernelDispatch,
    /// Event-heap push.
    KernelQueuePush,
    /// Event-heap pop.
    KernelQueuePop,
    /// `simnet` fabric send: MTU segmentation, latency/loss draws,
    /// delivery scheduling.
    NetFabricSend,
    /// `OsModel` CPU metering (`execute_metered`).
    OsExecute,
    /// JMS selector matching inside the broker publish/forward paths.
    JmsMatch,
}

/// Number of [`Site`] variants.
pub const SITE_COUNT: usize = 6;

impl Site {
    /// All sites in report order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::KernelDispatch,
        Site::KernelQueuePush,
        Site::KernelQueuePop,
        Site::NetFabricSend,
        Site::OsExecute,
        Site::JmsMatch,
    ];

    /// Stable dotted name used in reports and collapsed stacks.
    pub fn name(self) -> &'static str {
        match self {
            Site::KernelDispatch => "kernel.dispatch",
            Site::KernelQueuePush => "kernel.queue.push",
            Site::KernelQueuePop => "kernel.queue.pop",
            Site::NetFabricSend => "net.fabric.send",
            Site::OsExecute => "os.execute",
            Site::JmsMatch => "jms.match",
        }
    }

    fn index(self) -> usize {
        match self {
            Site::KernelDispatch => 0,
            Site::KernelQueuePush => 1,
            Site::KernelQueuePop => 2,
            Site::NetFabricSend => 3,
            Site::OsExecute => 4,
            Site::JmsMatch => 5,
        }
    }
}

/// Kernel service accumulating wall-clock time per instrumented site.
/// Register it (`Simulation::add_service`) to arm the `start`/`record`
/// probes in simnet and narada; leave it absent for a plain run.
#[derive(Debug, Default)]
pub struct WallScope {
    sites: [WallAccum; SITE_COUNT],
}

impl WallScope {
    /// Empty accumulator set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one timed operation into a site.
    #[inline]
    pub fn record(&mut self, site: Site, nanos: u64) {
        self.sites[site.index()].add(nanos);
    }

    /// Totals for one site.
    pub fn get(&self, site: Site) -> WallAccum {
        self.sites[site.index()]
    }
}

/// Start a timing probe: returns `Some(Instant)` only if a [`WallScope`]
/// is registered, so an un-scoped run never reads the clock.
#[inline]
pub fn start(ctx: &mut Context<'_>) -> Option<Instant> {
    ctx.try_service_mut::<WallScope>().map(|_| Instant::now())
}

/// Close a timing probe opened by [`start`], attributing the elapsed
/// wall-clock nanoseconds to `site`. No-op when `t0` is `None`.
#[inline]
pub fn record(ctx: &mut Context<'_>, site: Site, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        let nanos = t0.elapsed().as_nanos() as u64;
        if let Some(scope) = ctx.try_service_mut::<WallScope>() {
            scope.record(site, nanos);
        }
    }
}

/// Measure the wall-clock cost of one start/record probe pair (two
/// monotonic clock reads plus an elapsed conversion) in nanoseconds, so
/// report readers can subtract observer overhead: a site with N counted
/// operations carries roughly `N * probe_overhead_ns` of measurement
/// cost inside its total.
pub fn calibrate_probe_ns() -> u64 {
    const ITERS: u32 = 10_000;
    let outer = Instant::now();
    let mut sink = 0u64;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        sink = sink.wrapping_add(t0.elapsed().as_nanos() as u64);
    }
    let total = outer.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    total / u64::from(ITERS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FnActor, Payload, SimDuration, Simulation};

    #[test]
    fn site_names_are_unique_and_stable() {
        let names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), SITE_COUNT);
        assert_eq!(Site::ALL[Site::JmsMatch.index()], Site::JmsMatch);
    }

    #[test]
    fn probes_noop_without_service() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut simcore::Context| {
            let t0 = start(ctx);
            assert_eq!(t0, None);
            record(ctx, Site::NetFabricSend, t0);
        }));
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        sim.run_to_completion(10);
    }

    #[test]
    fn probes_accumulate_with_service() {
        let mut sim = Simulation::new(2);
        sim.add_service(WallScope::new());
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut simcore::Context| {
            let t0 = start(ctx);
            assert!(t0.is_some());
            record(ctx, Site::JmsMatch, t0);
        }));
        for i in 0..3u64 {
            sim.schedule(SimDuration::from_secs(i), a, Box::new(()));
        }
        sim.run_to_completion(10);
        let scope = sim.service::<WallScope>().unwrap();
        assert_eq!(scope.get(Site::JmsMatch).count, 3);
        assert_eq!(scope.get(Site::NetFabricSend).count, 0);
    }

    #[test]
    fn calibration_returns_small_positive_overhead() {
        let ns = calibrate_probe_ns();
        // A clock-read pair costs somewhere between sub-ns (aggressively
        // optimized) and a few microseconds (VM with slow vDSO).
        assert!(ns < 100_000, "probe overhead implausibly large: {ns}ns");
    }
}
