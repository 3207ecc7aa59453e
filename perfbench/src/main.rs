//! The repository's benchmark: host wall time per delivered reading on
//! four paper workloads, with per-layer counters and a traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Single process, single thread (except the one `.sharded(2)` variant of
//! the traced run), offline: each run is a fixed number of generators ×
//! readings in virtual time through `gridmon_core::run_experiment` on the
//! serial kernel, executed as fast as the host allows. `--trace 0` prints
//! the end-to-end metrics with every observation plane off; `--trace 1`
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; progress and a metric table go to standard error.
//! `perfbench/README.md` maps every metric to its layer.

mod alloc;
mod calib;
mod layers;
mod spans;
mod workload;

use gridmon_core::{run_experiment, ExperimentResult, ExperimentSpec, SloSpec};
use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Zero-reading runs per set-up measurement: at least this many, more
/// while under [`SETUP_BUDGET`], never more than [`SETUP_MAX`].
const SETUP_MIN: usize = 7;
const SETUP_MAX: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::PAPER_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("--seconds {value}: want a whole number >= 1"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One checked run.
struct Run {
    wall: f64,
    /// Host-speed probe time around the run (mean of before and after).
    probe: f64,
    usage: alloc::Usage,
    result: ExperimentResult,
}

impl Run {
    fn received(&self) -> f64 {
        self.result.summary.received as f64
    }

    /// Wall seconds at the host speed where the probe takes
    /// [`calib::NOMINAL_S`].
    fn steady_wall(&self) -> f64 {
        self.wall / self.probe * calib::NOMINAL_S
    }

    fn us_per_reading(&self) -> f64 {
        self.steady_wall() * 1e6 / self.received()
    }
}

/// Runs workloads and keeps the books: runs attempted and failed,
/// faults that make the whole result incorrect, and allocation counts
/// that did not repeat.
struct Bench {
    workload: &'static Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    /// Benchmark faults of the allocation self-check. Outputs stay
    /// correct, so these are reported but do not fail the result; the
    /// first count stands in the metrics, never an average.
    alloc_faults: Vec<String>,
    /// First digest and allocation usage seen per variant and seed.
    seen: BTreeMap<(&'static str, u64), (u64, Option<alloc::Usage>)>,
    spans: Option<Spans>,
    probe: calib::Probe,
    /// The probe time measured right after the previous run, which
    /// doubles as the time right before the next.
    last_probe: Option<f64>,
}

impl Bench {
    /// Run `spec` once as `variant`, checking its outputs. Digests must
    /// agree among runs of one variant and with `same_as` (a variant
    /// whose outputs this one must reproduce), and serial runs of one
    /// variant must allocate exactly alike. Returns `None` for a failed
    /// run.
    fn run(
        &mut self,
        variant: &'static str,
        spec: &ExperimentSpec,
        same_as: Option<&'static str>,
    ) -> Option<Run> {
        self.attempted += 1;
        let before = match self.last_probe.take() {
            Some(p) => p,
            None => self.probe.time(),
        };
        let span = self.spans.as_mut().map(|s| {
            let id = s.enter("core.run_experiment");
            s.arg(id, "variant", variant);
            s.arg(id, "shards", spec.shards);
            id
        });
        let meter = alloc::Meter::start();
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(spec)));
        let wall = t.elapsed().as_secs_f64();
        let usage = meter.finish();
        if let (Some(s), Some(id)) = (self.spans.as_mut(), span) {
            s.exit(id);
        }
        let after = self.probe.time();
        self.last_probe = Some(after);
        let probe = (before + after) / 2.0;
        let result = match outcome {
            Ok(r) => r,
            Err(_) => {
                self.failed += 1;
                eprintln!("run {variant} shards={} PANICKED", spec.shards);
                return None;
            }
        };
        let digest = workload::digest(&result);
        eprintln!(
            "run {variant} shards={} wall={wall:.4}s probe={probe:.4}s sent={} received={} events={} allocs={} digest={digest:016x}",
            spec.shards, result.summary.sent, result.summary.received, result.events, usage.allocs
        );
        if let Err(e) = self.check(variant, spec, &result, digest, same_as) {
            self.failed += 1;
            eprintln!("run {variant} FAILED: {e}");
            return None;
        }
        // Sharded runs allocate on several threads, which the counters
        // do not count exactly.
        if spec.shards == 1 {
            let key = (variant, spec.seed);
            let first = &mut self.seen.get_mut(&key).expect("checked run recorded").1;
            match first {
                None => *first = Some(usage),
                Some(u) if (u.allocs, u.bytes) != (usage.allocs, usage.bytes) => {
                    self.alloc_faults.push(format!(
                        "{variant} seed {:#x}: allocations did not repeat: {} allocs / {} B, then {} / {}",
                        spec.seed, u.allocs, u.bytes, usage.allocs, usage.bytes
                    ));
                }
                Some(_) => {}
            }
        }
        Some(Run {
            wall,
            probe,
            usage,
            result,
        })
    }

    fn check(
        &mut self,
        variant: &'static str,
        spec: &ExperimentSpec,
        r: &ExperimentResult,
        digest: u64,
        same_as: Option<&'static str>,
    ) -> Result<(), String> {
        self.workload.check(spec, r)?;
        // Reference digests describe plain runs; armed variants are held
        // to their plain counterpart through `same_as` instead.
        let reference = match variant {
            "plain" | "setup" => self.workload.reference(spec.seed, spec.msgs_per_generator),
            _ => None,
        };
        if let Some(reference) = reference {
            if digest != reference {
                return Err(format!(
                    "digest {digest:016x} != reference {reference:016x}"
                ));
            }
        }
        if let Some(base) = same_as {
            match self.seen.get(&(base, spec.seed)) {
                Some(&(d, _)) if d != digest => {
                    return Err(format!("digest {digest:016x} != {base} digest {d:016x}"))
                }
                Some(_) => {}
                None => return Err(format!("no {base} run to compare against")),
            }
        }
        let first = self
            .seen
            .entry((variant, spec.seed))
            .or_insert((digest, None))
            .0;
        if first != digest {
            return Err(format!(
                "digest {digest:016x} != first {variant} digest {first:016x}"
            ));
        }
        Ok(())
    }

    /// Zero-reading runs of the workload: median wall seconds.
    fn setup_s(&mut self) -> f64 {
        let spec = self.workload.spec(self.seed, 0);
        let start = Instant::now();
        let mut walls = Vec::new();
        for n in 1..=SETUP_MAX {
            if let Some(run) = self.run("setup", &spec, None) {
                walls.push(run.steady_wall());
            }
            if n >= SETUP_MIN && start.elapsed() >= SETUP_BUDGET {
                break;
            }
        }
        median(&walls)
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// `--trace 0`: the end-to-end metrics, every observation plane off.
///
/// A pass runs the workload once per seed of [`Workload::seeds`]; passes
/// repeat until `seconds` have gone. Wall time per reading is the median
/// over complete passes of each pass's total wall over its total
/// readings; the allocation metrics come from the first complete pass.
fn end_to_end(bench: &mut Bench, seconds: u64) -> Metrics {
    let w = bench.workload;
    let specs: Vec<ExperimentSpec> = w.seeds(bench.seed).map(|s| w.spec(s, w.msgs)).collect();
    let setup_s = bench.setup_s();
    // One untimed run lets lazy set-up and caches settle.
    bench.run("plain", &specs[0], None);
    let start = Instant::now();
    let mut passes: Vec<Vec<Run>> = Vec::new();
    loop {
        let pass: Vec<Run> = specs
            .iter()
            .filter_map(|spec| bench.run("plain", spec, None))
            .collect();
        if pass.len() == specs.len() {
            passes.push(pass);
        }
        if start.elapsed().as_secs() >= seconds {
            break;
        }
    }
    let total = |pass: &[Run], f: &dyn Fn(&Run) -> f64| {
        pass.iter().map(f).sum::<f64>() / pass.iter().map(Run::received).sum::<f64>()
    };
    let us: Vec<f64> = passes
        .iter()
        .map(|p| total(p, &|r| r.steady_wall() * 1e6))
        .collect();
    let raw: Vec<f64> = passes.iter().map(|p| total(p, &|r| r.wall * 1e6)).collect();
    let (lo, hi) = us
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    eprintln!(
        "us_per_reading over {} passes of {} runs: median {:.3}, min {lo:.3}, max {hi:.3}; unadjusted wall median {:.3}",
        passes.len(),
        specs.len(),
        median(&us),
        median(&raw)
    );
    let first = passes.first().map_or(&[][..], Vec::as_slice);
    let peak = first.iter().map(|r| r.usage.peak).max();
    vec![
        ("us_per_reading", median(&us), "us"),
        ("setup_s", setup_s, "s"),
        (
            "peak_heap_mb",
            peak.map_or(f64::NAN, |p| p as f64 / 1e6),
            "MB",
        ),
        (
            "allocs_per_reading",
            total(first, &|r| r.usage.allocs as f64),
            "count",
        ),
        (
            "alloc_bytes_per_reading",
            total(first, &|r| r.usage.bytes as f64),
            "B",
        ),
    ]
}

/// The plane and kernel variants the traced run compares with a plain
/// run: name, how to arm it, and the variant whose outputs it must
/// reproduce exactly.
fn variants(
    spec: &ExperimentSpec,
    half: u32,
) -> Vec<(&'static str, ExperimentSpec, Option<&'static str>)> {
    vec![
        ("plain", spec.clone(), None),
        ("trace", spec.clone().traced(), None),
        ("profile", spec.clone().profiled(), Some("plain")),
        (
            "slo",
            spec.clone().with_slo(SloSpec::grid_default()),
            Some("plain"),
        ),
        ("scope", spec.clone().scoped(), Some("plain")),
        ("shards2", spec.clone().sharded(2), Some("plain")),
        ("half", spec.clone().scaled(half), None),
    ]
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(bench: &mut Bench, seconds: u64) -> Metrics {
    let w = bench.workload;
    let spec = w.spec(bench.seed, w.msgs);
    let Some(base) = bench.run("plain", &spec, None) else {
        return Vec::new();
    };
    let r = &base.result;
    let received = base.received();
    let delivery_events = r
        .kernel
        .by_type
        .iter()
        .filter(|t| t.name == "Delivery")
        .map(|t| t.executed)
        .sum::<u64>();
    let mut m: Metrics = vec![
        (
            "simcore.events_per_reading",
            r.events as f64 / received,
            "count",
        ),
        (
            "simcore.timers_per_reading",
            r.kernel.timer_scheduled as f64 / received,
            "count",
        ),
        (
            "simcore.deliveries_per_reading",
            delivery_events as f64 / received,
            "count",
        ),
        (
            "simcore.peak_queue_depth",
            r.kernel.peak_queue_depth as f64,
            "count",
        ),
        (
            "narada.broker_forwards_per_reading",
            r.broker_forwards as f64 / received,
            "count",
        ),
    ];

    // Rounds of every variant, interleaved so host drift hits each alike.
    let variants = variants(&spec, w.msgs / 2);
    let mut us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sites: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs() < seconds {
        rounds += 1;
        for (name, vspec, same_as) in &variants {
            let Some(run) = bench.run(name, vspec, *same_as) else {
                continue;
            };
            us.entry(name).or_default().push(run.us_per_reading());
            if let Some(scope) = &run.result.scope {
                let report = &scope.report;
                for row in &report.sites {
                    sites
                        .entry(row.site.clone())
                        .or_default()
                        .push(report.corrected_nanos(row) as f64 / run.received());
                }
                // Dispatch encloses the fabric, metering and matching
                // sites (queue pushes happen inside both dispatch and the
                // fabric, so they stay in their parents' time).
                let raw = |name: &str| report.site(name).map_or(0, |s| s.nanos);
                let dispatch = report
                    .site("kernel.dispatch")
                    .map_or(0, |s| report.corrected_nanos(s));
                let children = raw("net.fabric.send") + raw("os.execute") + raw("jms.match");
                sites
                    .entry("dispatch.self".into())
                    .or_default()
                    .push(dispatch.saturating_sub(children) as f64 / run.received());
            }
        }
    }
    eprintln!("traced run: {rounds} rounds of {} variants", variants.len());
    let us_of = |name: &str| us.get(name).map_or(f64::NAN, |v| median(v));
    let site = |name: &str| sites.get(name).map_or(f64::NAN, |v| median(v));
    let plain = us_of("plain");
    m.extend([
        (
            "simcore.queue_ns_per_reading",
            site("kernel.queue.push") + site("kernel.queue.pop"),
            "ns",
        ),
        (
            "simcore.dispatch_self_ns_per_reading",
            site("dispatch.self"),
            "ns",
        ),
        (
            "simnet.fabric_send_ns_per_reading",
            site("net.fabric.send"),
            "ns",
        ),
        ("simos.execute_ns_per_reading", site("os.execute"), "ns"),
        ("jms.match_ns_per_reading", site("jms.match"), "ns"),
        ("planes.trace_overhead", us_of("trace") / plain, "ratio"),
        ("planes.profile_overhead", us_of("profile") / plain, "ratio"),
        ("planes.slo_overhead", us_of("slo") / plain, "ratio"),
        ("planes.scope_overhead", us_of("scope") / plain, "ratio"),
        ("simshard.speedup_2", plain / us_of("shards2"), "ratio"),
        ("narada.udp_length_scaling", plain / us_of("half"), "ratio"),
    ]);

    let ops = layers::Operands::new(w, bench.seed, r);
    let spans = bench.spans.as_mut().expect("traced run records spans");
    match layers::measure(&ops, spans) {
        Ok(costs) => {
            for (name, cost) in costs {
                m.push((leak(format!("{name}.ns")), cost.ns, "ns"));
                m.push((leak(format!("{name}.allocs")), cost.allocs, "count"));
            }
        }
        Err(e) => bench.faults.push(e),
    }
    m
}

/// Metric names are built once per process; leaking them keeps the
/// metric table's `&'static str` keys.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // `run_experiment` lets GRIDMON_SHARDS raise every unsharded spec;
    // the benchmark measures the serial kernel, so the variable must go
    // before any run (and before any thread exists).
    if std::env::var_os("GRIDMON_SHARDS").is_some() {
        eprintln!("perfbench: clearing GRIDMON_SHARDS: timed runs use the serial kernel");
        std::env::remove_var("GRIDMON_SHARDS");
    }
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} ({} readings/generator), seed {:#x}, {} s, trace {}",
        w.name,
        w.msgs,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut bench = Bench {
        workload: w,
        seed: args.seed,
        attempted: 0,
        failed: 0,
        faults: Vec::new(),
        alloc_faults: Vec::new(),
        seen: BTreeMap::new(),
        probe: calib::Probe::new(),
        last_probe: None,
        spans: args
            .trace
            .then(|| Spans::new(&format!("perfbench/{}", w.name))),
    };
    let metrics = if args.trace {
        per_layer(&mut bench, args.seconds)
    } else {
        end_to_end(&mut bench, args.seconds)
    };
    if let Some(spans) = bench.spans.take() {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-{:x}.trace.json", w.name, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.finish())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => bench
                .faults
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    let mut json = String::new();
    for (name, value, unit) in &metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
        if !value.is_finite() {
            bench.faults.push(format!("{name} is not a number"));
            continue;
        }
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for fault in &bench.alloc_faults {
        eprintln!("ALLOCATION FAULT: {fault}");
    }
    for fault in &bench.faults {
        eprintln!("FAULT: {fault}");
    }
    let correct = bench.failed == 0 && bench.faults.is_empty() && !metrics.is_empty();
    eprintln!(
        "runs attempted {}, failed {}, correct {correct}",
        bench.attempted, bench.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        bench.attempted.max(1),
        bench.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload rgma-poll --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("rgma-poll", 16, 3, true)
        );
        let a = args("--workload udp-lossy").unwrap();
        assert_eq!((a.seed, a.trace), (workload::PAPER_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload rgma-poll --trace 2",
            "--workload rgma-poll --seconds 0",
            "--workload rgma-poll --seed x",
            "--workload rgma-poll --bogus 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
