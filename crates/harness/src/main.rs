//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale=N] [--threads=N] [--out=DIR | --no-csv]
//!       [--trace[=DIR]] [--faults=SCENARIO] [--profile[=DIR]]
//!       [--scope[=DIR]] [--slo[=DIR]] [--bench-json=FILE] <artifact>...
//!
//! artifacts: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!            fig10 fig11 fig12 fig13 fig14 fig15 rgma-warmup
//!            ablation-routing ablation-secondary ablation-poll
//!            ablation-aggregation gridlog compare checks bench all
//!
//! Every value-taking option accepts both `--opt value` and
//! `--opt=value`. Unknown options are rejected with the valid list;
//! unknown artifact / fault-scenario names suggest the nearest match.
//! `--list-scenarios` prints every named scenario (artifacts, fault
//! schedules, bench + gridlog experiment specs) with a one-line
//! description.
//!
//! --scale N        messages per generator (default 180 = the paper's
//!                  30 min)
//! --threads N      worker threads (default: all cores)
//! --out DIR        also write CSV files under DIR (default: results/)
//! --no-csv         do not write CSV files
//! --trace[=DIR]    record per-message lifecycle traces for every run
//!                  and write `<run>.trace.jsonl` + `<run>.trace.json`
//!                  (Chrome trace_event) under DIR (default:
//!                  results/trace/)
//! --faults SCENARIO  inject a named fault scenario into every run and
//!                  report the per-cause degradation accounting
//!                  (scenarios: broker-crash registry-restart link-burst
//!                  partition servlet-stall slowdown chaos)
//! --profile[=DIR]  attribute simulated CPU time to components with the
//!                  virtual-time profiler, print each run's self-time
//!                  table, and write `<run>.selftime.txt`,
//!                  `<run>.collapsed.txt` (flamegraph collapsed stacks),
//!                  `<run>.prom.txt` (Prometheus text exposition) and
//!                  `<run>.metrics.csv` under DIR (default:
//!                  results/prof/)
//! --scope[=DIR]    attribute real wall-clock time to kernel hot paths
//!                  (queue push/pop, dispatch, fabric delivery, OS
//!                  metering, JMS selector matching) with `simscope`,
//!                  print each run's hot-path + kernel event-accounting
//!                  tables, and write `<run>.hotpath.json`
//!                  (gridmon-hotpath/1) and `<run>.hotpath.collapsed.txt`
//!                  (flamegraph collapsed stacks) under DIR (default:
//!                  results/scope/); instrumented runs stay byte-identical
//!                  to plain ones at the same seed
//! --slo[=DIR]      measure data freshness (Age-of-Information) and
//!                  deadline compliance against the grid default SLO
//!                  (5 s deadline, 99% target) on every run, print the
//!                  compliance table, and write `<run>.slo.csv` (AoI
//!                  sawtooth + burn-window time series) plus
//!                  `compliance.md` under DIR (default: results/slo/);
//!                  the publish stamps ride out-of-band, so measured
//!                  runs stay byte-identical to plain ones on every
//!                  other artifact
//! --bench-json FILE  run the perf-baseline suite (`bench`) and write a
//!                  schema-versioned machine-readable report
//!                  (gridmon-bench/3, with per-event-type kernel
//!                  accounting and freshness/SLO rows) to FILE; compare
//!                  against a committed baseline with `bench_gate` or
//!                  `bench_diff`
//! ```

use harness::{artifacts, Campaign};
use std::io::Write;

const VALID_OPTIONS: &str = "--scale --threads --out --no-csv --trace[=DIR] \
     --faults --profile[=DIR] --scope[=DIR] --slo[=DIR] --bench-json --list-scenarios --help";

struct Options {
    scale: u32,
    threads: usize,
    out: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    profile: Option<std::path::PathBuf>,
    scope: Option<std::path::PathBuf>,
    slo: Option<std::path::PathBuf>,
    bench_json: Option<std::path::PathBuf>,
    faults: Option<gridmon_core::FaultSchedule>,
    artifacts: Vec<String>,
}

fn parse_fault_scenario(name: &str) -> Result<gridmon_core::FaultSchedule, String> {
    gridmon_core::FaultSchedule::scenario(name).ok_or_else(|| {
        format!(
            "unknown fault scenario {name:?} (one of: {}){}",
            gridmon_core::FaultSchedule::SCENARIOS.join(" "),
            suggestion(name, gridmon_core::FaultSchedule::SCENARIOS.iter().copied())
        )
    })
}

/// Edit distance between two ASCII-ish names (full Levenshtein; the
/// candidate lists are tiny, so the O(a·b) table is irrelevant).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// ` — did you mean "X"?` for the closest candidate within a third of
/// its length (so rubbish input gets no misleading suggestion), or "".
fn suggestion<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|c| (edit_distance(name, c), c))
        .min()
        .filter(|&(d, c)| d > 0 && d <= (c.len() / 3).max(2))
        .map(|(_, c)| format!(" — did you mean {c:?}?"))
        .unwrap_or_default()
}

/// The value of `--opt value` / `--opt=value`, from `inline` (the text
/// after `=`, if any) or the next argument.
fn take_value(
    opt: &str,
    inline: Option<&str>,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    match inline {
        Some(v) if !v.is_empty() => Ok(v.to_owned()),
        Some(_) => Err(format!("{opt}= needs a value")),
        None => args.next().ok_or_else(|| format!("{opt} needs a value")),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut scale = 180u32;
    let mut threads = 0usize;
    let mut out = Some(std::path::PathBuf::from("results"));
    let mut trace = None;
    let mut profile = None;
    let mut scope = None;
    let mut slo = None;
    let mut bench_json = None;
    let mut faults = None;
    let mut artifacts = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if !a.starts_with('-') {
            artifacts.push(a);
            continue;
        }
        let (opt, inline) = match a.split_once('=') {
            Some((o, v)) => (o.to_owned(), Some(v.to_owned())),
            None => (a, None),
        };
        match opt.as_str() {
            "--scale" => {
                scale = take_value("--scale", inline.as_deref(), &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--threads" => {
                threads = take_value("--threads", inline.as_deref(), &mut args)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--out" => {
                out = Some(std::path::PathBuf::from(take_value(
                    "--out",
                    inline.as_deref(),
                    &mut args,
                )?));
            }
            "--no-csv" => out = None,
            "--trace" => {
                trace = Some(std::path::PathBuf::from(match inline {
                    Some(dir) if !dir.is_empty() => dir,
                    Some(_) => return Err("--trace= needs a directory (or bare --trace)".into()),
                    None => "results/trace".to_owned(),
                }));
            }
            "--profile" => {
                profile = Some(std::path::PathBuf::from(match inline {
                    Some(dir) if !dir.is_empty() => dir,
                    Some(_) => {
                        return Err("--profile= needs a directory (or bare --profile)".into())
                    }
                    None => "results/prof".to_owned(),
                }));
            }
            "--scope" => {
                scope = Some(std::path::PathBuf::from(match inline {
                    Some(dir) if !dir.is_empty() => dir,
                    Some(_) => return Err("--scope= needs a directory (or bare --scope)".into()),
                    None => "results/scope".to_owned(),
                }));
            }
            "--slo" => {
                slo = Some(std::path::PathBuf::from(match inline {
                    Some(dir) if !dir.is_empty() => dir,
                    Some(_) => return Err("--slo= needs a directory (or bare --slo)".into()),
                    None => "results/slo".to_owned(),
                }));
            }
            "--bench-json" => {
                bench_json = Some(std::path::PathBuf::from(take_value(
                    "--bench-json",
                    inline.as_deref(),
                    &mut args,
                )?));
            }
            "--faults" => {
                faults = Some(parse_fault_scenario(&take_value(
                    "--faults",
                    inline.as_deref(),
                    &mut args,
                )?)?);
            }
            "--list-scenarios" => artifacts.push("list-scenarios".to_owned()),
            "--help" | "-h" => artifacts.push("help".to_owned()),
            other => {
                return Err(format!(
                    "unknown option {other} (valid options: {VALID_OPTIONS})"
                ));
            }
        }
    }
    if artifacts.is_empty() && bench_json.is_none() {
        artifacts.push("help".to_owned());
    }
    Ok(Options {
        scale,
        threads,
        out,
        trace,
        profile,
        scope,
        slo,
        bench_json,
        faults,
        artifacts,
    })
}

/// Every artifact `repro` can build, with the one-line description
/// `--list-scenarios` prints. Order is the `all` execution order.
const ARTIFACTS: &[(&str, &str)] = &[
    (
        "table1",
        "hardware and software calibration constants (Table I)",
    ),
    (
        "table2",
        "Narada comparison test settings and measured loss (Table II)",
    ),
    (
        "fig3",
        "Narada comparison tests: RTT mean and standard deviation",
    ),
    ("fig4", "Narada comparison tests: RTT percentiles 95-100"),
    (
        "fig5",
        "distributed broker architecture as deployed (topology)",
    ),
    ("fig6", "Narada CPU idle and memory vs connections"),
    (
        "fig7",
        "Narada RTT and stddev vs connections (single vs DBN)",
    ),
    (
        "fig8",
        "Narada single-broker RTT percentiles per connection count",
    ),
    ("fig9", "Narada DBN RTT percentiles per connection count"),
    (
        "fig10",
        "R-GMA Primary + Secondary Producer RTT percentiles",
    ),
    (
        "fig11",
        "R-GMA RTT and stddev vs connections (single vs distributed)",
    ),
    (
        "fig12",
        "R-GMA single-server RTT percentiles per connection count",
    ),
    ("fig13", "R-GMA CPU idle and memory (single vs distributed)"),
    (
        "fig14",
        "R-GMA distributed RTT percentiles per connection count",
    ),
    (
        "fig15",
        "RTT decomposition (PRT / PT / SRT), cumulative phases",
    ),
    (
        "table3",
        "qualitative comparison derived from the measurements (Table III)",
    ),
    (
        "rgma-warmup",
        "S-III.F warm-up loss study (with vs without the wait)",
    ),
    (
        "ablation-routing",
        "DBN broadcast (v1.1.3) vs subscription-aware routing",
    ),
    (
        "ablation-secondary",
        "Secondary Producer 30 s delay on vs off",
    ),
    (
        "ablation-poll",
        "subscriber poll period sweep (10 ms - 1 s)",
    ),
    (
        "ablation-aggregation",
        "sender-side aggregation at constant byte rate",
    ),
    (
        "gridlog",
        "gridlog partitioned-log scalability series (500-2000 conns)",
    ),
    (
        "compare",
        "three-way Narada/R-GMA/gridlog RTT + outage-loss comparison",
    ),
    (
        "checks",
        "headline paper findings checked against measurements",
    ),
];

/// One-line descriptions of the named fault scenarios, keyed to
/// `FaultSchedule::SCENARIOS` (a unit test keeps them in lockstep).
const FAULT_SCENARIOS: &[(&str, &str)] = &[
    (
        "broker-crash",
        "broker 0 JVM dies at t=120 s, restarts at t=150 s",
    ),
    (
        "registry-restart",
        "R-GMA registry soft state wiped at t=120 s",
    ),
    ("link-burst", "25% random frame loss on every link for 30 s"),
    ("partition", "node 0 cut off from the network for 20 s"),
    ("servlet-stall", "node 0 servlets answer 503 for 20 s"),
    ("slowdown", "node 0 CPU 4x slower for 60 s"),
    (
        "chaos",
        "loss burst + broker crash/restart + registry wipe + slowdown",
    ),
];

/// `--list-scenarios`: every named scenario — artifacts, fault
/// schedules, and the named experiment specs behind `bench`, `gridlog`
/// and `compare` — with one-line descriptions.
fn list_scenarios(scale: u32) {
    println!("artifacts (repro <name>):");
    for (name, desc) in ARTIFACTS {
        println!("  {name:<22} {desc}");
    }
    println!(
        "  {:<22} perf-baseline suite (see also --bench-json)",
        "bench"
    );
    println!("  {:<22} every artifact above", "all");
    println!("\nfault scenarios (--faults=<name>):");
    for (name, desc) in FAULT_SCENARIOS {
        println!("  {name:<22} {desc}");
    }
    {
        let slo = gridmon_core::SloSpec::grid_default();
        println!(
            "\nfreshness / SLO plane (--slo[=DIR]): grid default = {} ms \
             deadline, {:.0}% on-time target; applies to every spec below",
            slo.deadline.as_millis_f64(),
            slo.target_fraction * 100.0
        );
    }
    println!("\nexperiment specs (run via the artifacts that own them):");
    let catalogues: [(&str, Vec<gridmon_core::ExperimentSpec>); 3] = [
        ("bench", gridmon_core::scenarios::bench_specs(scale)),
        (
            "gridlog",
            gridmon_core::scenarios::gridlog_single_specs(scale),
        ),
        ("compare", {
            let mut v = gridmon_core::scenarios::three_way_specs(scale);
            v.extend(gridmon_core::scenarios::three_way_outage_specs(scale));
            v
        }),
    ];
    for (owner, specs) in catalogues {
        for s in specs {
            let faults = if s.faults.is_empty() {
                String::new()
            } else {
                format!(", {} fault event(s)", s.faults.events.len())
            };
            println!(
                "  {:<30} [{owner}] {:?}, {} generators x {} msgs{faults}",
                s.name, s.system, s.generators, s.msgs_per_generator
            );
        }
    }
}

fn write_csv(out: &Option<std::path::PathBuf>, name: &str, csv: &str) {
    let Some(dir) = out else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(csv.as_bytes());
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let artifact_names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    if opts.artifacts.iter().any(|a| a == "help") {
        eprintln!(
            "repro — regenerate the IPPS 2007 pub/sub study artifacts\n\n\
             usage: repro [--scale=N] [--threads=N] \
             [--out=DIR | --no-csv] [--trace[=DIR]] [--faults=SCENARIO] \
             [--profile[=DIR]] [--scope[=DIR]] [--slo[=DIR]] \
             [--bench-json=FILE] [--list-scenarios] <artifact>...\n\n\
             artifacts: {} bench all\n\
             fault scenarios: {}\n\n\
             --list-scenarios describes every named scenario",
            artifact_names.join(" "),
            gridmon_core::FaultSchedule::SCENARIOS.join(" ")
        );
        return;
    }
    if opts.artifacts.iter().any(|a| a == "list-scenarios") {
        list_scenarios(opts.scale);
        return;
    }
    let names: Vec<String> = if opts.artifacts.iter().any(|a| a == "all") {
        artifact_names.iter().map(|s| (*s).to_owned()).collect()
    } else {
        opts.artifacts.clone()
    };
    // Validate artifact names before running anything: a typo at the end
    // of the list must not cost a full campaign first.
    for name in &names {
        if name != "bench" && !artifact_names.contains(&name.as_str()) {
            eprintln!(
                "error: unknown artifact {name:?} (artifacts: {} bench all){}",
                artifact_names.join(" "),
                suggestion(name, artifact_names.iter().copied().chain(["bench", "all"]))
            );
            std::process::exit(2);
        }
    }

    let mut campaign = Campaign::new(opts.threads);
    campaign.set_trace(opts.trace.is_some());
    campaign.set_profile(opts.profile.is_some() || opts.bench_json.is_some());
    campaign.set_scope(opts.scope.is_some());
    if opts.slo.is_some() {
        campaign.set_slo(Some(gridmon_core::SloSpec::grid_default()));
    }
    if let Some(faults) = &opts.faults {
        campaign.set_faults(faults.clone());
    }
    let scale = opts.scale;
    let mut timer = gridmon_bench::SelfTimer::start();
    for name in &names {
        match name.as_str() {
            "table1" => {
                let t = artifacts::table1();
                println!("{}", t.render());
                write_csv(&opts.out, "table1", &t.to_csv());
            }
            "table2" => {
                let t = artifacts::table2(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "table2", &t.to_csv());
            }
            "table3" => {
                let t = artifacts::table3(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "table3", &t.to_csv());
            }
            "fig3" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig3),
            "fig4" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig4),
            "fig5" => {
                let t = artifacts::fig5();
                println!("{}", t.render());
                write_csv(&opts.out, "fig5", &t.to_csv());
            }
            "fig6" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig6),
            "fig7" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig7),
            "fig8" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig8),
            "fig9" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig9),
            "fig10" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig10),
            "fig11" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig11),
            "fig12" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig12),
            "fig13" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig13),
            "fig14" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig14),
            "fig15" => emit_fig(&mut campaign, scale, &opts.out, artifacts::fig15),
            "rgma-warmup" => {
                let t = artifacts::rgma_warmup(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "rgma-warmup", &t.to_csv());
            }
            "ablation-routing" => {
                let t = artifacts::ablation_routing(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "ablation-routing", &t.to_csv());
            }
            "ablation-secondary" => {
                let t = artifacts::ablation_secondary(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "ablation-secondary", &t.to_csv());
            }
            "ablation-poll" => {
                let t = artifacts::ablation_poll(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "ablation-poll", &t.to_csv());
            }
            "ablation-aggregation" => {
                let t = artifacts::ablation_aggregation(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "ablation-aggregation", &t.to_csv());
            }
            "gridlog" => {
                let t = artifacts::gridlog_scaling(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "gridlog", &t.to_csv());
            }
            "compare" => {
                let t = artifacts::three_way(&mut campaign, scale);
                println!("{}", t.render());
                write_csv(&opts.out, "compare", &t.to_csv());
                if opts.slo.is_some() {
                    let t = artifacts::three_way_slo(&mut campaign, scale);
                    println!("{}", t.render());
                    write_csv(&opts.out, "compare-slo", &t.to_csv());
                }
            }
            "checks" => {
                let checks = artifacts::headline_checks(&mut campaign, scale);
                let mut table = telemetry::Table::new(
                    "Paper findings vs measurements",
                    &["claim", "paper", "measured", "holds"],
                );
                let mut failures = 0;
                for (claim, paper, measured, holds) in checks {
                    if !holds {
                        failures += 1;
                    }
                    table.push_row(vec![
                        claim,
                        paper,
                        measured,
                        if holds { "yes".into() } else { "NO".into() },
                    ]);
                }
                println!("{}", table.render());
                write_csv(&opts.out, "checks", &table.to_csv());
                if failures > 0 {
                    eprintln!("{failures} checks failed");
                }
            }
            "bench" => {
                run_bench_suite(&mut campaign, scale, &mut timer);
            }
            _ => unreachable!("validated above"),
        }
    }
    if let Some(path) = &opts.bench_json {
        let results = run_bench_suite(&mut campaign, scale, &mut timer);
        let report = harness::bench::BenchReport::from_results(
            &results,
            scale,
            opts.threads,
            timer.total_secs(),
        );
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("perf baseline written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if opts.faults.is_some() {
        for (name, stats) in campaign.fault_stats() {
            let table = telemetry::degradation_table(
                format!("Fault campaign degradation — {name}"),
                &stats.rows(),
            );
            println!("{}", table.render());
            write_csv(
                &opts.out,
                &format!("{}.faults", name.replace(['/', ' '], "_")),
                &table.to_csv(),
            );
        }
    }
    if let Some(dir) = &opts.trace {
        match campaign.write_traces(dir) {
            Ok((files, disagreements)) => {
                eprintln!("{files} trace files written under {}", dir.display());
                if disagreements > 0 {
                    eprintln!(
                        "WARNING: {disagreements} trace/RttCollector cross-check \
                         disagreements — the trace and the telemetry disagree \
                         about when messages moved; this indicates a bug"
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot write traces: {e}"),
        }
    }
    if let Some(dir) = &opts.profile {
        for (name, table) in campaign.profile_tables() {
            let _ = name;
            println!("{table}");
        }
        match campaign.write_profiles(dir) {
            Ok(files) => eprintln!("{files} profile files written under {}", dir.display()),
            Err(e) => eprintln!("warning: cannot write profiles: {e}"),
        }
    }
    if let Some(dir) = &opts.scope {
        for (_name, summary) in campaign.scope_tables() {
            println!("{summary}");
        }
        match campaign.write_scopes(dir) {
            Ok(files) => eprintln!("{files} hot-path files written under {}", dir.display()),
            Err(e) => eprintln!("warning: cannot write hot-path reports: {e}"),
        }
    }
    if let Some(dir) = &opts.slo {
        if let Some(table) = campaign.slo_table() {
            println!("{table}");
        }
        match campaign.write_slo(dir) {
            Ok(files) => eprintln!("{files} freshness files written under {}", dir.display()),
            Err(e) => eprintln!("warning: cannot write freshness reports: {e}"),
        }
    }
    eprintln!(
        "{} experiments, {:.1}s simulated-experiment wall time, {:.1}s total",
        campaign.runs(),
        campaign.wall_seconds,
        timer.total_secs()
    );
}

/// Run (or fetch memoized) the perf-baseline suite and print its
/// summary table.
fn run_bench_suite(
    campaign: &mut Campaign,
    scale: u32,
    timer: &mut gridmon_bench::SelfTimer,
) -> Vec<gridmon_core::ExperimentResult> {
    let specs = gridmon_core::scenarios::bench_specs(scale);
    let results = timer.span("bench-suite", || campaign.ensure(&specs));
    let mut table = telemetry::Table::new(
        "Perf baseline suite",
        &[
            "run",
            "sent",
            "received",
            "events",
            "peak depth",
            "timers",
            "RTT mean ms",
            "wall s",
        ],
    );
    for r in &results {
        table.push_row(vec![
            r.name.clone(),
            r.summary.sent.to_string(),
            r.summary.received.to_string(),
            r.events.to_string(),
            r.kernel.peak_queue_depth.to_string(),
            r.kernel.timer_scheduled.to_string(),
            format!("{:.2}", r.summary.rtt_mean_ms),
            format!("{:.3}", r.wall_secs),
        ]);
    }
    println!("{}", table.render());
    results
}

fn emit_fig(
    campaign: &mut Campaign,
    scale: u32,
    out: &Option<std::path::PathBuf>,
    f: fn(&mut Campaign, u32) -> telemetry::Figure,
) {
    let fig = f(campaign, scale);
    println!("{}", fig.render());
    write_csv(out, &fig.id.clone(), &fig.to_csv());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_descriptions_cover_every_scenario() {
        let described: Vec<&str> = FAULT_SCENARIOS.iter().map(|(n, _)| *n).collect();
        assert_eq!(described, gridmon_core::FaultSchedule::SCENARIOS);
    }

    #[test]
    fn artifact_list_has_no_duplicates_and_reserved_names() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        assert!(!names.contains(&"bench") && !names.contains(&"all"));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn suggestion_finds_near_misses_and_ignores_rubbish() {
        assert_eq!(edit_distance("fig13", "fig13"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        let arts = || ARTIFACTS.iter().map(|(n, _)| *n);
        assert_eq!(suggestion("checkz", arts()), " — did you mean \"checks\"?");
        assert_eq!(
            suggestion(
                "broker-cash",
                gridmon_core::FaultSchedule::SCENARIOS.iter().copied()
            ),
            " — did you mean \"broker-crash\"?"
        );
        assert_eq!(suggestion("zzzzzzzz", arts()), "");
        // Exact matches never reach `suggestion`, but guard anyway.
        assert_eq!(suggestion("fig3", arts()), "");
    }

    #[test]
    fn parse_args_handles_slo_flag_grammar() {
        let bare = parse_args(["--slo".to_owned(), "compare".to_owned()].into_iter()).unwrap();
        assert_eq!(
            bare.slo.as_deref(),
            Some(std::path::Path::new("results/slo"))
        );
        let with_dir = parse_args(["--slo=fresh".to_owned()].into_iter()).unwrap();
        assert_eq!(with_dir.slo.as_deref(), Some(std::path::Path::new("fresh")));
        let err = parse_args(["--slo=".to_owned()].into_iter()).err().unwrap();
        assert!(err.contains("--slo="), "{err}");
        let unknown = parse_args(["--sloo".to_owned()].into_iter()).err().unwrap();
        assert!(unknown.contains("--slo[=DIR]"), "{unknown}");
    }

    #[test]
    fn parse_args_accepts_list_scenarios() {
        let opts = parse_args(["--list-scenarios".to_owned()].into_iter()).unwrap();
        assert_eq!(opts.artifacts, vec!["list-scenarios"]);
        let err = parse_fault_scenario("broker-cash").unwrap_err();
        assert!(err.contains("did you mean"), "{err}");
    }
}
