//! Layer calls timed from outside: each layer crate's public function,
//! fed the operands a workload's runs actually use, in batches long
//! enough to time with `Instant`.

use crate::alloc::Meter;
use crate::spans::Spans;
use crate::workload::Workload;
use gridmon_core::ExperimentResult;
use jms::{AckMode, Selector};
use narada::MatchingEngine;
use powergrid::{GeneratorState, PAPER_SELECTOR, TOPIC};
use simcore::{ActorId, EventQueue, Payload, SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::LatencyHistogram;
use wire::Message;

/// The operands a workload's runs feed its layers.
pub struct Operands {
    /// A generator as a fleet holds it after one reporting period.
    pub generator: GeneratorState,
    /// Its 16-field reading with the `id` property (narada payload).
    pub message: Message,
    /// Its SQL INSERT (R-GMA payload, parsed once per reading).
    pub sql: String,
    /// Subscriptions on the published topic at the subscribing broker:
    /// one subscriber program per subscribing broker (paper fig 5).
    pub subscriptions: usize,
    /// Queue depth the workload's run reached.
    pub queue_depth: usize,
    /// Delivery latencies, µs, spread around the run's RTT mean.
    pub rtt_us: Vec<u64>,
}

impl Operands {
    /// Operands for `workload` at `seed`, taken from `run`, a run of it:
    /// the queue depth it reached and its mean RTT. The generator is the
    /// fleet's last one, built and stepped as a fleet does.
    pub fn new(workload: &Workload, seed: u64, run: &ExperimentResult) -> Operands {
        let mut rng = SimRng::new(seed).derive(1);
        let id = u32::try_from(workload.generators - 1).expect("generator ids fit u32");
        let mut generator = GeneratorState::new(id, &mut rng);
        generator.step(&mut rng, 10.0);
        let message = generator.narada_message(generator.seq, SimTime::from_secs(60), 1);
        let sql = generator.rgma_insert_sql();
        let mean_us = (run.summary.rtt_mean_ms * 1e3).max(1.0);
        let rtt_us = (0..1024)
            .map(|_| (mean_us * (0.5 + rng.f64())) as u64)
            .collect();
        Operands {
            generator,
            message,
            sql,
            subscriptions: 1,
            queue_depth: usize::try_from(run.kernel.peak_queue_depth)
                .expect("queue depth fits usize"),
            rtt_us,
        }
    }
}

/// Cost of one call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    /// Median wall nanoseconds per call over the timed batches.
    pub ns: f64,
    /// Heap allocations per call (exact: the same in every batch).
    pub allocs: f64,
}

const BATCHES: usize = 9;
const MIN_BATCH: Duration = Duration::from_millis(4);

/// Time `op` in batches of a size calibrated to take at least
/// [`MIN_BATCH`]. Fails if two batches allocate differently.
fn time_op<T>(mut op: impl FnMut() -> T) -> Result<OpCost, String> {
    let mut n: u64 = 16;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            black_box(op());
        }
        if t.elapsed() >= MIN_BATCH || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let mut ns = Vec::with_capacity(BATCHES);
    let mut allocs = None;
    for _ in 0..BATCHES {
        let meter = Meter::start();
        let t = Instant::now();
        for _ in 0..n {
            black_box(op());
        }
        let elapsed = t.elapsed();
        let used = meter.finish().allocs;
        if allocs.is_some_and(|a| a != used) {
            return Err(format!(
                "allocations differ between batches: {allocs:?} vs {used}"
            ));
        }
        allocs = Some(used);
        ns.push(elapsed.as_nanos() as f64 / n as f64);
    }
    Ok(OpCost {
        ns: crate::median(&ns),
        allocs: allocs.unwrap_or(0) as f64 / n as f64,
    })
}

/// Every timed layer call, in report order, each inside its own span.
pub fn measure(ops: &Operands, spans: &mut Spans) -> Result<Vec<(&'static str, OpCost)>, String> {
    let mut out = Vec::new();
    let mut timed = |name: &'static str,
                     spans: &mut Spans,
                     f: &mut dyn FnMut() -> Result<OpCost, String>|
     -> Result<(), String> {
        let span = spans.enter(name);
        let cost = f().map_err(|e| format!("{name}: {e}"))?;
        spans.arg(span, "ns_per_op", cost.ns);
        spans.arg(span, "allocs_per_op", cost.allocs);
        spans.exit(span);
        out.push((name, cost));
        Ok(())
    };

    timed("wire.message_clone", spans, &mut || {
        time_op(|| ops.message.clone())
    })?;
    timed("wire.wire_size", spans, &mut || {
        time_op(|| black_box(&ops.message).wire_size())
    })?;
    timed("powergrid.narada_message", spans, &mut || {
        let g = &ops.generator;
        time_op(|| g.narada_message(g.seq, SimTime::from_secs(60), 1))
    })?;
    let selector = Selector::compile(PAPER_SELECTOR).map_err(|e| e.to_string())?;
    timed("jms.selector_match", spans, &mut || {
        time_op(|| selector.matches(black_box(&ops.message)))
    })?;
    timed("narada.match", spans, &mut || {
        let mut engine = MatchingEngine::new();
        for conn in 0..ops.subscriptions {
            let conn = simnet::ConnId(u32::try_from(conn).expect("few subscriptions"));
            engine.subscribe(TOPIC, conn, 0, selector.clone(), AckMode::Auto);
        }
        time_op(|| engine.match_message(TOPIC, black_box(&ops.message)))
    })?;
    timed("minisql.parse_insert", spans, &mut || {
        time_op(|| minisql::parse(black_box(&ops.sql)))
    })?;
    timed("simcore.queue_pop_push", spans, &mut || {
        let mut queue = filled_queue(ops.queue_depth);
        let mut step: u64 = 0;
        time_op(|| {
            step += 1;
            let ev = queue.pop().expect("queue stays at its depth");
            let later = SimTime::from_micros(ev.at.as_micros() + 1 + (step * 7919) % 1_000_000);
            queue.schedule(later, ev.target, ev.payload);
        })
    })?;
    timed("telemetry.histogram_record", spans, &mut || {
        let mut hist = LatencyHistogram::new();
        let mut i = 0;
        time_op(|| {
            i = (i + 1) % ops.rtt_us.len();
            hist.record(black_box(ops.rtt_us[i]));
        })
    })?;
    Ok(out)
}

/// An event queue holding `depth` events spread over one virtual second.
pub fn filled_queue(depth: usize) -> EventQueue {
    let mut queue = EventQueue::new();
    let mut rng = SimRng::new(depth as u64);
    for ix in 0..depth {
        let payload: Payload = Box::new(ix);
        queue.schedule(
            SimTime::from_micros(rng.below(1_000_000)),
            ActorId::from_index(ix % 64),
            payload,
        );
    }
    queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PAPER_SEED, WORKLOADS};
    use gridmon_core::run_experiment;
    use powergrid::{TABLE, TABLE_SQL};
    use wire::{Body, Value, ValueType};

    #[test]
    fn operands_are_the_workloads_own() {
        let _serial = crate::alloc::serial();
        for w in &WORKLOADS {
            let run = run_experiment(&w.spec(PAPER_SEED, 1));
            let ops = Operands::new(w, PAPER_SEED, &run);

            // The 16-field reading with the `id` property the paper's
            // selector filters on, exactly as the generator builds it.
            let Body::Map(fields) = &ops.message.body else {
                panic!("{}: map message expected", w.name)
            };
            assert_eq!(fields.len(), 16, "{}", w.name);
            let id = i32::try_from(w.generators - 1).unwrap();
            assert_eq!(ops.message.property("id"), Some(&Value::Int(id)));
            assert!(Selector::compile(PAPER_SELECTOR)
                .unwrap()
                .matches(&ops.message));
            let g = &ops.generator;
            assert_eq!(g.seq, 1, "stepped once, like a fleet's first reading");
            assert_eq!(
                format!("{:?}", ops.message),
                format!("{:?}", g.narada_message(g.seq, SimTime::from_secs(60), 1))
            );

            // The fleet's INSERT string, which the producer parses once per
            // reading: 16 values conforming to the paper's table.
            assert_eq!(ops.sql, g.rgma_insert_sql());
            let Ok(minisql::Statement::Insert {
                table,
                columns,
                values,
            }) = minisql::parse(&ops.sql)
            else {
                panic!("{}: INSERT expected", w.name)
            };
            assert_eq!(table, TABLE);
            let mut catalog = minisql::Catalog::new();
            catalog.create(&minisql::parse(TABLE_SQL).unwrap()).unwrap();
            let row = catalog
                .table(TABLE)
                .unwrap()
                .normalize_insert(&columns, &values)
                .unwrap();
            let count = |t| row.iter().filter(|v| v.value_type() == t).count();
            assert_eq!((count(ValueType::Int), count(ValueType::Double)), (4, 8));

            // The queue depth the workload's run actually reached.
            assert!(run.kernel.peak_queue_depth > 0);
            assert_eq!(ops.queue_depth as u64, run.kernel.peak_queue_depth);
            assert_eq!(filled_queue(ops.queue_depth).len(), ops.queue_depth);
            assert_eq!(ops.subscriptions, 1);
        }
    }

    #[test]
    fn every_layer_call_is_timed_with_exact_allocations() {
        let _serial = crate::alloc::serial();
        let w = &WORKLOADS[0];
        let run = run_experiment(&w.spec(PAPER_SEED, 1));
        let ops = Operands::new(w, PAPER_SEED, &run);
        let mut spans = Spans::new("test");
        let costs = measure(&ops, &mut spans).unwrap();
        assert_eq!(costs.len(), 8);
        for (name, cost) in &costs {
            assert!(cost.ns > 0.0, "{name}");
            assert_eq!(
                cost.allocs.fract(),
                0.0,
                "{name}: whole allocations per call"
            );
        }
        let allocs = |n: &str| costs.iter().find(|(name, _)| *name == n).unwrap().1.allocs;
        assert!(
            allocs("wire.message_clone") > 16.0,
            "a clone copies every field"
        );
        assert_eq!(allocs("simcore.queue_pop_push"), 0.0);
        assert!(spans.finish().contains("\"name\":\"minisql.parse_insert\""));
    }
}
