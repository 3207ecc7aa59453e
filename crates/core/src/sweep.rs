//! Parallel experiment execution.
//!
//! Each experiment is a self-contained deterministic simulation, so a
//! sweep is embarrassingly parallel: a shared work counter feeding one
//! worker per core, with results sent back over an mpsc channel. (This
//! is the project's parallel surface — within one simulation the event
//! loop is inherently sequential.)

use crate::experiment::{run_experiment, ExperimentResult, ExperimentSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run all specs, using up to `threads` workers (0 = one per core).
/// Results come back in the input order.
pub fn run_all(specs: &[ExperimentSpec], threads: usize) -> Vec<ExperimentResult> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(4)
    } else {
        threads
    }
    .min(specs.len().max(1));

    let next = AtomicUsize::new(0);
    let (result_tx, result_rx) = mpsc::channel::<(usize, ExperimentResult)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let result_tx = result_tx.clone();
            scope.spawn(move || loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(ix) else { return };
                let result = run_experiment(spec);
                if result_tx.send((ix, result)).is_err() {
                    return;
                }
            });
        }
        drop(result_tx);
        let mut slots: Vec<Option<ExperimentResult>> = (0..specs.len()).map(|_| None).collect();
        while let Ok((ix, result)) = result_rx.recv() {
            slots[ix] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task produced a result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SystemUnderTest;
    use proptest::prelude::*;

    /// A small random spec: any contender, a random fleet size and seed
    /// — the whole space `run_all` must be order- and
    /// thread-count-invariant over.
    fn arb_spec() -> impl Strategy<Value = ExperimentSpec> {
        (0..3usize, 2..8usize, any::<u64>()).prop_map(|(sys, gens, seed)| {
            let system = [
                SystemUnderTest::NaradaSingle,
                SystemUnderTest::GridlogSingle,
                SystemUnderTest::RgmaSingle,
            ][sys];
            let mut spec =
                ExperimentSpec::paper_default(format!("sweep/{sys}/{gens}/{seed:x}"), system, gens)
                    .scaled(2);
            spec.seed = seed;
            spec
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The sweep is a pure function of the spec list: worker count
        /// and scheduling order must never leak into the results.
        #[test]
        fn parallel_matches_sequential(
            specs in proptest::collection::vec(arb_spec(), 1..4),
            threads in 1..5usize,
        ) {
            let parallel = run_all(&specs, threads);
            let sequential: Vec<_> = specs.iter().map(run_experiment).collect();
            prop_assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                prop_assert_eq!(&p.name, &s.name);
                prop_assert_eq!(p.summary.rtt_mean_ms, s.summary.rtt_mean_ms);
                prop_assert_eq!(p.summary.sent, s.summary.sent);
                prop_assert_eq!(p.summary.received, s.summary.received);
                prop_assert_eq!(p.events, s.events);
                prop_assert_eq!(
                    p.kernel.determinism_digest(),
                    s.kernel.determinism_digest()
                );
            }
        }
    }

    #[test]
    fn single_thread_works() {
        let specs =
            vec![ExperimentSpec::paper_default("one", SystemUnderTest::NaradaSingle, 3).scaled(2)];
        let r = run_all(&specs, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].summary.sent, 6);
    }
}
