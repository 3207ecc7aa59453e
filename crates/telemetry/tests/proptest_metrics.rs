//! Property tests for the measurement substrate: histogram quantiles
//! against exact order statistics, Welford against naive moments, and
//! collector conservation.

use proptest::prelude::*;
use simcore::SimTime;
use telemetry::{LatencyHistogram, RttCollector, Welford};

proptest! {
    #[test]
    fn histogram_quantiles_bounded_relative_error(
        mut values in proptest::collection::vec(1u64..10_000_000, 1..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let approx = h.quantile(q).unwrap();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
        let exact = values[rank];
        // The log-bucketed histogram guarantees the returned value is a
        // lower bound within one bucket (≤ 1/64 relative width) of some
        // order statistic near the rank; allow 5 % + one bucket slack.
        let rel = (approx as f64 - exact as f64).abs() / exact as f64;
        prop_assert!(
            rel < 0.05 || {
                // Accept landing on a neighbouring order statistic when
                // duplicates/rounding shift the rank by one.
                let lo = values[rank.saturating_sub(1)] as f64;
                let hi = values[(rank + 1).min(values.len() - 1)] as f64;
                approx as f64 >= lo * 0.95 && (approx as f64) <= hi * 1.05
            },
            "q={q} approx={approx} exact={exact}"
        );
    }

    #[test]
    fn histogram_count_min_max_exact(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
        prop_assert_eq!(h.quantile(1.0), values.iter().max().copied());
    }

    #[test]
    fn histogram_merge_equals_union(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    #[test]
    fn welford_chunked_merge_equals_sequential(
        values in proptest::collection::vec(-1e6f64..1e6, 1..300),
        chunks in 1usize..8,
    ) {
        // Parallel reduction: split the stream into `chunks` chunks, fold
        // each into its own accumulator, merge left-to-right — the result
        // must agree with a single sequential accumulator to float
        // tolerance (and exactly on count/min/max).
        let mut whole = Welford::new();
        for &v in &values {
            whole.push(v);
        }
        let per = values.len().div_ceil(chunks);
        let mut merged = Welford::new();
        for chunk in values.chunks(per.max(1)) {
            let mut w = Welford::new();
            for &v in chunk {
                w.push(v);
            }
            merged.merge(&w);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (merged.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance().abs())
        );
    }

    #[test]
    fn histogram_chunked_merge_equals_sequential(
        values in proptest::collection::vec(0u64..10_000_000, 1..300),
        chunks in 1usize..8,
    ) {
        // Chunked partial histograms merged into one must be
        // indistinguishable from recording the whole stream sequentially.
        let mut whole = LatencyHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let per = values.len().div_ceil(chunks);
        let mut merged = LatencyHistogram::new();
        for chunk in values.chunks(per.max(1)) {
            let mut h = LatencyHistogram::new();
            for &v in chunk {
                h.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn welford_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut w = Welford::new();
        for &v in &values {
            w.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(w.count(), values.len() as u64);
    }

    #[test]
    fn collector_conservation(
        // (send_at_us, deliver: Option<delay_us>)
        msgs in proptest::collection::vec((0u64..1_000_000, proptest::option::of(1u64..100_000)), 0..200),
    ) {
        let mut c = RttCollector::new();
        let mut expected_received = 0u64;
        for &(at, delivery) in &msgs {
            let id = c.before_sending(0, SimTime::from_micros(at));
            c.after_sending(id, SimTime::from_micros(at + 10));
            if let Some(d) = delivery {
                c.before_receiving(id, SimTime::from_micros(at + 10 + d / 2));
                c.after_receiving(id, SimTime::from_micros(at + 10 + d));
                expected_received += 1;
            }
        }
        let s = c.summary();
        prop_assert_eq!(s.sent, msgs.len() as u64);
        prop_assert_eq!(s.received, expected_received);
        let expected_loss = if msgs.is_empty() {
            0.0
        } else {
            (msgs.len() as u64 - expected_received) as f64 / msgs.len() as f64
        };
        prop_assert!((s.loss_rate - expected_loss).abs() < 1e-12);
        // RTT = PRT + PT + SRT in expectation over complete records.
        if expected_received > 0 {
            let total = s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms;
            prop_assert!((total - s.rtt_mean_ms).abs() < 1e-6,
                "decomposition {total} vs rtt {}", s.rtt_mean_ms);
        }
    }
}
