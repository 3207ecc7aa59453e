//! Host-speed probe: a fixed piece of work that uses none of the
//! repository's code, timed between workload runs. Shared hosts change
//! speed by a third or more over tens of seconds (neighbours' load moves
//! the clock and the caches), so wall time per reading is reported
//! relative to this probe's time measured next to each run.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the reference host (see README.md): the
/// host speed reported wall times are scaled to.
pub const NOMINAL_S: f64 = 0.022;

/// Entries of the probe's random-read table: 16 MiB of `u64`, larger
/// than the caches, like a simulation's working set.
const TABLE: usize = 1 << 21;
const STEPS: usize = 100_000;
const HEAP_DEPTH: usize = 2048;

/// The probe's fixed state, built once; timing it allocates nothing, so
/// the program's heap cannot change the probe.
pub struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<(u64, [u64; 4])>,
    record: BTreeMap<String, u64>,
    keys: Vec<String>,
    x: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Build the probe's state (untimed).
    pub fn new() -> Probe {
        let mut x = 0x2545_f491_4f6c_dd1d;
        let table = (0..TABLE).map(|_| xorshift(&mut x)).collect();
        let mut heap = BinaryHeap::with_capacity(HEAP_DEPTH + 1);
        for i in 0..HEAP_DEPTH {
            heap.push((xorshift(&mut x), [i as u64; 4]));
        }
        let keys: Vec<String> = (0..16).map(|i| format!("field_{i:02}")).collect();
        Probe {
            table,
            heap,
            record: keys.iter().cloned().zip(0..).collect(),
            keys,
            x,
        }
    }

    /// Seconds one round of the probe takes now: a priority queue popped
    /// and refilled (branchy heap code), reads from the table that depend
    /// on each other (memory latency), and lookups of a 16-field record
    /// by string key (the shape of a reading).
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for step in 0..STEPS {
            let (key, payload) = self.heap.pop().expect("heap stays full");
            acc = acc.wrapping_add(payload[0]);
            let ix = (acc ^ key) as usize % TABLE;
            acc = acc.wrapping_add(self.table[ix]);
            let field = &self.keys[step % self.keys.len()];
            acc = acc.wrapping_add(*black_box(&self.record).get(field).expect("known field"));
            let next = key.wrapping_add(xorshift(&mut self.x) >> 40);
            self.heap.push((next, [acc; 4]));
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_allocates_nothing_while_timed() {
        let _serial = crate::alloc::serial();
        let mut probe = Probe::new();
        let meter = crate::alloc::Meter::start();
        let secs = probe.time();
        // Allocating per step would show as at least STEPS allocations;
        // the test harness may add a few of its own meanwhile.
        assert!(meter.finish().allocs < STEPS as u64 / 100);
        assert!(secs > 0.0);
    }
}
