//! Host-speed normalisation.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! drifts by up to 1.6× over seconds as other tenants come and go. Raw
//! latencies therefore spread 0.13–0.4 (IQR over median) from run to run,
//! more than any useful bound. So the client times a fixed reference kernel
//! every [`EVERY`] between requests and scales each time it reports by
//! `NOMINAL / (the kernel's latest time)`: a figure reads as what it would
//! be on a host that runs the kernel in exactly [`NOMINAL`]. In four- and
//! five-seed sets on a 2-vCPU VM this brought the spread of a run's mean
//! latency from 0.13–0.29 down to 0.02–0.04.
//!
//! The kernel does the kinds of work a server request does (hash-map
//! inserts and probes, number formatting and parsing, sorting strings)
//! with `std` only, so no change to the program can change its speed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host: about what a quiet 2-vCPU VM
/// takes.
pub const NOMINAL: Duration = Duration::from_millis(1);
/// How often the kernel is re-timed while a run goes on.
pub const EVERY: Duration = Duration::from_millis(50);
/// Items the kernel works on.
const ITEMS: u64 = 4096;

/// Run the kernel once and return how long it took, in ns (at least 1).
pub fn time_ns() -> u64 {
    let lcg = |x: u64| {
        x.wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
    };
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(ITEMS as usize);
    let mut docs = Vec::with_capacity(ITEMS as usize);
    let mut x = 0x1234_5678u64;
    for i in 0..ITEMS {
        x = lcg(x);
        map.insert(x >> 16, i);
        docs.push(format!("{{\"k\": {x}}}"));
    }
    let mut acc = 0u64;
    for d in &docs {
        let n = d[6..d.len() - 1].parse::<u64>().unwrap_or(0);
        acc = acc.wrapping_add(n >> 60);
    }
    docs.sort_unstable();
    x = 0x1234_5678;
    for _ in 0..ITEMS {
        x = lcg(x);
        acc = acc.wrapping_add(map.get(&(x >> 16)).copied().unwrap_or(0));
    }
    std::hint::black_box((acc, docs));
    (t.elapsed().as_nanos() as u64).max(1)
}

/// A time `t` (in any unit) measured while the kernel took `reference_ns`,
/// scaled to the reference host (in the same unit).
pub fn scale(t: u64, reference_ns: u64) -> f64 {
    t as f64 * NOMINAL.as_nanos() as f64 / reference_ns as f64
}

/// Re-times the kernel every [`EVERY`] and scales times by its latest
/// reading.
pub struct Clock {
    reference_ns: u64,
    next: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            reference_ns: time_ns(),
            next: Instant::now() + EVERY,
        }
    }

    /// Re-time the kernel if [`EVERY`] has passed since the last time.
    /// Call it only where the time it takes is not being measured.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.reference_ns = time_ns();
            self.next = Instant::now() + EVERY;
        }
    }

    /// The kernel's latest time, in ns.
    pub fn reference_ns(&self) -> u64 {
        self.reference_ns
    }

    /// A time `t` scaled to the reference host, in the same unit.
    pub fn scale(&self, t: u64) -> f64 {
        scale(t, self.reference_ns)
    }
}
