//! CPU-speed normalization for the CPU-bound workloads.
//!
//! On a 2-vCPU KVM guest (Intel Xeon) the vCPUs run at two speeds about
//! 1.6× apart, switching on scales from a fraction of a second to
//! minutes, so the raw wall time of CPU-bound work moves by up to ±30%
//! between runs of the same code.
//! A fixed reference computation, timed between ops, tells the current
//! speed; CPU-bound op times are scaled to what they would be with the
//! reference at [`REFERENCE_US`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The reference's time at that guest's full speed: scaled times read
/// as full-speed milliseconds there.
pub const REFERENCE_US: f64 = 300.0;

/// Hashing, sorting and table probes over a fixed key set: the same kind
/// of work the engines do, independent of the program under test.
fn reference() -> f64 {
    let t = Instant::now();
    let mut keys: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &k) in keys.iter().enumerate() {
        table.insert(k, i as u64);
    }
    keys.sort_unstable();
    let sum: u64 = keys.iter().filter_map(|k| table.get(k)).sum();
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e6
}

/// Reference timings taken around ops. Each op is scaled by the mean of
/// the timing just before it and the one just after it.
pub struct Speed {
    last_us: f64,
}

impl Speed {
    /// Times the reference once, as the "before" of the first op.
    pub fn new() -> Speed {
        Speed {
            last_us: reference(),
        }
    }

    /// Times the reference again and returns the factor that scales
    /// everything timed since the previous call to reference speed.
    /// Call it between ops, never inside a timed span, and only while
    /// the program runs no work of its own on other threads: such work
    /// would slow the reference and so read as a speed-up of the op.
    pub fn factor(&mut self) -> f64 {
        let now_us = reference();
        let f = 2.0 * REFERENCE_US / (self.last_us + now_us);
        self.last_us = now_us;
        f
    }
}
