//! Host speed. A fixed kernel that shares no code with the program is
//! timed next to the measured work; dividing a host time by the
//! kernel's time, and multiplying by the kernel's time on the reference
//! host, scales it to the reference host's speed.
//!
//! On a shared virtual machine the same work runs 20 to 50% slower for
//! tens of seconds at a time. The process's CPU time grows with the
//! wall time and the hypervisor reports almost no steal, so the cores
//! themselves run slower, presumably while other guests load them. The
//! kernel slows down with the interpreter: over six seeds of
//! `fleet_mix` the spread between runs fell from 28% to 8% of the
//! median once each call was scaled by the kernel run beside it.

use std::time::Instant;

/// The kernel's median time on the reference host, a 2-vCPU virtual
/// machine on an Intel Xeon (x86-64), in seconds.
pub const REFERENCE_S: f64 = 0.027;
/// Threads the kernel runs on at once: the two shards of a fleet call.
const THREADS: u64 = 2;
/// Steps each thread takes.
const STEPS: u32 = 1_500_000;
/// Words in each thread's table (1 MiB): larger than a core's private
/// caches, as the simulated machine's memory is.
const TABLE: usize = 1 << 18;

/// Runs the kernel once; returns its wall time in seconds.
#[must_use]
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..THREADS {
            scope.spawn(move || std::hint::black_box(walk(k)));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// A data-dependent walk over a table: branchy integer work with loads
/// and stores, the mix an instruction-set interpreter runs.
fn walk(seed: u64) -> u32 {
    let mut table = vec![0u32; TABLE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut acc = 0u32;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (TABLE - 1);
        match x >> 62 {
            0 => table[j] = table[j].wrapping_add(i),
            1 => acc = acc.wrapping_add(table[j]),
            2 => acc ^= table[(j + 1) & (TABLE - 1)],
            _ => table[j] ^= acc,
        }
    }
    acc
}

/// `host_s`, measured while the kernel took `kernel_s`, at the
/// reference host's speed.
#[must_use]
pub fn at_reference(host_s: f64, kernel_s: f64) -> f64 {
    host_s * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a host half as fast as the reference, the work and the kernel
    /// both take twice as long, and the scaled time is the reference's.
    #[test]
    fn a_slow_host_is_scaled_back_to_the_reference() {
        assert!((at_reference(3.0, 2.0 * REFERENCE_S) - 1.5).abs() < 1e-12);
        let t = kernel_s();
        assert!(t > 0.0 && t.is_finite());
    }
}
