//! A fixed loop that measures how fast the host runs.
//!
//! Other tenants of a small shared host slow this process for seconds to
//! minutes at a time, by up to about 1.8×, in execution speed rather than
//! scheduling: on-CPU time tracks wall time. A loop whose work never
//! changes, run before every operation, slows with them. The runner
//! scales a run's operation times by how fast the loop ran in that run
//! (see `report::end_to_end`), so runs on a slower or faster host read
//! alike. The loop is the bench's own code: no change to the simulators
//! changes it.

use std::hint::black_box;
use std::time::Instant;

/// Entries in the loop's table: 256 KiB of `u64`, about the working set
/// of the rate and packet engines.
const TABLE_LEN: usize = 1 << 15;

/// Table updates per sample.
const ROUNDS: u32 = 400_000;

/// The loop's time at the reference speed: on the 2-core Intel Xeon
/// (2.1 GHz) host the benchmark was sized on, the median over 40 runs of
/// 30 s of each run's first-quartile sample.
pub const REFERENCE_S: f64 = 3.5e-3;

/// `host_s`, measured while the loop's first-quartile time was `loop_s`,
/// scaled to the reference speed.
pub fn at_reference(host_s: f64, loop_s: f64) -> f64 {
    host_s * REFERENCE_S / loop_s
}

/// The calibration loop and its table.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let table = (0..TABLE_LEN).map(|_| xorshift(&mut state)).collect();
        Calibrator { table, state }
    }

    /// Host seconds one run of the loop takes now: random reads and
    /// writes over the table, a data-dependent branch and a floating
    /// point update per round, the same work every time.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..ROUNDS {
            let x = xorshift(&mut self.state);
            let i = x as usize & (TABLE_LEN - 1);
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc * 0.999 + (v >> 11) as f64 * 1e-12;
            } else {
                acc -= 1e-9;
            }
            self.table[i] = v.rotate_left(7) ^ x;
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}
