//! The yardstick: a fixed piece of work that runs none of the checker's
//! code, timed after every sample of `--trace 0`.
//!
//! On a shared host the checker slows down in spells of a minute or more,
//! by up to a third, as neighbours load the same core and caches. The
//! spells outlast a run, so no choice of samples within a run can take
//! them out. The yardstick slows down with the checker: like the checker
//! it allocates, copies small buffers and walks an ordered map. Over 83
//! passes of `fixed-d1` on a 2-vCPU x86-64 Xeon VM, timed alongside,
//! log pass time followed log yardstick time with slope 1.17 and
//! r = 0.89; a register-only loop, pointer chases through L2 and L3 and
//! a hash map gave r = 0.66, 0.69, 0.70 and 0.85.
//!
//! Each sample is scaled by [`NOMINAL_S`] over the median yardstick time
//! around it, so it reads in seconds of a host running the yardstick in
//! [`NOMINAL_S`]. The yardstick uses none of the checker's code, so a
//! change to the checker moves the scaled times by the same ratio as the
//! raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Map inserts per run.
const INSERTS: u64 = 5_000;
/// A 4 KiB buffer is allocated every this many inserts, and one of the
/// buffers so far is copied.
const BUFFER_EVERY: u64 = 50;
/// The yardstick's median time on a 2-vCPU x86-64 Xeon VM at 2.1 GHz in
/// a quiet spell.
pub const NOMINAL_S: f64 = 0.7e-3;

/// Runs the yardstick once; returns its time in seconds.
pub fn time() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut buffers: Vec<Vec<u8>> = Vec::new();
    for i in 0..INSERTS {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        if i % BUFFER_EVERY == 0 {
            buffers.push(vec![i as u8; 4096]);
            black_box(buffers[buffers.len() / 2].clone());
        }
    }
    black_box((map.len(), buffers.len()));
    start.elapsed().as_secs_f64()
}
