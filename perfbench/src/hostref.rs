//! The host reference kernel: fixed work that uses no DeltaPath code,
//! timed next to every run and decode sample so that those can be reported
//! as multiples of it.
//!
//! On a shared host the wall time of the same work drifts with other
//! tenants' load by more than the benchmark's bounds. A kernel timed right
//! next to a sample sees the same load, so the ratio keeps the program's
//! own cost and drops most of the drift. The kernel churns small heap
//! blocks through the allocator, as captures and collectors do: of the
//! kernels tried (hashed reads over tables in L2, L3 and DRAM, hash-set
//! inserts, allocation churn), its time followed the workloads' run and
//! decode times most closely on a shared 2-vCPU host. It never changes with
//! the program. It goes through the process allocator on purpose: a private
//! free-list pool, which the program's heap cannot touch, followed the
//! allocation-bound import replay half as well.

use std::hint::black_box;
use std::time::Instant;

use crate::heap;

/// Live blocks the kernel keeps: each step replaces one.
const SLOTS: usize = 1024;
/// Steps in one timed pass (about 20 ms on a 2-vCPU Xeon VM).
const STEPS: u32 = 1 << 18;
/// Steps in the untimed pass before it.
const SETTLE_STEPS: u32 = STEPS / 8;

fn mix(mut z: u64) -> u64 {
    // SplitMix64's finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seconds one pass of the kernel takes now. Every pass does the same
/// work: a fixed sequence of blocks of 1 to 24 words, each allocated,
/// filled and written over a random one of [`SLOTS`] live blocks, whose
/// old block is freed.
///
/// A short untimed pass goes first. The allocator sorts the blocks the
/// program freed last only when it is next asked for memory; after a large
/// collector is dropped that takes tens of milliseconds, which would
/// otherwise land in the kernel's time and make it depend on the program.
pub fn time() -> f64 {
    heap::untracked(|| {
        pass(SETTLE_STEPS);
        pass(STEPS)
    })
}

fn pass(steps: u32) -> f64 {
    let started = Instant::now();
    let mut slots: Vec<Vec<u64>> = Vec::with_capacity(SLOTS);
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..steps {
        x = mix(x);
        let block = vec![x; (x % 24) as usize + 1];
        if slots.len() < SLOTS {
            slots.push(block);
        } else {
            slots[x as usize % SLOTS] = block;
        }
    }
    black_box(&slots);
    drop(slots);
    started.elapsed().as_secs_f64()
}
