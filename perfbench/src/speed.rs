//! Host-speed normalization of the end-to-end timings.
//!
//! On a shared host the same iteration's host time moves by half or more
//! over a few minutes, as other tenants come and go. A fixed kernel of
//! the benchmark's own, which shares no code with the program, runs after
//! every iteration; an iteration's timings are scaled by how much slower
//! or faster than `REFERENCE_S` the kernel ran around it. The end-to-end
//! figures thus read as host time on a host where the kernel takes
//! `REFERENCE_S`, and a change to the program moves them while a change
//! in the host's speed mostly does not.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::common::Rng;

/// The kernel's host time on the reference host.
pub const REFERENCE_S: f64 = 0.008;

/// Runs the kernel once and returns its host seconds. The mix is the
/// simulator's in small: hash-map updates and lookups, a priority queue,
/// and allocating, filling and checksumming frame-sized buffers.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED);
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut heap = BinaryHeap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let k = rng.next_u64() % 4096;
        *map.entry(k).or_insert(0) += i;
        if let Some(v) = map.get(&(k ^ 1)) {
            acc = acc.wrapping_add(*v);
        }
        heap.push(Reverse(rng.next_u64() >> 20));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        if i % 8 == 0 {
            let mut b = vec![0u8; 1500];
            for (j, x) in b.iter_mut().enumerate().step_by(7) {
                *x = (j as u64 ^ k) as u8;
            }
            let sum = b.chunks_exact(2).fold(0u32, |s, c| {
                s.wrapping_add(u32::from(u16::from_be_bytes([c[0], c[1]])))
            });
            acc = acc.wrapping_add(u64::from(sum));
            bufs.push(b);
            if bufs.len() > 64 {
                bufs.swap_remove((k % 64) as usize);
            }
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The scale for each of `n` iterations, given the kernel's time after
/// each: the reference over the mean of the kernel runs on either side.
pub fn scales(after: &[f64]) -> Vec<f64> {
    (0..after.len())
        .map(|i| {
            let around = match i {
                0 => after[0],
                _ => (after[i - 1] + after[i]) / 2.0,
            };
            REFERENCE_S / around
        })
        .collect()
}
