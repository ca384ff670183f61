//! Drift correction: a frozen calibration loop whose duration tracks how
//! fast this host runs right now.
//!
//! Shared virtual hosts speed up and slow down over minutes (neighbours
//! on the same cores, cache and memory pressure). Every timed figure is
//! reported in corrected seconds, `raw × C_REF_S / C_run`, where `C_run`
//! is the median duration of [`lap`] sampled between timed units of the
//! same run.
//!
//! The loop is a small set-associative cache model: xorshift addresses,
//! mostly around a drifting hot region and sometimes anywhere, looked up
//! in 8-way sets with LRU replacement over 2 MiB of tags. That is the
//! kind of work the simulator's step loop does (tag compares,
//! data-dependent branches, a working set beyond a core's L1), and on
//! the reference host its duration followed the simulator's host time
//! more closely than a pointer chase or a pure ALU loop did. Neither the
//! loop nor [`C_REF_S`] may change once published: a changed loop makes
//! every corrected figure incomparable with earlier ones.

use std::hint::black_box;
use std::time::Instant;

/// Median [`lap`] duration, in seconds, on the reference host (2-vCPU
/// KVM guest, Intel Xeon). Corrected seconds equal raw seconds on a
/// host that runs the loop in exactly this time.
pub const C_REF_S: f64 = 0.0033;

/// Tag slots: 2 MiB of `u64` tags.
const TAGS: usize = 1 << 18;
/// Ways per set.
const WAYS: usize = 8;
/// Lookups per lap.
const LAP_STEPS: usize = 1 << 17;

/// The cache model's state and the lap durations sampled so far.
pub struct Calibrator {
    tags: Vec<u64>,
    stamps: Vec<u8>,
    samples: Vec<f64>,
}

impl Calibrator {
    /// An empty cache model.
    pub fn new() -> Self {
        Self { tags: vec![u64::MAX; TAGS], stamps: vec![0; TAGS], samples: Vec::new() }
    }

    /// Times one lap and records it.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(lap(black_box(&mut self.tags), &mut self.stamps));
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// Every lap duration sampled so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `C_run`: the median lap duration of this run.
    pub fn c_run(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// The factor raw seconds are multiplied by: `C_REF_S / C_run`.
    pub fn factor(&self) -> f64 {
        C_REF_S / self.c_run()
    }
}

/// The frozen calibration work: `LAP_STEPS` lookups, each a hit or an
/// LRU replacement. Returns the hit count so the work cannot be elided.
fn lap(tags: &mut [u64], stamps: &mut [u8]) -> u64 {
    let sets = tags.len() / WAYS;
    let mut x: u64 = 7;
    let mut hot: u64 = 0;
    let mut hits = 0;
    for i in 0..LAP_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 3 != 0 { hot + ((x >> 8) & 255) } else { x >> 36 };
        if i & 1023 == 0 {
            hot = hot.wrapping_add(97);
        }
        let base = (line as usize % sets) * WAYS;
        let set = &mut tags[base..base + WAYS];
        let way = match set.iter().position(|&t| t == line) {
            Some(way) => {
                hits += 1;
                way
            }
            None => {
                let ages = &stamps[base..base + WAYS];
                let victim = (1..WAYS).fold(0, |v, w| if ages[w] < ages[v] { w } else { v });
                set[victim] = line;
                victim
            }
        };
        stamps[base + way] = (i & 0xff) as u8;
    }
    hits
}
