//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants whose load moves
//! every timing by tens of percent over seconds to minutes (`LAYERS.md`,
//! noise lessons). Two fixed kernels owned by this package run between
//! ops: a memory kernel (4096 strided reads over a 16 MiB buffer) and a
//! compute kernel (sorting 4096 floats). Neither shares any of the
//! program's code. Every reported time is multiplied by
//! `sqrt(STREAM_NOMINAL_S / median(stream) · SORT_NOMINAL_S / median(sort))`:
//! the time the op would have taken on the host at the speed where the
//! kernels take their nominal times. Contention from other tenants
//! slows memory-bound and compute-bound code by different amounts, and
//! the program's ops are a mix of both, hence the geometric mean of the
//! two. A change to the program moves its own times and not the scale;
//! the kernels do share the caches, so a program change that evicts
//! more of them also slows the kernels a little and is understated,
//! never overstated.

use std::time::Instant;

use crate::stats::Samples;

/// Kernel times the adjusted numbers are scaled to (about their medians
/// on a quiet 2-core host with 4 MiB L2 per core and a 105 MiB L3).
pub const STREAM_NOMINAL_S: f64 = 100e-6;
pub const SORT_NOMINAL_S: f64 = 160e-6;
const WORDS: usize = 2 << 20;
const READS: usize = 4096;
/// Words between reads: 512 bytes, eight cache lines.
const STRIDE: usize = 64;
const SORTED: usize = 4096;
/// Kernels run at most this often, so they stay a small share of a run.
const PERIOD_S: f64 = 2e-3;

pub struct Calibration {
    buf: Vec<u64>,
    keys: Vec<f64>,
    at: usize,
    acc: u64,
    stream: Samples,
    sort: Samples,
    spent: f64,
    last: Option<Instant>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let buf = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Calibration {
            buf,
            keys: Vec::with_capacity(SORTED),
            at: 0,
            acc: 0,
            stream: Samples::default(),
            sort: Samples::default(),
            spent: 0.0,
            last: None,
        }
    }

    /// Runs both kernels unless they ran less than `PERIOD_S` ago.
    pub fn sample(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < PERIOD_S)
        {
            return;
        }
        let t = Instant::now();
        let mut sum = 0u64;
        for j in 0..READS {
            sum = sum.wrapping_add(self.buf[(self.at + j * STRIDE) % WORDS]);
        }
        let t_stream = t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.keys.clear();
        let window = &self.buf[self.at % (WORDS - SORTED)..][..SORTED];
        self.keys.extend(window.iter().map(|&w| (w >> 11) as f64));
        self.keys.sort_unstable_by(f64::total_cmp);
        sum = sum.wrapping_add(self.keys[SORTED / 2] as u64);
        let t_sort = t.elapsed().as_secs_f64();

        self.acc = std::hint::black_box(self.acc.wrapping_add(sum));
        // A new window each time, so the kernels read what the host's
        // caches hold rather than what they read last.
        self.at = (self.at + 7919) % WORDS;
        self.stream.push(t_stream);
        self.sort.push(t_sort);
        self.spent += t_stream + t_sort;
        self.last = Some(Instant::now());
    }

    /// Seconds spent in the kernels so far, to leave out of throughput.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Median times of the two kernels (µs) and the number of samples.
    pub fn medians_us(&mut self) -> (f64, f64, usize) {
        (
            self.stream.quantile(0.5) * 1e6,
            self.sort.quantile(0.5) * 1e6,
            self.stream.len(),
        )
    }

    /// The factor of the samples taken so far, which are then dropped:
    /// set-up takes its own factor this way before the timed phase.
    pub fn take_factor(&mut self) -> f64 {
        let factor = self.factor();
        self.stream = Samples::default();
        self.sort = Samples::default();
        factor
    }

    /// Multiplier that turns a measured time into an adjusted one.
    pub fn factor(&mut self) -> f64 {
        let (stream, sort, _) = self.medians_us();
        (STREAM_NOMINAL_S * 1e6 / stream * SORT_NOMINAL_S * 1e6 / sort).sqrt()
    }
}
