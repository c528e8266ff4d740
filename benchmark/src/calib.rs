//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the speed of a fixed CPU kernel swings by up to 2×
//! within seconds, and the slow phases last long enough to shift the
//! median of a whole run. So every operation of the untraced loop (one
//! method's run from the CSV, or the whole stream phase) is bracketed by a
//! fixed kernel (sorting a fixed pseudo-random array, with no allocation,
//! so it depends on none of the program's code) and each time the
//! operation measured is scaled by `REFERENCE_MS / kernel time`: the
//! result is the time on a host where the kernel takes [`REFERENCE_MS`].
//! The kernel runs only between operations, never inside one: the stream
//! phase's epochs run back to back, undisturbed. The raw wall-clock
//! medians are printed beside the scaled ones.

use crate::stats::{median, ms};
use std::time::Instant;

/// The kernel's time on the reference host, in milliseconds.
pub const REFERENCE_MS: f64 = 6.0;

/// Elements the kernel sorts (2 MiB of `u64`).
const KERNEL_LEN: usize = 1 << 18;

/// Kernel runs per sample; the sample is their median, so one interrupt
/// does not set a whole repetition's scale.
const RUNS_PER_SAMPLE: usize = 3;

/// The calibration kernel and the samples it took.
pub struct Calibration {
    base: Vec<u64>,
    work: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Fills the kernel's input; a first, discarded run pays the page
    /// faults.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let base: Vec<u64> = (0..KERNEL_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut calibration = Self {
            work: base.clone(),
            base,
            samples: Vec::new(),
        };
        calibration.run();
        calibration
    }

    /// Runs the kernel once; returns its time in milliseconds.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        self.work.copy_from_slice(&self.base);
        self.work.sort_unstable();
        std::hint::black_box(&self.work);
        ms(t0.elapsed())
    }

    /// The kernel's current time in milliseconds: the median of
    /// [`RUNS_PER_SAMPLE`] runs.
    pub fn sample(&mut self) -> f64 {
        let runs: Vec<f64> = (0..RUNS_PER_SAMPLE).map(|_| self.run()).collect();
        let sample = median(&runs);
        self.samples.push(sample);
        sample
    }

    /// Every sample taken so far, in milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The factor that scales a time to the reference host, given the
/// kernel's samples just before and just after it was measured.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS * 2.0 / (before_ms + after_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_host_speed() {
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(factor(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        let mut c = Calibration::new();
        assert!(c.sample() > 0.0);
        assert_eq!(c.samples().len(), 1);
    }
}
