//! Host speed, measured while the work runs.
//!
//! The benchmark host is a small VM on a shared machine. Its cores run
//! at a speed that wanders by ±20 % in epochs of seconds to minutes,
//! with no steal time reported: a fixed arithmetic loop measured over
//! 40 s took 39 to 57 ms per iteration (README.md, "Noise and bounds").
//! A wall time is therefore worth little on its own. Work that runs in
//! this process is interleaved with a fixed calibration unit — a quarter
//! of a millisecond after every 10 ms of work — and each time is divided
//! by the speed the units around it saw: a time "at reference speed".
//! Parent and change are measured with the same unit, so the reference
//! cancels out of every comparison.

use crate::trace::now_s;

/// What one unit takes on this host when it is quiet. Only fixes the
/// scale, so that calibrated times read like wall times.
pub const REFERENCE_UNIT_S: f64 = 2.5e-4;
/// Work between two units.
const PERIOD_S: f64 = 0.010;
/// Units further than this from a moment do not speak for it.
const WINDOW_S: f64 = 0.25;

/// Fill, sort and reduce 2048 words eight times: branches, dependent
/// arithmetic and loads that stay in the first-level cache.
fn unit(buf: &mut Vec<u64>) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..8 {
        buf.clear();
        for _ in 0..2048 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buf.push(x);
        }
        buf.sort_unstable();
        for (k, v) in buf.iter().enumerate() {
            acc = acc * 0.999_999 + (*v >> 40) as f64 / (k + 1) as f64;
        }
    }
    acc
}

/// The calibration units one thread has run: (moment, duration), seconds.
pub struct Calibrator {
    buf: Vec<u64>,
    last_s: f64,
    pub samples: Vec<(f64, f64)>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator {
            buf: Vec::with_capacity(2048),
            last_s: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Runs `n` units now.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = now_s();
            std::hint::black_box(unit(&mut self.buf));
            self.last_s = now_s();
            self.samples.push((t0, self.last_s - t0));
        }
    }

    /// Runs one unit if the last one is more than a period ago. Called
    /// at every cell boundary.
    pub fn tick(&mut self) {
        if now_s() - self.last_s >= PERIOD_S {
            self.burst(1);
        }
    }
}

/// All units of a run, for looking up the speed at a moment.
pub struct Speed {
    /// Sorted by moment.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    pub fn new(mut samples: Vec<(f64, f64)>) -> Speed {
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        Speed { samples }
    }

    /// Factor that turns a time measured between `from_s` and `to_s`
    /// into a time at reference speed: reference unit time over the mean
    /// unit time seen in that interval, widened by the window.
    pub fn factor(&self, from_s: f64, to_s: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < from_s - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= to_s + WINDOW_S);
        let near = if lo < hi {
            &self.samples[lo..hi]
        } else if self.samples.is_empty() {
            return 1.0;
        } else {
            // Nothing in the window: the unit nearest in time.
            let k = lo.min(self.samples.len() - 1);
            &self.samples[k..=k]
        };
        REFERENCE_UNIT_S / (near.iter().map(|s| s.1).sum::<f64>() / near.len() as f64)
    }
}
