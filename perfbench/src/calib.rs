//! Host-speed calibration.
//!
//! The benchmark's host is a VM whose two vCPUs run up to 1.9× slower for
//! stretches of seconds to minutes, set by load outside it: one kernel
//! round, pinned to one core, takes 86 µs per invoke in one 8 s window and
//! 151 µs in the next. No estimator inside a 30 s run can remove a slow
//! stretch that covers the whole run. So every timed stretch is bracketed
//! by a [`probe`]: a fixed floating-point loop that is part of the
//! benchmark, not of the program under test. A time measured between two
//! probes is reported as `measured × REFERENCE_NS ÷ mean(probes)`, which
//! is the time the work would take with the host at the speed where the
//! probe takes [`REFERENCE_NS`] (about full speed on the two-vCPU host the
//! benchmark was tuned on; [`REFERENCE_PAIR_NS`] for a probe on both
//! vCPUs at once). Over a 60 s run the raw time of a kernel round
//! varied 1.75× between 6 s stretches while its ratio to the probes varied
//! by 5%.
//!
//! A change to the program under test cannot move the probe, so a
//! calibrated time moves only with the program's own cost.

use std::time::Instant;

/// The probe's time on one thread at the speed calibrated times are
/// reported at, ns.
pub const REFERENCE_NS: f64 = 110_000.0;

/// The probe's time when it runs on two threads at once, at that speed,
/// ns. The host's two vCPUs share a core, so each runs the probe at
/// about half speed while the other runs it too.
pub const REFERENCE_PAIR_NS: f64 = 200_000.0;

/// Runs the fixed probe loop three times on this thread; returns the
/// median time, ns (one run can catch an interrupt).
pub fn probe() -> f64 {
    let mut times = [0.0; 3].map(|_| {
        let mut acc = [1.0f64; 64];
        let start = Instant::now();
        for _ in 0..8000 {
            for a in &mut acc {
                *a = *a * 1.000_000_1 + 1e-9;
            }
            acc = std::hint::black_box(acc);
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64
    });
    crate::stats::median(&mut times)
}

/// Runs [`probe`] on one thread, or on two threads at once (one per vCPU
/// a workload keeps busy); returns the mean time, ns.
fn probe_on(pair: bool) -> f64 {
    if !pair {
        return probe();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2).map(|_| s.spawn(probe)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Brackets consecutive timed stretches with probes.
#[derive(Debug)]
pub struct Calibrator {
    pair: bool,
    last: f64,
}

impl Calibrator {
    /// Takes the first probe on this thread.
    pub fn single() -> Calibrator {
        Calibrator {
            pair: false,
            last: probe(),
        }
    }

    /// Takes the first probe on two threads at once, for a workload that
    /// keeps both vCPUs busy.
    pub fn pair() -> Calibrator {
        Calibrator {
            pair: true,
            last: probe_on(true),
        }
    }

    /// Ends the stretch since the previous probe: takes a new probe and
    /// returns the factor that turns the stretch's measured times into
    /// calibrated ones.
    pub fn factor(&mut self) -> f64 {
        let now = probe_on(self.pair);
        let mean = (self.last + now) / 2.0;
        self.last = now;
        let reference = if self.pair {
            REFERENCE_PAIR_NS
        } else {
            REFERENCE_NS
        };
        reference / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_finite() {
        for mut c in [Calibrator::single(), Calibrator::pair()] {
            for _ in 0..3 {
                let f = c.factor();
                assert!(f.is_finite() && f > 0.0, "{f}");
            }
        }
    }
}
