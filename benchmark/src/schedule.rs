//! Seeded open-loop arrival schedules and the pacing that follows them.

use mtsr_tensor::Rng;
use std::time::{Duration, Instant};

/// Poisson arrivals at `rate_per_s` over `secs` seconds, conditioned on
/// their count: exactly `round(rate_per_s * secs)` due times
/// (nanoseconds from the start of the phase, ascending) separated by
/// seeded exponential gaps that are scaled to fill the phase. Every seed
/// therefore offers the same load, and only the spacing differs. The
/// same `rng` state gives the same schedule.
pub fn poisson_due_ns(rng: &mut Rng, rate_per_s: f64, secs: f64) -> Vec<u64> {
    assert!(rate_per_s > 0.0 && secs >= 0.0, "bad schedule parameters");
    let n = (rate_per_s * secs).round() as usize;
    // n + 1 gaps: the last one runs from the final arrival to the end.
    let mut reach = Vec::with_capacity(n + 1);
    let mut t = 0.0f64;
    for _ in 0..=n {
        // 53 uniform bits in [0, 1); 1 - u is in (0, 1], so ln is finite.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln();
        reach.push(t);
    }
    let scale = secs * 1e9 / t.max(f64::MIN_POSITIVE);
    reach.truncate(n);
    reach.into_iter().map(|r| (r * scale) as u64).collect()
}

/// How long before a due time the pacer stops sleeping and spins: a
/// sleep overshoots by up to the kernel's timer slack (50 us by default),
/// a spin does not. Kept short because at 2000 requests per second the
/// spin is a visible share of one of the machine's cores.
const SPIN: Duration = Duration::from_micros(100);

/// Blocks until `due`: sleeps while it is more than [`SPIN`] away, then
/// spins. Returns the instant it stopped waiting, which is `>= due`; the
/// difference is how late the generator ran.
pub fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_due_ns(&mut Rng::seed_from(5), 300.0, 2.0);
        let b = poisson_due_ns(&mut Rng::seed_from(5), 300.0, 2.0);
        let c = poisson_due_ns(&mut Rng::seed_from(6), 300.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ascending_bounded_and_offers_the_exact_load() {
        let due = poisson_due_ns(&mut Rng::seed_from(11), 600.0, 10.0);
        assert_eq!(due.len(), 6000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().expect("non-empty") < 10_000_000_000);
        // Exponential gaps: their standard deviation is about their mean.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (0.9..1.1).contains(&(var.sqrt() / mean)),
            "cv {}",
            var.sqrt() / mean
        );
        assert!(poisson_due_ns(&mut Rng::seed_from(1), 100.0, 0.0).is_empty());
    }

    #[test]
    fn pacer_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(2);
        assert!(wait_until(due) >= due);
        let past = Instant::now();
        assert!(wait_until(past) >= past);
    }
}
