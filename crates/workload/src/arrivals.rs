//! Request arrival processes.

use rand::rngs::StdRng;
use rand::RngExt;

/// An arrival process generating inter-arrival gaps in nanoseconds.
pub trait ArrivalProcess {
    /// Draw the gap to the next arrival.
    fn next_gap_ns(&mut self, rng: &mut StdRng) -> u64;
}

/// Poisson arrivals (exponential inter-arrival times).
#[derive(Debug, Clone)]
pub struct Poisson {
    rate_per_sec: f64,
}

impl Poisson {
    /// Create a process with the given mean rate.
    ///
    /// # Panics
    /// Panics unless the rate is positive and finite.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        Poisson { rate_per_sec }
    }
}

impl ArrivalProcess for Poisson {
    fn next_gap_ns(&mut self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random::<f64>().max(1e-15);
        let secs = -u.ln() / self.rate_per_sec;
        (secs * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut p = Poisson::new(100.0); // 100 req/s -> mean gap 10 ms
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| p.next_gap_ns(&mut rng)).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((9.5..10.5).contains(&mean_ms), "mean gap {mean_ms}ms");
    }

    #[test]
    fn poisson_gaps_vary() {
        let mut p = Poisson::new(10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let a = p.next_gap_ns(&mut rng);
        let b = p.next_gap_ns(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Poisson::new(0.0);
    }
}
