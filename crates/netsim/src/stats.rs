//! Exact percentile summaries for experiment-sized samples, used by the
//! QoE reports.

use serde::{Deserialize, Serialize};

/// Exact sample summary: keeps every observation, computes percentiles on
/// demand. Experiments in this workspace collect at most a few hundred
/// thousand points, so exact percentiles are affordable and remove the
/// estimator-accuracy caveat from reported numbers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Fold every observation of `other` into this summary.
    pub fn merge(&mut self, other: &Summary) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Percentile via linear interpolation between closest ranks.
    /// `q` in [0, 1]. Returns 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let frac = pos - lo as f64;
            self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        self.values[0]
    }

    /// Largest observation (0 when empty).
    pub fn max(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.values.last().unwrap()
    }

    /// All recorded values, unsorted.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quantiles_exact() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.median() - 50.5).abs() < 1e-12);
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((s.quantile(0.25) - 25.75).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.p99(), 42.0);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn summary_interleaves_push_and_quantile() {
        let mut s = Summary::new();
        s.push(10.0);
        s.push(20.0);
        assert_eq!(s.median(), 15.0);
        s.push(30.0);
        assert_eq!(s.median(), 20.0);
    }
}
