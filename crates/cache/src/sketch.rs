//! Count-min sketch: a tiny, fixed-memory frequency estimator.
//!
//! Backs the TinyLFU admission filter ([`crate::admission`]): the edge
//! tracks how often each descriptor has been *seen* (not just what is
//! cached), so that a one-hit-wonder cannot evict a popular entry. The
//! estimate is one-sided — never below the true count — which is exactly
//! the property admission needs.

use crate::digest::fnv1a64;

/// A count-min sketch over `u64` keys with saturating 8-bit counters and
/// periodic halving (the "aging" that turns counts into a sliding window).
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Row width (power of two).
    width: usize,
    /// Rows, each with an independent hash seed.
    rows: Vec<Vec<u8>>,
    seeds: Vec<u64>,
    /// Increments since the last halving.
    additions: u64,
    /// Halve all counters after this many increments.
    window: u64,
}

impl CountMinSketch {
    /// Create a sketch with `width` counters per row (rounded up to a power
    /// of two) and `depth` rows; `window` increments trigger an aging pass.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(width: usize, depth: usize, window: u64) -> Self {
        assert!(
            width > 0 && depth > 0 && window > 0,
            "sketch parameters must be positive"
        );
        let width = width.next_power_of_two();
        CountMinSketch {
            width,
            rows: vec![vec![0u8; width]; depth],
            seeds: (0..depth as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
                .collect(),
            additions: 0,
            window,
        }
    }

    fn index(&self, row: usize, key: u64) -> usize {
        let mixed = fnv1a64(&(key ^ self.seeds[row]).to_le_bytes());
        (mixed as usize) & (self.width - 1)
    }

    /// Record one occurrence of `key`.
    pub fn increment(&mut self, key: u64) {
        for row in 0..self.rows.len() {
            let idx = self.index(row, key);
            let c = &mut self.rows[row][idx];
            *c = c.saturating_add(1);
        }
        self.additions += 1;
        if self.additions >= self.window {
            self.halve();
        }
    }

    /// Estimated occurrence count of `key` (never less than the true count
    /// within the current window, up to counter saturation).
    pub fn estimate(&self, key: u64) -> u32 {
        (0..self.rows.len())
            .map(|row| self.rows[row][self.index(row, key)] as u32)
            .min()
            .unwrap_or(0)
    }

    /// Age all counters by halving them (called automatically every
    /// `window` increments; public for tests and manual control).
    pub fn halve(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.additions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_never_undercounts() {
        let mut s = CountMinSketch::new(256, 4, 1_000_000);
        for k in 0..50u64 {
            for _ in 0..(k % 7 + 1) {
                s.increment(k);
            }
        }
        for k in 0..50u64 {
            assert!(s.estimate(k) >= (k % 7 + 1) as u32, "undercounted {k}");
        }
    }

    #[test]
    fn unseen_keys_estimate_near_zero() {
        let mut s = CountMinSketch::new(1024, 4, 1_000_000);
        for k in 0..100u64 {
            s.increment(k);
        }
        // A sparse sketch rarely collides; allow tiny overestimates.
        let freq = s.estimate(999_999);
        assert!(freq <= 1, "phantom frequency {freq}");
    }

    #[test]
    fn skewed_stream_ranks_hot_keys_higher() {
        let mut s = CountMinSketch::new(512, 4, 1_000_000);
        for _ in 0..200 {
            s.increment(1); // hot
        }
        for k in 100..150u64 {
            s.increment(k); // cold tail
        }
        let hot = s.estimate(1);
        for k in 100..150u64 {
            assert!(
                hot > s.estimate(k) * 10,
                "hot {hot} vs cold {}",
                s.estimate(k)
            );
        }
    }

    #[test]
    fn halving_ages_counts() {
        let mut s = CountMinSketch::new(128, 4, 1_000_000);
        for _ in 0..40 {
            s.increment(7);
        }
        let before = s.estimate(7);
        s.halve();
        let after = s.estimate(7);
        assert_eq!(after, before / 2);
    }

    #[test]
    fn window_triggers_automatic_aging() {
        let mut s = CountMinSketch::new(128, 2, 10);
        for _ in 0..10 {
            s.increment(3);
        }
        // The 10th increment crossed the window: counters were halved.
        assert_eq!(s.additions, 0);
        assert!(s.estimate(3) <= 5);
    }

    #[test]
    fn counters_saturate_not_wrap() {
        let mut s = CountMinSketch::new(64, 1, u64::MAX);
        for _ in 0..1000 {
            s.increment(5);
        }
        assert_eq!(s.estimate(5), 255);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        let _ = CountMinSketch::new(16, 0, 10);
    }
}
