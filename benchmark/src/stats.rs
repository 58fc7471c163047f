//! Order statistics the harness reports: a percentile picker that refuses a
//! percentile the sample cannot support, medians over slices of a run, and
//! the quartile spread `agree` compares with a metric's bound.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the sample at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Does a sample of `n` leave at least [`MIN_BEYOND`] values beyond its
/// `p`-th percentile?
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// Median of a list of floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One completed operation of a timed run, packed into eight bytes: a run
/// keeps one per request, half a million of them on `hit_small`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, microseconds after the timed run began.
    done_us: u32,
    /// Its latency in nanoseconds; 4.29 s and longer read as 4.29 s.
    lat_ns: u32,
}

impl Sample {
    pub fn new(done_ns: u64, lat_ns: u64) -> Sample {
        Sample {
            done_us: u32::try_from(done_ns / 1_000).unwrap_or(u32::MAX),
            lat_ns: u32::try_from(lat_ns).unwrap_or(u32::MAX),
        }
    }

    pub fn done_ns(&self) -> u64 {
        u64::from(self.done_us) * 1_000
    }

    pub fn lat_ns(&self) -> u64 {
        u64::from(self.lat_ns)
    }
}

/// The best of `values`: the lowest, or the highest.
///
/// The sandbox is shared, and a neighbour only ever makes a slice of a run
/// slower, sometimes for most of the run. The best slice is therefore the
/// one that shows what the code costs; a change that makes the code slower
/// makes every slice slower, the best one too, and still shows.
pub fn best(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let pick = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick)
}

/// Throughput and median latency of a timed run: each is computed for every
/// equal time slice of the run, and the [`best`] slice is reported, so that
/// disturbed seconds move neither.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    /// Completions per second.
    pub rate: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// Median latency of every slice, in time order (printed with a run:
    /// it shows whether a run was steady in itself).
    pub slice_p50_us: Vec<f64>,
}

/// Samples a slice should hold, about: a median of fewer moves with the draw.
const PER_SLICE: usize = 50;

/// Reduce a timed run over `[0, wall_ns)`: cut it into as many equal time
/// slices, up to 8, as leave each about [`PER_SLICE`] samples (a sample too
/// small for that is one slice), drop the empty ones, and report the best
/// rate and the best median.
pub fn sliced(samples: &[Sample], wall_ns: u64) -> Option<Sliced> {
    if samples.is_empty() || wall_ns == 0 {
        return None;
    }
    let count = (samples.len() / PER_SLICE).clamp(1, 8);
    let width = wall_ns.div_ceil(count as u64);
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); count];
    for s in samples {
        let i = ((s.done_ns() / width) as usize).min(count - 1);
        slices[i].push(s.lat_ns());
    }
    slices.retain(|b| !b.is_empty());
    let rates: Vec<f64> = slices
        .iter()
        .map(|b| b.len() as f64 / (width as f64 / 1e9))
        .collect();
    let p50s: Vec<f64> = slices
        .iter_mut()
        .map(|b| {
            b.sort_unstable();
            percentile(b, 0.50).map_or(0.0, |ns| ns as f64 / 1e3)
        })
        .collect();
    Some(Sliced {
        rate: best(&rates, false)?,
        p50_us: best(&p50s, true)?,
        slice_p50_us: p50s,
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.95), Some(95));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.95), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd and even medians.
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 is rank 190: ten beyond. 199 leaves nine.
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        // p99 needs a thousand.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));
    }

    #[test]
    fn best_is_the_lowest_or_the_highest() {
        let v = [5.0, 1.0, 8.0, 2.0];
        assert_eq!(best(&v, true), Some(1.0));
        assert_eq!(best(&v, false), Some(8.0));
        assert_eq!(best(&[], true), None);
    }

    #[test]
    fn slices_report_an_undisturbed_slice_not_the_disturbed_ones() {
        // 8 slices of 2 500 samples at 100 us; all but two are 10x slower
        // and complete fewer requests.
        let mut samples = Vec::new();
        for slice in 0..8u64 {
            let (n, lat) = if slice != 2 && slice != 6 {
                (1_500, 1_000_000)
            } else {
                (2_500, 100_000)
            };
            for k in 0..n {
                samples.push(Sample::new(slice * 1_000_000_000 + k * 300_000, lat));
            }
        }
        let s = sliced(&samples, 8_000_000_000).unwrap();
        assert_eq!(s.slice_p50_us.len(), 8);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.rate, 2_500.0);
        assert!(sliced(&[], 1).is_none());
    }

    #[test]
    fn a_small_sample_is_one_slice() {
        let samples: Vec<Sample> = (0..50)
            .map(|k| Sample::new(k * 10_000, 1_000 * (k + 1)))
            .collect();
        let s = sliced(&samples, 500_000).unwrap();
        assert_eq!(s.slice_p50_us, [25.0]);
        assert_eq!(s.p50_us, 25.0);
        let samples: Vec<Sample> = (0..400).map(|k| Sample::new(k * 1_000, 7_000)).collect();
        assert_eq!(sliced(&samples, 400_000).unwrap().slice_p50_us.len(), 8);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
