//! Order statistics of repeated timings.

/// The percentiles a timing's tail is reported at, highest first. A
/// percentile is reported only when at least [`TAIL_MIN_BEYOND`] samples
/// lie beyond it, so a tail figure never rests on a handful of values.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples a reported tail percentile must have beyond it.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Repeated measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    #[must_use]
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of measurements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was measured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Each measurement mapped through `f`, e.g. seconds to a rate.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples {
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The `p`-th percentile (0–100), linearly interpolated between order
    /// statistics; `NaN` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => f64::NAN,
            1 => sorted[0],
            n => {
                let rank = p / 100.0 * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
            }
        }
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least ten samples
    /// beyond it, as `(percentile, value)`; `None` for fewer than 40
    /// samples.
    #[must_use]
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.values.len() as f64;
        TAIL_LADDER
            .iter()
            .find(|&&p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, self.percentile(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert!(Samples::new().median().is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let small = of(&[1.0; 39]);
        assert_eq!(small.tail(), None);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(of(&forty).tail().map(|t| t.0), Some(75.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = of(&thousand).tail().unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9);
    }
}
