//! Exponentially-weighted moving average.
//!
//! The paper's load balancer consumes "smoothed" CPU and disk utilizations
//! from per-replica daemons (§2.4); this is the smoother.

/// An exponentially-weighted moving average over a scalar signal.
///
/// `alpha` is the weight of each new observation; smaller values smooth more.
/// Until the first observation arrives, [`Ewma::value`] reports zero.
///
/// # Examples
///
/// ```
/// use tashkent_sim::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// e.observe(10.0);
/// e.observe(20.0);
/// assert_eq!(e.value(), 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a smoother with observation weight `alpha` clamped to `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            value: None,
        }
    }

    /// Feeds one observation.
    ///
    /// The first observation initializes the average directly, avoiding a
    /// long warm-up from zero.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current smoothed value, or zero before any observation.
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Whether at least one observation has been recorded.
    pub fn is_primed(&self) -> bool {
        self.value.is_some()
    }

    /// Clears the average back to the unprimed state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initializes() {
        let mut e = Ewma::new(0.1);
        assert!(!e.is_primed());
        e.observe(42.0);
        assert_eq!(e.value(), 42.0);
        assert!(e.is_primed());
    }

    #[test]
    fn converges_toward_constant_signal() {
        let mut e = Ewma::new(0.3);
        e.observe(0.0);
        for _ in 0..50 {
            e.observe(100.0);
        }
        assert!((e.value() - 100.0).abs() < 1e-4);
    }

    #[test]
    fn smooths_oscillation() {
        let mut e = Ewma::new(0.2);
        for i in 0..100 {
            e.observe(if i % 2 == 0 { 0.0 } else { 100.0 });
        }
        let v = e.value();
        assert!((30.0..70.0).contains(&v), "value {v}");
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.observe(1.0);
        e.observe(9.0);
        assert_eq!(e.value(), 9.0);
    }

    #[test]
    fn reset_unprimes() {
        let mut e = Ewma::new(0.5);
        e.observe(5.0);
        e.reset();
        assert!(!e.is_primed());
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    fn alpha_is_clamped() {
        let mut e = Ewma::new(7.0);
        e.observe(1.0);
        e.observe(3.0);
        // Clamped to 1.0: tracks the latest observation exactly.
        assert_eq!(e.value(), 3.0);
    }
}
