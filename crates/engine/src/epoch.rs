//! Epoch boundaries: when the engine re-optimizes.
//!
//! Between epoch boundaries the executor only *re-allocates* rates (cheap:
//! the same priority order or fair weights, re-applied as flows complete or
//! get released). At an epoch boundary the engine additionally admits newly
//! arrived coflows, rebuilds the residual instance, and asks the
//! [`crate::policy::OnlinePolicy`] for a fresh plan — for LP policies that
//! is a warm-started re-solve.

/// Pluggable epoch-boundary condition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochTrigger {
    /// Re-plan whenever a coflow arrives.
    pub on_arrival: bool,
    /// Re-plan whenever a flow completes.
    pub on_completion: bool,
    /// Also re-plan at every multiple of this period (anchored at t = 0).
    pub period: Option<f64>,
}

impl Default for EpochTrigger {
    /// Re-plan on every arrival and completion (the most reactive setting).
    fn default() -> Self {
        Self {
            on_arrival: true,
            on_completion: true,
            period: None,
        }
    }
}

impl EpochTrigger {
    /// Re-plan only when new coflows arrive; completions just free
    /// bandwidth under the standing plan (this makes a batch instance with
    /// all releases at 0 run as a *single* epoch — the offline regime).
    pub fn arrivals_only() -> Self {
        Self {
            on_arrival: true,
            on_completion: false,
            period: None,
        }
    }

    /// Re-plan on a fixed timer only (arrivals wait for the next tick;
    /// the engine still forces an epoch if it would otherwise sit idle
    /// with work pending).
    ///
    /// # Panics
    /// If `period` is not positive and finite.
    pub fn periodic(period: f64) -> Self {
        assert!(
            period > 0.0 && period.is_finite(),
            "need a positive finite period, got {period}"
        );
        Self {
            on_arrival: false,
            on_completion: false,
            period: Some(period),
        }
    }

    /// The first tick strictly after `t` (`None` without a period).
    pub(crate) fn next_tick(&self, t: f64) -> Option<f64> {
        self.period.map(|p| {
            let k = (t / p).floor() + 1.0;
            let mut tick = k * p;
            // Guard against `t` sitting exactly on a boundary within fp
            // noise: ticks must be strictly in the future.
            if tick <= t + 1e-12 {
                tick += p;
            }
            tick
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    #[test]
    fn default_fires_on_events() {
        let t = EpochTrigger::default();
        assert!(t.on_arrival && t.on_completion);
        assert_eq!(t.period, None);
        assert_eq!(t.next_tick(5.0), None);
    }

    #[test]
    fn periodic_ticks_strictly_advance() {
        let tr = EpochTrigger::periodic(2.0);
        assert_eq!(tr.next_tick(0.0), Some(2.0));
        assert_eq!(tr.next_tick(1.9), Some(2.0));
        assert_eq!(tr.next_tick(2.0), Some(4.0));
        assert_eq!(tr.next_tick(2.1), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "positive finite period")]
    fn bad_period_rejected() {
        let _ = EpochTrigger::periodic(0.0);
    }
}
