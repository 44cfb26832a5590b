//! Update-propagation triggers.
//!
//! Writesets reach replicas primarily as a side effect of certification
//! responses. Tashkent adds two triggers for replicas that are not
//! certifying (§4.1): the proxy *pulls* new updates every 500 ms when idle,
//! and the certifier *prods* replicas that fall 25 or more commits behind.
//! This module is the pure decision logic; the cluster layer turns the
//! decisions into messages.

use tashkent_engine::Version;
use tashkent_sim::SimTime;

/// When and why a replica should fetch updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationAction {
    /// Nothing to do yet.
    None,
    /// The replica has been idle past the pull period; it should pull.
    Pull,
    /// The replica lags at least the prod threshold; the certifier should
    /// send it a prod notification.
    Prod,
}

/// The trigger policy (pull period + prod threshold).
#[derive(Debug, Clone, Copy)]
pub struct PropagationPolicy {
    /// Idle time after which the proxy pulls (paper: 500 ms).
    pub pull_period: SimTime,
    /// Commit lag at which the certifier prods a replica (paper: 25).
    pub prod_threshold: u64,
}

impl Default for PropagationPolicy {
    fn default() -> Self {
        PropagationPolicy {
            pull_period: SimTime::from_millis(500),
            prod_threshold: 25,
        }
    }
}

impl PropagationPolicy {
    /// Decides the next action for a replica.
    ///
    /// * `now` — current time,
    /// * `last_contact` — when the replica last exchanged writesets with the
    ///   certifier (certification request or pull),
    /// * `applied` — the replica's applied version,
    /// * `head` — the certifier's log head.
    ///
    /// Prodding takes priority over pulling: a badly lagging replica is
    /// notified immediately regardless of its pull timer.
    pub fn decide(
        &self,
        now: SimTime,
        last_contact: SimTime,
        applied: Version,
        head: Version,
    ) -> PropagationAction {
        let lag = head.0.saturating_sub(applied.0);
        if lag >= self.prod_threshold {
            return PropagationAction::Prod;
        }
        if lag > 0 && now.saturating_since(last_contact) >= self.pull_period.as_micros() {
            return PropagationAction::Pull;
        }
        PropagationAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: PropagationPolicy = PropagationPolicy {
        pull_period: SimTime::from_millis(500),
        prod_threshold: 25,
    };

    #[test]
    fn up_to_date_replica_does_nothing() {
        let a = POLICY.decide(
            SimTime::from_secs(10),
            SimTime::ZERO,
            Version(40),
            Version(40),
        );
        assert_eq!(a, PropagationAction::None);
    }

    #[test]
    fn small_lag_waits_for_pull_period() {
        let now = SimTime::from_millis(300);
        let a = POLICY.decide(now, SimTime::ZERO, Version(10), Version(12));
        assert_eq!(a, PropagationAction::None);
        let later = SimTime::from_millis(500);
        let b = POLICY.decide(later, SimTime::ZERO, Version(10), Version(12));
        assert_eq!(b, PropagationAction::Pull);
    }

    #[test]
    fn recent_contact_defers_pull() {
        let a = POLICY.decide(
            SimTime::from_millis(600),
            SimTime::from_millis(400),
            Version(10),
            Version(12),
        );
        assert_eq!(a, PropagationAction::None);
    }

    #[test]
    fn big_lag_prods_immediately() {
        let a = POLICY.decide(
            SimTime::from_millis(1),
            SimTime::ZERO,
            Version(0),
            Version(25),
        );
        assert_eq!(a, PropagationAction::Prod);
    }

    #[test]
    fn prod_threshold_is_inclusive() {
        let just_below = POLICY.decide(
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            Version(0),
            Version(24),
        );
        assert_ne!(just_below, PropagationAction::Prod);
        let at = POLICY.decide(
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            Version(0),
            Version(25),
        );
        assert_eq!(at, PropagationAction::Prod);
    }

    #[test]
    fn defaults_match_paper() {
        let p = PropagationPolicy::default();
        assert_eq!(p.pull_period, SimTime::from_millis(500));
        assert_eq!(p.prod_threshold, 25);
    }
}
