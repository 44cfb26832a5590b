//! The replicated certifier group.
//!
//! "For the certifier, we use a leader and two backups for fault tolerance"
//! (§4.4). The group model keeps the leader's log logically replicated to
//! the backups (the simulation shares one log object; what matters for the
//! experiments is the failover behaviour and its latency, not byte-level
//! replication), elects the next member on leader failure, and reports
//! whether the service is available.

use tashkent_sim::SimTime;

/// Events the group reports to the cluster layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupEvent {
    /// A new leader took over after a failure.
    FailedOver {
        /// Index of the new leader.
        leader: usize,
        /// When the new leader starts serving.
        available_at: SimTime,
    },
    /// No members remain; certification is unavailable.
    Unavailable,
}

/// Membership and leadership of the certifier group.
#[derive(Debug, Clone)]
pub struct CertifierGroup {
    alive: Vec<bool>,
    leader: usize,
    failover_delay: SimTime,
    failovers: u64,
}

impl CertifierGroup {
    /// Creates a group of `members` certifiers (leader is member 0).
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn new(members: usize, failover_delay: SimTime) -> Self {
        assert!(members > 0, "certifier group needs at least one member");
        CertifierGroup {
            alive: vec![true; members],
            leader: 0,
            failover_delay,
            failovers: 0,
        }
    }

    /// A paper-shaped group: one leader, two backups, 200 ms failover.
    pub fn paper_default() -> Self {
        Self::new(3, SimTime::from_millis(200))
    }

    /// Index of the current leader, if any member is alive.
    pub fn leader(&self) -> Option<usize> {
        self.alive
            .get(self.leader)
            .copied()
            .unwrap_or(false)
            .then_some(self.leader)
    }

    /// Number of live members.
    pub fn live_members(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Times the group has failed over.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Whether certification is currently served.
    pub fn is_available(&self) -> bool {
        self.leader().is_some()
    }

    /// Kills member `idx` at time `now`; if it was the leader, a backup is
    /// elected after the failover delay.
    pub fn kill(&mut self, now: SimTime, idx: usize) -> Option<GroupEvent> {
        if idx >= self.alive.len() || !self.alive[idx] {
            return None;
        }
        self.alive[idx] = false;
        if idx != self.leader {
            return None;
        }
        match self.alive.iter().position(|a| *a) {
            Some(next) => {
                self.leader = next;
                self.failovers += 1;
                Some(GroupEvent::FailedOver {
                    leader: next,
                    available_at: now + self.failover_delay.as_micros(),
                })
            }
            None => Some(GroupEvent::Unavailable),
        }
    }

    /// Restarts member `idx` (it rejoins as a backup).
    pub fn restart(&mut self, idx: usize) {
        if idx < self.alive.len() {
            self.alive[idx] = true;
        }
    }

    /// Restarts member `idx` at time `now`, electing it leader if the group
    /// had no live members (the queue-and-wait drain point): the revived
    /// member pays the election delay before serving. Rejoining a group
    /// that still has a leader is an ordinary backup [`Self::restart`].
    pub fn revive(&mut self, now: SimTime, idx: usize) -> Option<GroupEvent> {
        if idx >= self.alive.len() || self.alive[idx] {
            return None;
        }
        let was_down = !self.is_available();
        self.alive[idx] = true;
        if !was_down {
            return None;
        }
        self.leader = idx;
        self.failovers += 1;
        Some(GroupEvent::FailedOver {
            leader: idx,
            available_at: now + self.failover_delay.as_micros(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_three_members() {
        let g = CertifierGroup::paper_default();
        assert_eq!(g.live_members(), 3);
        assert_eq!(g.leader(), Some(0));
        assert!(g.is_available());
    }

    #[test]
    fn backup_failure_keeps_leader() {
        let mut g = CertifierGroup::paper_default();
        assert_eq!(g.kill(SimTime::ZERO, 2), None);
        assert_eq!(g.leader(), Some(0));
        assert_eq!(g.failovers(), 0);
    }

    #[test]
    fn leader_failure_elects_backup_after_delay() {
        let mut g = CertifierGroup::paper_default();
        let ev = g.kill(SimTime::from_secs(5), 0).unwrap();
        match ev {
            GroupEvent::FailedOver {
                leader,
                available_at,
            } => {
                assert_eq!(leader, 1);
                assert_eq!(available_at, SimTime::from_secs(5) + 200_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.leader(), Some(1));
        assert_eq!(g.failovers(), 1);
    }

    #[test]
    fn all_dead_is_unavailable() {
        let mut g = CertifierGroup::paper_default();
        g.kill(SimTime::ZERO, 1);
        g.kill(SimTime::ZERO, 2);
        let ev = g.kill(SimTime::ZERO, 0).unwrap();
        assert_eq!(ev, GroupEvent::Unavailable);
        assert!(!g.is_available());
        assert_eq!(g.leader(), None);
    }

    #[test]
    fn restart_rejoins_as_backup() {
        let mut g = CertifierGroup::paper_default();
        g.kill(SimTime::ZERO, 0);
        g.restart(0);
        // Member 0 is alive again but member 1 keeps leadership.
        assert_eq!(g.leader(), Some(1));
        assert_eq!(g.live_members(), 3);
    }

    #[test]
    fn killing_dead_member_is_noop() {
        let mut g = CertifierGroup::paper_default();
        g.kill(SimTime::ZERO, 2);
        assert_eq!(g.kill(SimTime::ZERO, 2), None);
        assert_eq!(g.live_members(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_rejected() {
        CertifierGroup::new(0, SimTime::ZERO);
    }

    #[test]
    fn revive_elects_the_restarted_member_when_the_group_was_down() {
        let mut g = CertifierGroup::paper_default();
        g.kill(SimTime::ZERO, 1);
        g.kill(SimTime::ZERO, 2);
        assert_eq!(g.kill(SimTime::ZERO, 0), Some(GroupEvent::Unavailable));
        let ev = g.revive(SimTime::from_secs(3), 2).unwrap();
        assert_eq!(
            ev,
            GroupEvent::FailedOver {
                leader: 2,
                available_at: SimTime::from_secs(3) + 200_000,
            }
        );
        assert_eq!(g.leader(), Some(2));
        assert!(g.is_available());
    }

    #[test]
    fn revive_into_a_live_group_is_a_backup_rejoin() {
        let mut g = CertifierGroup::paper_default();
        g.kill(SimTime::ZERO, 0);
        assert_eq!(g.revive(SimTime::from_secs(1), 0), None);
        assert_eq!(g.leader(), Some(1), "existing leader keeps the lease");
        assert_eq!(g.live_members(), 3);
        // Reviving a live member is a no-op.
        assert_eq!(g.revive(SimTime::from_secs(2), 1), None);
    }
}
