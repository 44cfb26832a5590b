//! Per-relation-group certification shards.
//!
//! Sharded certification (Sutra & Shapiro direction) splits the single
//! total-order certifier into one shard per relation group: each shard keeps
//! its own conflict index and its own serial service queue, keyed by a
//! *group-local sequence number* (`gseq`) instead of the global version.
//!
//! The split is sound because every item belongs to exactly one group, so
//! the global conflict probe `last_writer[item] > snapshot` is equivalent to
//! the group-local probe `gindex[item] > gsnap`, where `gsnap` is the number
//! of group-local commits with global version ≤ the snapshot (the global →
//! group-local order embedding is monotone). Global version assignment, the
//! persistent log, and durability accounting stay with the coordinator-side
//! decide step ([`crate::Certifier`]'s group-commit formula); a shard only
//! answers "does this writeset conflict within my group, and when did the
//! check finish?" — which is exactly the part that can run on a pool worker.

use std::collections::HashMap;

use tashkent_engine::{Writeset, WritesetItem};
use tashkent_sim::SimTime;

use crate::certifier::CertifierParams;

/// Result of one shard-local conflict check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCheck {
    /// Whether the writeset passed certification within this group.
    pub committed: bool,
    /// When the check's CPU work completed on this shard.
    pub checked_at: SimTime,
    /// The arrival time after waiting out a failover gap
    /// (`now.max(available_at)`).
    pub eff_now: SimTime,
}

/// One relation group's certification state: a group-local conflict index
/// and the shard's serial service queue.
///
/// With a single group this degenerates to exactly [`crate::Certifier`]'s
/// check path: `gseq` coincides with the global version, so outcomes and
/// check-completion times are bit-identical (the decide step reproduces the
/// version/durability half).
#[derive(Debug, Clone)]
pub struct CertShard {
    params: CertifierParams,
    /// Group-local last-writer index: item → `gseq` of its last writer.
    gindex: HashMap<WritesetItem, u64>,
    /// Group-local commits so far; the next commit gets `next_gseq + 1`.
    next_gseq: u64,
    /// Completion horizon of this shard's certification CPU.
    busy_until: SimTime,
    /// Earliest time this shard's leader serves (failover gaps).
    available_at: SimTime,
}

impl CertShard {
    /// Creates an empty shard with the given service parameters.
    pub fn new(params: CertifierParams) -> Self {
        CertShard {
            params,
            gindex: HashMap::new(),
            next_gseq: 0,
            busy_until: SimTime::ZERO,
            available_at: SimTime::ZERO,
        }
    }

    /// Group-local commits so far.
    pub fn gseq(&self) -> u64 {
        self.next_gseq
    }

    /// Earliest serving time (failover gaps push it forward).
    pub fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Pushes the serving horizon forward after a leader failover.
    pub fn set_available_at(&mut self, at: SimTime) {
        self.available_at = self.available_at.max(at);
    }

    /// Charges one check's CPU time against this shard's serial queue,
    /// returning `(eff_now, checked_at)`.
    pub fn reserve_check(&mut self, now: SimTime) -> (SimTime, SimTime) {
        let eff_now = now.max(self.available_at);
        let start = self.busy_until.max(eff_now);
        let checked_at = start + self.params.check_us;
        self.busy_until = checked_at;
        (eff_now, checked_at)
    }

    /// Conflict probe against the group-local index: `true` iff any item's
    /// last writer is newer than `gsnap` group-local commits.
    pub fn probe<'a>(&self, items: impl IntoIterator<Item = &'a WritesetItem>, gsnap: u64) -> bool {
        items
            .into_iter()
            .any(|item| self.gindex.get(item).is_some_and(|g| *g > gsnap))
    }

    /// Records one group-local commit writing `items`.
    pub fn install<'a>(&mut self, items: impl IntoIterator<Item = &'a WritesetItem>) {
        self.next_gseq += 1;
        for item in items {
            self.gindex.insert(*item, self.next_gseq);
        }
    }

    /// Runs a full single-group check: serial service, conflict probe, and
    /// (on commit) the group-local install. Empty writesets commit without
    /// consuming a `gseq`, mirroring [`crate::Certifier::certify`].
    pub fn check(&mut self, now: SimTime, ws: &Writeset, gsnap: u64) -> ShardCheck {
        let (eff_now, checked_at) = self.reserve_check(now);
        if ws.is_empty() {
            return ShardCheck {
                committed: true,
                checked_at,
                eff_now,
            };
        }
        if self.probe(&ws.items, gsnap) {
            return ShardCheck {
                committed: false,
                checked_at,
                eff_now,
            };
        }
        self.install(&ws.items);
        ShardCheck {
            committed: true,
            checked_at,
            eff_now,
        }
    }

    /// Number of entries in the group-local conflict index.
    pub fn index_len(&self) -> usize {
        self.gindex.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::{Certifier, CertifyOutcome};
    use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version};
    use tashkent_storage::RelationId;

    fn ws(txn: u64, snap: u64, items: &[(u32, u64)]) -> Writeset {
        Writeset::new(
            TxnId(txn),
            TxnTypeId(0),
            Snapshot::at(Version(snap)),
            items
                .iter()
                .map(|(r, row)| WritesetItem {
                    rel: RelationId(*r),
                    row: *row,
                })
                .collect(),
        )
    }

    /// The 1-group degenerate case must reproduce [`Certifier::certify`]
    /// bit for bit: same outcomes, same versions, same durability times —
    /// with the shard doing the check and a hand-rolled coordinator doing
    /// the decide (global version + group-commit durability).
    #[test]
    fn one_group_shard_matches_the_unified_certifier_exactly() {
        let params = CertifierParams::default();
        let mut unified = Certifier::new(params);
        let mut shard = CertShard::new(params);
        // Coordinator-side state for the sharded decide: the global log
        // length and the group's commit-version list (identical with one
        // group, but modelled separately as the real link does).
        let mut global_len: u64 = 0;
        let mut group_versions: Vec<u64> = Vec::new();

        // A sequence with commits, conflicts (stale snapshots on hot rows),
        // empties, and bursty same-instant arrivals.
        type Req = (u64, u64, Vec<(u32, u64)>);
        let reqs: Vec<Req> = vec![
            (1, 0, vec![(0, 1), (1, 5)]),
            (2, 0, vec![(0, 1)]), // conflict with txn 1
            (3, 1, vec![(0, 1)]), // fresh snapshot, same row: fine
            (4, 0, vec![]),       // read-only
            (5, 1, vec![(2, 9)]),
            (6, 1, vec![(1, 5)]),         // conflict with txn 1
            (7, 3, vec![(0, 1), (2, 9)]), // fresh again
        ];
        for (i, (txn, snap, items)) in reqs.into_iter().enumerate() {
            let now = SimTime::from_micros(30 * (i as u64 / 2));
            let w = ws(txn, snap, &items);
            let expected = unified.certify(now, w.clone());

            // Sharded path: gsnap = commits in this group with version ≤
            // snapshot (partition point of the ascending version list).
            let gsnap = group_versions.partition_point(|v| *v <= snap) as u64;
            let out = shard.check(now, &w, gsnap);
            let got = if !out.committed {
                CertifyOutcome::Conflict
            } else if w.is_empty() {
                CertifyOutcome::Committed {
                    version: Version(global_len),
                    durable_at: out.checked_at,
                }
            } else {
                global_len += 1;
                group_versions.push(global_len);
                let win = params.group_window_us.max(1);
                let boundary = out.checked_at.as_micros().div_ceil(win) * win;
                CertifyOutcome::Committed {
                    version: Version(global_len),
                    durable_at: SimTime::from_micros(boundary + params.log_write_us),
                }
            };
            assert_eq!(got, expected, "request {txn} diverged");
        }
        assert_eq!(shard.gseq(), unified.version().0);
        assert_eq!(shard.index_len(), unified.index_len());
    }

    #[test]
    fn probe_and_install_split_matches_the_combined_check() {
        let mut a = CertShard::new(CertifierParams::default());
        let mut b = CertShard::new(CertifierParams::default());
        let w = ws(1, 0, &[(0, 7), (3, 2)]);
        let combined = a.check(SimTime::ZERO, &w, 0);
        assert!(combined.committed);
        // The split form (used by the cross-group vote/decide round).
        let (eff_now, checked_at) = b.reserve_check(SimTime::ZERO);
        assert_eq!(
            (eff_now, checked_at),
            (combined.eff_now, combined.checked_at)
        );
        assert!(!b.probe(&w.items, 0));
        b.install(&w.items);
        assert_eq!(b.gseq(), a.gseq());
        // Both now reject a stale writer on the same row.
        let stale = ws(2, 0, &[(0, 7)]);
        assert!(!a.check(SimTime::from_micros(500), &stale, 0).committed);
        assert!(b.probe(&stale.items, 0));
    }

    #[test]
    fn availability_gap_defers_service_not_arrival() {
        let mut s = CertShard::new(CertifierParams::default());
        s.set_available_at(SimTime::from_millis(200));
        let out = s.check(SimTime::from_micros(10), &ws(1, 0, &[(0, 1)]), 0);
        assert!(out.committed);
        assert_eq!(out.eff_now, SimTime::from_millis(200));
        assert_eq!(out.checked_at, SimTime::from_millis(200) + 50);
        // Pushing availability backwards is a no-op (max semantics).
        s.set_available_at(SimTime::from_millis(100));
        assert_eq!(s.available_at(), SimTime::from_millis(200));
    }

    #[test]
    fn empty_writeset_consumes_no_gseq() {
        let mut s = CertShard::new(CertifierParams::default());
        let out = s.check(SimTime::ZERO, &ws(1, 0, &[]), 0);
        assert!(out.committed);
        assert_eq!(s.gseq(), 0);
    }

    #[test]
    fn serial_service_queues_checks_within_the_shard() {
        let params = CertifierParams {
            check_us: 1_000,
            log_write_us: 0,
            group_window_us: 1,
        };
        let mut s = CertShard::new(params);
        let first = s.check(SimTime::ZERO, &ws(1, 0, &[(0, 1)]), 0);
        let second = s.check(SimTime::ZERO, &ws(2, 1, &[(0, 2)]), 1);
        assert_eq!(first.checked_at.as_micros(), 1_000);
        assert_eq!(second.checked_at.as_micros(), 2_000);
    }
}
