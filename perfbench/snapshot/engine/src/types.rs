//! Core identifier and versioning types for transaction processing.

use std::fmt;

/// Identifies a transaction *type* — one of the application's fixed set of
/// parameterized interactions (e.g. TPC-W `BestSeller`).
///
/// The paper assumes "the database application has a fixed set of
/// parameterized transaction types" (§1); the application supplies the type
/// with every connection request, and all load-balancing decisions key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnTypeId(pub u32);

impl fmt::Display for TxnTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txntype{}", self.0)
    }
}

/// Identifies one transaction *instance* within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// A position in the certifier's global commit order.
///
/// Version `n` means "the database state after the first `n` committed
/// update transactions have been applied". A replica's state is always a
/// consistent prefix of the certifier's log (§4.1), so a single counter
/// fully describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The initial (empty-log) version.
    pub const ZERO: Version = Version(0);

    /// The next version in the commit order.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The snapshot a transaction reads from under generalized snapshot
/// isolation: the replica-local database version at the time it started.
///
/// GSI lets a transaction observe a (possibly slightly old) snapshot; at
/// certification the transaction conflicts iff some update transaction
/// committed a writeset intersecting its own after `version` (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Database version the transaction observes.
    pub version: Version,
}

impl Snapshot {
    /// Creates a snapshot at `version`.
    pub fn at(version: Version) -> Self {
        Snapshot { version }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_next() {
        assert!(Version(1) < Version(2));
        assert_eq!(Version::ZERO.next(), Version(1));
        assert_eq!(Version(41).next(), Version(42));
    }

    #[test]
    fn displays_are_stable() {
        assert_eq!(TxnTypeId(3).to_string(), "txntype3");
        assert_eq!(TxnId(9).to_string(), "txn9");
        assert_eq!(Version(7).to_string(), "v7");
    }

    #[test]
    fn snapshot_carries_version() {
        let s = Snapshot::at(Version(5));
        assert_eq!(s.version, Version(5));
    }
}
