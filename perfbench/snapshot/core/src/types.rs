//! Identifiers shared by the load-balancing layer.

use std::fmt;

/// Identifies one database replica in the cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub usize);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replica{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_display() {
        assert!(ReplicaId(1) < ReplicaId(2));
        assert_eq!(ReplicaId(3).to_string(), "replica3");
    }
}
