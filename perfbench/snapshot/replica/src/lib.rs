//! Replica node: the database replica plus its middleware proxy.
//!
//! Each Tashkent replica is a database guarded by a transparent proxy
//! (§4.1): the proxy admits transactions (Gatekeeper), forwards them to the
//! database, certifies update commits, applies remote writesets in commit
//! order, and — under update filtering (§3) — drops writesets for tables the
//! replica does not serve. A lightweight daemon reports smoothed CPU and
//! disk utilization to the load balancer (§2.4).
//!
//! [`ReplicaNode`] combines these parts with the storage substrate (buffer
//! pool, disk channel, background writer) and a CPU server into a state
//! machine the cluster event loop drives.

pub mod cpu;
pub mod daemon;
pub mod filter;
pub mod gatekeeper;
pub mod node;

pub use cpu::CpuServer;
pub use daemon::{LoadDaemon, LoadReport};
pub use filter::UpdateFilter;
pub use gatekeeper::Gatekeeper;
pub use node::{ReplicaConfig, ReplicaNode, ReplicaStats, StepOutcome};
