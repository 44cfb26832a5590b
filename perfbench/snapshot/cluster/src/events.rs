//! Events driving the cluster simulation.
//!
//! Every component interaction travels through a timestamped [`Ev`] in the
//! [`crate::world::World`] event queue. The transaction lifecycle:
//!
//! 1. `ClientArrive` — a client finishes thinking, the balancer picks a
//!    replica, the proxy (Gatekeeper) admits or queues the transaction;
//! 2. `StepTxn` — the replica advances the transaction by a CPU quantum or
//!    one disk read;
//! 3. read-only transactions complete locally (`TxnComplete`); update
//!    transactions send their writeset to the certifier (`CertifySend`),
//!    whose response (`CertifyReturn`) carries the remote writesets the
//!    replica must apply before committing — or a conflict, aborting the
//!    transaction for the client to retry;
//! 4. `Maintenance` — per replica: background writes, propagation pulls
//!    (500 ms), load-daemon samples (1 s);
//! 5. `LbTick` — MALB rebalancing and (eventually) filter installation.
//!
//! Failure injection travels through the same queue: `ReplicaCrash` drops a
//! replica's in-flight work and routes dispatch around it, `ReplicaRecover`
//! replays the certifier log and rejoins dispatch with a cold cache, and
//! `CertifierKill` kills a certifier-group member (a leader kill triggers
//! the §4.4 backup election). Because they are ordinary events handled by
//! [`crate::state::ClusterState::handle`], every driver observes identical
//! failure timing; the parallel driver treats them — like every other
//! [`Footprint::Global`] event — as window barriers.

use tashkent_engine::{TxnId, TxnTypeId, Version, Writeset};
use tashkent_sim::SimTime;

/// Sentinel "node id" for the control plane (balancer + certifier side) in
/// [`Ev::LinkPartition`] pairs: partitioning `(CONTROL_NODE, r)` cuts
/// replica `r` off from heartbeats, certification traffic, and propagation
/// pulls without killing it — the deterministic false-suspicion injection.
pub const CONTROL_NODE: usize = usize::MAX;

/// The *replica-node* state an event's handler touches — the classification
/// the parallel driver's window formation runs on.
///
/// [`crate::state::ClusterState::handle`] routes every event to exactly one
/// handler; the footprint summarizes which [`crate::components::ClusterNode`]
/// state that handler can read or write. Coordinator-only state (the
/// balancer, the certifier link, client/transaction metadata, metrics, the
/// experiment RNG) is *not* part of a footprint: the driver executes every
/// non-`StepTxn` handler on the coordinator in exact sequential order, so
/// only contention with replica state leased to worker shards matters.
///
/// The mapping must stay in lock-step with the routing in
/// `ClusterState::handle`; each variant documents the handler behaviour it
/// encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// The handler touches exactly one replica's node, at the event's own
    /// timestamp (`StepTxn`, `CertifyReturn`, committed `TxnComplete`,
    /// `Maintenance`). The parallel driver may defer such an event into the
    /// merge if it bars that replica's shard from the event's key onward.
    Replica(usize),
    /// The handler touches only certifier-side state; its consequence (a
    /// `CertifyReturn`) reaches `origin`'s node no earlier than one LAN hop
    /// after the event (`CertifySend`). Deferrable with a barrier on
    /// `origin` at `t + lan_hop_us`. Under sharded certification `groups`
    /// is the bitmask of certifier groups the writeset touches (the
    /// handler's conflict checks run against exactly those shards, which
    /// may be leased to pool workers); `0` means the unified certifier,
    /// whose state never leaves the coordinator.
    Certifier {
        /// Touched certifier groups (bitmask; `0` = unified certifier).
        groups: u64,
        /// The replica the certifier's answer returns to.
        origin: usize,
    },
    /// The handler dispatches a new submission through the balancer *now*,
    /// but its immediate node touches are shard-invisible (Gatekeeper
    /// admission, transaction registration, a snapshot of the applied
    /// version — none of it read by a worker stepping other transactions);
    /// the earliest shard-visible consequence is the submitted
    /// transaction's first step, two LAN hops later, on whichever replica
    /// the balancer picks (`ClientArrive`, `TxnRetry`). Deferrable with a
    /// barrier on *every* shard at `t + 2·lan_hop_us`.
    Dispatch,
    /// The handler can immediately touch arbitrary replicas or
    /// cross-cutting state that shards read (balancer epochs installing
    /// filters that evict pool pages, faults, placement changes, warm-up
    /// and run boundaries). Always a window barrier. Note client dispatch
    /// is *not* here: its immediate effects are shard-invisible, which is
    /// exactly what [`Footprint::Dispatch`] encodes.
    Global,
}

/// Which replica nodes must be *physically present* in
/// [`crate::state::ClusterState`] before an event's handler may run — the
/// recall key the parallel driver's shard leases are built on.
///
/// [`Footprint`] answers "may this event defer past a shard?"; `NodeDemand`
/// answers the complementary question for the pipelined pool: once a node
/// has been leased to a persistent worker across a window boundary, which
/// coordinator-side handlers force the driver to recall it first. The two
/// classifications differ only for [`Footprint::Dispatch`]: dispatch may
/// *defer* behind a two-hop barrier, but when its handler finally runs it
/// routes through the balancer and touches whichever node it admits on, at
/// that same instant — so it demands every node home even though it never
/// stops a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDemand {
    /// The handler reads no replica node (certifier-side bookkeeping).
    NoNode,
    /// The handler touches exactly this replica's node.
    Node(usize),
    /// The handler touches the certifier shards in this group bitmask
    /// (sharded certification: the shards may be leased to pool workers
    /// and must come home first). It reads no replica node.
    CertGroups(u64),
    /// The handler may touch any node (balancer dispatch, faults,
    /// placement changes, run control).
    AllNodes,
}

impl Footprint {
    /// The node-presence requirement of the handler this footprint
    /// classifies (see [`NodeDemand`]).
    pub fn demand(&self) -> NodeDemand {
        match self {
            Footprint::Replica(r) => NodeDemand::Node(*r),
            Footprint::Certifier { groups: 0, .. } => NodeDemand::NoNode,
            Footprint::Certifier { groups, .. } => NodeDemand::CertGroups(*groups),
            Footprint::Dispatch | Footprint::Global => NodeDemand::AllNodes,
        }
    }
}

/// Events driving the simulation.
///
/// `Clone` exists so experiments can carry pre-built injection schedules
/// (see `Experiment::injections`); events in flight are never cloned.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A client submits its next transaction.
    ClientArrive {
        /// Client index.
        client: usize,
    },
    /// Continue executing a transaction on a replica.
    StepTxn {
        /// Replica index.
        replica: usize,
        /// Transaction.
        txn: TxnId,
    },
    /// A writeset reaches the certifier.
    CertifySend {
        /// Origin replica.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// The writeset.
        ws: Writeset,
        /// Certifier groups the writeset touches, as a bitmask computed at
        /// send time from the run's `CertMap` (`0` under the unified
        /// certifier). A single set bit certifies against one shard; more
        /// bits run the cross-group atomic-commitment round.
        groups: u64,
    },
    /// The certifier's response reaches the replica.
    CertifyReturn {
        /// Origin replica.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// Commit version, or `None` on conflict.
        version: Option<Version>,
    },
    /// A transaction finished on its replica (response travels to client).
    TxnComplete {
        /// Replica index.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// Whether it committed (vs aborted).
        committed: bool,
    },
    /// A client re-submits an aborted transaction after observing the
    /// abort response (which travelled replica → balancer → client, two
    /// LAN hops after the completion). Keeping the resubmission a separate
    /// event — instead of the historical instantaneous retry inside the
    /// completion handler — both models the client round-trip faithfully
    /// and is what makes *every* `TxnComplete` single-replica: the earliest
    /// a retry can touch another replica is four hops after the original
    /// completion (two for the response, two for the new submission), the
    /// bound the parallel driver's lookahead horizon is built on.
    TxnRetry {
        /// Retrying client.
        client: usize,
        /// Transaction type (retries keep the original type).
        txn_type: TxnTypeId,
        /// Original arrival time (response-time accounting spans retries).
        arrived: SimTime,
        /// Retry count of the new submission.
        retries: u32,
    },
    /// Per-replica periodic work: background writer, propagation, daemon.
    Maintenance {
        /// Replica index.
        replica: usize,
        /// Round counter (daemon samples every other round).
        round: u64,
    },
    /// Load-balancer rebalance tick.
    LbTick,
    /// Switch the workload mix (dynamic-reconfiguration experiments).
    MixSwitch {
        /// Index into the experiment's mix list.
        mix: usize,
    },
    /// Freeze the balancer (static-configuration baseline).
    FreezeLb,
    /// A replica fails: cold cache, in-flight work dropped, clients retry
    /// elsewhere, the balancer routes around it. At least one replica must
    /// stay alive for dispatch to have a target.
    ReplicaCrash {
        /// Replica index.
        replica: usize,
    },
    /// A crashed replica rejoins: it replays the writesets it missed from
    /// the certifier's persistent log (§3 standard recovery), then re-enters
    /// dispatch with a cold cache.
    ReplicaRecover {
        /// Replica index.
        replica: usize,
    },
    /// Kill a certifier-group member. Killing the leader elects a backup
    /// after the failover delay; certification requests arriving in the gap
    /// wait for the new leader (§4.4). If *every* member of the group is
    /// dead, requests queue at the link and drain when a member restarts
    /// ([`Ev::CertifierRestart`]) — back-pressure, never spurious aborts.
    CertifierKill {
        /// Certifier group index (always `0` under the unified certifier).
        group: usize,
        /// Group member index (the initial leader is member 0).
        member: usize,
    },
    /// Restart a dead certifier-group member. If the group had no live
    /// members, the restarted member is elected leader after the failover
    /// delay and the requests queued during the outage drain through it in
    /// arrival order.
    CertifierRestart {
        /// Certifier group index (always `0` under the unified certifier).
        group: usize,
        /// Group member index.
        member: usize,
    },
    /// Under partial replication: copy a relation group onto one more live
    /// replica, backfilling its pages from the certifier's persistent log
    /// and widening dispatch eligibility. A no-op under full replication or
    /// when every live replica already holds the group. The crash handler
    /// re-replicates under-`min_copies` groups synchronously (so dispatch
    /// never lacks a holder); this event is the injectable form for
    /// scenarios and tests. Like every non-`StepTxn` event, the parallel
    /// driver treats it as a window barrier.
    Rereplicate {
        /// Relation-group index in the run's `PlacementMap`.
        group: usize,
    },
    /// One bandwidth-capped slice of an in-flight backfill: ship up to the
    /// chunk budget of certifier-log pages onto the task's target replica
    /// through its CPU/disk models, then self-schedule the next chunk (or
    /// the [`Ev::BackfillDone`]) at the time the cap allows. Staging the
    /// copy through the queue is what makes migration I/O compete with
    /// foreground propagation instead of being charged instantaneously.
    BackfillChunk {
        /// Index into the cluster's backfill-task table.
        task: usize,
    },
    /// An asynchronous backfill finished: the target replica's copy of the
    /// task's relations is complete, dispatch eligibility widens to include
    /// it, and — for a migration — the donor holder is dropped.
    BackfillDone {
        /// Index into the cluster's backfill-task table.
        task: usize,
    },
    /// Periodic skew-driven migration tick: examine per-relation-group
    /// dispatch load, and migrate the hottest group from its most-loaded
    /// holder toward the least-loaded non-holder (capped backfill, then the
    /// donor is dropped on completion). Scheduled only when
    /// `ClusterConfig::migration_period` is set under partial replication.
    RebalanceTick,
    /// Heartbeat round of the balancer's failure detector: ping every
    /// replica (probes pay LAN hops and briefly occupy the certifier-side
    /// NIC), feed the per-replica accrual counters, and apply any
    /// `Live → Suspected → Dead` transitions — a *Suspected* replica leaves
    /// dispatch/MALB eligibility and its in-flight transactions are retried
    /// on survivors; re-replication waits for *Dead*. Scheduled only when
    /// `ClusterConfig::heartbeat_period_us > 0`; self-reschedules each
    /// period.
    HeartbeatTick,
    /// Partition the link between `a` and `b` (either may be
    /// [`CONTROL_NODE`]): messages between the pair — heartbeats,
    /// certification traffic, propagation pulls — are dropped until
    /// `heal_at`, without killing either side. The handler schedules the
    /// matching [`Ev::LinkHeal`] itself.
    LinkPartition {
        /// One endpoint (replica index or [`CONTROL_NODE`]).
        a: usize,
        /// The other endpoint.
        b: usize,
        /// When the link heals.
        heal_at: SimTime,
    },
    /// Heal a partitioned link (scheduled by the `LinkPartition` handler).
    LinkHeal {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A client's per-request timer fired before the response arrived: the
    /// request is abandoned on its (possibly dead or partitioned) replica
    /// and retried after a capped exponential backoff through the usual
    /// [`Ev::TxnRetry`] path. Scheduled only when
    /// `ClusterConfig::client_timeout_us > 0`; a no-op if the transaction
    /// already completed.
    ClientTimeout {
        /// The timed-out transaction.
        txn: TxnId,
    },
    /// End of warm-up: reset the measurement window.
    EndWarmup,
    /// End of run.
    End,
}

impl Ev {
    /// Classifies the event by the replica-node state its handler touches
    /// (see [`Footprint`]). Mirrors the routing in
    /// [`crate::state::ClusterState::handle`]:
    ///
    /// * `StepTxn { replica }` runs `ClusterNode::on_step` — that node only.
    /// * `CertifySend { replica }` runs `CertifierLink::on_send` — certifier
    ///   state only; the scheduled `CertifyReturn` reaches `replica` at
    ///   least one LAN hop later (conflicts return after one hop, commits
    ///   after durability plus one hop).
    /// * `CertifyReturn { replica }` applies remote writesets and commits on
    ///   `replica` (or drops an orphan), scheduling a same-replica
    ///   `TxnComplete`.
    /// * `TxnComplete { replica }` frees the Gatekeeper slot on `replica`
    ///   (possibly starting its next queued transaction at the same
    ///   instant); the outcome travels to the client as a scheduled event —
    ///   the next arrival or a [`Ev::TxnRetry`] — two hops later, so the
    ///   handler itself touches no other replica.
    /// * `Maintenance { replica }` runs the background writer, propagation
    ///   pull, and load-daemon sample on `replica`.
    /// * `ClientArrive` and `TxnRetry` dispatch through the balancer, which
    ///   may pick any replica — but their immediate effects are
    ///   shard-invisible and the submitted transaction's first step fires
    ///   two hops later, so they are `Dispatch`, not `Global`.
    /// * Everything else (balancer ticks install filters that evict pool
    ///   pages, mix switches, faults, re-replication, run control) is
    ///   cross-cutting.
    pub fn footprint(&self) -> Footprint {
        match self {
            Ev::StepTxn { replica, .. }
            | Ev::CertifyReturn { replica, .. }
            | Ev::Maintenance { replica, .. }
            | Ev::TxnComplete { replica, .. } => Footprint::Replica(*replica),
            Ev::CertifySend {
                replica, groups, ..
            } => Footprint::Certifier {
                groups: *groups,
                origin: *replica,
            },
            // A client timeout only abandons coordinator-side transaction
            // metadata and releases balancer accounting; the earliest
            // shard-visible consequence is the retried submission's first
            // step, at least two hops out — the same contract as `TxnRetry`.
            Ev::ClientArrive { .. } | Ev::TxnRetry { .. } | Ev::ClientTimeout { .. } => {
                Footprint::Dispatch
            }
            Ev::LbTick
            | Ev::MixSwitch { .. }
            | Ev::FreezeLb
            | Ev::ReplicaCrash { .. }
            | Ev::ReplicaRecover { .. }
            | Ev::CertifierKill { .. }
            | Ev::CertifierRestart { .. }
            | Ev::Rereplicate { .. }
            | Ev::BackfillChunk { .. }
            | Ev::BackfillDone { .. }
            | Ev::RebalanceTick
            // Heartbeat rounds read every replica's liveness and may flip
            // dispatch eligibility cluster-wide; partitions change which
            // messages *any* handler may deliver. Both are rare control
            // events: a window barrier keeps them trivially bit-exact.
            | Ev::HeartbeatTick
            | Ev::LinkPartition { .. }
            | Ev::LinkHeal { .. }
            | Ev::EndWarmup
            | Ev::End => Footprint::Global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_events_have_replica_footprints() {
        let cases = [
            (
                Ev::StepTxn {
                    replica: 3,
                    txn: TxnId(1),
                },
                3,
            ),
            (
                Ev::CertifyReturn {
                    replica: 1,
                    txn: TxnId(2),
                    version: None,
                },
                1,
            ),
            (
                Ev::TxnComplete {
                    replica: 2,
                    txn: TxnId(3),
                    committed: true,
                },
                2,
            ),
            // An aborted completion only frees the slot; the retry travels
            // to the client as a separate `TxnRetry` event.
            (
                Ev::TxnComplete {
                    replica: 4,
                    txn: TxnId(8),
                    committed: false,
                },
                4,
            ),
            (
                Ev::Maintenance {
                    replica: 5,
                    round: 0,
                },
                5,
            ),
        ];
        for (ev, replica) in cases {
            assert_eq!(ev.footprint(), Footprint::Replica(replica), "{ev:?}");
        }
    }

    #[test]
    fn certify_send_is_certifier_only_with_an_origin() {
        let ws = Writeset::new(
            TxnId(9),
            tashkent_engine::TxnTypeId(0),
            tashkent_engine::Snapshot::at(Version(0)),
            Vec::new(),
        );
        let ev = Ev::CertifySend {
            replica: 4,
            txn: TxnId(9),
            ws: ws.clone(),
            groups: 0,
        };
        assert_eq!(
            ev.footprint(),
            Footprint::Certifier {
                groups: 0,
                origin: 4
            }
        );
        // Sharded: the touched-group mask rides on the footprint.
        let sharded = Ev::CertifySend {
            replica: 4,
            txn: TxnId(9),
            ws,
            groups: 0b101,
        };
        assert_eq!(
            sharded.footprint(),
            Footprint::Certifier {
                groups: 0b101,
                origin: 4
            }
        );
    }

    #[test]
    fn dispatch_events_defer_and_cross_cutting_events_are_global() {
        // Arrivals and retries dispatch anywhere, but only shard-invisible
        // state changes immediately: a two-hop all-shard barrier suffices.
        assert_eq!(
            Ev::ClientArrive { client: 0 }.footprint(),
            Footprint::Dispatch
        );
        assert_eq!(
            Ev::TxnRetry {
                client: 0,
                txn_type: TxnTypeId(0),
                arrived: SimTime::ZERO,
                retries: 1,
            }
            .footprint(),
            Footprint::Dispatch
        );
        // A timeout abandons coordinator-side metadata only; its retry is
        // at least two hops from any shard-visible effect.
        assert_eq!(
            Ev::ClientTimeout { txn: TxnId(7) }.footprint(),
            Footprint::Dispatch
        );
        let globals = [
            Ev::LbTick,
            Ev::MixSwitch { mix: 1 },
            Ev::FreezeLb,
            Ev::ReplicaCrash { replica: 0 },
            Ev::ReplicaRecover { replica: 0 },
            Ev::CertifierKill {
                group: 0,
                member: 0,
            },
            Ev::CertifierRestart {
                group: 0,
                member: 0,
            },
            Ev::Rereplicate { group: 0 },
            // Backfill chunks touch the target node's CPU/disk and the
            // completion/rebalance handlers change placement-wide
            // eligibility: all of them barrier a window, like LbTick.
            Ev::BackfillChunk { task: 0 },
            Ev::BackfillDone { task: 0 },
            Ev::RebalanceTick,
            // Detector rounds and partition changes flip cluster-wide
            // eligibility/reachability: window barriers.
            Ev::HeartbeatTick,
            Ev::LinkPartition {
                a: CONTROL_NODE,
                b: 1,
                heal_at: SimTime::from_secs(2),
            },
            Ev::LinkHeal {
                a: CONTROL_NODE,
                b: 1,
            },
            Ev::EndWarmup,
            Ev::End,
        ];
        for ev in globals {
            assert_eq!(ev.footprint(), Footprint::Global, "{ev:?}");
        }
    }

    #[test]
    fn node_demand_tracks_the_footprint_except_for_dispatch() {
        // Replica handlers demand their one node; the unified certifier
        // (groups mask 0) demands none; sharded certification demands the
        // touched shards home.
        assert_eq!(Footprint::Replica(3).demand(), NodeDemand::Node(3));
        assert_eq!(
            Footprint::Certifier {
                groups: 0,
                origin: 2
            }
            .demand(),
            NodeDemand::NoNode
        );
        assert_eq!(
            Footprint::Certifier {
                groups: 0b110,
                origin: 2
            }
            .demand(),
            NodeDemand::CertGroups(0b110)
        );
        // Dispatch defers like a two-hop barrier but admits onto a
        // balancer-chosen node the instant its handler runs — it must pull
        // every leased node home even though it never stops a window.
        assert_eq!(Footprint::Dispatch.demand(), NodeDemand::AllNodes);
        assert_eq!(Footprint::Global.demand(), NodeDemand::AllNodes);
    }
}
