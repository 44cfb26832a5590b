//! The traced run: the same experiment as `tashkent_cluster::run`, driven
//! by the benchmark's own copy of the sequential event loop over the public
//! `ClusterState` / `EventQueue` API, timing every `pop` and every `handle`
//! by event kind. The program's own in-memory trace and its per-layer
//! counters are read after the run.

use std::time::Instant;

use tashkent_cluster::{ClusterState, Ev, Experiment, RunResult};
use tashkent_replica::ReplicaStats;
use tashkent_sim::{EventQueue, SimTime};
use tashkent_workloads::Mix;

/// The layer (crate) an event kind's handler mostly runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Balancer dispatch and reconfiguration (`tashkent-core`).
    Core,
    /// Replica execution, maintenance and completion (`tashkent-replica`,
    /// `tashkent-engine`, `tashkent-storage`).
    Replica,
    /// Certification and propagation (`tashkent-certifier`).
    Certifier,
    /// Failure detection, recovery, backfill and client timeouts
    /// (`tashkent-cluster`).
    Cluster,
    /// Run control: warm-up end, run end, mix switches (`tashkent-sim`).
    Control,
}

/// Event kinds the traced loop times separately. `Other` collects any kind
/// added to `Ev` after this table was written, so its time shows under its
/// own name instead of another kind's.
pub const KINDS: [(&str, Layer); 25] = [
    ("ClientArrive", Layer::Core),
    ("TxnRetry", Layer::Core),
    ("LbTick", Layer::Core),
    ("StepTxn", Layer::Replica),
    ("TxnComplete", Layer::Replica),
    ("Maintenance", Layer::Replica),
    ("CertifySend", Layer::Certifier),
    ("CertifyReturn", Layer::Certifier),
    ("ReplicaCrash", Layer::Cluster),
    ("ReplicaRecover", Layer::Cluster),
    ("CertifierKill", Layer::Cluster),
    ("CertifierRestart", Layer::Cluster),
    ("Rereplicate", Layer::Cluster),
    ("BackfillChunk", Layer::Cluster),
    ("BackfillDone", Layer::Cluster),
    ("RebalanceTick", Layer::Cluster),
    ("HeartbeatTick", Layer::Cluster),
    ("LinkPartition", Layer::Cluster),
    ("LinkHeal", Layer::Cluster),
    ("ClientTimeout", Layer::Cluster),
    ("MixSwitch", Layer::Control),
    ("FreezeLb", Layer::Control),
    ("EndWarmup", Layer::Control),
    ("End", Layer::Control),
    ("Other", Layer::Cluster),
];

/// Index into [`KINDS`] of `name`.
pub fn kind_index(name: &str) -> usize {
    KINDS
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown event kind {name}"))
}

#[allow(unreachable_patterns)]
fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::ClientArrive { .. } => 0,
        Ev::TxnRetry { .. } => 1,
        Ev::LbTick => 2,
        Ev::StepTxn { .. } => 3,
        Ev::TxnComplete { .. } => 4,
        Ev::Maintenance { .. } => 5,
        Ev::CertifySend { .. } => 6,
        Ev::CertifyReturn { .. } => 7,
        Ev::ReplicaCrash { .. } => 8,
        Ev::ReplicaRecover { .. } => 9,
        Ev::CertifierKill { .. } => 10,
        Ev::CertifierRestart { .. } => 11,
        Ev::Rereplicate { .. } => 12,
        Ev::BackfillChunk { .. } => 13,
        Ev::BackfillDone { .. } => 14,
        Ev::RebalanceTick => 15,
        Ev::HeartbeatTick => 16,
        Ev::LinkPartition { .. } => 17,
        Ev::LinkHeal { .. } => 18,
        Ev::ClientTimeout { .. } => 19,
        Ev::MixSwitch { .. } => 20,
        Ev::FreezeLb => 21,
        Ev::EndWarmup => 22,
        Ev::End => 23,
        _ => 24,
    }
}

/// Cumulative per-layer counters read from the program's public
/// accessors, snapshotted at the end of warm-up and at the end of the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Replica writeset items applied (summed over replicas).
    pub items_applied: u64,
    /// Replica writeset items dropped by the update filter.
    pub items_filtered: u64,
    /// Buffer-pool hits.
    pub hits: u64,
    /// Buffer-pool misses.
    pub misses: u64,
    /// Buffer-pool evictions.
    pub evictions: u64,
    /// Disk requests that paid a seek.
    pub seeks: u64,
}

impl Counters {
    fn read(state: &ClusterState) -> Counters {
        let mut c = Counters::default();
        for i in 0..state.replica_count() {
            let replica = state.replica(i);
            let ReplicaStats {
                items_applied,
                items_filtered,
                ..
            } = replica.stats();
            let pool = replica.pool_stats();
            c.items_applied += items_applied;
            c.items_filtered += items_filtered;
            c.hits += pool.hits;
            c.misses += pool.misses;
            c.evictions += pool.evictions;
            c.seeks += replica.disk_stats().seeks;
        }
        c
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            items_applied: self.items_applied - before.items_applied,
            items_filtered: self.items_filtered - before.items_filtered,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            seeks: self.seeks - before.seeks,
        }
    }
}

/// What one traced run measured.
pub struct Traced {
    /// The run's result, as `finish_result` reports it.
    pub result: RunResult,
    /// Host nanoseconds from building the state to the finished result, the
    /// span `tashkent_cluster::run` covers.
    pub wall_ns: u64,
    /// Host nanoseconds of the event loop alone, from before its first `pop`
    /// to after its last `handle`.
    pub loop_ns: u64,
    /// Host nanoseconds spent inside `EventQueue::pop`.
    pub pop_ns: u64,
    /// Events popped.
    pub pops: u64,
    /// Host nanoseconds inside `ClusterState::handle`, per [`KINDS`] entry.
    pub handle_ns: [u64; KINDS.len()],
    /// Events handled over the whole run, per [`KINDS`] entry.
    pub handled: [u64; KINDS.len()],
    /// Events handled in the measurement window, per [`KINDS`] entry.
    pub handled_in_window: [u64; KINDS.len()],
    /// Client timeouts in the window that abandoned a request.
    pub effective_timeouts: u64,
    /// Counter growth over the measurement window.
    pub counters: Counters,
    /// Index of the first trace event recorded after warm-up ended.
    pub window_trace_start: usize,
    /// The finished cluster, for its trace and configuration.
    pub state: ClusterState,
}

/// Runs `exp` through the benchmark's own event loop with the program's
/// tracer on, mirroring `tashkent_cluster::run` under the sequential
/// driver.
pub fn run_traced(exp: Experiment) -> Result<Traced, String> {
    let mut config = exp.config;
    // Any exporter path switches the in-memory recorder on; this run reads
    // the events in memory and never exports them.
    config.trace.jsonl_path = Some("perfbench-trace.jsonl".into());
    config.trace.max_events = usize::MAX;
    let start = Instant::now();
    let (mut state, mut queue) = build(Experiment { config, ..exp });

    let mut pop_ns = 0u64;
    let mut pops = 0u64;
    let mut handle_ns = [0u64; KINDS.len()];
    let mut handled = [0u64; KINDS.len()];
    let mut at_warmup_end: Option<([u64; KINDS.len()], Counters, usize)> = None;
    let mut effective_timeouts = 0u64;
    let client_timeout = kind_index("ClientTimeout");
    let end_warmup = kind_index("EndWarmup");
    let loop_start = Instant::now();
    while !state.ended() {
        let pop_start = Instant::now();
        let popped = queue.pop();
        let popped_at = Instant::now();
        pop_ns += (popped_at - pop_start).as_nanos() as u64;
        pops += 1;
        let Some((now, ev)) = popped else {
            return Err(format!("event queue drained at {now:?}", now = queue.now()));
        };
        let kind = kind_of(&ev);
        let queued = queue.len();
        state.handle(now, ev, &mut queue);
        handle_ns[kind] += popped_at.elapsed().as_nanos() as u64;
        handled[kind] += 1;
        if kind == client_timeout && at_warmup_end.is_some() && queue.len() > queued {
            // An effective timeout schedules the retry (or, out of retries,
            // the client's next arrival); a stale one schedules nothing.
            effective_timeouts += 1;
        }
        if kind == end_warmup {
            at_warmup_end = Some((
                handled,
                Counters::read(&state),
                state.tracer.events().count(),
            ));
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos() as u64;
    let result = state.finish_result(queue.now());
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (handled0, counters0, trace0) =
        at_warmup_end.ok_or_else(|| "the run ended before warm-up did".to_string())?;
    let mut handled_in_window = handled;
    for (w, h0) in handled_in_window.iter_mut().zip(handled0) {
        *w -= h0;
    }
    Ok(Traced {
        result,
        wall_ns,
        loop_ns,
        pop_ns,
        pops,
        handle_ns,
        handled,
        handled_in_window,
        effective_timeouts,
        counters: Counters::read(&state).since(&counters0),
        window_trace_start: trace0,
        state,
    })
}

/// Builds the cluster and its queue with every initial event scheduled,
/// exactly as `tashkent_cluster::run` does before its event loop starts.
pub fn build(exp: Experiment) -> (ClusterState, EventQueue<Ev>) {
    let mixes: Vec<Mix> = exp.phases.iter().map(|(_, m)| m.clone()).collect();
    let mut state = ClusterState::new(exp.config, exp.workload, mixes);
    let mut queue = EventQueue::new();
    state.prime(&mut queue);
    let mut t = 0u64;
    for (i, (dur, _)) in exp.phases.iter().enumerate() {
        if i > 0 {
            queue.schedule(SimTime::from_secs(t), Ev::MixSwitch { mix: i });
        }
        t += dur;
    }
    if let Some(f) = exp.freeze_at_secs {
        queue.schedule(SimTime::from_secs(f), Ev::FreezeLb);
    }
    queue.schedule(SimTime::from_secs(exp.warmup_secs), Ev::EndWarmup);
    queue.schedule(SimTime::from_secs(t), Ev::End);
    for (at, ev) in exp.injections {
        queue.schedule(at, ev);
    }
    (state, queue)
}
