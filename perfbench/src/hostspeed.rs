//! The host-speed reference: a fixed copy of the simulator, run in lockstep
//! with the live one so that host-time metrics read at one host speed.
//!
//! `perfbench/snapshot/` holds the simulator's crates (`sim` to `cluster`,
//! sources unchanged, packages renamed `snapshot-*`) as they were when the
//! benchmark was written. It is the benchmark's yardstick, not part of the
//! program: later changes to the simulator leave it as it is.
//!
//! A shared host's speed changes by tens of percent within a second and
//! drifts by as much again over minutes. A synthetic kernel timed next to
//! the simulator followed the drift only partly (correlation ~0.65), and
//! even the snapshot's own runs, timed just before and after a live run,
//! left a quartile spread of 0.1 between benchmark runs. So the live
//! timing run and the snapshot's run of the same configuration advance
//! together, a slice of simulated time each in turn (3-15 ms of host
//! time), and each side's event loop is timed over its slices: the
//! two see the same host conditions, and their ratio is the live
//! simulator's speed against the snapshot's.

use std::time::Instant;

use snapshot_cluster::{
    ClusterState, Detection, DriverKind, Ev, Experiment, PolicySpec, Scenario, ScenarioKnobs,
    TpcwSteadyState, TraceConfig,
};
use snapshot_sim::{EventQueue, SimTime};
use snapshot_workloads::tpcw::TpcwScale;
use snapshot_workloads::Mix;

use crate::workloads::{Workload, TIMING_SEED};

/// The snapshot's host seconds per workload on the measuring host, as
/// `(timing run's event loop, timing run's set-up)`: medians measured on a
/// 2-vCPU shared Xeon host. The host-time metrics are the live/snapshot
/// ratio times these, so they read as the live simulator's host seconds on
/// a host where the snapshot takes this long.
pub fn reference_s(wl: Workload) -> (f64, f64) {
    match wl {
        Workload::OrderingUf => (2.0, 7.5e-5),
        Workload::Faults => (0.4, 2.5e-4),
    }
}

/// Simulated microseconds one side advances before the other takes its
/// turn.
const SLICE_US: u64 = 1_000_000;

/// The timing run's configuration built through the snapshot's crates:
/// `Workload::experiment(TIMING_SEED)` with the snapshot's types and the
/// client count `tashkent_bench::clients_per_replica("tpcw", "ordering")`
/// gave when the snapshot was taken.
fn experiment(wl: Workload) -> Experiment {
    let (warmup_secs, measured_secs) = wl.window();
    let knobs = ScenarioKnobs {
        replicas: 16,
        clients_per_replica: 8,
        think_mean_us: 500_000,
        ram_mb: 512,
        warmup_secs,
        measured_secs,
        seed: TIMING_SEED,
        driver: DriverKind::Sequential,
        ..ScenarioKnobs::default()
    };
    let mut exp = match wl {
        Workload::OrderingUf => TpcwSteadyState {
            scale: TpcwScale::Mid,
            mix: "ordering",
        }
        .experiment(&knobs.with_policy(PolicySpec::malb_sc_uf())),
        Workload::Faults => Detection {
            scale: TpcwScale::Mid,
        }
        .experiment(
            &knobs
                .with_min_copies(Some(4))
                .with_cert_groups(Some(4))
                .with_backfill_cap(Some(8 << 20)),
        ),
    };
    exp.config.trace = TraceConfig::default();
    let (bucket_s, buckets) = wl.resp_hist();
    exp.config.resp_hist_bucket_s = bucket_s;
    exp.config.resp_hist_buckets = buckets;
    exp
}

/// `traced::build` for the snapshot.
fn build(exp: Experiment) -> (ClusterState, EventQueue<Ev>) {
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

/// Times one set-up of the snapshot's timing run, like `main::time_setup`
/// does for the live one: build the experiment and the cluster, prime it,
/// and pop the first event.
pub fn time_setup(wl: Workload) -> Result<f64, String> {
    let started = Instant::now();
    let (_state, mut queue) = build(experiment(wl));
    let first = queue.pop();
    let wall = started.elapsed().as_secs_f64();
    match first {
        Some(_) => Ok(wall),
        None => Err("snapshot set-up scheduled no events".into()),
    }
}

/// What one lockstep run measured.
pub struct Lockstep {
    /// Host seconds in the live event loop.
    pub live_s: f64,
    /// Host seconds in the snapshot's event loop.
    pub snapshot_s: f64,
    /// The live run's result, to check against `tashkent_cluster::run`.
    pub result: tashkent_cluster::RunResult,
    /// The snapshot run's committed count and throughput, which every
    /// repeat must reproduce.
    pub snapshot_outcome: (u64, f64),
}

/// Runs the workload's timing run on the live simulator and on the
/// snapshot in lockstep. Each event loop is the sequential driver's (pop,
/// handle, until the run ends), cut into slices of `SLICE_US` simulated time.
pub fn lockstep(wl: Workload) -> Result<Lockstep, String> {
    let (mut live, mut live_queue) = crate::traced::build(wl.timing_experiment());
    let (mut snap, mut snap_queue) = build(experiment(wl));
    let (mut live_s, mut snapshot_s) = (0.0, 0.0);
    let mut until = 0;
    while !live.ended() || !snap.ended() {
        until += SLICE_US;
        let started = Instant::now();
        while !live.ended() && live_queue.now().as_micros() < until {
            let (now, ev) = live_queue
                .pop()
                .ok_or("live event queue drained in the lockstep run")?;
            live.handle(now, ev, &mut live_queue);
        }
        let handed_over = Instant::now();
        while !snap.ended() && snap_queue.now().as_micros() < until {
            let (now, ev) = snap_queue
                .pop()
                .ok_or("snapshot event queue drained in the lockstep run")?;
            snap.handle(now, ev, &mut snap_queue);
        }
        live_s += (handed_over - started).as_secs_f64();
        snapshot_s += handed_over.elapsed().as_secs_f64();
    }
    let snapshot = snap.finish_result(snap_queue.now());
    Ok(Lockstep {
        live_s,
        snapshot_s,
        result: live.finish_result(live_queue.now()),
        snapshot_outcome: (snapshot.committed, snapshot.tps),
    })
}
