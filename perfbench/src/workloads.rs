//! The benchmark workloads, built from the simulator's scenario registry at
//! paper scale (16 replicas × 512 MB, MidDB, calibrated closed-loop load,
//! TPC-W ordering mix).

use tashkent_cluster::FaultKind;
use tashkent_cluster::{
    Detection, DriverKind, Experiment, PolicySpec, RunResult, Scenario, ScenarioKnobs,
    TpcwSteadyState, TraceConfig,
};
use tashkent_workloads::tpcw::TpcwScale;

/// Simulation seed of every timing run.
pub const TIMING_SEED: u64 = 0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-W ordering mix under MALB-SC with update filtering (Fig. 7/10).
    OrderingUf,
    /// The `detection` scenario: partial placement, sharded certification,
    /// a control-link partition and a crash/recovery.
    Faults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::OrderingUf, Workload::Faults];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrderingUf => "tpcw-ordering-uf",
            Workload::Faults => "tpcw-faults",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated `(warm-up, measured)` seconds. Ordering runs the harness's
    /// full 120 s + 180 s window: under the shorter 60 s + 120 s window,
    /// MALB's allocation did not stay stable for the ten rebalance rounds
    /// that install update filters on some seeds.
    pub fn window(self) -> (u64, u64) {
        match self {
            Workload::OrderingUf => (120, 180),
            Workload::Faults => (60, 120),
        }
    }

    /// Simulation runs per `--trace 0` benchmark run, each on its own seed
    /// derived from `--seed`. The simulated metrics are their medians, which
    /// keeps the seed-to-seed spread of one benchmark run small. Ordering's
    /// `read_kb_per_txn` is bimodal across seeds (MALB settles in one of two
    /// allocations); the fault workload's collapse varies most from seed to
    /// seed and is cheapest to simulate, so it gets the most.
    pub fn sub_seeds(self) -> u64 {
        match self {
            Workload::OrderingUf => 10,
            Workload::Faults => 100,
        }
    }

    /// The paper's throughput for this configuration, tps: MidDB (1.8 GB),
    /// 512 MB RAM, 16 replicas, ordering mix, read off Fig. 7 and Fig. 10.
    /// Ordering is the MALB-SC+UF point. The paper has no fault experiment,
    /// so faults compares against the fault-free MALB-SC point.
    pub fn paper_tps(self) -> f64 {
        match self {
            Workload::OrderingUf => 113.0,
            Workload::Faults => 76.0,
        }
    }

    /// Response-histogram `(bucket width s, buckets)`: 1 ms resolution, and
    /// a cap well above the slowest p99 the workload reaches, so p99 never
    /// lands in the overflow bucket.
    pub fn resp_hist(self) -> (f64, usize) {
        match self {
            Workload::OrderingUf => (0.001, 20_000),
            Workload::Faults => (0.001, 120_000),
        }
    }

    /// The timing run: the workload's full run at a fixed seed, the same
    /// work in every benchmark run whatever `--seed` is, so that the spread
    /// of its host time is host noise and not the seed-to-seed cost
    /// differences of the simulated runs (on `tpcw-faults` those reach
    /// ±25 %).
    pub fn timing_experiment(self) -> Experiment {
        self.experiment(TIMING_SEED)
    }

    /// The experiment for one simulation seed, with tracing off and the
    /// sequential driver.
    pub fn experiment(self, seed: u64) -> Experiment {
        let (warmup_secs, measured_secs) = self.window();
        let knobs = ScenarioKnobs {
            replicas: 16,
            clients_per_replica: tashkent_bench::clients_per_replica("tpcw", "ordering"),
            think_mean_us: 500_000,
            ram_mb: 512,
            warmup_secs,
            measured_secs,
            seed,
            driver: DriverKind::Sequential,
            ..ScenarioKnobs::default()
        };
        let mut exp = match self {
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
        // `TASHKENT_TRACE` in the environment would switch tracing on inside
        // the scenario builder; the untraced runs must stay untraced.
        exp.config.trace = TraceConfig::default();
        let (bucket_s, buckets) = self.resp_hist();
        exp.config.resp_hist_bucket_s = bucket_s;
        exp.config.resp_hist_buckets = buckets;
        exp
    }

    /// Checks one run: its p99 below the histogram's cap, and the mechanism
    /// this workload exists to exercise engaged (ordering's update filters
    /// are checked over all its seeds, by [`Self::check_seeds`]).
    pub fn check_run(self, r: &RunResult) -> Result<(), String> {
        let (bucket_s, buckets) = self.resp_hist();
        let cap = bucket_s * buckets as f64;
        if r.p99_response_s >= cap {
            return Err(format!(
                "p99 {} s sits in the overflow bucket (cap {cap} s)",
                r.p99_response_s
            ));
        }
        if r.committed == 0 {
            return Err("no committed transactions".into());
        }
        match self {
            Workload::OrderingUf => {}
            Workload::Faults => {
                let has = |f: &dyn Fn(&FaultKind) -> bool| r.faults.iter().any(|e| f(&e.kind));
                if !has(&|k| matches!(k, FaultKind::ReplicaSuspected(_))) {
                    return Err("no replica was suspected".into());
                }
                if !has(&|k| matches!(k, FaultKind::ReplicaDead(_))) {
                    return Err("no replica was declared dead".into());
                }
                if !has(&|k| matches!(k, FaultKind::Rereplicate { .. })) {
                    return Err("no relation group was re-replicated".into());
                }
                if r.redo_bytes == 0 {
                    return Err("recovery replayed no redo bytes".into());
                }
                let groups = r
                    .cert_group_commits
                    .iter()
                    .filter(|g| !g.is_empty())
                    .count();
                if groups < 2 {
                    return Err(format!("commits in {groups} certifier group(s), want >= 2"));
                }
            }
        }
        Ok(())
    }

    /// Checks the timing run: on ordering it must reach the filtered state
    /// the workload exists to measure, so that its host time is that of
    /// MALB-SC with update filtering.
    pub fn check_timing_run(self, r: &RunResult) -> Result<(), String> {
        if self == Workload::OrderingUf && !r.lb.filters_installed {
            return Err(format!(
                "update filters never installed on the timing run (seed {TIMING_SEED})"
            ));
        }
        Ok(())
    }

    /// Checks the runs of all simulated seeds together. On ordering, MALB
    /// installs update filters once its allocation holds for ten rebalance
    /// rounds; on about one seed in 150 it never holds that long within the
    /// run, so filters must be installed on at least half of the seeds (the
    /// medians then describe filtered runs), and the others are reported.
    pub fn check_seeds(self, runs: &[(u64, RunResult)]) -> Result<(), String> {
        if self != Workload::OrderingUf {
            return Ok(());
        }
        let unfiltered: Vec<u64> = runs
            .iter()
            .filter(|(_, r)| !r.lb.filters_installed)
            .map(|(seed, _)| *seed)
            .collect();
        if !unfiltered.is_empty() {
            eprintln!("perfbench: update filters never installed on seeds {unfiltered:?}");
        }
        if 2 * unfiltered.len() > runs.len() {
            return Err(format!(
                "update filters never installed on {} of {} seeds",
                unfiltered.len(),
                runs.len()
            ));
        }
        Ok(())
    }
}

/// Everything observable about a run's outcome. Floats print in Rust's
/// shortest round-trip form, so equal strings mean bit-identical results.
pub fn fingerprint(r: &RunResult) -> String {
    format!(
        "{:?}",
        (
            (
                r.committed,
                r.updates,
                r.aborts,
                r.retries_exhausted,
                r.completions.len()
            ),
            (r.tps, r.mean_response_s, r.p95_response_s, r.p99_response_s),
            (
                r.read_kb_per_txn,
                r.write_kb_per_txn,
                r.window_s,
                r.cpu_util,
                r.disk_util
            ),
            (
                r.propagated_ws_bytes,
                r.filtered_ws_bytes,
                r.migration_bytes,
                r.migration_us
            ),
            (r.redo_bytes, r.redo_us),
            (
                r.lb.moves,
                r.lb.merges,
                r.lb.splits,
                r.lb.fast_reallocs,
                r.lb.fallback
            ),
            r.lb.filters_installed,
            &r.faults,
            &r.cert_group_commits,
            &r.per_type,
            &r.assignments,
        )
    )
}
