//! The repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: untraced
//! `tashkent_cluster::run` calls under the sequential driver on simulation
//! seeds derived from `--seed`, and host times of a fixed-seed timing run
//! (its event loop and its set-up), scaled to one host speed by a fixed
//! copy of the simulator run in lockstep with it (see `hostspeed.rs`).
//! `--trace 1` measures the
//! per-layer metrics: the benchmark's own traced event loop (see
//! `traced.rs`) on seeds derived from `--seed`, and traced against untraced
//! timing runs for the tracing overhead. Either way the run lasts about
//! `--seconds` of host time (longer when its simulated runs need it), checks
//! the program's outputs, and prints one JSON object as the last line of
//! standard output. See `perfbench/NOTES.md`.

mod hostspeed;
mod layers;
mod traced;
mod workloads;

use std::time::Instant;

use tashkent_cluster::{run, Experiment, RunResult};

use crate::layers::METRICS;
use crate::workloads::{fingerprint, Workload};

/// Set-ups of the timing run timed after each sub-seed run of a `--trace 0`
/// run, each paired with a snapshot set-up.
const SETUPS_PER_RUN: usize = 4;

/// Fewest lockstep timing runs in a `--trace 0` run, however long its
/// simulated runs took.
const MIN_LOCKSTEP_RUNS: usize = 1;

/// Simulation seeds a `--trace 1` run traces (the first sub-seeds).
const TRACED_SUB_SEEDS: u64 = 2;

/// Fewest untraced and traced timing-run pairs in a `--trace 1` run.
const MIN_TRACED_TIMING_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The simulation seed of sub-run `k` of benchmark seed `seed`: sub-seeds
/// of different benchmark seeds never overlap.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(100).wrapping_add(k)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `xs`: on a shared host, interference only ever adds
/// time, so the fastest repeat of the same work is its least disturbed one.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Outcome bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.problems.push(what);
    }

    /// Counts one operation, failed when it produced any problem.
    fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.fail(p);
            }
        }
    }
}

/// A simulation's first result, against which its repeats are checked.
struct Reference {
    result: RunResult,
    fingerprint: String,
}

/// Runs `exp` through `tashkent_cluster::run` and returns its host seconds.
/// The first run of an experiment (`reference` empty) must show the
/// workload's mechanism engaged and becomes the reference; every repeat
/// must reproduce it bit for bit.
fn run_untraced(
    args: &Args,
    label: &str,
    exp: Experiment,
    reference: &mut Option<Reference>,
    tally: &mut Tally,
) -> f64 {
    let started = Instant::now();
    let outcome = run(exp);
    let wall = started.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    match outcome {
        Err(e) => problems.push(format!("{label}: run error: {e}")),
        Ok(result) => {
            let fp = fingerprint(&result);
            match reference {
                Some(first) if first.fingerprint != fp => {
                    problems.push(format!("{label}: two same-seed runs differ"))
                }
                Some(_) => {}
                None => {
                    if let Err(e) = args.workload.check_run(&result) {
                        problems.push(format!("{label}: {e}"));
                    }
                    *reference = Some(Reference {
                        result,
                        fingerprint: fp,
                    });
                }
            }
        }
    }
    tally.op(problems);
    wall
}

/// Runs `exp` through the benchmark's traced loop, checks its result equals
/// the untraced `reference` and its trace rebuilds that result, and returns
/// the run with its per-layer report.
fn run_traced(
    label: &str,
    exp: Experiment,
    reference: &Option<Reference>,
    tally: &mut Tally,
) -> Option<(traced::Traced, layers::LayerReport)> {
    let t = match traced::run_traced(exp) {
        Ok(t) => t,
        Err(e) => {
            tally.op(vec![format!("{label}: traced run: {e}")]);
            return None;
        }
    };
    let mut report = layers::report(&t);
    if reference
        .as_ref()
        .is_none_or(|r| r.fingerprint != fingerprint(&t.result))
    {
        report.problems.push(format!(
            "{label}: traced result differs from the untraced run"
        ));
    }
    tally.op(std::mem::take(&mut report.problems));
    Some((t, report))
}

/// Runs the workload's timing run untraced and returns its host seconds.
/// The first timing run (`timing` empty) must also pass the workload's
/// timing-run check.
fn timing_run(args: &Args, timing: &mut Option<Reference>, tally: &mut Tally) -> f64 {
    let first = timing.is_none();
    let wall = run_untraced(
        args,
        "timing run",
        args.workload.timing_experiment(),
        timing,
        tally,
    );
    if let (true, Some(t)) = (first, timing.as_ref()) {
        if let Err(e) = args.workload.check_timing_run(&t.result) {
            tally.fail(e);
        }
    }
    wall
}

/// Peak resident memory of this process so far, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

/// Times one set-up of the timing run: build the experiment and the
/// cluster, prime it, and pop the first event.
fn time_setup(args: &Args, tally: &mut Tally) -> f64 {
    let started = Instant::now();
    let (_state, mut queue) = traced::build(args.workload.timing_experiment());
    let first = queue.pop();
    let wall = started.elapsed().as_secs_f64();
    tally.op(if first.is_some() {
        Vec::new()
    } else {
        vec!["set-up scheduled no events".into()]
    });
    wall
}

/// Host times of the timing run and its set-ups, each paired with the
/// snapshot's (see `hostspeed.rs`): the timing run's event loop with the
/// snapshot's run in lockstep with it, a set-up with a snapshot set-up just
/// after it.
#[derive(Default)]
struct Timings {
    /// (live event loop s, snapshot event loop s).
    runs: Vec<(f64, f64)>,
    /// (set-up s, snapshot set-up s).
    setups: Vec<(f64, f64)>,
    /// The snapshot run's first outcome, which every repeat must reproduce.
    snapshot_outcome: Option<(u64, f64)>,
}

impl Timings {
    /// Runs the timing run in lockstep with the snapshot's and checks that
    /// the live run reproduces `timing`, the timing run through
    /// `tashkent_cluster::run`.
    fn lockstep(&mut self, wl: Workload, timing: &Option<Reference>, tally: &mut Tally) {
        let run = match hostspeed::lockstep(wl) {
            Ok(run) => run,
            Err(e) => return tally.op(vec![e]),
        };
        let mut problems = Vec::new();
        if timing
            .as_ref()
            .is_none_or(|t| t.fingerprint != fingerprint(&run.result))
        {
            problems.push("lockstep run differs from the timing run".into());
        }
        if *self.snapshot_outcome.get_or_insert(run.snapshot_outcome) != run.snapshot_outcome {
            problems.push("two snapshot runs differ".into());
        }
        tally.op(problems);
        self.runs.push((run.live_s, run.snapshot_s));
    }

    /// Times `SETUPS_PER_RUN` set-ups of the timing run, each followed by
    /// one of the snapshot's.
    fn time_setups(&mut self, args: &Args, tally: &mut Tally) {
        for _ in 0..SETUPS_PER_RUN {
            let live = time_setup(args, tally);
            match hostspeed::time_setup(args.workload) {
                Err(e) => tally.op(vec![e]),
                Ok(snapshot) => {
                    tally.op(Vec::new());
                    self.setups.push((live, snapshot));
                }
            }
        }
    }

    /// The median live/snapshot ratio, times the snapshot's host seconds at
    /// the reference speed.
    fn scaled(pairs: &[(f64, f64)], reference_s: f64) -> f64 {
        let ratios: Vec<f64> = pairs.iter().map(|(t, s)| t / s).collect();
        median(&ratios) * reference_s
    }
}

fn end_to_end(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let wl = args.workload;
    let covered = wl.sub_seeds();
    let mut sims: Vec<Option<Reference>> = (0..covered).map(|_| None).collect();
    let mut timing = None;
    let mut timings = Timings::default();
    let started = Instant::now();
    // The first run in the process is a timing run, so that the
    // resident-memory high-water mark covers the same work in every
    // benchmark run (later runs reuse the heap it grew).
    let plain = timing_run(args, &mut timing, tally);
    let rss = peak_rss_mb();
    eprintln!("timing run through tashkent_cluster::run (s): {plain:.6}");
    // Every simulated sub-seed once, with set-ups after each, then lockstep
    // timing runs until the time is up.
    for k in 0..covered {
        let seed = sub_seed(args.seed, k);
        run_untraced(
            args,
            &format!("seed {seed}"),
            wl.experiment(seed),
            &mut sims[k as usize],
            tally,
        );
        timings.time_setups(args, tally);
    }
    let mut lockstep_runs = 0;
    while lockstep_runs < MIN_LOCKSTEP_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        timings.lockstep(wl, &timing, tally);
        lockstep_runs += 1;
    }
    let show = |xs: &[(f64, f64)]| {
        xs.iter()
            .map(|(t, s)| format!("{t:.6}/{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("event loop / snapshot (s): {}", show(&timings.runs));
    eprintln!("set-up / snapshot (s): {}", show(&timings.setups));
    let unscaled = |xs: &[(f64, f64)]| median(&xs.iter().map(|p| p.0).collect::<Vec<_>>());
    eprintln!(
        "unscaled medians: wall_s {:.4} setup_s {:.7}",
        unscaled(&timings.runs),
        unscaled(&timings.setups)
    );
    let (reference_run, reference_setup) = hostspeed::reference_s(wl);
    let sims: Vec<(u64, RunResult)> = (0..covered)
        .zip(sims)
        .filter_map(|(k, r)| Some((sub_seed(args.seed, k), r?.result)))
        .collect();
    if sims.len() as u64 != covered {
        tally.fail("some simulated sub-seeds never ran cleanly".into());
    }
    if let Err(e) = wl.check_seeds(&sims) {
        tally.fail(e);
    }
    // Medians over the sub-seeds: single seeds of tpcw-faults reach several
    // times the typical read volume.
    let sim =
        |f: &dyn Fn(&RunResult) -> f64| median(&sims.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    let tps = sim(&|r| r.tps);
    let rss = rss.unwrap_or_else(|| {
        tally.fail("peak resident memory is unreadable".into());
        0.0
    });
    vec![
        ("wall_s", Timings::scaled(&timings.runs, reference_run), "s"),
        (
            "setup_s",
            Timings::scaled(&timings.setups, reference_setup),
            "s",
        ),
        ("peak_rss_mb", rss, "MB"),
        ("tps", tps, "1/s"),
        ("resp_mean_s", sim(&|r| r.mean_response_s), "s"),
        ("resp_p99_s", sim(&|r| r.p99_response_s), "s"),
        (
            "commit_ratio",
            sim(&|r| r.committed as f64 / (r.committed + r.aborts) as f64),
            "ratio",
        ),
        (
            "served_ratio",
            sim(&|r| r.committed as f64 / (r.committed + r.retries_exhausted) as f64),
            "ratio",
        ),
        ("read_kb_per_txn", sim(&|r| r.read_kb_per_txn), "KB"),
        ("write_kb_per_txn", sim(&|r| r.write_kb_per_txn), "KB"),
        ("paper_tps_err", (tps / wl.paper_tps() - 1.0).abs(), "ratio"),
    ]
}

fn per_layer(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let wl = args.workload;
    let started = Instant::now();
    // Per-layer values: each traced sub-seed untraced, then traced.
    let mut values: Vec<Vec<f64>> = Vec::new();
    let mut sims = Vec::new();
    for k in 0..TRACED_SUB_SEEDS {
        let seed = sub_seed(args.seed, k);
        let label = format!("seed {seed}");
        let mut reference = None;
        run_untraced(args, &label, wl.experiment(seed), &mut reference, tally);
        if let Some((t, report)) = run_traced(&label, wl.experiment(seed), &reference, tally) {
            if k == 0 {
                print_kind_table(&label, &t);
            }
            values.push(report.values);
        }
        sims.extend(reference.map(|r| (seed, r.result)));
    }
    if let Err(e) = wl.check_seeds(&sims) {
        tally.fail(e);
    }
    // Tracing overhead: the timing run untraced and traced, alternately,
    // until the time is up; the fastest of each counts.
    let mut timing = None;
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    while plain.len() < MIN_TRACED_TIMING_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        plain.push(timing_run(args, &mut timing, tally));
        if let Some((t, _)) = run_traced("timing run", wl.timing_experiment(), &timing, tally) {
            if with_trace.is_empty() {
                print_kind_table("timing run", &t);
            }
            with_trace.push(t.wall_ns as f64 / 1e9);
        }
    }
    let mut out: Vec<Metric> = METRICS
        .iter()
        .enumerate()
        .map(|(m, (name, unit))| (*name, mean(values.iter().map(|v| v[m])), *unit))
        .collect();
    out.push((
        "bench.trace_overhead",
        fastest(&with_trace) / fastest(&plain) - 1.0,
        "ratio",
    ));
    out
}

/// Prints where a traced run's event-loop host time went, per event kind.
fn print_kind_table(label: &str, t: &traced::Traced) {
    let wall = t.loop_ns as f64;
    eprintln!("{label}: event loop {:.3} s", wall / 1e9);
    eprintln!(
        "{:<16} {:>10} {:>10} {:>8}",
        "kind", "events", "ns/event", "share"
    );
    eprintln!(
        "{:<16} {:>10} {:>10.0} {:>8.4}",
        "(pop)",
        t.pops,
        t.pop_ns as f64 / t.pops as f64,
        t.pop_ns as f64 / wall
    );
    for (k, (name, _)) in traced::KINDS.iter().enumerate() {
        if t.handled[k] > 0 {
            eprintln!(
                "{:<16} {:>10} {:>10.0} {:>8.4}",
                name,
                t.handled[k],
                t.handle_ns[k] as f64 / t.handled[k] as f64,
                t.handle_ns[k] as f64 / wall
            );
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            tally.fail(format!("{name} is not a finite number"));
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        eprintln!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
