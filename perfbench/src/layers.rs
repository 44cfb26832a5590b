//! Per-layer metrics of one traced run, and the trace-rebuilt checks.

use std::collections::HashMap;

use tashkent_cluster::{FaultKind, TraceData};

use crate::traced::{kind_index, Layer, Traced, KINDS};

/// Per-layer metric names and units, in report order.
pub const METRICS: [(&str, &str); 38] = [
    ("sim.events_per_txn", "events/txn"),
    ("sim.pop_ns", "ns"),
    ("sim.pop_share", "ratio"),
    ("replica.step_ns", "ns"),
    ("replica.step_share", "ratio"),
    ("replica.steps_per_txn", "steps/txn"),
    ("replica.maint_ns", "ns"),
    ("replica.cpu_util", "ratio"),
    ("replica.filtered_item_ratio", "ratio"),
    ("replica.gk_queue_mean", "txns"),
    ("storage.hit_ratio", "ratio"),
    ("storage.misses_per_txn", "pages/txn"),
    ("storage.evictions_per_txn", "pages/txn"),
    ("storage.seeks_per_txn", "seeks/txn"),
    ("storage.disk_util", "ratio"),
    ("certifier.send_ns", "ns"),
    ("certifier.return_ns", "ns"),
    ("certifier.return_share", "ratio"),
    ("certifier.conflict_ratio", "ratio"),
    ("certifier.log_kb_per_commit", "KB"),
    ("certifier.propagated_kb_per_txn", "KB"),
    ("certifier.withheld_kb_per_txn", "KB"),
    ("core.dispatch_ns", "ns"),
    ("core.lbtick_ns", "ns"),
    ("core.lb_moves", "count"),
    ("core.fallback_ratio", "ratio"),
    ("cluster.faultpath_ms", "ms"),
    ("cluster.timeouts_per_txn", "count/txn"),
    ("cluster.detect_ms", "ms"),
    ("cluster.backfill_kb", "KB"),
    ("cluster.redo_kb", "KB"),
    ("txn.retry_ms", "ms"),
    ("txn.admit_ms", "ms"),
    ("txn.exec_ms", "ms"),
    ("txn.cert_ms", "ms"),
    ("txn.return_ms", "ms"),
    ("txn.resp_p50_ms", "ms"),
    ("bench.timed_share", "ratio"),
];

/// Per-layer values of one traced run, in [`METRICS`] order, plus the
/// problems the trace-rebuilt checks found.
pub struct LayerReport {
    /// Metric values, in [`METRICS`] order.
    pub values: Vec<f64>,
    /// Failed checks (empty when every check passed).
    pub problems: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Phase timestamps of one transaction instance, µs.
#[derive(Default, Clone, Copy)]
struct Phases {
    arrive: u64,
    txn_type: u32,
    first_step: Option<u64>,
    exec_end: u64,
    certified: Option<u64>,
    /// Writeset bytes sent for certification (update transactions only).
    ws_bytes: Option<u64>,
}

/// Computes the per-layer metrics of `t` and checks its trace against its
/// result.
pub fn report(t: &Traced) -> LayerReport {
    let r = &t.result;
    let mut problems = Vec::new();
    let committed = r.committed as f64;
    let wall = t.loop_ns as f64;
    let ns = |k: &str| t.handle_ns[kind_index(k)] as f64;
    let n = |k: &str| t.handled[kind_index(k)] as f64;
    let in_window = |k: &str| t.handled_in_window[kind_index(k)] as f64;
    let layer_ns = |layer: Layer| -> f64 {
        KINDS
            .iter()
            .zip(t.handle_ns)
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, ns)| ns as f64)
            .sum()
    };

    // Trace walk: per-type rebuild, phase breakdown, certifier decisions,
    // Gatekeeper depth.
    let hop2 = 2 * t.state.config.lan_hop_us;
    let mut open: HashMap<u64, Phases> = HashMap::new();
    let mut per_type: Vec<(u64, f64)> = Vec::new();
    let mut phase_sum = [0.0f64; 5];
    let mut responses: Vec<u64> = Vec::new();
    // Certification outcomes of the transactions that reached the
    // certifier, and the writeset bytes the committed ones logged.
    let (mut decisions, mut conflicts, mut logged_bytes) = (0u64, 0u64, 0u64);
    let (mut gk_sum, mut gk_samples) = (0u64, 0u64);
    for (i, ev) in t.state.tracer.events().enumerate() {
        let at = ev.at.as_micros();
        let windowed = i >= t.window_trace_start;
        match &ev.data {
            TraceData::Arrive { txn, txn_type, .. } => {
                open.insert(
                    *txn,
                    Phases {
                        arrive: at,
                        txn_type: *txn_type,
                        ..Phases::default()
                    },
                );
            }
            TraceData::Step {
                txn,
                outcome,
                next_at,
                ws_bytes,
                ..
            } => {
                if let Some(p) = open.get_mut(txn) {
                    p.first_step.get_or_insert(at);
                    p.exec_end = *next_at;
                    if *outcome == "cert" {
                        p.ws_bytes = Some(*ws_bytes);
                    }
                }
            }
            TraceData::Certify { txn, .. } => {
                // Cross-group commits decide once per touched group; the
                // last decision is the one the transaction waited for.
                if let Some(p) = open.get_mut(txn) {
                    p.certified = Some(at);
                }
            }
            TraceData::Complete {
                txn,
                committed,
                response_us,
                ..
            } => {
                let Some(p) = open.remove(txn) else {
                    problems.push(format!("trace: completion of unknown txn {txn}"));
                    continue;
                };
                if !windowed {
                    continue;
                }
                if let Some(bytes) = p.ws_bytes {
                    decisions += 1;
                    if *committed {
                        logged_bytes += bytes;
                    } else {
                        conflicts += 1;
                    }
                }
                if !*committed {
                    continue;
                }
                let ty = p.txn_type as usize;
                if per_type.len() <= ty {
                    per_type.resize(ty + 1, (0, 0.0));
                }
                per_type[ty].0 += 1;
                per_type[ty].1 += *response_us as f64 / 1e6;
                responses.push(*response_us);
                // Phase boundaries: first arrival, the final attempt's
                // arrival, its first step, its last step's follow-up, the
                // certifier's decision, the response reaching the client.
                let end = at + hop2;
                let first_step = p.first_step.unwrap_or(p.arrive);
                let decided = p.certified.unwrap_or(p.exec_end).max(p.exec_end);
                let marks = [
                    end.saturating_sub(*response_us),
                    p.arrive,
                    first_step,
                    p.exec_end,
                    decided,
                    end,
                ];
                for (sum, pair) in phase_sum.iter_mut().zip(marks.windows(2)) {
                    *sum += pair[1].saturating_sub(pair[0]) as f64;
                }
            }
            TraceData::GaveUp { txn, .. } => {
                open.remove(txn);
            }
            TraceData::Util { queue, .. } if windowed => {
                gk_sum += *queue as u64;
                gk_samples += 1;
            }
            _ => {}
        }
    }

    // The rebuilt per-type counts and mean responses must equal the result.
    let n_types = per_type.len().max(r.per_type.len());
    for ty in 0..n_types {
        let (count, sum) = per_type.get(ty).copied().unwrap_or((0, 0.0));
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        let (want_count, want_mean) = r.per_type.get(ty).map_or((0, 0.0), |p| (p.0, p.1));
        if count != want_count || mean.to_bits() != want_mean.to_bits() {
            problems.push(format!(
                "trace: type {ty} rebuilt ({count}, {mean}) != result ({want_count}, {want_mean})"
            ));
        }
    }
    if t.state.tracer.dropped() != 0 {
        problems.push(format!(
            "trace ring dropped {} events",
            t.state.tracer.dropped()
        ));
    }
    let timed = (t.pop_ns + t.handle_ns.iter().sum::<u64>()) as f64 / wall;
    if timed < 0.95 {
        problems.push(format!(
            "pop + handle cover only {timed:.3} of the event loop's wall time"
        ));
    }

    responses.sort_unstable();
    let p50_us = responses
        .get(responses.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0);
    let per_txn_ms = |us: f64| ratio(us / 1e3, responses.len() as f64);
    let suspicions: Vec<f64> = r
        .faults
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::ReplicaSuspected(_)))
        .map(|f| f.detection_latency_us() as f64 / 1e3)
        .collect();
    let c = &t.counters;
    let values = vec![
        ratio(t.handled_in_window.iter().sum::<u64>() as f64, committed),
        ratio(t.pop_ns as f64, t.pops as f64),
        t.pop_ns as f64 / wall,
        ratio(ns("StepTxn"), n("StepTxn")),
        ns("StepTxn") / wall,
        ratio(in_window("StepTxn"), committed),
        ratio(ns("Maintenance"), n("Maintenance")),
        r.cpu_util,
        ratio(
            c.items_filtered as f64,
            (c.items_applied + c.items_filtered) as f64,
        ),
        ratio(gk_sum as f64, gk_samples as f64),
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
        ratio(c.misses as f64, committed),
        ratio(c.evictions as f64, committed),
        ratio(c.seeks as f64, committed),
        r.disk_util,
        ratio(ns("CertifySend"), n("CertifySend")),
        ratio(ns("CertifyReturn"), n("CertifyReturn")),
        ns("CertifyReturn") / wall,
        ratio(conflicts as f64, decisions as f64),
        ratio(logged_bytes as f64 / 1024.0, (decisions - conflicts) as f64),
        ratio(r.propagated_ws_bytes as f64 / 1024.0, committed),
        ratio(r.filtered_ws_bytes as f64 / 1024.0, committed),
        ratio(
            ns("ClientArrive") + ns("TxnRetry"),
            n("ClientArrive") + n("TxnRetry"),
        ),
        ratio(ns("LbTick"), n("LbTick")),
        r.lb.moves as f64,
        ratio(r.lb.fallback as f64, n("ClientArrive") + n("TxnRetry")),
        layer_ns(Layer::Cluster) / 1e6,
        ratio(t.effective_timeouts as f64, committed),
        ratio(suspicions.iter().sum(), suspicions.len() as f64),
        r.migration_bytes as f64 / 1024.0,
        r.redo_bytes as f64 / 1024.0,
        per_txn_ms(phase_sum[0]),
        per_txn_ms(phase_sum[1]),
        per_txn_ms(phase_sum[2]),
        per_txn_ms(phase_sum[3]),
        per_txn_ms(phase_sum[4]),
        p50_us as f64 / 1e3,
        timed,
    ];
    debug_assert_eq!(values.len(), METRICS.len());
    LayerReport { values, problems }
}
