//! From raw phase results to named metrics: the end-to-end lines, the
//! per-layer ledger read from the program's public counters, and the
//! result line the driver parses.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric sets of `BENCHMARK.json`
//! (a unit test holds the two files to each other). Every workload reports
//! every one of them; lines that only one workload can produce (`open.*`,
//! `loop.*`, the quality figures) are printed as text but are not part of
//! the driver's contract.

use crate::spans::totals_by_name;
use crate::stats::{median, quartiles};
use crate::workloads::{Ledger, Metric, PhaseResult, Slice, SLICE_NS, WORKERS};
use pp_obs::{Snapshot, Stage, TailReport};
use std::fmt::Write as _;

/// What a user of the system sees; each carries a regression bound.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_us",
    "cpu_us_per_op",
    "peak_rss_mb",
];

/// The per-layer ledger every workload fills in a traced run.
pub const PER_LAYER: [&str; 73] = [
    "features.predict_input_ns",
    "features.update_input_ns",
    "nn.matmul_dense_ns.b1",
    "nn.matmul_dense_ns.b64",
    "nn.matmul_onehot_ns.b1",
    "nn.matmul_onehot_ns.b64",
    "nn.matmul_dense_gflops.b64",
    "nn.gru_step_ns.b1",
    "nn.gru_step_ns.b64",
    "nn.gru_step_flops_per_row",
    "rnn.predict_batch_ns_per_row.b1",
    "rnn.predict_batch_ns_per_row.b8",
    "rnn.predict_batch_ns_per_row.b64",
    "rnn.update_batch_ns_per_row.b1",
    "rnn.update_batch_ns_per_row.b8",
    "rnn.update_batch_ns_per_row.b64",
    "rnn.predict_single_ns",
    "rnn.update_single_ns",
    "rnn.predict_flops_per_row",
    "rnn.update_flops_per_row",
    "rnn.predict_gflops.b64",
    "rnn.update_gflops.b64",
    "store.get_hit_ns",
    "store.get_miss_ns",
    "store.get_hit_ns.bounded",
    "store.put_overwrite_ns",
    "store.put_evict_ns.lru",
    "store.put_evict_ns.freq",
    "store.encode_ns",
    "store.decode_ns",
    "store.hit_rate",
    "store.evictions_per_kop",
    "store.reads_per_op",
    "store.bytes_per_op",
    "engine.roundtrip_idle_ns",
    "engine.submit_ns_per_req",
    "engine.wait_ns_per_req",
    "engine.mean_batch_size",
    "engine.largest_batch",
    "engine.batches_per_kop",
    "engine.steal_share",
    "engine.worker_idle_share",
    "engine.worker_imbalance",
    "engine.forward_pass_ns_p50",
    "engine.batch_assembly_ns_p50",
    "engine.coalesce_wait_ns_p50",
    "engine.batch_size_p50",
    "stage.queue_wait_share",
    "stage.queue_wait_p50_ns",
    "stage.coalesce_hold_share",
    "stage.coalesce_hold_p50_ns",
    "stage.batch_assembly_share",
    "stage.batch_assembly_p50_ns",
    "stage.forward_pass_share",
    "stage.forward_pass_p50_ns",
    "stage.state_write_back_share",
    "stage.state_write_back_p50_ns",
    "stage.reply_share",
    "stage.reply_p50_ns",
    "stage.spans_dropped",
    "scheduler.try_admit_ns",
    "scheduler.admit_wave_ns_per_intent",
    "cache.insert_ns",
    "cache.take_ns",
    "outcome.record_resolve_ns",
    "decision.decide_ns",
    "policy.recalibrate_ns.w100",
    "latency_p99_us",
    "run.ops",
    "run.slice_throughput_q1",
    "run.slice_throughput_q3",
    "run.attributed_share",
    "trace.overhead_share",
];

/// The share of a phase's slices the end-to-end figures are read from.
pub const QUIET_SHARE: f64 = 0.1;
/// …and the least number of slices, however short the phase.
const QUIET_FLOOR: usize = 3;

/// The end-to-end lines of one measured phase (all but `setup_s` and
/// `peak_rss_mb`, which belong to the invocation).
///
/// Throughput, median latency and CPU per op are read from the **quietest
/// tenth of the phase's quarter-second slices** — the slices with the
/// lowest median latency, and all three figures from those same slices.
/// Interference on a shared host only ever makes a slice slower, it comes
/// in bursts shorter than a run, and it is large: on the host this was
/// sized on, ten identical runs spread (inter-quartile ÷ median) by 28 % on
/// the median of one-second slices and by half that on the quiet ones.
/// Ranking by latency rather than by throughput matters on the open loop,
/// where the slice *after* a stall completes a backlog it did not compute
/// and would otherwise read as the fastest and cheapest of the run. What
/// the figures lose is sensitivity to a change that adds rare long pauses;
/// those show in `run.ops`, `run.slice_throughput_q1` and `latency_p99_us`.
/// A phase too short to hold a full slice falls back to whole-run figures.
pub fn end_to_end(result: &PhaseResult, ledger: &mut Ledger) {
    let mut busy: Vec<&Slice> = result.slices.iter().filter(|s| s.ops > 0).collect();
    busy.sort_by(|a, b| a.latency_p50_ns.total_cmp(&b.latency_p50_ns));
    let keep = ((busy.len() as f64 * QUIET_SHARE).ceil() as usize)
        .max(QUIET_FLOOR)
        .min(busy.len());
    let quiet = &busy[..keep];
    let quiet_ops: u64 = quiet.iter().map(|s| s.ops).sum();
    let quiet_cpu_ns: u64 = quiet.iter().map(|s| s.cpu_ns).sum();
    let slice_secs = SLICE_NS as f64 / 1e9;
    let mean_throughput = result.succeeded as f64 / result.wall_secs;

    let (throughput, latency_ns, cpu_ns_per_op) = if quiet.is_empty() {
        (
            mean_throughput,
            result.latency.quantile_ns(0.50),
            result.cpu_ns as f64 / result.succeeded.max(1) as f64,
        )
    } else {
        (
            quiet_ops as f64 / (keep as f64 * slice_secs),
            median(&mut quiet.iter().map(|s| s.latency_p50_ns).collect::<Vec<_>>()),
            quiet_cpu_ns as f64 / quiet_ops as f64,
        )
    };
    ledger.push("throughput_ops_s", throughput, "ops/s");
    ledger.push("latency_p50_us", latency_ns / 1e3, "us");
    ledger.push(
        "latency_p99_us",
        result.latency.quantile_ns(0.99) / 1e3,
        "us",
    );
    ledger.push("cpu_us_per_op", cpu_ns_per_op / 1e3, "us");
    ledger.push(
        "failed_share",
        result.failed as f64 / result.attempted().max(1) as f64,
        "ratio",
    );
    ledger.push("run.ops", result.succeeded as f64, "count");
    // The quartiles of all slices show how disturbed the run was.
    let mut per_slice: Vec<f64> = result
        .slices
        .iter()
        .map(|s| s.ops as f64 / slice_secs)
        .collect();
    let (q1, q3) = if per_slice.len() >= 2 {
        quartiles(&mut per_slice)
    } else {
        (mean_throughput, mean_throughput)
    };
    ledger.push("run.slice_throughput_q1", q1, "ops/s");
    ledger.push("run.slice_throughput_q3", q3, "ops/s");
}

/// The ledger lines read from the program's public counters: `StoreStats`,
/// `EngineStats`, `WorkerStats` and the `pp_obs` registry snapshot.
pub fn counters(result: &PhaseResult, snapshot: &Snapshot, ledger: &mut Ledger) {
    let ops = result.succeeded.max(1) as f64;
    let store = &result.store;
    ledger.push("store.hit_rate", store.hit_rate(), "ratio");
    ledger.push(
        "store.evictions_per_kop",
        store.evictions as f64 / ops * 1e3,
        "1/kop",
    );
    ledger.push("store.reads_per_op", store.reads as f64 / ops, "1/op");
    ledger.push(
        "store.bytes_per_op",
        (store.bytes_read + store.bytes_written) as f64 / ops,
        "B/op",
    );

    let engine = &result.engine;
    ledger.push("engine.mean_batch_size", engine.mean_batch_size(), "req");
    ledger.push("engine.largest_batch", engine.largest_batch as f64, "req");
    ledger.push(
        "engine.batches_per_kop",
        engine.batches as f64 / ops * 1e3,
        "1/kop",
    );
    let steals: u64 = result.workers.iter().map(|w| w.steals).sum();
    ledger.push(
        "engine.steal_share",
        steals as f64 / engine.batches.max(1) as f64,
        "ratio",
    );
    let idle_ns: u64 = result.workers.iter().map(|w| w.idle_ns).sum();
    ledger.push(
        "engine.worker_idle_share",
        idle_ns as f64 / (WORKERS as f64 * result.wall_secs * 1e9),
        "ratio",
    );
    let served = |w: &pp_serving::WorkerStats| w.predictions + w.updates;
    let most = result.workers.iter().map(served).max().unwrap_or(0);
    let least = result.workers.iter().map(served).min().unwrap_or(0);
    ledger.push(
        "engine.worker_imbalance",
        most as f64 / least.max(1) as f64,
        "ratio",
    );

    // Registry histograms run from process start (gate and warm-up too).
    let p50 = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.p50);
    ledger.push(
        "engine.forward_pass_ns_p50",
        p50("serving.forward_pass_ns"),
        "ns",
    );
    ledger.push(
        "engine.batch_assembly_ns_p50",
        p50("serving.batch_assembly_ns"),
        "ns",
    );
    ledger.push(
        "engine.coalesce_wait_ns_p50",
        p50("serving.coalesce_wait_ns"),
        "ns",
    );
    ledger.push("engine.batch_size_p50", p50("serving.batch_size"), "req");
}

/// `engine.submit_ns_per_req` / `engine.wait_ns_per_req`: the benchmark's
/// own spans around `submit_*` and reply harvesting (traced run only).
pub fn client_spans(result: &PhaseResult, ledger: &mut Ledger) {
    let engine = &result.engine;
    let requests = (engine.predictions + engine.updates).max(1) as f64;
    let totals = totals_by_name(result.spans.spans());
    let total_ns = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    ledger.push(
        "engine.submit_ns_per_req",
        total_ns("client.submit") / requests,
        "ns",
    );
    ledger.push(
        "engine.wait_ns_per_req",
        total_ns("client.wait") / requests,
        "ns",
    );
}

/// The `stage.*` lines from the program's own sampled request tracing.
pub fn stages(report: &TailReport, ledger: &mut Ledger) {
    for stage in Stage::REQUEST_CHILDREN {
        let tail = report.stage(stage);
        ledger.push(
            &format!("stage.{}_share", stage.name()),
            tail.map_or(0.0, |t| t.share_of_request_time),
            "ratio",
        );
        ledger.push(
            &format!("stage.{}_p50_ns", stage.name()),
            tail.map_or(0.0, |t| t.p50_us * 1e3),
            "ns",
        );
    }
    ledger.push("stage.spans_dropped", report.spans_dropped as f64, "count");
}

/// Log-linear interpolation of a per-row cost measured at batch sizes 1, 8
/// and 64 to the batch size the workload actually ran at.
fn per_row_at(ledger: &Ledger, prefix: &str, batch: f64) -> f64 {
    let at = |b: u32| ledger.get(&format!("{prefix}.b{b}")).unwrap_or(0.0);
    let (low, high) = if batch <= 8.0 { (1u32, 8u32) } else { (8, 64) };
    let position = ((batch.max(1.0).ln() - f64::from(low).ln())
        / (f64::from(high).ln() - f64::from(low).ln()))
    .clamp(0.0, 1.0);
    at(low) + (at(high) - at(low)) * position
}

/// `run.attributed_share`: the micro-timings times how often an op crosses
/// each layer, over the op's measured CPU cost. What is left — queue
/// hand-off, wake-ups, the reply channel, harvesting, allocation — is the
/// part no layer line accounts for yet.
pub fn attribution(result: &PhaseResult, ledger: &mut Ledger) {
    let get = |name: &str| ledger.get(name).unwrap_or(0.0);
    let ops = result.succeeded.max(1) as f64;
    let predicts = result.engine.predictions as f64 / ops;
    let updates = result.engine.updates as f64 / ops;
    let batch = result.engine.mean_batch_size();
    let store = &result.store;
    let hit_rate = store.hit_rate();
    let bounded = store.evictions > 0;
    let get_hit_ns = if bounded {
        get("store.get_hit_ns.bounded")
    } else {
        get("store.get_hit_ns")
    };
    let evict_share = store.evictions as f64 / store.writes.max(1) as f64;

    let features_ns =
        predicts * get("features.predict_input_ns") + updates * get("features.update_input_ns");
    let reads_ns = store.reads as f64 / ops
        * (hit_rate * get_hit_ns + (1.0 - hit_rate) * get("store.get_miss_ns"));
    let writes_ns = store.writes as f64 / ops
        * (evict_share * get("store.put_evict_ns.lru")
            + (1.0 - evict_share) * get("store.put_overwrite_ns"));
    let forward_ns = predicts * per_row_at(ledger, "rnn.predict_batch_ns_per_row", batch)
        + updates * per_row_at(ledger, "rnn.update_batch_ns_per_row", batch);
    let submit_ns = (predicts + updates) * get("engine.submit_ns_per_req");
    let precompute_ns =
        get("precompute.decide_ns_per_session") + get("precompute.resolve_ns_per_session");

    let attributed_us =
        (features_ns + reads_ns + writes_ns + forward_ns + submit_ns + precompute_ns) / 1e3;
    let share = attributed_us / get("cpu_us_per_op").max(f64::MIN_POSITIVE);
    ledger.push("run.attributed_share", share, "ratio");
}

/// Prints every line of `ledger` as `metric <name> <value> <unit>`.
pub fn print(ledger: &Ledger) {
    for Metric { name, value, unit } in &ledger.0 {
        println!("metric {name:<36} {value:>16.4} {unit}");
    }
}

/// The one-line result the driver reads: `metrics` holds exactly `names`.
///
/// # Errors
///
/// Names the first metric that is missing from `ledger` or not finite.
pub fn result_line(
    ledger: &Ledger,
    names: &[&str],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, name) in names.iter().enumerate() {
        let metric = ledger
            .0
            .iter()
            .find(|m| m.name == *name)
            .ok_or(format!("metric `{name}` was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {}", metric.value));
        }
        let separator = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{separator}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_of(value: &Value, key: &str) -> Vec<String> {
        let object = value.as_object().expect("BENCHMARK.json is an object");
        let (_, list) = object.iter().find(|(k, _)| k == key).expect("key present");
        list.as_array()
            .expect("a list")
            .iter()
            .map(|entry| {
                let fields = entry.as_object().expect("an object");
                let (_, name) = fields.iter().find(|(k, _)| k == "name").expect("a name");
                name.as_str().expect("a string").to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_binary_emits() {
        let manifest: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(names_of(&manifest, "end_to_end"), END_TO_END);
        assert_eq!(names_of(&manifest, "per_layer"), PER_LAYER);
        assert_eq!(names_of(&manifest, "workloads"), crate::WORKLOADS);
    }

    fn phase_of(slices: Vec<Slice>) -> PhaseResult {
        let mut latency = crate::stats::LatencyHistogram::default();
        latency.record_n(3_000_000, 10);
        PhaseResult {
            wall_secs: 0.5,
            cpu_ns: 40_000,
            succeeded: 10,
            failed: 0,
            latency,
            slices,
            spans: crate::spans::SpanLog::off(),
            engine: pp_serving::EngineStats::default(),
            workers: Vec::new(),
            store: pp_serving::StoreStats::default(),
        }
    }

    #[test]
    fn end_to_end_figures_come_from_the_quiet_slices_and_fall_back_without_one() {
        let quiet = Slice {
            ops: 25_000,
            cpu_ns: 250_000_000,
            latency_p50_ns: 1_000.0,
        };
        // Most of the phase is disturbed, and one idle slice is left out.
        let stalled = Slice {
            ops: 10_000,
            cpu_ns: 300_000_000,
            latency_p50_ns: 9_000.0,
        };
        let idle = Slice {
            ops: 0,
            cpu_ns: 5_000,
            latency_p50_ns: 0.0,
        };
        let mut slices = vec![stalled; 30];
        slices.extend([quiet; 9]);
        slices.push(idle);
        let mut ledger = Ledger::default();
        end_to_end(&phase_of(slices), &mut ledger);
        assert_eq!(ledger.get("throughput_ops_s"), Some(100_000.0));
        assert_eq!(ledger.get("latency_p50_us"), Some(1.0));
        assert_eq!(ledger.get("cpu_us_per_op"), Some(10.0));
        assert_eq!(ledger.get("run.slice_throughput_q1"), Some(40_000.0));

        // A phase shorter than a slice reports whole-run figures.
        let mut ledger = Ledger::default();
        end_to_end(&phase_of(Vec::new()), &mut ledger);
        assert_eq!(ledger.get("throughput_ops_s"), Some(20.0));
        assert_eq!(ledger.get("cpu_us_per_op"), Some(4.0));
        let p50 = ledger.get("latency_p50_us").expect("pushed");
        assert!((p50 / 3_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
    }

    #[test]
    fn result_line_is_json_with_exactly_the_named_metrics() {
        let mut ledger = Ledger::default();
        ledger.push("a", 1.25, "us");
        ledger.push("b", 3.0, "count");
        ledger.push("extra", 9.0, "x");
        let line = result_line(&ledger, &["a", "b"], true, 10, 0).expect("complete");
        let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
        let object = parsed.as_object().expect("object");
        let keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (_, metrics) = &object[3];
        assert_eq!(metrics.as_object().expect("object").len(), 2);
        assert!(result_line(&ledger, &["missing"], true, 1, 0).is_err());
        ledger.push("nan", f64::NAN, "x");
        assert!(result_line(&ledger, &["nan"], true, 1, 0).is_err());
    }

    #[test]
    fn per_row_cost_interpolates_between_measured_batch_sizes() {
        let mut ledger = Ledger::default();
        ledger.push("k.b1", 100.0, "ns");
        ledger.push("k.b8", 40.0, "ns");
        ledger.push("k.b64", 10.0, "ns");
        assert_eq!(per_row_at(&ledger, "k", 1.0), 100.0);
        assert_eq!(per_row_at(&ledger, "k", 8.0), 40.0);
        assert_eq!(per_row_at(&ledger, "k", 64.0), 10.0);
        assert_eq!(per_row_at(&ledger, "k", 500.0), 10.0);
        let between = per_row_at(&ledger, "k", 22.6);
        assert!(between < 40.0 && between > 10.0);
    }
}
