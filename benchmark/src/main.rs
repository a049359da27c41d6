//! `ppbench` — the repository's one benchmark.
//!
//! ```text
//! ppbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed, checks outputs against a
//! single-threaded reference, warms up, measures for `--seconds`, and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object for the driver. `--trace 0` measures the
//! end-to-end metrics with all tracing off. `--trace 1` repeats the
//! workload with the benchmark's own spans and the program's 1/64 request
//! sampler on, adds the per-layer micro-timings, and reports the per-layer
//! ledger. See `README.md` next to this crate for the glossary.

mod host;
mod inputs;
mod micro;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

use pp_obs::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::precompute_loop::PrecomputeLoop;
use workloads::predict_open::PredictOpen;
use workloads::predict_wave::PredictWave;
use workloads::session_mix::SessionMix;
use workloads::{run_phase, Gate, Ledger, PhaseResult, Workload};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "predict_wave",
    "session_mix",
    "predict_open",
    "precompute_loop",
];

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced phase runs for this share of `--seconds` (8 s of 20 s).
const TRACED_SHARE: f64 = 0.4;
/// How often the traced phase empties the program's span lanes, so they
/// never fill and start dropping.
const LANE_DRAIN_PERIOD: Duration = Duration::from_secs(1);

const USAGE: &str = "\
ppbench --workload <predict_wave|session_mix|predict_open|precompute_loop>
        --seed <u64> --seconds <n> --trace <0|1> [--out-dir <dir>]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("no such workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(parsed);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("must be 0 or 1")),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn set_up(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "predict_wave" => Box::new(PredictWave::set_up(seed)),
        "session_mix" => Box::new(SessionMix::set_up(seed)),
        "predict_open" => Box::new(PredictOpen::set_up(seed)),
        "precompute_loop" => Box::new(PrecomputeLoop::set_up(seed)),
        other => unreachable!("{other} passed argument validation"),
    }
}

/// One timed set-up — seed to ready-to-serve: input generation, model
/// build or training, store warm-up, engine start.
fn set_up_timed(args: &Args) -> (Box<dyn Workload>, f64) {
    let started = Instant::now();
    let workload = set_up(&args.workload, args.seed);
    (workload, started.elapsed().as_secs_f64())
}

fn print_phase(name: &str, result: &PhaseResult) {
    println!(
        "{name:<8} requests sent {} / succeeded {} / failed {}  ({:.2} s wall, {} latency samples)",
        result.attempted(),
        result.succeeded,
        result.failed,
        result.wall_secs,
        result.latency.count(),
    );
    // Slice by slice, so a disturbed stretch can be seen, not inferred.
    let per_sec = 1e9 / workloads::SLICE_NS as f64;
    let per_slice: Vec<String> = result
        .slices
        .iter()
        .map(|s| {
            let kops = s.ops as f64 * per_sec / 1e3;
            let cpu_us = s.cpu_ns as f64 / 1e3 / s.ops.max(1) as f64;
            format!("{kops:.0}@{cpu_us:.1}")
        })
        .collect();
    println!(
        "{name:<8} kops/s@cpu-us/op per {} ms: {}",
        workloads::SLICE_NS / 1_000_000,
        per_slice.join(" ")
    );
}

/// Gate, then the untimed lead-in. Returns the gate's counts.
fn gate_and_warm_up(workload: &mut dyn Workload) -> Gate {
    let gate = workload.gate();
    println!(
        "gate     requests sent {} / succeeded {} / failed {}",
        gate.attempted,
        gate.attempted - gate.failed,
        gate.failed
    );
    let warm = run_phase(workload, spans::SpanLog::off(), |w, elapsed_secs| {
        w.warmed(elapsed_secs)
    });
    print_phase("warm-up", &warm);
    gate
}

/// The traced phase: own spans on, and the program's sampler (switched on
/// for the whole process by `main`) drained once a second.
fn traced_phase(workload: &mut dyn Workload, seconds: f64) -> (PhaseResult, pp_obs::TailReport) {
    let tracer = Tracer::global();
    let mut sampled = Vec::new();
    if tracer.enabled() {
        // Spans of the gate and the warm-up are not part of the phase.
        drop(tracer.drain());
    }
    let mut last_drain = Instant::now();
    let result = run_phase(workload, spans::SpanLog::on(), |_, elapsed_secs| {
        if last_drain.elapsed() >= LANE_DRAIN_PERIOD {
            sampled.extend(tracer.drain());
            last_drain = Instant::now();
        }
        elapsed_secs >= seconds
    });
    sampled.extend(tracer.drain());
    let report = pp_obs::tail_report(&sampled, tracer.config().sample_every, tracer.dropped());
    (result, report)
}

/// Runs this same binary untraced for `seconds` and returns its
/// `throughput_ops_s` — the denominator of `trace.overhead_share`. A
/// separate process because the program's sampler is configured once per
/// process, from the environment.
fn untraced_throughput(args: &Args, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .output()
        .map_err(|e| format!("untraced child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("untraced child failed: {last}"));
    }
    let parsed: serde::Value =
        serde_json::from_str(last).map_err(|e| format!("untraced child's result: {e:?}"))?;
    let field = |value: &serde::Value, key: &str| {
        value
            .as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    };
    field(&parsed, "metrics")
        .and_then(|m| field(&m, "throughput_ops_s"))
        .and_then(|t| field(&t, "value"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("untraced child printed no throughput: {last}"))
}

fn write_trace(out_dir: &Path, workload: &str, result: &PhaseResult) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, spans::chrome_trace_json(result.spans.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    println!(
        "ppbench  workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host     nproc={} rustc=\"{}\" commit={} loadavg_start=\"{}\"",
        host::nproc(),
        host::rustc_version(),
        host::git_head(),
        host::loadavg()
    );
    println!(
        "engine   workers={} shards={} max_batch={} reply_timeout={}s generator_threads=1",
        workloads::WORKERS,
        workloads::SHARDS,
        workloads::MAX_BATCH,
        workloads::REPLY_TIMEOUT.as_secs()
    );

    let (mut instance, first_setup_secs) = set_up_timed(args);
    println!("consts   {}", instance.constants());
    let workload = instance.as_mut();
    let gate = gate_and_warm_up(workload);

    let mut ledger = Ledger::default();
    let (result, names): (PhaseResult, &[&str]) = if args.trace {
        let traced_secs = args.seconds * TRACED_SHARE;
        let (result, tail) = traced_phase(workload, traced_secs);
        print_phase("traced", &result);
        let snapshot = pp_obs::MetricsRegistry::global().snapshot();
        report::end_to_end(&result, &mut ledger);
        report::counters(&result, &snapshot, &mut ledger);
        report::client_spans(&result, &mut ledger);
        report::stages(&tail, &mut ledger);
        workload.extras(&result, &mut ledger);
        micro::run(&workload.serving().model, args.seed, &mut ledger);
        report::attribution(&result, &mut ledger);
        let path = write_trace(&args.out_dir, &args.workload, &result)?;
        println!(
            "trace    {} own spans ({} dropped), {} sampled requests -> {}",
            result.spans.spans().len(),
            result.spans.dropped(),
            tail.sampled_requests,
            path.display()
        );
        let untraced = untraced_throughput(args, traced_secs)?;
        let traced = ledger.get("throughput_ops_s").expect("pushed above");
        println!("baseline untraced child {untraced:.1} ops/s vs traced {traced:.1} ops/s");
        ledger.push("trace.overhead_share", 1.0 - traced / untraced, "ratio");
        (result, &report::PER_LAYER)
    } else {
        let result = run_phase(workload, spans::SpanLog::off(), |_, elapsed_secs| {
            elapsed_secs >= args.seconds
        });
        print_phase("measure", &result);
        report::end_to_end(&result, &mut ledger);
        // Reading the public counters costs nothing, so every run shows them.
        let snapshot = pp_obs::MetricsRegistry::global().snapshot();
        report::counters(&result, &snapshot, &mut ledger);
        workload.extras(&result, &mut ledger);
        (result, &report::END_TO_END)
    };
    ledger.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    let verdict = workload.verdict();
    drop(instance);
    if !args.trace {
        // The other set-ups run only now, one at a time, after the peak was
        // read: `peak_rss_mb` is the footprint of one instance, and
        // `setup_s` is still the median of several.
        let mut setup_secs = vec![first_setup_secs];
        setup_secs.extend((1..SETUPS).map(|_| set_up_timed(args).1));
        println!("setup    {setup_secs:.3?} s");
        ledger.push("setup_s", stats::median(&mut setup_secs), "s");
    }
    report::print(&ledger);
    println!("host     loadavg_end=\"{}\"", host::loadavg());
    if let Err(reason) = &verdict {
        println!("invalid  {reason}");
    }
    let attempted = gate.attempted + result.attempted();
    let failed = gate.failed + result.failed;
    let correct = failed == 0 && verdict.is_ok();
    println!(
        "{}",
        report::result_line(&ledger, names, correct, attempted, failed)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("ppbench: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "ppbench: refusing to measure a debug build. Besides being slow, debug builds \
             panic engine workers on the `queued` counter underflow (ROADMAP Open item 1); \
             release builds wrap. Build with --release."
        );
        return ExitCode::from(2);
    }
    // Before the first engine starts: the program's request sampler is
    // configured once per process. Off for end-to-end numbers (its span
    // lanes would fill mid-run and change behaviour at the fill point), on
    // at the shipping 1/64 for the traced run.
    std::env::set_var("PP_TRACE_SAMPLE", if args.trace { "64" } else { "0" });
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("ppbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn the_drivers_arguments_parse_and_malformed_ones_are_refused() {
        let args = parse(&[
            "--workload",
            "session_mix",
            "--seed",
            "23",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .expect("the driver's invocation");
        assert_eq!(args.workload, "session_mix");
        assert_eq!(args.seed, 23);
        assert_eq!(args.seconds, 15.0);
        assert!(args.trace);
        assert_eq!(args.out_dir, PathBuf::from("benchmark/out"));

        let complete = [
            "--workload",
            "predict_wave",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        for missing in 0..4 {
            let mut partial = complete.to_vec();
            partial.drain(missing * 2..missing * 2 + 2);
            assert!(
                parse(&partial).is_err(),
                "accepted without {}",
                complete[missing * 2]
            );
        }
        for (flag, bad) in [
            ("--workload", "no_such"),
            ("--seed", "-1"),
            ("--seconds", "0"),
            ("--seconds", "nan"),
            ("--trace", "yes"),
        ] {
            let mut wrong = complete.to_vec();
            let at = wrong.iter().position(|a| *a == flag).expect("flag present");
            wrong[at + 1] = bad;
            assert!(parse(&wrong).is_err(), "accepted {flag} {bad}");
        }
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }
}
