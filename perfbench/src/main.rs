//! The repository benchmark: one command that runs one workload, checks
//! its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload notify_email --seed 2021 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs after a
//! warm-up run; `--trace 1` reports the per-layer metrics of a traced
//! run. Verdicts (`check ...`) and metrics (`metric ...`) are printed
//! to stdout as they are taken; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A failed check exits
//! with code 1. See `perfbench/README.md` for the workloads and the
//! layer map.

mod artifacts;
mod campaign;
mod layers;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run reports, with units.
/// `BENCHMARK.json` lists exactly these names.
const END_TO_END: &[(&str, &str)] = &[
    ("sessions_per_s", "1/s"),
    ("render_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"),
];

/// The workloads, by name.
const WORKLOADS: &[&str] = &["notify_email", "notify_mx", "artifacts_warm"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2021,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Scratch directory for stores and journals: one per process under
/// `.perfbench_work/` in the directory the benchmark runs from, so runs
/// that share a checkout never touch each other's files. Removed when
/// the run ends.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_work").join(std::process::id().to_string())
}

/// Delete this run's [`work_dir`], and its parent once no other run is
/// using it.
fn remove_work_dir() {
    let dir = work_dir();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Start a new peak-resident-set window: the kernel resets `VmHWM` to
/// the current resident set.
pub fn reset_peak_rss() {
    // Without `/proc/self/clear_refs` the peak covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident set (`VmHWM`) since the last [`reset_peak_rss`],
/// or since the process started, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The one-line record of what produced a result: seed, CPUs, load at
/// start, compiler and commit.
fn environment_line(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "env workload={} seed={} seconds={} trace={} cpus={cpus} loadavg={loadavg} \
         rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", environment_line(&args));
    let mut report = stats::Report::default();
    let spec = match args.workload.as_str() {
        "notify_email" => Some(&campaign::NOTIFY_EMAIL),
        "notify_mx" => Some(&campaign::NOTIFY_MX),
        _ => None,
    };
    match (spec, args.trace) {
        (Some(spec), false) => campaign::run(spec, &args, &mut report),
        (Some(spec), true) => campaign::trace(spec, &args, &mut report).emit(&mut report),
        (None, false) => artifacts::run(artifacts::SCALE, &args, &mut report),
        (None, true) => artifacts::trace(artifacts::SCALE, &args, &mut report).emit(&mut report),
    }
    remove_work_dir();
    let expected: Vec<&str> = if args.trace {
        layers::LAYER_METRICS.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    report.check(
        "metrics.complete",
        emitted == expected,
        format!("{} metrics reported", emitted.len()),
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// Every name in the layer map is measured by the traced run of
    /// at least one workload (here at toy sizes), and every traced run
    /// passes its checks.
    #[test]
    fn traced_runs_measure_every_layer_metric() {
        let args = |workload: &str| Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0,
            trace: true,
        };
        let tiny = |spec: &campaign::Spec| campaign::Spec {
            domains: 30.0,
            ..*spec
        };
        let mut measured = std::collections::BTreeSet::new();
        let mut report = stats::Report::default();
        for (workload, spec) in [
            ("notify_email", tiny(&campaign::NOTIFY_EMAIL)),
            ("notify_mx", tiny(&campaign::NOTIFY_MX)),
        ] {
            let layers = campaign::trace(&spec, &args(workload), &mut report);
            measured.extend(layers.0.into_keys());
        }
        let layers = artifacts::trace(0.004, &args("artifacts_warm"), &mut report);
        measured.extend(layers.0.into_keys());
        remove_work_dir();
        assert!(report.correct(), "{:?}", report.checks);
        let missing: Vec<&str> = layers::LAYER_METRICS
            .iter()
            .map(|m| m.name)
            .filter(|n| !measured.contains(n))
            .collect();
        assert!(missing.is_empty(), "never measured: {missing:?}");
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(benchmark_names("end_to_end"), e2e);
        let layer: Vec<String> = layers::LAYER_METRICS
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(benchmark_names("per_layer"), layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(benchmark_names("workloads"), workloads);
        for (name, unit) in END_TO_END {
            assert!(stats::valid_name(name) && stats::valid_unit(unit));
        }
    }
}
