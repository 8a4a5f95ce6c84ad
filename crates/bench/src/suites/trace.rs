//! Telemetry suite: the `trace` export subcommand and the
//! `bench-trace` overhead gate.
//!
//! The gate re-runs `bench-perf`'s 2k/shards=1 NotifyEmail campaign
//! with the tracer off and on (best of [`MEASURE_ROUNDS`] each) and
//! fails unless the tracer is effectively free when disabled
//! (≤ [`MAX_OFF_OVERHEAD`] vs the committed `BENCH_perf.json`
//! baseline) and cheap when enabled (≤ [`MAX_ON_OVERHEAD`]). It also
//! asserts the telemetry invariant directly: the traced run's content
//! hash must equal the untraced run's, byte for byte. Results land in
//! `results/BENCH_trace.json`.
//!
//! The export subcommand runs one NotifyEmail campaign at the
//! environment's scale with tracing on and emits Chrome trace-event
//! JSON (Perfetto-loadable) or the metrics-summary JSON, with
//! session/shard filters.

use mailval_datasets::DatasetKind;
use mailval_measure::campaign::{
    run_campaign, CampaignConfig, CampaignKind, CampaignResult, TelemetryConfig,
};
use mailval_measure::progress;
use mailval_measure::telemetry::{chrome_trace_json, metrics_json, TraceFilter};
use std::time::Instant;

/// Measurement rounds per mode; the best round is scored (the gate
/// compares steady-state engine cost, not scheduler noise).
const MEASURE_ROUNDS: usize = 3;

/// Maximum tolerated disabled-tracer overhead vs the perf baseline.
const MAX_OFF_OVERHEAD: f64 = 0.01;

/// Maximum tolerated recording-tracer overhead vs the perf baseline.
const MAX_ON_OVERHEAD: f64 = 0.10;

/// The row of `BENCH_perf.json` the gate compares against.
const BASELINE_SCALE: &str = "2k";
const BASELINE_SHARDS: usize = 1;

/// The population scale behind [`BASELINE_SCALE`] (bench-perf's 2k
/// axis point, verbatim).
const SCALE: f64 = 2_000.0 / 26_695.0;

/// The campaign under measurement: `bench-perf`'s configuration with
/// only the telemetry knob varied.
fn config(seed: u64, tracing: bool) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed,
        probe_pause_ms: 15_000,
        shards: BASELINE_SHARDS,
        telemetry: TelemetryConfig {
            tracing,
            heartbeat_ms: 0,
        },
        ..CampaignConfig::default()
    }
}

struct Measured {
    sessions: usize,
    best_wall_s: f64,
    sessions_per_s: f64,
    result: CampaignResult,
}

/// Run the campaign [`MEASURE_ROUNDS`] times; keep the fastest wall
/// clock and the last result (all rounds produce identical results).
fn measure(seed: u64, tracing: bool) -> Measured {
    let prepared = crate::prepare_with(
        &crate::Env {
            scale: SCALE,
            seed,
            shards: BASELINE_SHARDS,
        },
        DatasetKind::NotifyEmail,
    );
    let cfg = config(seed, tracing);
    let mut best_wall_s = f64::INFINITY;
    let mut last = None;
    for round in 0..MEASURE_ROUNDS {
        let start = Instant::now();
        let result = run_campaign(&cfg, &prepared.pop, &prepared.profiles);
        let wall_s = start.elapsed().as_secs_f64();
        progress!(
            "bench-trace: tracing={} round {}/{MEASURE_ROUNDS}: {:.3}s wall",
            if tracing { "on" } else { "off" },
            round + 1,
            wall_s
        );
        best_wall_s = best_wall_s.min(wall_s);
        last = Some(result);
    }
    let result = last.expect("at least one round");
    Measured {
        sessions: result.sessions.len(),
        best_wall_s,
        sessions_per_s: result.sessions.len() as f64 / best_wall_s,
        result,
    }
}

/// The baseline `sessions_per_s` for the matching `(scale, shards)`
/// row of the committed `BENCH_perf.json`.
fn baseline_sessions_per_s(json: &str) -> Option<f64> {
    json.lines().find_map(|line| {
        let scale = super::perf::str_field(line, "scale")?;
        let shards = super::perf::num_field(line, "shards")? as usize;
        if scale == BASELINE_SCALE && shards == BASELINE_SHARDS {
            super::perf::num_field(line, "sessions_per_s")
        } else {
            None
        }
    })
}

/// Run the overhead gate, writing the JSON report to `out_path`
/// (default `results/BENCH_trace.json`). Returns `false` on any
/// overhead or determinism violation (the `verify.sh --trace` stage).
/// Verdicts go to stdout, not the `[mailval]` progress channel, so
/// `MAILVAL_QUIET` never hides why the gate failed.
pub fn run(out_path: Option<String>) -> bool {
    let out_path = out_path.unwrap_or_else(|| "results/BENCH_trace.json".to_string());
    let baseline_path = "results/BENCH_perf.json";
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            println!("bench-trace: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let Some(base_sps) = baseline_sessions_per_s(&baseline) else {
        println!(
            "bench-trace: no {BASELINE_SCALE}/shards={BASELINE_SHARDS} row in {baseline_path}"
        );
        return false;
    };

    let seed = crate::seed();
    let off = measure(seed, false);
    let on = measure(seed, true);

    // The telemetry invariant, asserted at the strongest point: a
    // traced run's deterministic output is byte-identical to an
    // untraced run's.
    let hash_matches = off.result.content_hash() == on.result.content_hash();
    let trace_events = on
        .result
        .telemetry
        .as_ref()
        .map(|t| t.events.len())
        .unwrap_or(0);

    let off_overhead = 1.0 - off.sessions_per_s / base_sps;
    let on_overhead = 1.0 - on.sessions_per_s / base_sps;
    progress!(
        "bench-trace: baseline {base_sps:.0} sessions/s; off {:.0} ({:+.1}% overhead), \
         on {:.0} ({:+.1}% overhead), {trace_events} events traced",
        off.sessions_per_s,
        off_overhead * 100.0,
        on.sessions_per_s,
        on_overhead * 100.0
    );

    let mut ok = true;
    if !hash_matches {
        println!("bench-trace: FAIL content hash of traced run differs from untraced run");
        ok = false;
    }
    if trace_events == 0 {
        println!("bench-trace: FAIL traced run recorded no events");
        ok = false;
    }
    if off_overhead > MAX_OFF_OVERHEAD {
        println!(
            "bench-trace: FAIL tracing-off overhead {:.1}% > {:.0}%",
            off_overhead * 100.0,
            MAX_OFF_OVERHEAD * 100.0
        );
        ok = false;
    }
    if on_overhead > MAX_ON_OVERHEAD {
        println!(
            "bench-trace: FAIL tracing-on overhead {:.1}% > {:.0}%",
            on_overhead * 100.0,
            MAX_ON_OVERHEAD * 100.0
        );
        ok = false;
    }

    let json = render_json(seed, base_sps, &off, &on, trace_events, hash_matches);
    std::fs::write(&out_path, &json).expect("write result file");
    progress!("bench-trace: wrote {out_path}");
    if ok {
        println!("bench-trace: check passed");
    }
    ok
}

fn render_json(
    seed: u64,
    base_sps: f64,
    off: &Measured,
    on: &Measured,
    trace_events: usize,
    hash_matches: bool,
) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let row = |mode: &str, m: &Measured, extra: &str| {
        format!(
            "    {{\"mode\": \"{mode}\", \"rounds\": {MEASURE_ROUNDS}, \"sessions\": {}, \
             \"best_wall_s\": {:.3}, \"sessions_per_s\": {:.1}, \
             \"overhead_vs_baseline\": {:.4}{extra}}}",
            m.sessions,
            m.best_wall_s,
            m.sessions_per_s,
            1.0 - m.sessions_per_s / base_sps
        )
    };
    format!(
        "{{\n  \"benchmark\": \"trace_overhead\",\n  \"cpus\": {cpus},\n  \"seed\": {seed},\n  \
         \"baseline\": {{\"scale\": \"{BASELINE_SCALE}\", \"shards\": {BASELINE_SHARDS}, \
         \"sessions_per_s\": {base_sps:.1}}},\n  \
         \"max_off_overhead\": {MAX_OFF_OVERHEAD},\n  \"max_on_overhead\": {MAX_ON_OVERHEAD},\n  \
         \"hash_matches_untraced\": {hash_matches},\n  \"runs\": [\n{},\n{}\n  ]\n}}\n",
        row("off", off, ""),
        row("on", on, &format!(", \"trace_events\": {trace_events}")),
    )
}

/// The `mailval-artifacts trace` subcommand: simulate the NotifyEmail
/// campaign at the environment's scale with tracing on and export
/// Chrome trace-event JSON (default) or the metrics summary. Returns
/// `false` on bad arguments.
///
/// ```text
/// trace [--session N]... [--shard K/N] [--metrics] [--out FILE]
/// ```
pub fn export(args: &[String]) -> bool {
    let mut filter = TraceFilter::default();
    let mut metrics = false;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--session" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(id) => filter.sessions.push(id),
                None => {
                    progress!("trace: --session needs a session id");
                    return false;
                }
            },
            "--shard" => {
                let parsed = iter.next().and_then(|v| {
                    let (k, n) = v.split_once('/')?;
                    Some((k.parse().ok()?, n.parse().ok()?))
                });
                match parsed {
                    Some((k, n)) if n > 0 && k < n => filter.shard = Some((k, n)),
                    _ => {
                        progress!("trace: --shard needs K/N with K < N");
                        return false;
                    }
                }
            }
            "--metrics" => metrics = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    progress!("trace: --out needs a path");
                    return false;
                }
            },
            other => {
                progress!("trace: unknown argument '{other}'");
                return false;
            }
        }
    }

    let env = crate::Env::from_env();
    let prepared = crate::prepare_with(&env, DatasetKind::NotifyEmail);
    let cfg = CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: env.seed,
        probe_pause_ms: 15_000,
        shards: env.shards,
        telemetry: TelemetryConfig {
            tracing: true,
            heartbeat_ms: 500,
        },
        ..CampaignConfig::default()
    };
    progress!(
        "trace: NotifyEmail over {} domains / {} hosts on {} shard(s), tracing on",
        prepared.pop.domains.len(),
        prepared.pop.hosts.len(),
        env.shards.max(1)
    );
    let result = run_campaign(&cfg, &prepared.pop, &prepared.profiles);
    let telemetry = result.telemetry.expect("tracing was enabled");
    progress!(
        "trace: {} sessions, {} trace events{}",
        result.sessions.len(),
        telemetry.events.len(),
        telemetry
            .metrics
            .cache_hit_rate()
            .map(|r| format!(", resolver cache hit-rate {:.1}%", r * 100.0))
            .unwrap_or_default()
    );
    let doc = if metrics {
        metrics_json(&telemetry.metrics)
    } else {
        chrome_trace_json(&telemetry.events, &filter)
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write trace file");
            progress!("trace: wrote {path} ({} bytes)", doc.len());
        }
        None => print!("{doc}"),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_row_is_found() {
        let json = "\
{\n  \"runs\": [\n    {\"scale\": \"2k\", \"shards\": 1, \"sessions_per_s\": 1234.5},\n    \
{\"scale\": \"2k\", \"shards\": 2, \"sessions_per_s\": 2000.0}\n  ]\n}\n";
        assert_eq!(baseline_sessions_per_s(json), Some(1234.5));
        assert_eq!(baseline_sessions_per_s("{}"), None);
    }
}
