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

use super::sweep::{self, Extra, Row, Suite};
use mailval_datasets::DatasetKind;
use mailval_measure::campaign::{run_campaign, CampaignConfig, CampaignKind, TelemetryConfig};
use mailval_measure::progress;
use mailval_measure::telemetry::{chrome_trace_json, metrics_json, TraceFilter};

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

/// `bench-perf`'s 2k/shards=1 campaign with the tracer off, then on;
/// tracing must not change the output.
const SUITE: Suite = Suite {
    name: "bench-trace",
    benchmark: "trace_overhead",
    out: "results/BENCH_trace.json",
    scales: &[(BASELINE_SCALE, SCALE)],
    rounds: MEASURE_ROUNDS,
    profiles: |_| {},
    points: |base| {
        [("off", false), ("on", true)]
            .map(|(mode, tracing)| {
                let mut point = super::perf::point(base, BASELINE_SHARDS);
                point.axis.push(("mode", sweep::quote(mode)));
                point.config.telemetry = TelemetryConfig {
                    tracing,
                    heartbeat_ms: 0,
                };
                point
            })
            .into()
    },
    invariant: true,
    extras: &[Extra::TraceEvents],
    header: &[
        ("max_off_overhead", MAX_OFF_OVERHEAD),
        ("max_on_overhead", MAX_ON_OVERHEAD),
    ],
};

/// Run the overhead gate, writing the JSON report to `out_path`
/// (default `results/BENCH_trace.json`). Returns `false` on any
/// overhead or determinism violation (the `verify.sh --trace` stage).
/// Verdicts go to stdout, not the `[mailval]` progress channel, so
/// `MAILVAL_QUIET` never hides why the gate failed.
pub(crate) fn run(out_path: Option<String>) -> bool {
    let baseline_path = "results/BENCH_perf.json";
    let Some(baseline) = sweep::read_baseline(SUITE.name, baseline_path) else {
        return false;
    };
    let Some(base_sps) = sweep::baseline_sessions_per_s(&baseline, BASELINE_SCALE, BASELINE_SHARDS)
    else {
        println!(
            "bench-trace: no {BASELINE_SCALE}/shards={BASELINE_SHARDS} row in {baseline_path}"
        );
        return false;
    };

    let mut rows = sweep::sweep(&SUITE, MEASURE_ROUNDS);
    // The telemetry invariant, checked at the strongest point: a
    // traced run's deterministic output is byte-identical to an
    // untraced run's.
    let hash_matches = sweep::invariance_failures(&SUITE, &rows).is_empty();
    let trace_events = sweep::num(&rows[1].fields, "trace_events").unwrap_or(0.0);
    let overhead = |row: &Row| 1.0 - row.sessions_per_s() / base_sps;
    let (off, on) = (overhead(&rows[0]), overhead(&rows[1]));
    for row in &mut rows {
        // Every row's `wall_s` is a best-of-rounds figure; the gate's
        // report has always named it `best_wall_s` too.
        row.fields
            .push(("best_wall_s", format!("{:.3}", row.wall_s)));
        let overhead = format!("{:.4}", overhead(row));
        row.fields.push(("overhead_vs_baseline", overhead));
    }
    progress!(
        "bench-trace: baseline {base_sps:.0} sessions/s; off {:.0} ({:+.1}% overhead), \
         on {:.0} ({:+.1}% overhead), {trace_events} events traced",
        rows[0].sessions_per_s(),
        off * 100.0,
        rows[1].sessions_per_s(),
        on * 100.0
    );

    let mut failures = Vec::new();
    if !hash_matches {
        failures.push("content hash of traced run differs from untraced run".to_string());
    }
    if trace_events == 0.0 {
        failures.push("traced run recorded no events".to_string());
    }
    for (mode, overhead, max) in [("off", off, MAX_OFF_OVERHEAD), ("on", on, MAX_ON_OVERHEAD)] {
        if overhead > max {
            let (overhead, max) = (overhead * 100.0, max * 100.0);
            failures.push(format!(
                "tracing-{mode} overhead {overhead:.1}% > {max:.0}%"
            ));
        }
    }
    let ok = sweep::verdicts(
        failures
            .iter()
            .map(|f| format!("bench-trace: FAIL {f}"))
            .collect(),
    );

    let baseline = [
        ("scale", sweep::quote(BASELINE_SCALE)),
        ("shards", BASELINE_SHARDS.to_string()),
        ("sessions_per_s", format!("{base_sps:.1}")),
    ];
    let header = vec![
        ("baseline", sweep::obj(&baseline)),
        ("hash_matches_untraced", hash_matches.to_string()),
    ];
    let out = out_path.unwrap_or_else(|| SUITE.out.to_string());
    std::fs::write(&out, sweep::render(&SUITE, header, &rows)).expect("write result file");
    progress!("bench-trace: wrote {out}");
    if ok {
        println!("bench-trace: check passed");
    }
    ok
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
