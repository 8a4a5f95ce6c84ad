//! Phase-accounting perf suite: run the NotifyEmail campaign end to
//! end at shards = 1, 2, 4, 8 over ~2,000- and ~20,000-domain
//! populations and record sessions/second *with the per-phase
//! breakdown* (`setup / simulate / merge`), as JSON to
//! `results/BENCH_perf.json` or the given path.
//!
//! Where `bench-campaign` reports only end-to-end wall clock, this
//! suite exists to prove the shared-world engine is CPU-bound: the
//! setup-share column must stay a small fraction of every run, and
//! sessions/s must not regress. [`check`] re-runs the suite and gates
//! on exactly that against the committed baseline (the
//! `scripts/verify.sh --perf` stage).

use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, PhaseTimes,
};
use mailval_measure::progress;
use mailval_simnet::LatencyModel;
use std::time::Instant;

/// The shard axis of every sweep.
const SHARD_AXIS: [usize; 4] = [1, 2, 4, 8];

/// The population axis: label and scale against the paper's 26,695
/// NotifyEmail domains.
const SCALE_AXIS: [(&str, f64); 2] = [("2k", 2_000.0 / 26_695.0), ("20k", 20_000.0 / 26_695.0)];

/// Maximum tolerated setup share of end-to-end wall clock.
const MAX_SETUP_SHARE: f64 = 0.30;

/// Maximum tolerated sessions/s regression vs the committed baseline.
const MAX_REGRESSION: f64 = 0.10;

/// Rounds per axis point when gating ([`check`]): contention on a
/// shared box only ever slows a run, so best-of-N estimates the true
/// capability the single-run baseline recorded. The baseline capture
/// ([`run`]) stays single-round.
const CHECK_ROUNDS: usize = 3;

struct Run {
    scale_label: &'static str,
    shards: usize,
    sessions: usize,
    queries: usize,
    events: u64,
    wall_s: f64,
    sessions_per_s: f64,
    phases: PhaseTimes,
}

/// The campaign under measurement: `bench-campaign`'s configuration
/// verbatim, so the two suites' shards=1 rows are directly comparable.
fn config(seed: u64, shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed,
        probe_pause_ms: 15_000,
        latency: LatencyModel::default(),
        shards,
        faults: mailval_simnet::FaultConfig::default(),
        ..CampaignConfig::default()
    }
}

fn sweep(seed: u64, rounds: usize) -> Vec<Run> {
    let mut runs = Vec::new();
    for (label, scale) in SCALE_AXIS {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale,
            seed,
        });
        let profiles = sample_host_profiles(&pop, seed);
        progress!(
            "bench-perf: NotifyEmail {label}: {} domains / {} hosts, seed {seed}",
            pop.domains.len(),
            pop.hosts.len()
        );
        let mut reference: Option<(usize, u64, usize, [u8; 32])> = None;
        for shards in SHARD_AXIS {
            // Best-of-`rounds`: keep the fastest round's wall clock and
            // its phase breakdown.
            let mut best: Option<(f64, _)> = None;
            let mut result = None;
            for _ in 0..rounds {
                let start = Instant::now();
                let r = run_campaign(&config(seed, shards), &pop, &profiles);
                let wall_s = start.elapsed().as_secs_f64();
                if best.as_ref().is_none_or(|(w, _)| wall_s < *w) {
                    best = Some((wall_s, r.phases));
                }
                result = Some(r);
            }
            let (wall_s, phases) = best.expect("at least one round");
            let result = result.expect("at least one round");

            let signature = (
                result.sessions.len(),
                result.events,
                result.log.records.len(),
                result.content_hash(),
            );
            match reference {
                None => reference = Some(signature),
                Some(r) => assert_eq!(r, signature, "shards={shards} diverged from shards=1"),
            }

            let run = Run {
                scale_label: label,
                shards,
                sessions: result.sessions.len(),
                queries: result.log.records.len(),
                events: result.events,
                wall_s,
                sessions_per_s: result.sessions.len() as f64 / wall_s,
                phases,
            };
            progress!(
                "bench-perf: {label:<3} shards={:<2} {:>7.3}s wall  {:>9.0} sessions/s  \
                 setup-share {:.1}%",
                run.shards,
                run.wall_s,
                run.sessions_per_s,
                run.phases.setup_share() * 100.0
            );
            runs.push(run);
        }
    }
    runs
}

/// Run the suite, writing the JSON report to `out_path` (default
/// `results/BENCH_perf.json`).
pub fn run(out_path: Option<String>) {
    let out_path = out_path.unwrap_or_else(|| "results/BENCH_perf.json".to_string());
    let runs = sweep(crate::seed(), 1);
    let json = render_json(crate::seed(), &runs);
    std::fs::write(&out_path, &json).expect("write result file");
    progress!("bench-perf: wrote {out_path}");
}

/// The `verify.sh --perf` gate: re-run the sweep (best of
/// [`CHECK_ROUNDS`] per axis point, to ride out transient contention)
/// and fail (return `false`) if any run's setup-share exceeds 30%, or
/// any run's sessions/s fell more than 10% below the committed
/// baseline's matching `(scale, shards)` row. Baseline rows that can't be matched
/// are reported and ignored (a new axis point is not a regression).
/// Verdicts go to stdout, not the `[mailval]` progress channel, so
/// `MAILVAL_QUIET` never hides why the gate failed.
pub fn check(baseline_path: Option<String>) -> bool {
    let baseline_path = baseline_path.unwrap_or_else(|| "results/BENCH_perf.json".to_string());
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            println!("bench-perf: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let baseline_runs = parse_runs(&baseline);
    if baseline_runs.is_empty() {
        println!("bench-perf: no runs parsed from baseline {baseline_path}");
        return false;
    }
    let runs = sweep(crate::seed(), CHECK_ROUNDS);
    let mut ok = true;
    for run in &runs {
        let share = run.phases.setup_share();
        if share > MAX_SETUP_SHARE {
            println!(
                "bench-perf: FAIL {} shards={}: setup-share {:.1}% > {:.0}%",
                run.scale_label,
                run.shards,
                share * 100.0,
                MAX_SETUP_SHARE * 100.0
            );
            ok = false;
        }
        let Some(base) = baseline_runs
            .iter()
            .find(|b| b.scale_label == run.scale_label && b.shards == run.shards)
        else {
            println!(
                "bench-perf: note: no baseline row for {} shards={}",
                run.scale_label, run.shards
            );
            continue;
        };
        let floor = base.sessions_per_s * (1.0 - MAX_REGRESSION);
        if run.sessions_per_s < floor {
            println!(
                "bench-perf: FAIL {} shards={}: {:.0} sessions/s < {:.0} \
                 (baseline {:.0} - {:.0}%)",
                run.scale_label,
                run.shards,
                run.sessions_per_s,
                floor,
                base.sessions_per_s,
                MAX_REGRESSION * 100.0
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "bench-perf: check passed ({} runs vs baseline {baseline_path})",
            runs.len()
        );
    }
    ok
}

/// A baseline row recovered from the committed JSON.
struct BaselineRun {
    scale_label: String,
    shards: usize,
    sessions_per_s: f64,
}

/// Extract `(scale, shards, sessions_per_s)` from the report's
/// one-line-per-run format (the workspace has no serde; the format is
/// ours, written by [`render_json`] below).
fn parse_runs(json: &str) -> Vec<BaselineRun> {
    let mut runs = Vec::new();
    for line in json.lines() {
        let Some(scale_label) = str_field(line, "scale") else {
            continue;
        };
        let (Some(shards), Some(sessions_per_s)) =
            (num_field(line, "shards"), num_field(line, "sessions_per_s"))
        else {
            continue;
        };
        runs.push(BaselineRun {
            scale_label,
            shards: shards as usize,
            sessions_per_s,
        });
    }
    runs
}

/// The value of `"key": <number>` in `line`, if present.
pub(crate) fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of `"key": "<string>"` in `line`, if present.
pub(crate) fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn render_json(seed: u64, runs: &[Run]) -> String {
    let mut s = String::new();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"perf_phase_accounting\",\n");
    s.push_str(&format!("  \"cpus\": {cpus},\n"));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"max_setup_share\": {MAX_SETUP_SHARE},\n  \"max_regression\": {MAX_REGRESSION},\n"
    ));
    s.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scale\": \"{}\", \"shards\": {}, \"sessions\": {}, \
             \"queries_logged\": {}, \"events\": {}, \"wall_s\": {:.3}, \
             \"sessions_per_s\": {:.1}, {}}}{}\n",
            r.scale_label,
            r.shards,
            r.sessions,
            r.queries,
            r.events,
            r.wall_s,
            r.sessions_per_s,
            super::phases_json(&r.phases),
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parser_roundtrips_render() {
        let runs = vec![
            Run {
                scale_label: "2k",
                shards: 1,
                sessions: 2000,
                queries: 10,
                events: 20,
                wall_s: 1.0,
                sessions_per_s: 2000.0,
                phases: PhaseTimes::default(),
            },
            Run {
                scale_label: "20k",
                shards: 8,
                sessions: 20000,
                queries: 100,
                events: 200,
                wall_s: 10.0,
                sessions_per_s: 1987.5,
                phases: PhaseTimes::default(),
            },
        ];
        let json = render_json(2021, &runs);
        let parsed = parse_runs(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].scale_label, "2k");
        assert_eq!(parsed[0].shards, 1);
        assert!((parsed[0].sessions_per_s - 2000.0).abs() < 0.01);
        assert_eq!(parsed[1].scale_label, "20k");
        assert_eq!(parsed[1].shards, 8);
        assert!((parsed[1].sessions_per_s - 1987.5).abs() < 0.01);
    }

    #[test]
    fn field_extractors_handle_missing_keys() {
        assert_eq!(num_field("{\"a\": 3}", "b"), None);
        assert_eq!(str_field("{\"a\": 3}", "a"), None);
        assert_eq!(num_field("{\"a\": 3.5}", "a"), Some(3.5));
        assert_eq!(str_field("{\"a\": \"x\"}", "a"), Some("x".to_string()));
    }
}
