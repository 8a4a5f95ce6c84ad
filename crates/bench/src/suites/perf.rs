//! Phase-accounting perf suite: run the NotifyEmail campaign end to
//! end at shards = 1, 2, 4, 8 over ~2,000- and ~20,000-domain
//! populations and record sessions/second *with the per-phase
//! breakdown* (`setup / simulate / merge`) and each shard's wall clock,
//! as JSON to `results/BENCH_perf.json` or the given path.
//!
//! The suite exists to prove the shared-world engine is CPU-bound: the
//! setup-share column must stay a small fraction of every run, and
//! sessions/s must not regress. [`check`] re-runs the suite and gates
//! on exactly that against the committed baseline (the
//! `scripts/verify.sh --perf` stage). The merged output must be
//! identical for every shard count of a scale.

use super::sweep::{self, Point, Suite};
use mailval_measure::campaign::CampaignConfig;

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
/// (`bench-perf`) stays single-round.
const CHECK_ROUNDS: usize = 3;

/// The perf sweep: output invariant across shards within each scale.
pub(crate) const SUITE: Suite = Suite {
    name: "bench-perf",
    benchmark: "perf_phase_accounting",
    out: "results/BENCH_perf.json",
    scales: &SCALE_AXIS,
    rounds: 1,
    profiles: |_| {},
    points: |base| SHARD_AXIS.map(|shards| point(base, shards)).into(),
    invariant: true,
    extras: &[],
    header: &[
        ("max_setup_share", MAX_SETUP_SHARE),
        ("max_regression", MAX_REGRESSION),
    ],
};

/// The campaign under measurement at one shard count; `bench-trace`
/// re-measures its 2k/shards=1 point.
pub(crate) fn point(base: &CampaignConfig, shards: usize) -> Point {
    let config = CampaignConfig {
        probe_pause_ms: 15_000,
        shards,
        ..base.clone()
    };
    Point {
        axis: Vec::new(),
        config,
    }
}

/// The `verify.sh --perf` gate: re-run the sweep (best of
/// [`CHECK_ROUNDS`] per axis point, to ride out transient contention)
/// and fail (return `false`) if the output differs across shards, any
/// run's setup-share exceeds 30%, or any run's sessions/s fell more
/// than 10% below the committed baseline's matching `(scale, shards)`
/// row. Baseline rows that can't be matched are reported and ignored
/// (a new axis point is not a regression). Verdicts go to stdout, not
/// the `[mailval]` progress channel, so `MAILVAL_QUIET` never hides why
/// the gate failed.
pub(crate) fn check(baseline_path: Option<String>) -> bool {
    let baseline_path = baseline_path.unwrap_or_else(|| SUITE.out.to_string());
    let Some(baseline) = sweep::read_baseline(SUITE.name, &baseline_path) else {
        return false;
    };
    if sweep::runs(&baseline).is_empty() {
        println!("bench-perf: no runs parsed from baseline {baseline_path}");
        return false;
    }
    let rows = sweep::sweep(&SUITE, CHECK_ROUNDS);
    let mut failures = sweep::invariance_failures(&SUITE, &rows);
    for row in &rows {
        let scale = sweep::text(&row.fields, "scale").unwrap_or("-");
        let shards = sweep::num(&row.fields, "shards").unwrap_or(0.0) as usize;
        let phases = sweep::get(&row.fields, "phases").map(sweep::fields);
        let share = phases.and_then(|p| sweep::num(&p, "setup_share"));
        let share = share.unwrap_or(0.0);
        if share > MAX_SETUP_SHARE {
            failures.push(format!(
                "bench-perf: FAIL {scale} shards={shards}: setup-share {:.1}% > {:.0}%",
                share * 100.0,
                MAX_SETUP_SHARE * 100.0
            ));
        }
        let Some(base) = sweep::baseline_sessions_per_s(&baseline, scale, shards) else {
            println!("bench-perf: note: no baseline row for {scale} shards={shards}");
            continue;
        };
        let (sps, floor) = (row.sessions_per_s(), base * (1.0 - MAX_REGRESSION));
        if sps < floor {
            failures.push(format!(
                "bench-perf: FAIL {scale} shards={shards}: {sps:.0} sessions/s < {floor:.0} \
                 (baseline {base:.0} - {:.0}%)",
                MAX_REGRESSION * 100.0
            ));
        }
    }
    let ok = sweep::verdicts(failures);
    if ok {
        println!(
            "bench-perf: check passed ({} runs vs baseline {baseline_path})",
            rows.len()
        );
    }
    ok
}
