//! Journal-overhead suite: run the 2,000-domain NotifyEmail campaign
//! with journaling off (baseline), on at the default fsync interval,
//! and on across an fsync-interval sweep {1, 16, 64, 256}; record
//! wall-clock per configuration and the overhead relative to baseline,
//! as JSON to `results/BENCH_resume.json` or the given path.
//!
//! The robustness budget for the journal is **≤ 10% wall-clock
//! overhead at the default fsync interval**; the report carries a
//! `within_budget` flag per journaled run so regressions are visible
//! in the artifact itself. Journaling must not change the output, so
//! every configuration must produce the journal-off content hash.

use super::sweep::{self, Extra, Point, Suite};
use mailval_measure::campaign::CampaignConfig;
use mailval_measure::{journal, progress};

/// ~2,000 of the paper's 26,695 NotifyEmail domains.
const SCALE: f64 = 2_000.0 / 26_695.0;

/// The fsync-interval axis of the sweep (frames between `fdatasync`s).
const FSYNC_SWEEP: [u64; 4] = [1, 16, 64, 256];

/// Wall-clock overhead budget at the default fsync interval.
const OVERHEAD_BUDGET: f64 = 0.10;

/// Repetitions per configuration; the best wall-clock is reported so
/// scheduler noise on a sub-second run does not masquerade as overhead.
const REPS: usize = 3;

/// The journal-overhead sweep: output invariant across journal on/off.
pub(crate) const SUITE: Suite = Suite {
    name: "bench-resume",
    benchmark: "journal_overhead",
    out: "results/BENCH_resume.json",
    scales: &[("2k", SCALE)],
    rounds: REPS,
    profiles: |_| {},
    points,
    invariant: true,
    extras: &[Extra::JournalBytes],
    header: &[
        ("default_fsync_every", journal::DEFAULT_FSYNC_EVERY as f64),
        ("overhead_budget", OVERHEAD_BUDGET),
    ],
};

/// Journal off first (the baseline), then the default interval (the
/// budgeted configuration), then the rest of the sweep.
fn points(base: &CampaignConfig) -> Vec<Point> {
    let dir = std::env::temp_dir().join(format!("mailval-bench-resume-{}", std::process::id()));
    let default = journal::DEFAULT_FSYNC_EVERY;
    let mut points = vec![Point {
        axis: vec![
            ("label", sweep::quote("journal off")),
            ("fsync_every", "null".into()),
        ],
        config: base.clone(),
    }];
    let intervals = FSYNC_SWEEP.into_iter().filter(|&n| n != default);
    for fsync_every in std::iter::once(default).chain(intervals) {
        let mut label = format!("journal on, fsync every {fsync_every}");
        if fsync_every == default {
            label += " (default)";
        }
        points.push(Point {
            axis: vec![
                ("label", sweep::quote(&label)),
                ("fsync_every", fsync_every.to_string()),
            ],
            config: CampaignConfig {
                journal_dir: Some(dir.clone()),
                fsync_every,
                ..base.clone()
            },
        });
    }
    points
}

/// Run the suite, adding each journaled row's `overhead` against the
/// journal-off row and whether it is `within_budget`.
pub(crate) fn run(out: Option<String>) -> bool {
    let mut rows = sweep::sweep(&SUITE, SUITE.rounds);
    let baseline_wall = rows[0].wall_s;
    for (i, row) in rows.iter_mut().enumerate() {
        let overhead = (i > 0).then(|| row.wall_s / baseline_wall - 1.0);
        let overhead_json = overhead.map_or("null".into(), |o| format!("{o:.4}"));
        let within = overhead.map_or("null".into(), |o| (o <= OVERHEAD_BUDGET).to_string());
        row.fields.push(("overhead", overhead_json));
        row.fields.push(("within_budget", within));
    }
    let default_overhead = rows[1].wall_s / baseline_wall - 1.0;
    let verdict = if default_overhead <= OVERHEAD_BUDGET {
        "OK"
    } else {
        "OVER BUDGET"
    };
    progress!(
        "bench-resume: default-interval overhead {:.1}% (budget {:.0}%): {verdict}",
        default_overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
    sweep::finish(&SUITE, out, Vec::new(), &rows)
}
