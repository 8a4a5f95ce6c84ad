//! Storage-fault sweep: run the journaled NotifyEmail campaign with
//! the deterministic IO fault layer at rates {0, 0.01, 0.05, 0.20}
//! (applied uniformly to short writes, fsync failures, rename failures
//! and read corruption) and record throughput, the degradation
//! counters and the result digest, as JSON to `results/BENCH_io.json`
//! or the given path.
//!
//! The suite checks the fault layer's core invariant while measuring
//! it: **every rate produces the same content hash**. IO faults cost
//! durability (demoted journals, failed saves), never results, so the
//! rate-0 row doubles as a journal-overhead baseline comparable to the
//! `bench-perf` throughput rows.

use super::sweep::{Extra, Point, Suite};
use mailval_measure::campaign::CampaignConfig;
use mailval_simnet::IoConfig;

/// ~1,000 of the paper's 26,695 NotifyEmail domains.
const SCALE: f64 = 1_000.0 / 26_695.0;

/// The fault-rate axis of the sweep.
const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// The storage-fault sweep: output invariant across rates.
pub(crate) const SUITE: Suite = Suite {
    name: "bench-io",
    benchmark: "io_fault_sweep",
    out: "results/BENCH_io.json",
    scales: &[("1k", SCALE)],
    rounds: 1,
    profiles: |_| {},
    points: |base| FAULT_RATES.map(|rate| point(base, rate)).into(),
    invariant: true,
    extras: &[Extra::ShardsDemoted],
    header: &[],
};

fn point(base: &CampaignConfig, rate: f64) -> Point {
    let dir = format!("mailval-bench-io-{}-rate-{rate}", std::process::id());
    let config = CampaignConfig {
        journal_dir: Some(std::env::temp_dir().join(dir)),
        io: IoConfig {
            short_write_probability: rate,
            fsync_fail_probability: rate,
            rename_fail_probability: rate,
            read_corrupt_probability: rate,
            seed: base.seed,
            ..IoConfig::default()
        },
        ..base.clone()
    };
    Point {
        axis: vec![("rate", rate.to_string())],
        config,
    }
}
