//! Fault-sweep suite: run the NotifyEmail campaign under the chaos
//! fault plan at datagram loss rates {0, 0.01, 0.05, 0.20} and record
//! throughput, the outcome mix (delivered / rejected / dead) and the
//! injected-fault counters, as JSON to `results/BENCH_chaos.json` or
//! the given path.
//!
//! Non-loss faults (duplication, reordering, truncation, connection
//! resets and stalls) stay fixed across the sweep so the loss axis is
//! the only variable.

use super::sweep::{Point, Suite};
use mailval_measure::campaign::CampaignConfig;
use mailval_simnet::{FaultConfig, LatencyModel};

/// ~1,000 of the paper's 26,695 NotifyEmail domains.
const SCALE: f64 = 1_000.0 / 26_695.0;

/// The loss axis of the sweep.
const LOSS_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// The fault sweep: loss changes the output, so nothing is invariant.
pub(crate) const SUITE: Suite = Suite {
    name: "bench-chaos",
    benchmark: "chaos_fault_sweep",
    out: "results/BENCH_chaos.json",
    scales: &[("1k", SCALE)],
    rounds: 1,
    profiles: |_| {},
    points: |base| LOSS_RATES.map(|loss| point(base, loss)).into(),
    invariant: false,
    extras: &[],
    header: &[],
};

/// The campaign at one loss rate, the other chaos faults held fixed.
pub(crate) fn point(base: &CampaignConfig, loss: f64) -> Point {
    let config = CampaignConfig {
        latency: LatencyModel {
            loss_probability: loss,
            ..LatencyModel::default()
        },
        faults: FaultConfig {
            duplicate_probability: 0.02,
            reorder_probability: 0.02,
            reorder_delay_ms: 40,
            truncate_probability: 0.02,
            conn_reset_probability: 0.01,
            conn_stall_probability: 0.02,
            conn_stall_ms: 200,
            seed: base.seed,
            ..Default::default()
        },
        ..base.clone()
    };
    Point {
        axis: vec![("loss", loss.to_string())],
        config,
    }
}
