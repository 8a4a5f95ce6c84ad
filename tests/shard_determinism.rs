//! Sharded execution must be invisible in the output: a campaign run
//! with `shards = 4` has to produce the exact same merged query log
//! (same records, same order), the same session records, and therefore
//! the same analysis tables as the single-threaded `shards = 1` run.

mod common;

use common::assert_identical;
use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::analysis::{notify_email_flags, probe_validating_counts, table4};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, CampaignResult,
};
use mailval::simnet::LatencyModel;

fn run(
    kind: CampaignKind,
    tests: Vec<&'static str>,
    shards: usize,
    pop: &Population,
) -> CampaignResult {
    let profiles = sample_host_profiles(pop, 77);
    run_campaign(
        &CampaignConfig {
            kind,
            tests,
            seed: 77,
            probe_pause_ms: 15_000,
            latency: LatencyModel::default(),
            shards,
            faults: mailval::simnet::FaultConfig::default(),
            ..CampaignConfig::default()
        },
        pop,
        &profiles,
    )
}

#[test]
fn four_shard_notify_email_is_byte_identical_and_tables_match() {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.01,
        seed: 77,
    });
    let single = run(CampaignKind::NotifyEmail, vec![], 1, &pop);
    let sharded = run(CampaignKind::NotifyEmail, vec![], 4, &pop);
    assert_eq!(sharded.shard_stats.len(), 4);
    assert_identical(&single, &sharded, "shards=4");

    // Table 4 is a pure function of the merged output, so it has to
    // agree row by row.
    let flags_1 = notify_email_flags(&single, pop.domains.len());
    let flags_4 = notify_email_flags(&sharded, pop.domains.len());
    assert_eq!(flags_1, flags_4);
    assert_eq!(table4(&flags_1), table4(&flags_4));
}

#[test]
fn four_shard_probe_campaign_matches_table5_counts() {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.008,
        seed: 77,
    });
    let single = run(CampaignKind::NotifyMx, vec!["t01", "t12"], 1, &pop);
    let sharded = run(CampaignKind::NotifyMx, vec!["t01", "t12"], 4, &pop);
    assert_identical(&single, &sharded, "shards=4");

    // Table 5 (validating counts) from both runs.
    let counts_1 = probe_validating_counts(&single, &pop);
    let counts_4 = probe_validating_counts(&sharded, &pop);
    assert_eq!(counts_1, counts_4);
}

#[test]
fn shard_stats_partition_the_work() {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.01,
        seed: 77,
    });
    let result = run(CampaignKind::NotifyMx, vec!["t01"], 3, &pop);
    assert_eq!(result.shard_stats.len(), 3);
    let sessions: usize = result.shard_stats.iter().map(|s| s.sessions).sum();
    assert_eq!(sessions, result.sessions.len());
    let events: u64 = result.shard_stats.iter().map(|s| s.events).sum();
    assert_eq!(events, result.events);
    let queries: u64 = result.shard_stats.iter().map(|s| s.queries_logged).sum();
    assert_eq!(queries, result.log.records.len() as u64);
}
