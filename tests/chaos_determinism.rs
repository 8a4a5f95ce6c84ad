//! The fault-injection layer must not disturb shard determinism: a
//! campaign run under a lossy network, flaky MTAs (greylisting, stalls,
//! resets) and even a mid-dialogue MTA crash has to produce the exact
//! same merged output — session records, query log, fault counters —
//! for any shard count. Fault decisions hash stable per-session
//! identifiers instead of drawing from an event-ordered RNG, so the
//! injected faults themselves are part of the deterministic output.

mod common;

use common::assert_identical;
use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind,
};
use mailval::mta::profile::MtaProfile;
use mailval::simnet::{FaultConfig, LatencyModel};

/// A fault plan that exercises every injection site: 5% datagram loss,
/// plus truncation, duplication, reordering, connection resets and
/// stalls at low-but-nonzero rates.
fn chaos_faults() -> FaultConfig {
    FaultConfig {
        duplicate_probability: 0.05,
        reorder_probability: 0.05,
        reorder_delay_ms: 40,
        truncate_probability: 0.05,
        conn_reset_probability: 0.02,
        conn_stall_probability: 0.05,
        conn_stall_ms: 200,
        seed: 0xC0FFEE,
        ..Default::default()
    }
}

fn chaos_config(shards: usize) -> CampaignConfig {
    let latency = LatencyModel {
        loss_probability: 0.05,
        ..LatencyModel::default()
    };
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: 41,
        probe_pause_ms: 0,
        latency,
        shards,
        faults: chaos_faults(),
        ..CampaignConfig::default()
    }
}

/// Population + profiles with every chaos knob turned on: all hosts
/// greylist, a few stall before MAIL, and exactly one first-choice host
/// is poisoned to crash its MTA mid-dialogue.
fn chaos_fixture() -> (Population, Vec<MtaProfile>) {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed: 41,
    });
    let mut profiles = sample_host_profiles(&pop, 41);
    for (i, p) in profiles.iter_mut().enumerate() {
        p.greylists = true;
        if i % 7 == 0 {
            p.stall_at_mail_ms = 500;
        }
    }
    let poisoned = solo_first_host(&pop).expect("population has a single-use host");
    profiles[poisoned].poison = true;
    (pop, profiles)
}

/// A host index that is the *first* MX of exactly one domain, so
/// poisoning it affects exactly one NotifyEmail session.
fn solo_first_host(pop: &Population) -> Option<usize> {
    let mut first_host_uses = vec![0usize; pop.hosts.len()];
    for d in &pop.domains {
        if let Some(&h) = d.host_indices.first() {
            first_host_uses[h] += 1;
        }
    }
    first_host_uses.iter().position(|&n| n == 1)
}

#[test]
fn chaos_campaign_is_byte_identical_across_shard_counts() {
    let (pop, profiles) = chaos_fixture();
    let single = run_campaign(&chaos_config(1), &pop, &profiles);

    // The plan actually fired: every fault class left a mark.
    let f = &single.faults;
    assert!(f.dns_dropped > 0, "no datagrams dropped: {f:?}");
    assert!(f.dns_truncated > 0, "no responses truncated: {f:?}");
    assert!(f.dns_duplicated > 0, "no datagrams duplicated: {f:?}");
    assert!(f.dns_delayed > 0, "no datagrams reordered: {f:?}");
    assert!(f.conn_resets > 0, "no connections reset: {f:?}");
    assert!(f.conn_stalls > 0, "no segments stalled: {f:?}");
    assert!(f.mta_stalls > 0, "no MTA stalls: {f:?}");
    assert!(f.tempfails > 0, "no greylist tempfails: {f:?}");
    assert!(f.client_retries > 0, "no client retries: {f:?}");
    assert_eq!(f.contained_panics, 1, "exactly one poisoned MTA: {f:?}");

    // Under all that chaos, most deliveries still get through (client
    // retry budget covers the greylists; retries cover lost datagrams).
    let delivered = single
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count();
    assert!(
        delivered as f64 > 0.6 * single.sessions.len() as f64,
        "delivered {delivered}/{}",
        single.sessions.len()
    );

    for shards in [2, 4, 8] {
        let sharded = run_campaign(&chaos_config(shards), &pop, &profiles);
        assert_identical(&single, &sharded, &format!("shards={shards}"));
    }
}

#[test]
fn poisoned_mta_is_contained_to_its_own_session() {
    // A 100-session campaign with one poisoned host: the crash is
    // contained by the engine (`catch_unwind`), recorded on exactly one
    // session, and no shard dies — the other 99 complete normally.
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 100.0 / 26_695.0,
        seed: 53,
    });
    let mut profiles = sample_host_profiles(&pop, 53);
    let poisoned = solo_first_host(&pop).expect("population has a single-use host");
    profiles[poisoned].poison = true;

    let mut config = chaos_config(4);
    config.seed = 53;
    config.latency = LatencyModel::default();
    config.faults = FaultConfig::default();
    let result = run_campaign(&config, &pop, &profiles);

    assert_eq!(result.sessions.len(), 100);
    assert_eq!(result.faults.contained_panics, 1);
    let errored: Vec<_> = result
        .sessions
        .iter()
        .filter(|s| s.error.is_some())
        .collect();
    assert_eq!(errored.len(), 1, "exactly one error-outcome record");
    assert_eq!(errored[0].host_index, poisoned);
    assert!(
        errored[0]
            .error
            .as_deref()
            .unwrap()
            .contains("poisoned MTA profile"),
        "error carries the panic payload: {:?}",
        errored[0].error
    );
    // The poisoned session froze mid-dialogue: no outcome, no delivery.
    assert!(errored[0].outcome.is_none());
    assert!(errored[0].delivery_time_ms.is_none());
    // Everyone else is untouched.
    let normal = result.sessions.iter().filter(|s| s.error.is_none()).count();
    assert_eq!(normal, 99);
    let delivered = result
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count();
    assert!(delivered >= 90, "delivered {delivered}/99");
}
