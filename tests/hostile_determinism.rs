//! The hostile-peer payload layer must not disturb determinism: a
//! campaign whose DNS responses and SMTP replies are being corrupted in
//! flight — including content-level SPF-cycle and CNAME-chain bait from
//! hostile authoritative servers — has to produce the exact same merged
//! output (session records, terminations, payload-mutation counters and
//! the malformed-input class histogram) for any shard count, under
//! kill-and-resume, and through a store round-trip. Mutation decisions
//! hash stable per-session identifiers, and classification is assigned
//! by the parser that refuses the input, so the hostile traffic itself
//! is part of the deterministic output.

mod common;

use common::{assert_identical, scratch_dir};
use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind,
};
use mailval::measure::engine::SessionOutcome;
use mailval::measure::store::{CampaignStore, KeySpec};
use mailval::mta::profile::MtaProfile;
use mailval::simnet::{MalformedClass, PayloadConfig};

/// Corruption hot enough that every mutation family fires, cold enough
/// that most sessions still complete a dialogue.
fn hostile_payload() -> PayloadConfig {
    PayloadConfig {
        dns_corrupt_probability: 0.25,
        smtp_corrupt_probability: 0.08,
        seed: 0xBAD_F00D,
    }
}

fn hostile_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: 43,
        probe_pause_ms: 0,
        shards,
        payload: hostile_payload(),
        ..CampaignConfig::default()
    }
}

/// Population + profiles with one host in four flagged as a hostile
/// authoritative DNS server (unlocking the content-level mutations).
fn hostile_fixture() -> (Population, Vec<MtaProfile>) {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed: 43,
    });
    let mut profiles = sample_host_profiles(&pop, 43);
    for (i, p) in profiles.iter_mut().enumerate() {
        if i % 4 == 0 {
            p.hostile_dns = true;
        }
    }
    (pop, profiles)
}

#[test]
fn hostile_campaign_is_byte_identical_across_shard_counts() {
    let (pop, profiles) = hostile_fixture();
    let single = run_campaign(&hostile_config(1), &pop, &profiles);

    // The payload layer actually fired, on both channels.
    let f = &single.faults;
    assert!(f.dns_payload_mutations > 0, "no DNS mutations: {f:?}");
    assert!(f.smtp_payload_mutations > 0, "no SMTP mutations: {f:?}");
    assert!(
        f.hostile_inputs > 0,
        "no sessions hostile-terminated: {f:?}"
    );
    assert!(f.malformed.total() > 0, "no rejections classified: {f:?}");
    let dns_classes: u64 = MalformedClass::ALL[..4]
        .iter()
        .map(|&c| f.malformed.count(c))
        .sum();
    let smtp_classes: u64 = MalformedClass::ALL[4..8]
        .iter()
        .map(|&c| f.malformed.count(c))
        .sum();
    assert!(dns_classes > 0, "no DNS-side classifications: {f:?}");
    assert!(smtp_classes > 0, "no SMTP-side classifications: {f:?}");

    // Hostile terminations in the per-session records agree with the
    // aggregate counter, and each carries an SMTP-side class (only the
    // SMTP channel is session-fatal).
    let terminated: Vec<_> = single
        .sessions
        .iter()
        .filter_map(|s| match s.termination {
            SessionOutcome::HostileInput { class } => Some(class),
            _ => None,
        })
        .collect();
    assert_eq!(terminated.len() as u64, f.hostile_inputs);
    for class in &terminated {
        assert!(
            MalformedClass::ALL[4..8].contains(class),
            "non-SMTP class terminated a session: {class:?}"
        );
    }

    // Most sessions still resolve despite the corruption: the resolver
    // fails closed per-query, not per-session.
    let with_outcome = single
        .sessions
        .iter()
        .filter(|s| s.outcome.is_some() || s.delivery_time_ms.is_some())
        .count();
    assert!(
        with_outcome as f64 > 0.5 * single.sessions.len() as f64,
        "hostile layer killed the campaign: {with_outcome}/{}",
        single.sessions.len()
    );

    for shards in [2, 4, 8] {
        let sharded = run_campaign(&hostile_config(shards), &pop, &profiles);
        assert_identical(&single, &sharded, &format!("shards={shards}"));
    }
}

#[test]
fn hostile_kill_and_resume_is_byte_identical() {
    let (pop, profiles) = hostile_fixture();
    let clean = run_campaign(&hostile_config(1), &pop, &profiles);
    assert!(!clean.partial);
    assert!(clean.faults.dns_payload_mutations > 0, "payload plan inert");

    for shards in [1, 2, 4] {
        let dir = scratch_dir("hostile", &format!("kill-{shards}"));
        let mut config = hostile_config(shards);
        config.journal_dir = Some(dir.clone());
        config.faults.crash_after_sessions = 4;
        let resumed = run_campaign(&config, &pop, &profiles);
        assert!(
            !resumed.partial,
            "supervised run completed (shards={shards})"
        );
        assert_identical(&clean, &resumed, &format!("resume shards={shards}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hostile_campaign_roundtrips_through_store_and_knobs_key_it() {
    let (pop, profiles) = hostile_fixture();
    let config = hostile_config(2);
    let result = run_campaign(&config, &pop, &profiles);
    assert!(
        result.faults.hostile_inputs > 0,
        "fixture not hostile enough"
    );

    let spec = |c: &CampaignConfig| -> mailval::measure::store::CampaignKey {
        KeySpec {
            config: c,
            dataset: "NotifyEmail",
            scale: 0.004,
            population_seed: 43,
            profiles: "hostile:0.25",
        }
        .key()
    };
    let dir = scratch_dir("hostile", "store");
    let store = CampaignStore::new(dir.clone());
    let key = spec(&config);
    store.save(&key, &result).expect("save hostile campaign");
    let loaded = store.load(&key).expect("load hostile campaign");
    assert_identical(&result, &loaded, "store round-trip");

    // The payload knobs are result-determining: every one must land in
    // the content hash, so a differently-corrupted campaign can never
    // serve a stale entry.
    let mut other = config.clone();
    other.payload.dns_corrupt_probability = 0.26;
    assert_ne!(spec(&other).hash, key.hash, "dns knob missing from key");
    let mut other = config.clone();
    other.payload.smtp_corrupt_probability = 0.09;
    assert_ne!(spec(&other).hash, key.hash, "smtp knob missing from key");
    let mut other = config.clone();
    other.payload.seed ^= 1;
    assert_ne!(spec(&other).hash, key.hash, "payload seed missing from key");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inert_payload_leaves_no_trace() {
    // The default (all-zero) payload config must be a true no-op: no
    // mutations, no classifications, no hostile terminations — the
    // baseline campaigns of the paper reproduction are untouched.
    let (pop, profiles) = hostile_fixture();
    let mut config = hostile_config(1);
    config.payload = PayloadConfig::default();
    let result = run_campaign(&config, &pop, &profiles);
    let f = &result.faults;
    assert_eq!(f.dns_payload_mutations, 0);
    assert_eq!(f.smtp_payload_mutations, 0);
    assert_eq!(f.hostile_inputs, 0);
    assert_eq!(f.malformed.total(), 0);
    for s in &result.sessions {
        assert!(
            !matches!(s.termination, SessionOutcome::HostileInput { .. }),
            "inert payload terminated session {}",
            s.session_id
        );
    }
}
