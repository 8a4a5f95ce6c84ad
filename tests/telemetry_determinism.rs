//! Telemetry determinism: trace event streams must be byte-identical
//! across repeated runs and every shard count, metrics registries must
//! merge to the same totals at shards 1/2/4/8, and a kill-and-resume
//! run must trace exactly the sessions it actually simulated (replayed
//! journal frames carry no telemetry, by design).

mod common;

use common::scratch_dir;
use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, TelemetryConfig,
};
use mailval::measure::telemetry::{chrome_trace_json, metrics_json, Telemetry, TraceFilter};
use mailval::mta::profile::MtaProfile;
use std::collections::HashSet;

fn fixture(seed: u64) -> (Population, Vec<MtaProfile>) {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed,
    });
    let profiles = sample_host_profiles(&pop, seed);
    (pop, profiles)
}

fn traced_config(seed: u64, shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed,
        probe_pause_ms: 0,
        shards,
        telemetry: TelemetryConfig {
            tracing: true,
            heartbeat_ms: 0,
        },
        ..CampaignConfig::default()
    }
}

#[test]
fn trace_stream_identical_across_shard_counts_and_repeats() {
    let (pop, profiles) = fixture(41);
    let reference: Telemetry = run_campaign(&traced_config(41, 1), &pop, &profiles)
        .telemetry
        .expect("tracing on");
    assert!(
        reference.events.len() > 100,
        "fixture traced too few events ({})",
        reference.events.len()
    );
    // The stream holds the full vocabulary's load-bearing kinds.
    let labels: HashSet<&'static str> = reference.events.iter().map(|e| e.kind.label()).collect();
    for expected in [
        "session_start",
        "session_end",
        "smtp_command",
        "smtp_reply",
        "resolve_start",
        "resolve_done",
        "dns_send",
        "dns_recv",
        "client_close",
    ] {
        assert!(labels.contains(expected), "no {expected} event traced");
    }

    let filter = TraceFilter::default();
    let reference_json = chrome_trace_json(&reference.events, &filter);
    let reference_metrics = metrics_json(&reference.metrics);
    assert!(reference_json.contains("\"traceEvents\""));

    // Repeated run at the same shard count: byte-identical.
    let again = run_campaign(&traced_config(41, 1), &pop, &profiles)
        .telemetry
        .expect("tracing on");
    assert_eq!(reference.events, again.events, "repeat run diverged");

    // Every shard count merges to the identical stream and registry.
    for shards in [2usize, 4, 8] {
        let t = run_campaign(&traced_config(41, shards), &pop, &profiles)
            .telemetry
            .expect("tracing on");
        assert_eq!(
            reference.events, t.events,
            "trace stream diverged at shards={shards}"
        );
        assert_eq!(
            reference.metrics, t.metrics,
            "metrics registry diverged at shards={shards}"
        );
        assert_eq!(
            reference_json,
            chrome_trace_json(&t.events, &filter),
            "chrome export diverged at shards={shards}"
        );
        assert_eq!(
            reference_metrics,
            metrics_json(&t.metrics),
            "metrics export diverged at shards={shards}"
        );
    }
}

#[test]
fn metrics_totals_are_consistent_with_the_result() {
    let (pop, profiles) = fixture(41);
    let result = run_campaign(&traced_config(41, 4), &pop, &profiles);
    let telemetry = result.telemetry.as_ref().expect("tracing on");
    let m = &telemetry.metrics;
    assert_eq!(
        m.counters.get("sessions").copied().unwrap_or(0),
        result.sessions.len() as u64,
        "traced session count disagrees with the session records"
    );
    let delivered = result
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count() as u64;
    assert_eq!(
        m.counters.get("deliveries").copied().unwrap_or(0),
        delivered,
        "traced deliveries disagree with delivery timestamps"
    );
    // Every upstream query the apparatus logged was traced as a send.
    assert!(
        m.counters.get("dns_sends").copied().unwrap_or(0) >= result.log.records.len() as u64,
        "fewer dns_send events than logged queries"
    );
    assert!(m.histograms.contains_key("session_ms"));
    assert!(m.histograms.contains_key("dns_lookup_ms"));
    assert!(m.cache_hit_rate().is_some(), "no cache hit-rate derivable");
}

#[test]
fn session_and_shard_filters_restrict_the_export() {
    let (pop, profiles) = fixture(41);
    let telemetry = run_campaign(&traced_config(41, 1), &pop, &profiles)
        .telemetry
        .expect("tracing on");
    let some_session = telemetry.events[0].session;
    let one = TraceFilter {
        sessions: vec![some_session],
        shard: None,
    };
    let json = chrome_trace_json(&telemetry.events, &one);
    // Every tid in the filtered export is the selected session.
    for line in json.lines() {
        if let Some(pos) = line.find("\"tid\": ") {
            let rest = &line[pos + 7..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            assert_eq!(
                rest[..end].parse::<usize>().unwrap(),
                some_session,
                "foreign session leaked through the filter"
            );
        }
    }
    // A shard filter keeps a strict, non-empty subset.
    let sharded = TraceFilter {
        sessions: vec![],
        shard: Some((0, 2)),
    };
    let kept: Vec<_> = telemetry
        .events
        .iter()
        .filter(|e| sharded.keeps(e.session))
        .collect();
    assert!(!kept.is_empty());
    assert!(kept.len() < telemetry.events.len());
    assert!(kept.iter().all(|e| e.session % 2 == 0));
}

#[test]
fn resumed_run_traces_exactly_the_simulated_sessions() {
    let (pop, profiles) = fixture(47);
    let clean = run_campaign(&traced_config(47, 2), &pop, &profiles);
    let clean_t = clean.telemetry.as_ref().expect("tracing on");
    assert!(clean.sessions.len() > 20, "fixture too small to crash");

    // Both shards crash after durably journaling 5 sessions; the
    // supervisor restarts them from journal. Replayed sessions emit no
    // trace, so the resumed run's telemetry covers exactly the
    // sessions simulated after the restart.
    let dir = scratch_dir("telemetry", "kill");
    let mut config = traced_config(47, 2);
    config.journal_dir = Some(dir.clone());
    config.faults.crash_after_sessions = 5;
    let resumed = run_campaign(&config, &pop, &profiles);
    assert!(!resumed.partial);
    // The deterministic output is still byte-identical...
    assert_eq!(clean.content_hash(), resumed.content_hash());

    let resumed_t = resumed.telemetry.as_ref().expect("tracing on");
    let traced: HashSet<usize> = resumed_t.events.iter().map(|e| e.session).collect();
    let all: HashSet<usize> = clean_t.events.iter().map(|e| e.session).collect();
    assert_eq!(
        all.len() - traced.len(),
        10,
        "2 shards x 5 replayed sessions must be missing from the resumed trace"
    );
    assert!(traced.is_subset(&all));
    // ...and the traced remainder matches the clean run event-for-event.
    let filtered: Vec<_> = clean_t
        .events
        .iter()
        .filter(|e| traced.contains(&e.session))
        .cloned()
        .collect();
    assert_eq!(
        filtered, resumed_t.events,
        "resumed trace diverged from the clean run on the simulated sessions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_run_carries_no_telemetry() {
    let (pop, profiles) = fixture(41);
    let mut config = traced_config(41, 1);
    config.telemetry = TelemetryConfig::default();
    let result = run_campaign(&config, &pop, &profiles);
    assert!(result.telemetry.is_none());
}
