//! Storage-fault determinism: a campaign run under an **active IO
//! fault plan** — disk-full (ENOSPC), short writes, fsync and rename
//! failures, read corruption — must complete without a panic and merge
//! to output **byte-identical** to a fault-free run, for every shard
//! count and across kill-and-resume. IO faults may cost durability
//! (journals demote, store saves fail) but never results; every
//! degradation must be visible in counters, never silent.
//!
//! The memory-backpressure tests pin the complementary property: the
//! engine's per-session [`MemoryBudget`] IS result-determining (shed
//! sessions terminate as `ResourceShed`), and its decisions are
//! shard- and resume-invariant.

mod common;

use common::{assert_identical, scratch_dir};
use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, SupervisorConfig,
};
use mailval::measure::engine::{MemoryBudget, SessionOutcome};
use mailval::measure::store::{CampaignStore, KeySpec, StoreError};
use mailval::measure::vfs::SimFs;
use mailval::measure::{journal, vfs};
use mailval::mta::profile::MtaProfile;
use mailval::simnet::{IoConfig, IoPlan};
use std::sync::Arc;

fn tiny_pop(seed: u64) -> Population {
    Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed,
    })
}

fn base_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: 73,
        probe_pause_ms: 0,
        shards,
        ..CampaignConfig::default()
    }
}

/// An aggressive IO fault plan: every injection site fires, including
/// a disk that fills after 2 KiB per file.
fn hostile_io() -> IoConfig {
    IoConfig {
        enospc_after_bytes: 2_048,
        short_write_probability: 0.10,
        fsync_fail_probability: 0.20,
        rename_fail_probability: 0.20,
        read_corrupt_probability: 0.10,
        seed: 0x0010_C0DE,
    }
}

fn fixture(seed: u64) -> (Population, Vec<MtaProfile>) {
    let pop = tiny_pop(seed);
    let profiles = sample_host_profiles(&pop, seed);
    (pop, profiles)
}

#[test]
fn hostile_io_plan_never_changes_the_merged_output() {
    let (pop, profiles) = fixture(73);
    let clean = run_campaign(&base_config(1), &pop, &profiles);
    assert!(!clean.partial);
    assert!(clean.sessions.len() > 40, "fixture too small");

    for shards in [1usize, 2, 4, 8] {
        let dir = scratch_dir("io", &format!("hostile-{shards}"));
        let mut config = base_config(shards);
        config.journal_dir = Some(dir.clone());
        config.io = hostile_io();
        let faulted = run_campaign(&config, &pop, &profiles);
        assert!(!faulted.partial, "shards={shards}");
        assert_identical(&clean, &faulted, &format!("shards={shards}"));
        // The 2 KiB disk cannot hold a full shard journal: the
        // degradation must be visible, not silent.
        assert!(
            faulted.shard_stats.iter().any(|s| s.durability_lost),
            "no shard reported durability loss under ENOSPC (shards={shards})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn enospc_mid_frame_salvages_the_exact_journal_prefix() {
    let (pop, profiles) = fixture(79);
    let dir = scratch_dir("io", "salvage");
    let mut config = base_config(2);
    config.journal_dir = Some(dir.clone());
    config.io = IoConfig {
        enospc_after_bytes: 4_096,
        ..IoConfig::default()
    };
    let result = run_campaign(&config, &pop, &profiles);
    assert!(!result.partial);
    assert!(
        result.shard_stats.iter().all(|s| s.durability_lost),
        "a 4 KiB disk must demote every shard journal"
    );

    // Each journal must replay to a clean prefix: zero or more intact
    // frames whose records agree session-for-session with the merged
    // result, with the torn ENOSPC frame dropped by the CRC check.
    let mut salvaged_total = 0usize;
    for k in 0..2 {
        let path = journal::shard_journal_path(&dir, k);
        let replay = journal::replay(&path);
        assert!(
            replay.frames.len() < result.sessions.len() / 2,
            "shard {k}: the full shard cannot have fit in 4 KiB"
        );
        for frame in &replay.frames {
            let reference = result
                .sessions
                .iter()
                .find(|s| s.session_id == frame.record.session_id)
                .expect("salvaged session exists in the merged result");
            assert_eq!(&frame.record, reference, "salvaged frame diverged");
        }
        salvaged_total += replay.frames.len();
    }
    assert!(
        salvaged_total > 0,
        "nothing at all was journaled before ENOSPC"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_under_io_faults_is_byte_identical() {
    let (pop, profiles) = fixture(83);
    let clean = run_campaign(&base_config(2), &pop, &profiles);
    let dir = scratch_dir("io", "resume");

    // Phase 1: shards crash after 5 completed sessions with a zero
    // restart budget, on a disk that fails fsyncs and corrupts reads.
    // The run finalizes partial from whatever journaled durably.
    let mut crashed = base_config(2);
    crashed.journal_dir = Some(dir.clone());
    crashed.faults.crash_after_sessions = 5;
    crashed.supervisor = SupervisorConfig {
        max_shard_restarts: 0,
        ..SupervisorConfig::default()
    };
    crashed.io = IoConfig {
        fsync_fail_probability: 0.25,
        read_corrupt_probability: 0.10,
        seed: 0xDEAD_D15C,
        ..IoConfig::default()
    };
    let partial = run_campaign(&crashed, &pop, &profiles);
    assert!(partial.partial, "restart budget 0 must finalize partial");
    // Whatever survived agrees with the clean run session-for-session
    // (read corruption may have shortened the salvaged prefix; it must
    // never have changed it).
    for s in &partial.sessions {
        let reference = clean
            .sessions
            .iter()
            .find(|c| c.session_id == s.session_id)
            .expect("salvaged session exists in clean run");
        assert_eq!(s, reference, "salvaged session diverged");
    }

    // Phase 2: resume from the same journals under the same IO faults,
    // crash disarmed. Corrupted journal reads only force re-runs, so
    // the completed campaign is byte-identical to the clean one.
    let mut resume = crashed.clone();
    resume.resume = true;
    resume.faults.crash_after_sessions = 0;
    resume.supervisor = SupervisorConfig::default();
    let finished = run_campaign(&resume, &pop, &profiles);
    assert!(!finished.partial);
    assert_identical(&clean, &finished, "io-fault resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_store_rename_degrades_to_a_clean_miss_without_residue() {
    let (pop, profiles) = fixture(89);
    let config = base_config(1);
    let result = run_campaign(&config, &pop, &profiles);
    let root = scratch_dir("io", "store-rename");
    let store = CampaignStore::new_with_vfs(
        root.clone(),
        Arc::new(SimFs::new(IoPlan::new(IoConfig {
            rename_fail_probability: 1.0,
            seed: 0x2E4A,
            ..IoConfig::default()
        }))),
    );
    let key = KeySpec {
        config: &config,
        dataset: "NotifyEmail",
        scale: 0.004,
        population_seed: 73,
        profiles: "io",
    }
    .key();
    // Save fails cleanly (the rename always fails) ...
    assert!(store.save(&key, &result).is_err());
    // ... leaves no temporary residue behind ...
    let leftovers: Vec<_> = std::fs::read_dir(&root)
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "residue after failed save: {leftovers:?}"
    );
    // ... and the key reads back as an ordinary cold miss.
    assert!(matches!(store.load(&key), Err(StoreError::Missing)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn zero_rate_io_config_is_provably_inert() {
    // A config whose every rate is zero (even with a nonzero seed) must
    // not activate the fault plan at all ...
    let zeroed = IoConfig {
        seed: 0xFEED_FACE,
        ..IoConfig::default()
    };
    assert!(!IoPlan::new(zeroed.clone()).is_active());
    assert!(!IoPlan::new(IoConfig::default()).is_active());

    // ... and a campaign run with it writes byte-identical journals and
    // produces a byte-identical result (the golden digests pinned in
    // golden_determinism.rs cover the default config at full depth;
    // this pins the SimFs-vs-OsFs seam itself).
    let (pop, profiles) = fixture(97);
    let dir_os = scratch_dir("io", "inert-os");
    let dir_sim = scratch_dir("io", "inert-sim");
    let mut on_os = base_config(2);
    on_os.journal_dir = Some(dir_os.clone());
    let mut on_sim = on_os.clone();
    on_sim.journal_dir = Some(dir_sim.clone());
    on_sim.io = zeroed;
    let a = run_campaign(&on_os, &pop, &profiles);
    let b = run_campaign(&on_sim, &pop, &profiles);
    assert_identical(&a, &b, "zero-rate io");
    assert!(b.shard_stats.iter().all(|s| !s.durability_lost));
    for k in 0..2 {
        let x = std::fs::read(journal::shard_journal_path(&dir_os, k)).expect("os journal");
        let y = std::fs::read(journal::shard_journal_path(&dir_sim, k)).expect("sim journal");
        assert_eq!(x, y, "shard {k}: journals must be byte-identical");
    }
    let _ = std::fs::remove_dir_all(&dir_os);
    let _ = std::fs::remove_dir_all(&dir_sim);
}

#[test]
fn memory_backpressure_sheds_deterministically_across_shards() {
    let (pop, profiles) = fixture(101);
    let unlimited = run_campaign(&base_config(1), &pop, &profiles);
    assert_eq!(unlimited.faults.resource_shed, 0);

    let make = |shards: usize| {
        let mut c = base_config(shards);
        c.memory = MemoryBudget {
            max_pending_events: 2,
            ..MemoryBudget::default()
        };
        c
    };
    let single = run_campaign(&make(1), &pop, &profiles);
    assert!(
        single.faults.resource_shed > 0,
        "a 2-pending-event budget must shed some sessions"
    );
    assert!(
        single.faults.resource_shed < single.sessions.len() as u64,
        "budget shed everything; the fixture cannot distinguish sessions"
    );
    // Every shed is visible: counter and termination records agree.
    let shed_records = single
        .sessions
        .iter()
        .filter(|s| matches!(s.termination, SessionOutcome::ResourceShed { .. }))
        .count() as u64;
    assert_eq!(shed_records, single.faults.resource_shed);
    for s in &single.sessions {
        if let SessionOutcome::ResourceShed { pending_events, .. } = s.termination {
            assert!(pending_events > 2, "shed below the configured budget");
        }
    }
    // Shedding is result-determining: the digest must move.
    assert_ne!(single.content_hash(), unlimited.content_hash());

    // And shard-invariant: the same sessions are shed at every count.
    for shards in [2usize, 4, 8] {
        let sharded = run_campaign(&make(shards), &pop, &profiles);
        assert_identical(&single, &sharded, &format!("memory shards={shards}"));
    }
}

#[test]
fn memory_backpressure_survives_kill_and_resume() {
    let (pop, profiles) = fixture(103);
    let make = || {
        let mut c = base_config(2);
        c.memory = MemoryBudget {
            max_pending_events: 2,
            ..MemoryBudget::default()
        };
        c
    };
    let clean = run_campaign(&make(), &pop, &profiles);
    assert!(clean.faults.resource_shed > 0, "budget inert in fixture");

    let dir = scratch_dir("io", "memory-resume");
    let mut config = make();
    config.journal_dir = Some(dir.clone());
    config.faults.crash_after_sessions = 4;
    let resumed = run_campaign(&config, &pop, &profiles);
    assert!(!resumed.partial);
    assert_identical(&clean, &resumed, "memory kill-and-resume");
    let _ = std::fs::remove_dir_all(&dir);
}

// Quiet-but-used import check: `vfs::stable_file_id` keys SimFs fault
// streams by file *name*, which is what makes the journal fault
// sequence identical across scratch directories and resumed processes.
#[test]
fn fault_streams_are_keyed_by_name_not_path() {
    let a = vfs::stable_file_id(std::path::Path::new("/tmp/run-1/shard-0000.jrnl"));
    let b = vfs::stable_file_id(std::path::Path::new("/var/other/shard-0000.jrnl"));
    let c = vfs::stable_file_id(std::path::Path::new("/tmp/run-1/shard-0001.jrnl"));
    assert_eq!(a, b, "same name must map to the same fault stream");
    assert_ne!(a, c, "different shards must get independent streams");
}
