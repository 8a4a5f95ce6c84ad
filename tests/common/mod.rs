//! Helpers shared by the determinism test binaries.

// Each test binary compiles this module on its own and uses only some
// of it.
#![allow(dead_code)]

use mailval::measure::campaign::CampaignResult;
use std::path::PathBuf;

/// A scratch directory unique to this process, test file (`prefix`)
/// and test (`name`), emptied of anything an earlier run left behind.
pub fn scratch_dir(prefix: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mailval-{prefix}-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two campaign results are byte-identical: events, fault counters,
/// every session record, the full query log and the content hash.
pub fn assert_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.events, b.events, "event counts differ ({label})");
    assert_eq!(a.faults, b.faults, "fault counters differ ({label})");
    assert_eq!(a.sessions, b.sessions, "session records diverged ({label})");
    assert_eq!(a.log.records, b.log.records, "query log diverged ({label})");
    assert_eq!(
        a.content_hash(),
        b.content_hash(),
        "content hashes differ ({label})"
    );
}
