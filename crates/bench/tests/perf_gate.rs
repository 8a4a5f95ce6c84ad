//! The `bench-perf-check` gate states its verdict on stdout even when
//! `MAILVAL_QUIET` silences the `[mailval]` progress channel.

use std::process::Command;

fn quiet_check(baseline: &std::path::Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mailval-artifacts"))
        .arg("bench-perf-check")
        .arg(baseline)
        .env("MAILVAL_QUIET", "1")
        .output()
        .expect("run mailval-artifacts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn quiet_gate_prints_why_it_failed() {
    let dir = std::env::temp_dir().join(format!("mailval-perf-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let (ok, stdout) = quiet_check(&dir.join("missing.json"));
    assert!(!ok);
    assert!(
        stdout.contains("bench-perf: cannot read baseline"),
        "stdout: {stdout:?}"
    );

    let empty = dir.join("empty.json");
    std::fs::write(&empty, "{}\n").expect("write empty baseline");
    let (ok, stdout) = quiet_check(&empty);
    assert!(!ok);
    assert!(
        stdout.contains("bench-perf: no runs parsed from baseline"),
        "stdout: {stdout:?}"
    );

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
