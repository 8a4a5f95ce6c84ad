//! The `bench-trace` gate states its verdict on stdout even when
//! `MAILVAL_QUIET` silences the `[mailval]` progress channel.

use std::path::Path;
use std::process::Command;

fn quiet_trace_gate(cwd: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mailval-artifacts"))
        .arg("bench-trace")
        .current_dir(cwd)
        .env("MAILVAL_QUIET", "1")
        .output()
        .expect("run mailval-artifacts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn quiet_trace_gate_prints_why_it_failed() {
    let dir = std::env::temp_dir().join(format!("mailval-trace-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // An empty working directory has no baseline to compare against.
    let (ok, stdout) = quiet_trace_gate(&dir);
    assert!(!ok);
    assert!(
        stdout.contains("bench-trace: cannot read baseline results/BENCH_perf.json"),
        "stdout: {stdout:?}"
    );

    // A baseline without the gate's row fails before running anything.
    std::fs::create_dir_all(dir.join("results")).expect("create results dir");
    std::fs::write(dir.join("results/BENCH_perf.json"), "{}\n").expect("write baseline");
    let (ok, stdout) = quiet_trace_gate(&dir);
    assert!(!ok);
    assert!(stdout.contains("bench-trace: no "), "stdout: {stdout:?}");
    assert!(
        !dir.join("results/BENCH_trace.json").exists(),
        "a failed precondition writes no report"
    );

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
