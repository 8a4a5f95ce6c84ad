//! Stamp the compiler version and, when built inside a git checkout,
//! the commit into the binary, so every result says what built it.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Ask git only when the repository root is itself a checkout: git
    // would otherwise report whatever repository encloses this tree.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let root = std::path::Path::new(&manifest_dir).join("..");
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            let root = root.to_string_lossy();
            capture("git", &["-C", &root, "rev-parse", "--short=12", "HEAD"])
        })
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
