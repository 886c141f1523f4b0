//! The engine binaries write files only where a flag points them: a plain
//! `headline` run leaves its working directory untouched, and `ablation`,
//! which has no single metrics report, refuses `--json` up front.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockbind-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn headline_without_json_writes_no_file() {
    let dir = fresh_dir("headline-no-json");
    let out = Command::new(env!("CARGO_BIN_EXE_headline"))
        .args(["8", "5", "--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("run headline");
    assert!(
        out.status.success(),
        "headline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("results").exists(), "headline created results/");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(left.is_empty(), "headline left files behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_rejects_json_before_any_work() {
    let dir = fresh_dir("ablation-json");
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["--json", "x.json", "--threads", "1"])
        .current_dir(&dir)
        .output()
        .expect("run ablation");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(
        stderr.lines().count(),
        1,
        "want a one-line message: {stderr}"
    );
    assert!(stderr.contains("--json"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "ablation ran before rejecting --json"
    );
    assert!(!dir.join("x.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
