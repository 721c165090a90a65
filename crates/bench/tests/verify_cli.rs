//! End-to-end exit-code contract of `repro verify`:
//!
//! - `--bless` writes the goldens and succeeds;
//! - a clean re-run verifies with exit 0;
//! - any golden drift makes verification exit non-zero;
//! - missing goldens exit with a distinct code and a hint to bless;
//! - a bad command line (unknown flag or command, missing or
//!   unparsable value, `--jobs 0`) is a usage error with that same
//!   code, never a panic and never a silent success.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_golden_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn verify_roundtrip_and_drift_detection() {
    let dir = tmp_golden_dir("roundtrip");
    let dir_s = dir.to_str().expect("utf8 temp path");

    // Bless.
    let st = repro()
        .args(["verify", "--bless", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert!(st.success(), "--bless failed: {st:?}");
    assert!(dir.join("tables_quick.json").is_file());
    assert!(dir.join("faults_quick.json").is_file());

    // Clean re-run: the simulation is deterministic, so the live grid
    // must match what was just blessed.
    let st = repro()
        .args(["verify", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert!(st.success(), "clean verify failed: {st:?}");

    // Drift: perturb one grid-pinned integer in the golden, as a
    // changed cost constant or protocol tweak would perturb the live
    // side. Verification must exit non-zero.
    let path = dir.join("tables_quick.json");
    let text = std::fs::read_to_string(&path).expect("read golden");
    let drifted = text.replacen("\"reps\": 1", "\"reps\": 2", 1);
    assert_ne!(text, drifted, "golden must contain a reps field");
    std::fs::write(&path, &drifted).expect("write perturbed golden");
    let st = repro()
        .args(["verify", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert_eq!(
        st.code(),
        Some(1),
        "perturbed golden must fail verification"
    );

    // The world-study goldens go through the same loop: restore the
    // tables golden and perturb a dc cell instead.
    std::fs::write(&path, text).expect("restore golden");
    let path = dir.join("dc_quick.json");
    let text = std::fs::read_to_string(&path).expect("read golden");
    let drifted = text.replacen("\"reps\": 1", "\"reps\": 2", 1);
    assert_ne!(text, drifted, "golden must contain a reps field");
    std::fs::write(&path, drifted).expect("write perturbed golden");
    let st = repro()
        .args(["verify", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert_eq!(
        st.code(),
        Some(1),
        "perturbed world golden must fail verification"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_without_goldens_asks_for_bless() {
    let dir = tmp_golden_dir("missing");
    let st = repro()
        .args(["verify", "--golden-dir", dir.to_str().expect("utf8")])
        .status()
        .expect("run repro");
    assert_eq!(
        st.code(),
        Some(2),
        "missing goldens are a setup error, not a drift"
    );
}

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [&[&str]; 4] = [
        &["--bogus"],
        &["table5", "--jobs"],
        &["table5", "--jobs", "0"],
        &["tabel1", "--quick"],
    ];
    for args in cases {
        let out = repro().args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
