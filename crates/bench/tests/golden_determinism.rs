//! Determinism contract of the calendar-queue engine under the
//! parallel sweep runner: worker count must never leak into results.
//!
//! - `repro verify` passes against the blessed goldens at `--jobs 1`
//!   and `--jobs 4` — the reworked engine reproduces the pre-overhaul
//!   numbers cell for cell;
//! - the live canonical JSON of all six golden grids (tables, faults
//!   and the dc/tails/hedge/cc world studies) is **byte-identical** to
//!   the blessed goldens at both worker counts (and therefore
//!   byte-identical between them). The comparator alone allows
//!   0.05 µs, so only this check catches a formatting slip in the
//!   canonical writers;
//! - the printed table of each world study is byte-identical to its
//!   blessed `<study>_quick.txt` at both worker counts. No JSON field
//!   pins the table layout, so this is what catches a drift in the
//!   stdout a study prints.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The repo's blessed goldens, independent of the test's working
/// directory.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

#[test]
fn goldens_byte_identical_at_one_and_four_workers() {
    let goldens = golden_dir();
    let goldens_s = goldens.to_str().expect("utf8 golden path");
    for jobs in ["1", "4"] {
        let out = std::env::temp_dir().join(format!("repro-determ-j{jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        // Exit 0 = the comparator found no drift against the goldens.
        let st = repro()
            .args([
                "verify",
                "--jobs",
                jobs,
                "--golden-dir",
                goldens_s,
                "--dump-live",
                "--out-dir",
                out.to_str().expect("utf8 out path"),
            ])
            .status()
            .expect("run repro");
        assert!(st.success(), "verify --jobs {jobs} failed: {st:?}");
        // Stronger than the comparator: the live canonical JSON and
        // the study tables must match the blessed bytes exactly, at
        // every worker count. (live dump, golden): the dump is named
        // after the report, the `Sweep` goldens carry their scale in
        // the file name.
        let pairs = [
            ("tables_live.json", "tables_quick.json"),
            ("faults_live.json", "faults_quick.json"),
            ("dc_quick_live.json", "dc_quick.json"),
            ("tails_quick_live.json", "tails_quick.json"),
            ("hedge_quick_live.json", "hedge_quick.json"),
            ("cc_quick_live.json", "cc_quick.json"),
            ("dc_quick_live.txt", "dc_quick.txt"),
            ("tails_quick_live.txt", "tails_quick.txt"),
            ("hedge_quick_live.txt", "hedge_quick.txt"),
            ("cc_quick_live.txt", "cc_quick.txt"),
        ];
        for (dump, golden) in pairs {
            let live = std::fs::read(out.join(dump)).expect("read live dump");
            let blessed = std::fs::read(goldens.join(golden)).expect("read golden");
            assert!(!live.is_empty());
            assert_eq!(
                live, blessed,
                "{dump} at --jobs {jobs} differs from the blessed {golden}"
            );
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
