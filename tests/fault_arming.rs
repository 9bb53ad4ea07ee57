//! No fault is armed from the core crate's own sources. Its unit tests
//! dispatch on the shared global pool without holding
//! `fault::test_guard()`, so a fire armed in one of them can land in a
//! pool job of another test running at the same time in the same
//! binary. Fault contracts belong in `tests/chaos.rs`, whose tests all
//! hold the guard.
//!
//! This reads every source file under `crates/core/src` except
//! `fault.rs`, which defines the fault API, test modules and comments
//! included, and fails on any line that calls `fault::arm(`.

use std::path::{Path, PathBuf};

/// The call that arms a fault.
const ARM: &str = "fault::arm(";

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn core_sources_arm_no_fault_outside_fault_rs() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut files = rust_sources(&src);
    files.sort();
    assert!(files.len() > 1, "no core sources found");
    let mut hits = Vec::new();
    for file in files.iter().filter(|f| **f != src.join("fault.rs")) {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for (no, line) in text.lines().enumerate() {
            if line.contains(ARM) {
                let name = file.strip_prefix(&src).unwrap_or(file);
                hits.push(format!("{}:{}: {}", name.display(), no + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "`{ARM}` called under crates/core/src outside fault.rs:\n{}",
        hits.join("\n")
    );
}
