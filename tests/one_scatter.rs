//! Production runs one scatter and one gather: the reconstruction paths
//! (`recon`, `sense`, `toeplitz`) and the serving layer grid only through
//! the planned adjoint, and interpolate only through the planned forward
//! (`NufftPlan::forward_planned`), over a trajectory planned once
//! (`NufftPlan::plan_trajectory`). The unplanned adjoint, the one-shot
//! forward that plans its coordinates on every call, and the gridding
//! engines stay for the paper's harnesses and the bitwise suites that
//! compare against them.
//!
//! This reads the non-test source of those modules (comment lines
//! skipped, and everything from the first `#[cfg(test)]` on) and fails
//! on any call that grids or interpolates another way.

use std::path::{Path, PathBuf};

/// Calls that scatter through a gridding engine rather than the plan, or
/// gather over a trajectory they plan again.
const UNPLANNED: [&str; 4] = [".adjoint(", ".adjoint_batch(", ".grid(", ".forward("];

/// `(line number, line)` of every non-comment line before the file's
/// first `#[cfg(test)]`.
fn production_lines(path: &Path) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(i, line)| (i + 1, line.to_string()))
        .collect()
}

#[test]
fn production_paths_call_no_unplanned_scatter() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut files: Vec<PathBuf> = ["recon.rs", "sense.rs", "toeplitz.rs"]
        .iter()
        .map(|f| src.join(f))
        .collect();
    let mut serve: Vec<PathBuf> = std::fs::read_dir(src.join("serve"))
        .expect("serve module directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    serve.sort();
    assert!(!serve.is_empty(), "no serve sources found");
    files.extend(serve);

    let mut hits = Vec::new();
    for file in &files {
        for (no, line) in production_lines(file) {
            if UNPLANNED.iter().any(|call| line.contains(call)) {
                let name = file.strip_prefix(&src).unwrap_or(file);
                hits.push(format!("{}:{no}: {}", name.display(), line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "production code grids or interpolates outside the planned transforms:\n{}",
        hits.join("\n")
    );
}
