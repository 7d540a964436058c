//! Computes the solver-logic fingerprint at build time.
//!
//! The on-disk VC cache replays verdicts produced by earlier runs, so any
//! change to the solver or lowering logic must invalidate it. Instead of a
//! manually-bumped constant (easy to forget in exactly the PRs where it
//! matters), the fingerprint is an FNV-1a hash of every `.rs` file under
//! this crate's `src/`, subdirectories included: a verdict-affecting solver
//! change cannot ship without changing a source file, and therefore cannot
//! ship without invalidating the cache.
//!
//! The hash covers paths relative to `src/` and contents in sorted order, so
//! it is stable across filesystems and build hosts for identical sources.

use std::fs;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Collects the `.rs` files under `dir`, recursively, and the directories
/// walked (whose new files must re-trigger the scan).
fn collect(dir: &Path, files: &mut Vec<PathBuf>, dirs: &mut Vec<PathBuf>) {
    dirs.push(dir.to_path_buf());
    for entry in fs::read_dir(dir).expect("read a crates/smt/src directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, files, dirs);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

fn main() {
    let src_dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap()).join("src");
    let (mut files, mut dirs) = (Vec::new(), Vec::new());
    collect(&src_dir, &mut files, &mut dirs);
    files.sort();

    let mut hash = FNV_OFFSET;
    for path in &files {
        let name = path.strip_prefix(&src_dir).unwrap().to_string_lossy();
        fnv1a(&mut hash, name.as_bytes());
        fnv1a(&mut hash, &[0xff]);
        let contents = fs::read(path).expect("read solver source file");
        fnv1a(&mut hash, &contents);
        fnv1a(&mut hash, &[0xfe]);
        println!("cargo:rerun-if-changed={}", path.display());
    }
    // New files must re-trigger the scan, not just edits to known ones.
    for dir in &dirs {
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    println!("cargo:rustc-env=IDS_SOLVER_LOGIC_FINGERPRINT={:016x}", hash);
}
