//! Process-global state, pinned by name.
//!
//! Lists every `static` item above each source file's first `#[cfg(test)]`
//! under `crates/*/src` and `shims/*/src`, thread-locals apart, and compares
//! the lists with the ones below. What one run observes belongs to that
//! run's report (DESIGN.md §8.2), so a new process-wide static fails here by
//! name until it is justified and added.

use std::fs;
use std::path::{Path, PathBuf};

/// The process-wide statics: the popcount tier the CPU supports, the rayon
/// shim's pool, and the tile-timing memo with its device fingerprints.
const STATICS: &[(&str, &str)] = &[
    ("crates/cpu/src/microkernel.rs", "DETECTED"),
    ("crates/gpu-sim/src/macro_engine.rs", "DEVICE_FPRINTS"),
    ("crates/gpu-sim/src/macro_engine.rs", "TIMING_CACHE"),
    ("shims/rayon/src/lib.rs", "POOL"),
];

/// The per-thread statics: whether this thread runs a region's tasks.
const THREAD_LOCALS: &[(&str, &str)] = &[("shims/rayon/src/lib.rs", "IN_REGION")];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The name of the `static` item a line declares, if it declares one.
fn static_name(line: &str) -> Option<&str> {
    let mut item = line.trim_start();
    if let Some(rest) = item.strip_prefix("pub") {
        item = match rest.strip_prefix('(') {
            Some(scoped) => scoped.split_once(')')?.1,
            None => rest,
        }
        .trim_start();
    }
    let item = item.strip_prefix("static ")?;
    let item = item.strip_prefix("mut ").unwrap_or(item);
    item.split_once(':').map(|(name, _)| name.trim())
}

/// The names of the statics and of the thread-locals one source file
/// declares above its first `#[cfg(test)]`.
fn scan(text: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut statics, mut thread_locals) = (Vec::new(), Vec::new());
    // Bracket depth inside a `thread_local!` invocation, while in one.
    let mut thread_local: Option<i64> = None;
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let decl = match line.split_once("thread_local!") {
            Some((_, rest)) => {
                thread_local = Some(0);
                rest.trim_start_matches(|c: char| c == '(' || c == '{' || c.is_whitespace())
            }
            None => line,
        };
        if let Some(name) = static_name(decl) {
            match thread_local {
                Some(_) => thread_locals.push(name),
                None => statics.push(name),
            }
        }
        if let Some(depth) = &mut thread_local {
            let count = |set: &[char]| line.matches(set).count() as i64;
            *depth += count(&['{', '(']) - count(&['}', ')']);
            if *depth <= 0 {
                thread_local = None;
            }
        }
    }
    (statics, thread_locals)
}

/// Declared items as (path, name) pairs, the path relative to the
/// workspace root, sorted.
type Items = Vec<(String, String)>;

/// The statics and the thread-locals of every file.
fn declared() -> (Items, Items) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for group in ["crates", "shims"] {
        for package in fs::read_dir(root.join(group)).expect("package directory") {
            let src = package.expect("directory entry").path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
    }
    let (mut statics, mut thread_locals) = (Vec::new(), Vec::new());
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source file");
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let (s, t) = scan(&text);
        statics.extend(s.into_iter().map(|name| (rel.clone(), name.to_string())));
        thread_locals.extend(t.into_iter().map(|name| (rel.clone(), name.to_string())));
    }
    statics.sort();
    thread_locals.sort();
    (statics, thread_locals)
}

fn owned(list: &[(&str, &str)]) -> Items {
    list.iter()
        .map(|&(file, name)| (file.to_string(), name.to_string()))
        .collect()
}

#[test]
fn process_statics_are_the_pinned_ones() {
    let (statics, thread_locals) = declared();
    assert_eq!(
        statics,
        owned(STATICS),
        "process-wide statics changed; per-run state belongs on the run's report"
    );
    assert_eq!(thread_locals, owned(THREAD_LOCALS), "thread-locals changed");
}

#[test]
fn the_scan_reads_every_form_of_static_item() {
    let text = "\
static POOL: Pool = Pool {
    threads: OnceLock::new(),
};
/// A static definition site
fn detected() -> &'static str {
        static DETECTED: OnceLock<Tier> = OnceLock::new();
}
pub static QUERIES: Counter = x;
pub(crate) static mut N: u64 = 0;
thread_local! {
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}
thread_local!(static DEPTH: Cell<u32> = Cell::new(0));
static AFTER: u8 = 0;
#[cfg(test)]
static IN_TESTS: u8 = 0;
";
    assert_eq!(
        scan(text),
        (
            vec!["POOL", "DETECTED", "QUERIES", "N", "AFTER"],
            vec!["IN_REGION", "DEPTH"]
        )
    );
}
