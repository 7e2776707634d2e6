//! Line-count ratchet: non-blank Rust lines per crate, committed so that
//! deleted code cannot quietly grow back (a size fitness function, after
//! raff's statement count).
//!
//! Counts the non-blank lines of every `.rs` file under each
//! `crates/<name>/src`, and under the umbrella crate's `src/` and
//! `examples/`; test directories are not counted. Run from the repository
//! root:
//!
//! - default: write the counts to `results/LINES.json`;
//! - `--check`: compare them with the committed `results/LINES.json` and
//!   exit non-zero when any entry exceeds its committed count (an entry
//!   the file lacks counts as exceeding). Regenerate the file after a
//!   change that shrinks the code, to lower the ratchet.

use hm_bench::results::{read_committed, write_result};
use hm_telemetry::json::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Non-blank lines of the `.rs` files under `dir`, recursively.
fn count(dir: &Path) -> u64 {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    let mut total = 0;
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            total += count(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            total += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
    }
    total
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let mut counts = BTreeMap::new();
    let crates = fs::read_dir("crates").expect("run from the repository root");
    for entry in crates {
        let dir = entry.expect("directory entry").path();
        if dir.join("src").is_dir() {
            let name = dir.file_name().expect("crate dir name").to_string_lossy();
            counts.insert(name.into_owned(), count(&dir.join("src")));
        }
    }
    for dir in ["src", "examples"] {
        counts.insert(dir.to_string(), count(Path::new(dir)));
    }
    let total: u64 = counts.values().sum();
    for (name, n) in &counts {
        println!("{name:<14} {n:>6}");
    }
    println!("{:<14} {total:>6}", "total");

    if check {
        let committed = read_committed("LINES.json");
        let lines = committed
            .get("lines")
            .expect("no \"lines\" object in results/LINES.json");
        let mut grew = false;
        for (name, &n) in &counts {
            let limit = lines.get(name).and_then(Json::as_u64);
            if limit.is_none_or(|limit| n > limit) {
                eprintln!("REGRESSION: {name} has {n} non-blank lines, committed {limit:?}");
                grew = true;
            }
        }
        if grew {
            std::process::exit(1);
        }
        println!("line-count check passed");
        return;
    }

    let entries: Vec<String> = counts
        .iter()
        .map(|(name, n)| format!("    \"{name}\": {n}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"lines\",\n  \"total\": {total},\n  \"lines\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    let path = write_result("LINES.json", &json);
    println!("wrote {}", path.display());
}
