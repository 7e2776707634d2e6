//! CSV result files under `results/` for external plotting, and the
//! committed JSON baselines the `--check` gates read.

use hm_telemetry::json::{self, Json};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory that experiment binaries write their CSV series into.
pub const RESULTS_DIR: &str = "results";

/// Write `contents` to `results/<name>`, creating the directory if needed.
/// Returns the written path.
///
/// # Panics
/// Panics on I/O failure (experiment binaries want loud failures).
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let dir = Path::new(RESULTS_DIR);
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write result file");
    path
}

/// Parse the committed `results/<name>` that a `--check` gate compares
/// against.
///
/// # Panics
/// Panics when the file is missing or is not valid JSON.
pub fn read_committed(name: &str) -> Json {
    let path = Path::new(RESULTS_DIR).join(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--check needs committed {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The number at `keys`, a path of nested object keys, in `doc`.
pub fn number_at(doc: &Json, keys: &[&str]) -> Option<f64> {
    keys.iter().try_fold(doc, |v, k| v.get(k))?.as_f64()
}

/// Parse simple CLI flags shared by the experiment binaries: returns
/// `(quick, full)` from `--quick` / `--full` argv flags.
pub fn parse_scale_flags() -> (bool, bool) {
    let args: Vec<String> = std::env::args().collect();
    (
        args.iter().any(|a| a == "--quick"),
        args.iter().any(|a| a == "--full"),
    )
}

/// Parse `--seed <n>` (default when absent).
pub fn parse_seed(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_result_roundtrips() {
        let dir = std::env::temp_dir().join(format!("hm-results-{}", std::process::id()));
        let old = std::env::current_dir().unwrap();
        fs::create_dir_all(&dir).unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let p = write_result("test.csv", "a,b\n1,2\n");
        let back = fs::read_to_string(&p).unwrap();
        std::env::set_current_dir(old).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, "a,b\n1,2\n");
    }

    #[test]
    fn number_at_follows_a_key_path() {
        let doc = json::parse(r#"{"ratio": 20.6, "cases": {"a/b": {"rate": 972.35}}}"#).unwrap();
        assert_eq!(number_at(&doc, &["ratio"]), Some(20.6));
        assert_eq!(number_at(&doc, &["cases", "a/b", "rate"]), Some(972.35));
        assert_eq!(number_at(&doc, &["cases", "missing", "rate"]), None);
        assert_eq!(number_at(&doc, &["cases"]), None);
    }
}
