//! The solver and the analysis engine take every setting through their
//! APIs: no hidden environment knob may change what they compute.  This
//! test fails on any `env::var` read in the non-test code (each file up to
//! its first `#[cfg(test)]`) of `crates/lp/src` and `crates/inference/src`.

use std::fs;
use std::path::Path;

#[test]
fn solver_and_engine_read_no_environment_variables() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for dir in ["lp/src", "inference/src"] {
        let dir = crates.join(dir);
        for entry in fs::read_dir(&dir).expect("source directory exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let source = fs::read_to_string(&path).expect("readable source");
            let production = source.split("#[cfg(test)]").next().unwrap_or("");
            scanned += 1;
            for (n, line) in production.lines().enumerate() {
                if line.contains("env::var") {
                    offenders.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
                }
            }
        }
    }
    assert!(scanned >= 15, "scanned only {scanned} source files");
    assert!(
        offenders.is_empty(),
        "environment reads in solver/engine code:\n{}",
        offenders.join("\n")
    );
}
