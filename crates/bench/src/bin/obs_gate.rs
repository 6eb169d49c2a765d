//! CI gate over emitted metrics documents (`BENCH_*.json`).
//!
//! Usage: `obs_gate <file.json>...` — walks every numeric leaf of each
//! document and fails (exit 1, naming the offending path) if
//!
//! * any `ordering_violations` counter is nonzero — a read overtook a
//!   program/erase it depends on, which invalidates every timing the
//!   run reported; or
//! * any `detected_corruptions` counter exceeds its sibling
//!   `repaired_pages` — the run served data whose checksum mismatch was
//!   never repaired (an *explained* detection is one the online
//!   single-page repair path fixed).
//!
//! Files that fail to parse are an error too: a truncated or
//! hand-mangled document must not pass the gate silently.

use pdl_obs::json;
use std::process::ExitCode;

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let leaves = doc.numeric_leaves();
    let mut failures = Vec::new();
    for (key, value) in &leaves {
        if key == "ordering_violations" || key.ends_with(".ordering_violations") {
            if *value != 0.0 {
                failures.push(format!("{key} = {value} (must be 0)"));
            }
        } else if key == "detected_corruptions" || key.ends_with(".detected_corruptions") {
            let sibling =
                format!("{}repaired_pages", &key[..key.len() - "detected_corruptions".len()]);
            let repaired = leaves.get(&sibling).copied().unwrap_or(0.0);
            if *value > repaired {
                failures.push(format!(
                    "{key} = {value} exceeds {sibling} = {repaired} (unexplained corruption)"
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{path}:\n  {}", failures.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: obs_gate <metrics.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &files {
        match check_file(path) {
            Ok(()) => println!("obs_gate: {path}: clean"),
            Err(msg) => {
                eprintln!("obs_gate: FAIL {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
