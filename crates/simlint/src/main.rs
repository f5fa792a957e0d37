//! `simlint` CLI — the CI gate.
//!
//! Modes:
//!
//! * `simlint` — lint every profiled crate of the enclosing workspace
//!   (found by walking up from the current directory to the first
//!   `Cargo.toml` containing `[workspace]`).
//! * `simlint --json <path>` — same, additionally writing the
//!   machine-readable report (`-` writes to stdout).
//! * `simlint --file <path>…` — lint specific files under the full rule
//!   set (triage aid).
//! * `simlint --check-fixtures` — lint every file in this crate's
//!   `fixtures/` directory: each `<rule>.rs` must fire its named rule
//!   exactly once under ALL rules, and each `clean_*.rs` negative
//!   fixture must produce no findings.
//! * `simlint --list-rules` — print the rule table and profiles.
//!
//! Exit codes (stable; CI scripts against them):
//!
//! * `0` — clean: no findings.
//! * `1` — findings were reported.
//! * `2` — usage or I/O error (bad flag, unreadable file, missing
//!   workspace root).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::{lint_file, lint_workspace, Rule, WorkspaceReport, PROFILES};

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn lint_paths(paths: &[String]) -> ExitCode {
    let mut total = 0usize;
    for p in paths {
        match fs::read_to_string(p) {
            Ok(source) => {
                for f in lint_file(p, &source, Rule::ALL) {
                    println!("{f}");
                    total += 1;
                }
            }
            Err(e) => {
                eprintln!("simlint: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if total == 0 {
        println!("simlint: clean ({} file(s))", paths.len());
        ExitCode::SUCCESS
    } else {
        println!("simlint: {total} finding(s)");
        ExitCode::FAILURE
    }
}

fn check_fixtures() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut entries: Vec<PathBuf> = match fs::read_dir(&dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => {
            eprintln!("simlint: cannot read {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    entries.sort();
    let mut bad = 0usize;
    let mut covered: Vec<Rule> = Vec::new();
    for path in entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let source = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simlint: cannot read {}: {e}", path.display());
                bad += 1;
                continue;
            }
        };
        let findings = lint_file(&path.display().to_string(), &source, Rule::ALL);
        if stem.starts_with("clean_") {
            if findings.is_empty() {
                println!("fixture {stem}.rs: clean under all rules, as expected");
            } else {
                eprintln!("fixture {stem}.rs: negative fixture produced findings: {findings:?}");
                bad += 1;
            }
            continue;
        }
        let expect = Rule::from_name(&stem.replace('_', "-"));
        let Some(expect) = expect else {
            eprintln!("simlint: fixture {stem}.rs does not name a rule");
            bad += 1;
            continue;
        };
        if findings.len() == 1 && findings[0].rule == expect {
            println!("fixture {stem}.rs: fires [{expect}] exactly once, as expected");
            covered.push(expect);
        } else {
            eprintln!(
                "fixture {stem}.rs: expected exactly one [{expect}] finding, got: {findings:?}"
            );
            bad += 1;
        }
    }
    for rule in Rule::ALL {
        if !covered.contains(rule) {
            eprintln!("simlint: no fixture covers rule [{rule}]");
            bad += 1;
        }
    }
    if bad == 0 {
        println!("simlint: all fixtures behave, every rule covered");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list_rules() {
    println!("simlint rules:");
    for r in Rule::ALL {
        println!("  {:<16} {}", r.name(), r.rationale());
    }
    println!("\nper-crate profiles:");
    for p in PROFILES {
        let names: Vec<&str> = p.rules.iter().map(|r| r.name()).collect();
        println!("  {:<12} {}", p.krate, names.join(", "));
    }
}

fn run_workspace(json_out: Option<&str>) -> ExitCode {
    let Some(root) = find_workspace_root() else {
        eprintln!("simlint: no workspace root found above the current directory");
        return ExitCode::from(2);
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_out {
        let text = serde_json::to_string_pretty(&report.to_json())
            .expect("a JSON value always serializes")
            + "\n";
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = fs::write(path, &text) {
            eprintln!("simlint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print_report(&report);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(report: &WorkspaceReport) {
    for f in &report.findings {
        println!("{f}");
    }
    if report.is_clean() {
        println!(
            "simlint: clean — {} files across {} crates",
            report.files_scanned,
            PROFILES.len()
        );
    } else {
        println!("simlint: {} finding(s)", report.findings.len());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list-rules") => {
            list_rules();
            ExitCode::SUCCESS
        }
        Some("--check-fixtures") => check_fixtures(),
        Some("--file") => {
            if args.len() < 2 {
                eprintln!("simlint: --file requires at least one path");
                ExitCode::from(2)
            } else {
                lint_paths(&args[1..])
            }
        }
        Some("--json") => match args.get(1) {
            Some(path) if args.len() == 2 => run_workspace(Some(path)),
            _ => {
                eprintln!("simlint: --json requires exactly one output path (or `-`)");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!(
                "simlint: unknown argument `{other}` \
                 (try --json, --file, --check-fixtures, --list-rules)"
            );
            ExitCode::from(2)
        }
        None => run_workspace(None),
    }
}
