//! The CI gate set. `results/gates.json` lists every gate that pins a
//! committed result: the commands CI runs and what their output must
//! equal. [`verify`] runs them all; it is the `verify` binary:
//!
//! ```text
//! cargo run --release --locked -p hs-bench --bin verify
//! ```
//!
//! Each gate has a `name`, a `run` list of commands (argv arrays, run
//! from the workspace root, each of which must exit 0) and one check:
//!
//! * `identical`: the listed files are byte-identical after the run;
//! * `rows`: the regenerated rows of `file` carry the fields of the
//!   committed rows whose `build` is absent or `"change"` (less `build`),
//!   in the same order, and equal them in the `exact` fields; each
//!   `uniform` field carries one value across every committed row, of
//!   any build, and every regenerated row;
//! * `ledger`: the benchmark ledger report the run writes to `out` lists
//!   the `workloads` in order, each with its `fingerprint`, `correct`,
//!   and `e2e.peak_rss_mib` at most `max_rss_mib` where one is given;
//! * `exit`: the exit statuses are the check; the list names the
//!   committed files the commands check (a digest file).
//!
//! Expected values that a committed results file already holds are read
//! from that file. Every committed file a gate names is restored after
//! the gate, whether it passed, failed or panicked, so a run leaves the
//! tree as it found it.

use crate::report::print_table;
use serde_json::Value;
use std::fs;
use std::io::ErrorKind;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The gate file, relative to the workspace root.
const GATES: &str = "results/gates.json";

/// One entry of `results/gates.json`.
struct Gate {
    name: String,
    /// Non-empty argv arrays, run in order.
    run: Vec<Vec<String>>,
    check: Check,
}

enum Check {
    Identical(Vec<String>),
    Rows {
        file: String,
        exact: Vec<String>,
        uniform: Vec<String>,
    },
    Ledger {
        out: String,
        workloads: Vec<Expected>,
    },
    Exit(Vec<String>),
}

/// One workload's record in a ledger report.
struct Expected {
    workload: String,
    fingerprint: String,
    max_rss_mib: Option<f64>,
}

impl Check {
    /// The committed files this check reads; the gate snapshots and
    /// restores them.
    fn files(&self) -> &[String] {
        match self {
            Check::Identical(files) | Check::Exit(files) => files,
            Check::Rows { file, .. } => std::slice::from_ref(file),
            Check::Ledger { .. } => &[],
        }
    }
}

/// Run every gate of `<root>/results/gates.json`, print one table of
/// outcomes, and return whether every gate passed.
pub fn verify(root: &Path) -> bool {
    let gates = match load(root) {
        Ok(gates) => gates,
        Err(e) => {
            eprintln!("{GATES}: {e}");
            return false;
        }
    };
    let mut rows = Vec::new();
    let mut all_passed = true;
    for gate in &gates {
        println!("\n==== gate {} ====", gate.name);
        let start = Instant::now();
        let outcome = run_gate(root, gate);
        let wall_s = start.elapsed().as_secs_f64();
        all_passed &= outcome.is_ok();
        rows.push(vec![
            gate.name.clone(),
            if outcome.is_ok() { "pass" } else { "FAIL" }.to_string(),
            format!("{wall_s:.1}"),
            outcome.err().unwrap_or_default(),
        ]);
    }
    let columns = ["gate", "result", "wall_s", "first mismatch"].map(String::from);
    print_table(GATES, &columns, &rows);
    all_passed
}

fn load(root: &Path) -> Result<Vec<Gate>, String> {
    let text = fs::read_to_string(root.join(GATES)).map_err(|e| e.to_string())?;
    let doc = serde_json::from_str(&text).map_err(|_| "not valid JSON".to_string())?;
    doc.as_array()
        .ok_or("not an array of gates")?
        .iter()
        .map(parse_gate)
        .collect()
}

fn parse_gate(v: &Value) -> Result<Gate, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("a gate has no name")?
        .to_string();
    let err = |what: &str| format!("gate {name}: {what}");
    let run = v
        .get("run")
        .and_then(Value::as_array)
        .ok_or_else(|| err("no run list"))?
        .iter()
        .map(|argv| strings(argv).filter(|a| !a.is_empty()))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("each command must be a non-empty array of strings"))?;
    let kinds = ["identical", "rows", "ledger", "exit"];
    let mut present = kinds.iter().filter_map(|k| Some((*k, v.get(k)?)));
    let (Some((kind, spec)), None) = (present.next(), present.next()) else {
        return Err(err("needs exactly one of identical, rows, ledger, exit"));
    };
    let list = |spec: Option<&Value>, what: &str| {
        spec.and_then(strings)
            .ok_or_else(|| err(&format!("{what} must be an array of strings")))
    };
    let text = |spec: &Value, key: &str| {
        spec.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| err(&format!("{kind}.{key} must be a string")))
    };
    let check = match kind {
        "identical" => Check::Identical(list(Some(spec), kind)?),
        "exit" => Check::Exit(list(Some(spec), kind)?),
        "rows" => Check::Rows {
            file: text(spec, "file")?,
            exact: list(spec.get("exact"), "rows.exact")?,
            uniform: match spec.get("uniform") {
                None => Vec::new(),
                uniform => list(uniform, "rows.uniform")?,
            },
        },
        _ => Check::Ledger {
            out: text(spec, "out")?,
            workloads: spec
                .get("workloads")
                .and_then(Value::as_array)
                .ok_or_else(|| err("ledger.workloads must be an array"))?
                .iter()
                .map(|w| {
                    Ok(Expected {
                        workload: text(w, "workload")?,
                        fingerprint: text(w, "fingerprint")?,
                        max_rss_mib: match w.get("max_rss_mib") {
                            None => None,
                            Some(max) => Some(max.as_f64().ok_or_else(|| {
                                err("ledger.workloads.max_rss_mib must be a number")
                            })?),
                        },
                    })
                })
                .collect::<Result<_, String>>()?,
        },
    };
    Ok(Gate { name, run, check })
}

fn strings(v: &Value) -> Option<Vec<String>> {
    v.as_array()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// Snapshot the gate's committed files, run its commands, check the
/// outcome, and write the snapshot back.
fn run_gate(root: &Path, gate: &Gate) -> Result<(), String> {
    let snapshot = gate
        .check
        .files()
        .iter()
        .map(|f| Ok((f.as_str(), read(root, f)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_and_check(root, gate, &snapshot)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
    for (file, bytes) in &snapshot {
        fs::write(root.join(file), bytes).map_err(|e| format!("cannot restore {file}: {e}"))?;
    }
    outcome
}

fn run_and_check(root: &Path, gate: &Gate, snapshot: &[(&str, Vec<u8>)]) -> Result<(), String> {
    if let Check::Ledger { out, .. } = &gate.check {
        // A report left by an earlier run must not pass for this one.
        let path = root.join(out);
        match fs::remove_file(&path) {
            Err(e) if e.kind() != ErrorKind::NotFound => return Err(format!("{out}: {e}")),
            _ => {}
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    for argv in &gate.run {
        run_command(root, argv)?;
    }
    match &gate.check {
        Check::Identical(_) => snapshot
            .iter()
            .try_for_each(|(file, committed)| identical(file, committed, &read(root, file)?)),
        Check::Rows {
            file,
            exact,
            uniform,
        } => {
            let committed = parse(file, &snapshot[0].1)?;
            let regenerated = parse(file, &read(root, file)?)?;
            rows(file, &committed, &regenerated, exact, uniform)
        }
        Check::Ledger { out, workloads } => ledger(&parse(out, &read(root, out)?)?, workloads),
        Check::Exit(_) => Ok(()),
    }
}

fn run_command(root: &Path, argv: &[String]) -> Result<(), String> {
    let line = argv.join(" ");
    println!("\n$ {line}");
    let status = Command::new(&argv[0])
        .args(&argv[1..])
        .current_dir(root)
        .status()
        .map_err(|e| format!("`{line}`: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`{line}` exited with {status}"))
    }
}

fn read(root: &Path, file: &str) -> Result<Vec<u8>, String> {
    fs::read(root.join(file)).map_err(|e| format!("{file}: {e}"))
}

fn parse(file: &str, bytes: &[u8]) -> Result<Value, String> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .ok_or_else(|| format!("{file} is not valid JSON"))
}

/// A JSON value as it is written in a results file.
fn show(v: &Value) -> String {
    serde_json::to_string_pretty(v).unwrap_or_default()
}

/// Check (a): `file` is byte-identical to its committed bytes.
fn identical(file: &str, committed: &[u8], regenerated: &[u8]) -> Result<(), String> {
    if committed == regenerated {
        return Ok(());
    }
    let (old, new) = (
        String::from_utf8_lossy(committed),
        String::from_utf8_lossy(regenerated),
    );
    match old
        .lines()
        .zip(new.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        Some((i, (a, b))) => Err(format!(
            "{file} line {}: `{}` became `{}`",
            i + 1,
            a.trim(),
            b.trim()
        )),
        None => Err(format!(
            "{file}: {} bytes became {}",
            committed.len(),
            regenerated.len()
        )),
    }
}

/// Check (b): the regenerated rows against the committed `change` rows.
fn rows(
    file: &str,
    committed: &Value,
    regenerated: &Value,
    exact: &[String],
    uniform: &[String],
) -> Result<(), String> {
    let (Some(committed), Some(regenerated)) = (committed.as_array(), regenerated.as_array())
    else {
        return Err(format!("{file} is not an array of rows"));
    };
    if regenerated.is_empty() {
        return Err(format!("{file}: no rows regenerated"));
    }
    for key in uniform {
        let values = committed
            .iter()
            .chain(regenerated)
            .map(|row| field(file, row, key))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(other) = values.iter().find(|v| **v != values[0]) {
            return Err(format!(
                "{file}: {key} {} in one row, {} in another",
                show(values[0]),
                show(other)
            ));
        }
    }
    let current: Vec<&Value> = committed
        .iter()
        .filter(|row| match row.get("build") {
            None => true,
            Some(build) => build.as_str() == Some("change"),
        })
        .collect();
    if current.len() != regenerated.len() {
        return Err(format!(
            "{file}: {} rows regenerated, {} committed",
            regenerated.len(),
            current.len()
        ));
    }
    // The same fields in the same order, so a field the bench adds or
    // drops fails until the committed rows are regenerated.
    for (i, (want, got)) in current.iter().zip(regenerated).enumerate() {
        let row = i + 1;
        if names(want) != names(got) {
            return Err(format!(
                "{file} row {row}: fields {:?} (committed {:?})",
                names(got),
                names(want)
            ));
        }
        for key in exact {
            let (want, got) = (field(file, want, key)?, field(file, got, key)?);
            if want != got {
                return Err(format!(
                    "{file} row {row}: {key} {} (committed {})",
                    show(got),
                    show(want)
                ));
            }
        }
    }
    Ok(())
}

/// `row`'s `key` field.
fn field<'a>(file: &str, row: &'a Value, key: &str) -> Result<&'a Value, String> {
    row.get(key)
        .ok_or_else(|| format!("{file}: a row has no {key}"))
}

/// A row's field names, less `build`.
fn names(row: &Value) -> Vec<&str> {
    match row {
        Value::Object(fields) => fields
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| *k != "build")
            .collect(),
        _ => Vec::new(),
    }
}

/// Check (c): the first run of a ledger report against `expected`.
fn ledger(report: &Value, expected: &[Expected]) -> Result<(), String> {
    let workloads = report
        .get("runs")
        .and_then(Value::as_array)
        .and_then(|runs| runs.first())
        .and_then(|run| run.get("workloads"))
        .and_then(Value::as_array)
        .ok_or("the ledger report has no runs[0].workloads")?;
    if workloads.len() != expected.len() {
        return Err(format!(
            "{} ledger workloads, expected {}",
            workloads.len(),
            expected.len()
        ));
    }
    for (record, want) in workloads.iter().zip(expected) {
        let name = &want.workload;
        let text = |key: &str| record.get(key).and_then(Value::as_str);
        if text("workload") != Some(name) {
            return Err(format!(
                "workload {} where {name} was expected",
                text("workload").unwrap_or("(none)")
            ));
        }
        if text("fingerprint") != Some(&want.fingerprint) {
            return Err(format!(
                "{name} fingerprint {} (expected {})",
                text("fingerprint").unwrap_or("(none)"),
                want.fingerprint
            ));
        }
        if record.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{name} is not correct"));
        }
        if let Some(max) = want.max_rss_mib {
            let rss = record
                .get("e2e")
                .and_then(|e2e| e2e.get("peak_rss_mib"))
                .and_then(Value::as_f64);
            match rss {
                Some(rss) if rss <= max => {}
                Some(rss) => {
                    return Err(format!(
                        "{name} peak RSS {rss} MiB is over its {max} MiB ceiling"
                    ));
                }
                None => return Err(format!("{name} has no peak_rss_mib")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::workspace_root;
    use serde_json::json;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn gate(name: &str) -> Gate {
        load(&workspace_root())
            .expect("results/gates.json loads")
            .into_iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no gate {name}"))
    }

    /// The rows of a committed results file.
    fn committed(file: &str) -> Vec<Value> {
        let bytes = read(&workspace_root(), file).expect("committed file");
        let rows = parse(file, &bytes).expect("JSON");
        rows.as_array().expect("an array of rows").clone()
    }

    fn set(row: &mut Value, key: &str, value: Value) {
        let Value::Object(fields) = row else {
            panic!("row is an object")
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Check (b) of `name`'s gate against `regenerated`.
    fn check_rows(name: &str, committed: &[Value], regenerated: &[Value]) -> Result<(), String> {
        let Check::Rows {
            file,
            exact,
            uniform,
        } = gate(name).check
        else {
            panic!("{name} is a rows gate")
        };
        let (committed, regenerated) = (json!(committed.to_vec()), json!(regenerated.to_vec()));
        rows(&file, &committed, &regenerated, &exact, &uniform)
    }

    /// What the bench would write: the committed `change` rows, unlabelled.
    fn regenerate(committed: &[Value]) -> Vec<Value> {
        let current = committed
            .iter()
            .filter(|r| r.get("build").and_then(Value::as_str) == Some("change"));
        let unlabelled = current.map(|row| match row {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k != "build")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        });
        unlabelled.collect()
    }

    #[test]
    fn every_committed_result_is_gated() {
        let root = workspace_root();
        let gates = load(&root).expect("results/gates.json loads");
        let mut named: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for gate in &gates {
            for file in gate.check.files() {
                assert!(
                    root.join(file).is_file(),
                    "gate {} names missing {file}",
                    gate.name
                );
                named.entry(file).or_default().push(&gate.name);
            }
        }
        // A digest's subjects are regenerated and ignored by git; the
        // gate that checks the digest covers them.
        let mut digested = Vec::new();
        for file in named.keys().filter(|f| f.ends_with(".sha256")) {
            let text = fs::read_to_string(root.join(file)).expect("digest file");
            digested.extend(
                text.lines()
                    .filter_map(|l| Some(l.split_whitespace().nth(1)?.to_string())),
            );
        }
        for entry in fs::read_dir(root.join("results")).expect("results/") {
            let name = entry.expect("directory entry").file_name();
            let file = format!("results/{}", name.to_string_lossy());
            if file == GATES || digested.contains(&file) {
                continue;
            }
            let by = named.get(file.as_str()).map_or(0, Vec::len);
            assert_eq!(by, 1, "{file} is named by {by} gates, not exactly one");
        }
        let runs_example = |stem: &str| {
            gates
                .iter()
                .flat_map(|g| &g.run)
                .any(|argv| argv.windows(2).any(|w| w[0] == "--example" && w[1] == stem))
        };
        for entry in fs::read_dir(root.join("examples")).expect("examples/") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|x| x == "rs") {
                let stem = path.file_stem().expect("file stem").to_string_lossy();
                assert!(runs_example(&stem), "no gate runs example {stem}");
            }
        }
    }

    #[test]
    fn identical_fails_on_one_flipped_byte() {
        let file = "results/fig7_testbed.json";
        let bytes = read(&workspace_root(), file).expect("committed figure");
        assert_eq!(identical(file, &bytes, &bytes), Ok(()));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        let err = identical(file, &bytes, &flipped).expect_err("a flipped byte fails");
        assert!(err.starts_with("results/fig7_testbed.json line "), "{err}");
        let mut longer = bytes.clone();
        longer.push(b'\n');
        assert!(identical(file, &bytes, &longer).is_err());
    }

    #[test]
    fn rows_fail_on_a_counter_off_by_one() {
        for name in ["bench_simnet", "scale_1m", "outage_sweep"] {
            let committed = committed(&format!("results/{name}.json"));
            let mut regenerated = regenerate(&committed);
            assert_eq!(check_rows(name, &committed, &regenerated), Ok(()), "{name}");
            let last = regenerated.last_mut().expect("a change row");
            let solves = last
                .get("scoped_solves")
                .and_then(Value::as_u64)
                .expect("counter");
            set(last, "scoped_solves", json!(solves + 1));
            let err = check_rows(name, &committed, &regenerated).expect_err("counter + 1 fails");
            assert!(err.contains("scoped_solves"), "{name}: {err}");
        }
        let committed = committed("results/tab_planner.json");
        let mut regenerated = committed.clone();
        set(&mut regenerated[0], "solve_ms", json!(1e9));
        assert_eq!(check_rows("tab_planner", &committed, &regenerated), Ok(()));
        let mut added = regenerated.clone();
        set(&mut added[0], "new_field", json!(0));
        assert!(check_rows("tab_planner", &committed, &added).is_err());
        let evals = regenerated[0].get("lat_evals").and_then(Value::as_u64);
        set(
            &mut regenerated[0],
            "lat_evals",
            json!(evals.expect("lat_evals") + 1),
        );
        assert!(check_rows("tab_planner", &committed, &regenerated).is_err());
    }

    #[test]
    fn rows_fail_on_a_missing_or_extra_row() {
        let committed = committed("results/outage_sweep.json");
        let rows = regenerate(&committed);
        let extra: Vec<Value> = rows.iter().chain(&rows[..1]).cloned().collect();
        for perturbed in [&rows[1..], &extra[..]] {
            let err = check_rows("outage_sweep", &committed, perturbed).expect_err("row count");
            assert!(err.contains("rows regenerated"), "{err}");
        }
    }

    #[test]
    fn parent_rows_are_ignored_but_must_share_uniform_fields() {
        let mut committed = committed("results/scale_1m.json");
        let regenerated = regenerate(&committed);
        let parent = committed
            .iter()
            .position(|r| r.get("build").and_then(Value::as_str) != Some("change"))
            .expect("a parent row");
        set(&mut committed[parent], "scoped_solves", json!(0));
        assert_eq!(check_rows("scale_1m", &committed, &regenerated), Ok(()));
        set(
            &mut committed[parent],
            "fingerprint",
            json!("0000000000000000"),
        );
        let err = check_rows("scale_1m", &committed, &regenerated).expect_err("uniform");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn uniform_fields_bind_every_regenerated_row() {
        let committed = committed("results/scale_1m.json");
        let mut regenerated = regenerate(&committed);
        set(
            &mut regenerated[0],
            "fingerprint",
            json!("0000000000000000"),
        );
        assert!(check_rows("scale_1m", &committed, &regenerated).is_err());
    }

    /// Ledger records carrying exactly `expected`, each RSS at its
    /// ceiling.
    fn records(expected: &[Expected]) -> Vec<Value> {
        let record = |e: &Expected| {
            json!({
                "workload": e.workload.as_str(),
                "fingerprint": e.fingerprint.as_str(),
                "correct": true,
                "e2e": json!({"peak_rss_mib": e.max_rss_mib.unwrap_or(1.0)}),
            })
        };
        expected.iter().map(record).collect()
    }

    fn report(records: Vec<Value>) -> Value {
        json!({"runs": vec![json!({"workloads": records})]})
    }

    #[test]
    fn ledger_fails_on_each_perturbed_record() {
        for name in ["ledger_seed1", "ledger_seed2"] {
            let Check::Ledger { workloads, .. } = gate(name).check else {
                panic!("{name} is a ledger gate")
            };
            assert_eq!(workloads.len(), 4, "{name}");
            assert_eq!(ledger(&report(records(&workloads)), &workloads), Ok(()));
            let perturb = |i: usize, key: &str, value: Value| {
                let mut perturbed = records(&workloads);
                set(&mut perturbed[i], key, value);
                ledger(&report(perturbed), &workloads)
            };
            for (i, want) in workloads.iter().enumerate() {
                let mut digit = want.fingerprint.clone();
                let last = if digit.ends_with('0') { "1" } else { "0" };
                digit.replace_range(digit.len() - 1.., last);
                let err = perturb(i, "fingerprint", json!(digit)).expect_err("fingerprint");
                assert!(err.contains(&want.fingerprint), "{err}");
                assert!(perturb(i, "correct", json!(false)).is_err());
                assert!(perturb(i, "workload", json!("other")).is_err());
                if let Some(max) = want.max_rss_mib {
                    let over = json!({"peak_rss_mib": max + 1.0});
                    assert!(perturb(i, "e2e", over).expect_err("RSS").contains("over"));
                    let null = json!({"peak_rss_mib": Value::Null});
                    assert!(perturb(i, "e2e", null).is_err());
                }
            }
            let mut short = records(&workloads);
            short.pop();
            assert!(ledger(&report(short), &workloads).is_err());
        }
        let Check::Ledger { workloads, .. } = gate("ledger_seed1").check else {
            unreachable!()
        };
        let ceilings: Vec<_> = workloads.iter().map(|w| w.max_rss_mib).collect();
        assert_eq!(ceilings, [Some(12.0), Some(28.0), Some(14.0), Some(21.0)]);
    }

    /// A fresh directory for one test, with `results/x.json` holding
    /// `committed`.
    fn scratch_root(test: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("hs-gates-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("results")).expect("scratch results/");
        fs::write(root.join("results/x.json"), "committed\n").expect("scratch file");
        root
    }

    fn shell(script: &str) -> Vec<String> {
        vec!["sh".into(), "-c".into(), script.into()]
    }

    #[test]
    fn a_command_that_exits_non_zero_fails() {
        let root = scratch_root("exit");
        let gate = Gate {
            name: "exit".into(),
            run: vec![
                shell("exit 0"),
                shell("exit 3"),
                shell("echo late > results/x.json"),
            ],
            check: Check::Exit(vec![]),
        };
        let err = run_gate(&root, &gate).expect_err("a non-zero exit fails");
        assert!(err.contains("exit 3"), "{err}");
        let text = fs::read_to_string(root.join("results/x.json")).expect("x.json");
        assert_eq!(text, "committed\n", "commands after a failure do not run");
        fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn snapshots_are_restored_after_every_outcome() {
        let root = scratch_root("restore");
        let identical = |script: &str| Gate {
            name: "restore".into(),
            run: vec![shell(script)],
            check: Check::Identical(vec!["results/x.json".into()]),
        };
        let outcomes = [
            ("echo regenerated > results/x.json", false),
            ("echo regenerated > results/x.json; exit 1", false),
            ("echo committed > results/x.json", true),
        ];
        for (script, passes) in outcomes {
            assert_eq!(
                run_gate(&root, &identical(script)).is_ok(),
                passes,
                "{script}"
            );
            let text = fs::read_to_string(root.join("results/x.json")).expect("x.json");
            assert_eq!(text, "committed\n", "{script}");
        }
        fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn a_stale_ledger_report_does_not_pass() {
        let root = scratch_root("stale");
        let out = "target/gates/ledger.json";
        let expected = vec![Expected {
            workload: "w".into(),
            fingerprint: "f".into(),
            max_rss_mib: None,
        }];
        fs::create_dir_all(root.join("target/gates")).expect("out dir");
        let stale = show(&report(records(&expected)));
        fs::write(root.join(out), stale).expect("stale report");
        let gate = Gate {
            name: "stale".into(),
            run: vec![shell("true")],
            check: Check::Ledger {
                out: out.into(),
                workloads: expected,
            },
        };
        let err = run_gate(&root, &gate).expect_err("no report written");
        assert!(err.starts_with(out), "{err}");
        fs::remove_dir_all(&root).expect("clean up");
    }
}
