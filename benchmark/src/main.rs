//! Outside-in performance ledger for the HeroServe simulator.
//!
//! ```text
//! cargo run --release --locked --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]
//! cargo run --release --locked --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Each workload runs in a child process of its own, one at a time and
//! single-threaded, so its peak memory is its own. `--trace 0` measures
//! the end-to-end metrics, `--trace 1` the per-layer ones, and leaving it
//! out measures both. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when a correctness check fails. See README.md.

mod checks;
mod compare;
mod fingerprint;
mod fold;
mod ledger;
mod metrics;
mod probe;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Value};

use crate::ledger::Want;
use crate::metrics::{E2E, LAYERS};
use crate::workloads::Workload;

const USAGE: &str = "usage: hs-perf-ledger [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--out FILE]
       hs-perf-ledger --compare A.json B.json
workloads: testbed_knee xtracks_steady kv_fabric_faults flash_elastic";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    child: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 0.0,
        trace: None,
        repeat: 1,
        out: None,
        compare: None,
        child: false,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, it.next())?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads.push(w);
            }
            "--seed" => args.seed = value(&flag, it.next())?,
            "--seconds" => args.seconds = value(&flag, it.next())?,
            "--trace" => {
                args.trace = match value::<String>(&flag, it.next())?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => args.repeat = value(&flag, it.next())?,
            "--out" => args.out = Some(value(&flag, it.next())?),
            "--compare" => {
                let a = value(&flag, it.next())?;
                let b = value(&flag, it.next())?;
                args.compare = Some((a, b));
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) || args.repeat == 0 {
        return Err("--seconds must be a non-negative number and --repeat at least 1".into());
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    let want = Want {
        e2e: args.trace != Some(true),
        layers: args.trace != Some(false),
    };
    if args.child {
        let record = ledger::measure(args.workloads[0], args.seed, args.seconds, want);
        println!("{}", compact(&record));
        return ExitCode::SUCCESS;
    }
    run(&args)
}

/// Serialize on one line. Strings never hold a raw newline (the emitter
/// escapes them), so joining the pretty form's lines is safe.
fn compact(v: &Value) -> String {
    let pretty = serde_json::to_string_pretty(v).expect("JSON values serialize");
    pretty.lines().map(str::trim_start).collect()
}

fn run(args: &Args) -> ExitCode {
    let mut runs: Vec<Vec<Value>> = Vec::new();
    for rep in 0..args.repeat {
        let mut records = Vec::new();
        for &w in &args.workloads {
            eprintln!("[run {}/{}] {}", rep + 1, args.repeat, w.name());
            match run_child(w, args) {
                Ok(record) => records.push(record),
                Err(e) => {
                    eprintln!("{}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        runs.push(records);
    }
    for record in runs.iter().flatten() {
        print_record(record);
    }
    let as_report = |runs: &[Vec<Value>]| {
        json!({
            "benchmark": "hs-perf-ledger",
            "git_rev": git_rev(),
            "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": runs.iter().map(|r| json!({"workloads": r.clone()})).collect::<Vec<_>>(),
        })
    };
    if runs.len() > 1 {
        println!("\nrun 1 against run {}:", runs.len());
        let first = as_report(&runs[..1]);
        let last = as_report(&runs[runs.len() - 1..]);
        compare::print(&compare::rows(&first, &last));
    }
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&as_report(&runs)).expect("JSON values serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let all = || runs.iter().flatten();
    let correct = all().all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
    let count = |key: &str| all().filter_map(|r| r.get(key)?.as_u64()).sum::<u64>();
    let last = runs.last().expect("at least one run");
    let mut metrics = Vec::new();
    for record in last {
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        for (section, table) in [("e2e", E2E), ("layers", LAYERS)] {
            let Some(values) = record.get(section) else {
                continue;
            };
            for m in table {
                let key = if last.len() == 1 {
                    m.name.to_owned()
                } else {
                    format!("{workload}/{}", m.name)
                };
                let value = values.get(m.name).cloned().unwrap_or(Value::Null);
                metrics.push((key, json!({"value": value, "unit": m.unit})));
            }
        }
    }
    let summary = json!({
        "correct": correct,
        "attempted": count("attempted"),
        "failed": count("failed"),
        "metrics": Value::Object(metrics),
    });
    println!("{}", compact(&summary));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure one workload in a child process and return its record.
fn run_child(w: Workload, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if let Some(t) = args.trace {
        cmd.args(["--trace", if t { "1" } else { "0" }]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|_| format!("child printed no record: {line:?}"))
}

fn print_record(r: &Value) {
    let s = |k: &str| {
        r.get(k).map_or(String::new(), |v| match v {
            Value::String(s) => s.clone(),
            other => compact(other),
        })
    };
    println!(
        "\n== {} seed {}: correct {}, attempted {}, failed {}, fingerprint {}, passes timed {} probe {}",
        s("workload"),
        s("seed"),
        s("correct"),
        s("attempted"),
        s("failed"),
        s("fingerprint"),
        s("passes_timed"),
        s("passes_probe"),
    );
    for (section, table) in [("e2e", E2E), ("layers", LAYERS)] {
        let Some(values) = r.get(section) else {
            continue;
        };
        for m in table {
            let v = values
                .get(m.name)
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            println!("  {:<34} {:>20.6} {}", m.name, v, m.unit);
        }
    }
    println!("  samples: {}", s("samples"));
    if r.get("top_host_layers").is_some() {
        println!("  top host layers: {}", s("top_host_layers"));
    }
    for f in r
        .get("failures")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        println!("  FAILED: {}", f.as_str().unwrap_or_default());
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|_| format!("{}: not a JSON report", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if compare::print(&compare::rows(&a, &b)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory;
/// `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
}
