//! `--compare A.json B.json`: one row per workload and metric.
//!
//! Each side is a report written with `--out`, holding one or more runs;
//! a side's value is the median over its runs. End-to-end metrics are
//! judged against their bounds: host-time metrics are `unresolved` when a
//! side's own spread exceeds the bound (unless every run of B beats every
//! run of A), and simulated ones are `same` only when bit-identical.
//! Simulated layer counters and fingerprints must be bit-identical to be
//! `same`; host-time layer values are informational.

use serde_json::Value;

use crate::metrics::{median, Better, Metric, Source, E2E, LAYERS};

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    pub change: Option<f64>,
    pub verdict: &'static str,
}

/// Every workload record in a report, across all its runs.
fn records(report: &Value) -> Vec<&Value> {
    let runs = report.get("runs").and_then(Value::as_array);
    runs.into_iter()
        .flatten()
        .filter_map(|r| r.get("workloads").and_then(Value::as_array))
        .flatten()
        .collect()
}

fn values(recs: &[&Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get(section)?.get(metric)?.as_f64())
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn spread(xs: &[f64]) -> f64 {
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    if xs.len() < 2 {
        0.0
    } else {
        (hi - lo) / median(xs).abs().max(f64::MIN_POSITIVE)
    }
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let identical = a.iter().chain(b).all(|x| x.to_bits() == a[0].to_bits());
    let worse = worse_by(m, median(a), median(b));
    match (m.bound, m.source) {
        (None, Source::Sim) if identical => "same",
        (None, Source::Sim) => "differs",
        (None, Source::Host) => "info",
        (Some(_), Source::Sim) if identical => "same",
        (Some(bound), Source::Host) if spread(a).max(spread(b)) > bound => {
            let b_always_better = b
                .iter()
                .all(|&y| a.iter().all(|&x| worse_by(m, x, y) < 0.0));
            if b_always_better {
                "better"
            } else {
                "unresolved"
            }
        }
        (Some(bound), _) if worse > bound => "worse",
        (Some(bound), _) if worse < -bound => "better",
        (Some(_), Source::Sim) => "changed",
        (Some(_), Source::Host) => "same",
    }
}

pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let (ra, rb) = (records(a), records(b));
    let mut names: Vec<&str> = Vec::new();
    for name in ra
        .iter()
        .filter_map(|r| r.get("workload").and_then(Value::as_str))
    {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut out = Vec::new();
    for w in names {
        let prints = |recs: &[&Value]| -> Vec<String> {
            recs.iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(w))
                .filter_map(|r| {
                    r.get("fingerprint")
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                })
                .collect()
        };
        let (pa, pb) = (prints(&ra), prints(&rb));
        if pb.is_empty() {
            continue;
        }
        let same = pa.iter().chain(&pb).all(|p| *p == pa[0]);
        out.push(Row {
            workload: w.to_owned(),
            metric: "fingerprint".into(),
            a: pa[0].clone(),
            b: pb[pb.len() - 1].clone(),
            change: None,
            verdict: if same { "same" } else { "differs" },
        });
        for (section, table) in [("e2e", E2E), ("layers", LAYERS)] {
            for m in table {
                let (va, vb) = (
                    values(&ra, w, section, m.name),
                    values(&rb, w, section, m.name),
                );
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (ma, mb) = (median(&va), median(&vb));
                out.push(Row {
                    workload: w.to_owned(),
                    metric: m.name.to_owned(),
                    a: format!("{ma:.6}"),
                    b: format!("{mb:.6}"),
                    change: (ma != 0.0).then(|| (mb - ma) / ma.abs()),
                    verdict: verdict(m, &va, &vb),
                });
            }
        }
    }
    out
}

/// Print the rows; true when none is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<34} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for r in rows {
        let change = r
            .change
            .map_or(String::new(), |c| format!("{:+.2}%", 100.0 * c));
        println!(
            "{:<18} {:<34} {:>18} {:>18} {:>9}  {}",
            r.workload, r.metric, r.a, r.b, change, r.verdict
        );
    }
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    let verdicts = [
        "same",
        "better",
        "worse",
        "unresolved",
        "changed",
        "differs",
        "info",
    ];
    let summary: Vec<String> = verdicts
        .iter()
        .map(|v| format!("{v} {}", count(v)))
        .collect();
    println!("summary: {}", summary.join(", "));
    count("worse") == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let host = find("sim_req_per_s").unwrap(); // higher is better, bound 0.20
        assert_eq!(verdict(host, &[100.0], &[95.0]), "same");
        assert_eq!(verdict(host, &[100.0], &[70.0]), "worse");
        assert_eq!(verdict(host, &[100.0], &[130.0]), "better");
        assert_eq!(verdict(host, &[100.0, 60.0], &[90.0]), "unresolved");
        assert_eq!(verdict(host, &[60.0, 100.0], &[130.0, 150.0]), "better");
        let sim = find("ttft_p90_s").unwrap(); // lower is better
        assert_eq!(verdict(sim, &[1.0, 1.0], &[1.0]), "same");
        assert_eq!(verdict(sim, &[1.0], &[1.0 + 1e-12]), "changed");
        assert_eq!(verdict(sim, &[1.0], &[2.0]), "worse");
        let counter = find("simnet.flows_started").unwrap();
        assert_eq!(verdict(counter, &[7.0], &[7.0]), "same");
        assert_eq!(verdict(counter, &[7.0], &[8.0]), "differs");
    }
}
