//! The Fig. 1 and Fig. 2 numbers EXPERIMENTS.md quotes are the committed
//! results, at the precision printed.
//!
//! Rows are found by their first cell. Every number in a row's measured
//! cells is recomputed from `results/fig1_prefill_breakdown.json` or
//! `results/fig2_hetero_vs_homo.json` and formatted with the decimals the
//! document prints; the paper thresholds a verdict cites must be the
//! results file's `paper_claim`s.

use hs_bench::report::workspace_root;
use serde_json::Value;
use std::fs;

/// Fig. 2's aggregation size, bytes: the 1 MB example the table quotes.
const FIG2_BYTES: u64 = 1_000_000;

fn experiments() -> String {
    fs::read_to_string(workspace_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md reads")
}

fn results(name: &str) -> Vec<Value> {
    let path = workspace_root().join("results").join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let rows = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    rows.as_array().expect("a results file is an array").clone()
}

/// The cells after the label of the one table row labelled `label`.
fn row(doc: &str, label: &str) -> Vec<String> {
    let prefix = format!("| {label} |");
    let rows: Vec<&str> = doc.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert_eq!(rows.len(), 1, "rows labelled {label:?}: {rows:?}");
    let cells = rows[0][prefix.len()..].trim_end().trim_end_matches('|');
    cells.split('|').map(|c| c.trim().to_string()).collect()
}

/// The numbers in `cell`, in order, as printed: sign included (`−` or
/// `-`), with their count of decimals. Digits inside a word (the 100 of
/// "A100") are not numbers.
fn numbers(cell: &str) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    let chars: Vec<char> = cell.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if !chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let in_word = i > 0 && chars[i - 1].is_alphabetic();
        let negative = i > 0 && matches!(chars[i - 1], '−' | '-');
        let start = i;
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
            i += 1;
        }
        if in_word {
            continue;
        }
        let text: String = chars[start..i].iter().collect();
        let decimals = text.split_once('.').map_or(0, |(_, d)| d.len());
        let v: f64 = text.parse().expect("a number");
        out.push((if negative { -v } else { v }, decimals));
    }
    out
}

/// Assert `cell` quotes exactly `want`, each at its printed precision.
fn quotes(cell: &str, want: &[f64]) {
    let got = numbers(cell);
    assert_eq!(
        got.len(),
        want.len(),
        "{cell:?} quotes {got:?}, want {want:?}"
    );
    for (&(printed, decimals), &value) in got.iter().zip(want) {
        assert_eq!(
            format!("{printed:.decimals$}"),
            format!("{value:.decimals$}"),
            "{cell:?}: {printed} is not {value} at {decimals} decimals"
        );
    }
}

/// The results row whose `key` is `value`.
fn find<'a>(rows: &'a [Value], key: &str, value: &str) -> &'a Value {
    rows.iter()
        .find(|r| r.get(key).and_then(Value::as_str) == Some(value))
        .unwrap_or_else(|| panic!("no results row with {key} = {value:?}"))
}

fn num(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

/// Fig. 1: a setup's communication share, percent, and the paper's
/// threshold for it, if it states one.
fn fig1(rows: &[Value], setup: &str) -> (f64, Option<f64>) {
    let r = find(rows, "setup", setup);
    let claim = r
        .get("paper_claim")
        .and_then(Value::as_str)
        .expect("a claim");
    let threshold = claim.starts_with('>').then(|| numbers(claim)[0].0);
    (100.0 * num(r, "comm_share"), threshold)
}

#[test]
fn fig1_rows_and_verdict_quote_the_results() {
    let doc = experiments();
    let rows = results("fig1_prefill_breakdown.json");
    let (l40, l40_claim) = fig1(&rows, "L40 FP16/FP16 (Ethernet TP=4)");
    let (a100, a100_claim) = fig1(&rows, "A100 FP16/FP16 (Ethernet TP=4)");
    let (nvlink, _) = fig1(&rows, "A100 FP16/FP16 (NVLink TP=4)");
    let (l40_claim, a100_claim) = (l40_claim.unwrap(), a100_claim.unwrap());

    for (label, share, claim) in [
        ("L40, Ethernet TP=4", l40, Some(l40_claim)),
        ("A100, Ethernet TP=4", a100, Some(a100_claim)),
        ("A100, NVLink TP=4 (contrast)", nvlink, None),
    ] {
        let cells = row(&doc, label);
        quotes(&cells[0], claim.as_slice());
        quotes(&cells[1], &[share]);
    }

    let verdict = &row(&doc, "Fig. 1 comm-share breakdown")[0];
    quotes(verdict, &[a100, a100_claim, l40, l40_claim]);
    let both_above = l40 > l40_claim && a100 > a100_claim;
    assert_eq!(
        verdict.starts_with("yes"),
        both_above,
        "{verdict:?}: L40 {l40:.1} % vs > {l40_claim} %, A100 {a100:.1} % vs > {a100_claim} %"
    );
}

#[test]
fn fig2_rows_and_verdict_quote_the_results() {
    let doc = experiments();
    let rows = results("fig2_hetero_vs_homo.json");
    let at = |scheme: &str| {
        let r = rows
            .iter()
            .find(|r| {
                r.get("scheme").and_then(Value::as_str) == Some(scheme)
                    && r.get("bytes").and_then(Value::as_u64) == Some(FIG2_BYTES)
            })
            .unwrap_or_else(|| panic!("no {scheme} row at {FIG2_BYTES} bytes"));
        (num(r, "closed_form_us"), num(r, "executed_us"))
    };
    let (homo_closed, homo_exec) = at("homogeneous");
    let (het_closed, het_exec) = at("heterogeneous");
    let cut = |het: f64, homo: f64| -100.0 * (1.0 - het / homo);
    let (cut_closed, cut_exec) = (cut(het_closed, homo_closed), cut(het_exec, homo_exec));

    let homo = row(&doc, "homogeneous INA @ core");
    quotes(&homo[1], &[homo_closed]);
    quotes(&homo[2], &[homo_exec]);
    let het = row(&doc, "heterogeneous INA @ access");
    quotes(&het[1], &[het_closed, cut_closed]);
    quotes(&het[2], &[het_exec, cut_exec]);

    let verdict = &row(&doc, "Fig. 2 heterogeneous INA −43 %")[0];
    quotes(verdict, &[cut_closed, cut_exec]);
}
