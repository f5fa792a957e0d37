//! DESIGN.md §3's crate table matches the tree, and §4 cites only it.
//!
//! Each §3 row's third column names the crate's `src/` modules in
//! backticks; backticked text inside parentheses is description, not a
//! module. The test fails when a named module has no `src/<name>.rs`,
//! when a crate's `src/*.rs` module (other than `lib.rs` and `main.rs`)
//! is not named in its row, or when a crate under `crates/` has no row.
//!
//! §4's "Modules exercised" column names crates by package name, alone
//! or as `crate::module` (`crate::a/b` for two modules; anything after a
//! second `::` is an item inside the module). Every crate and module it
//! names must be one that §3 lists.
//!
//! Every `--bench <name>` DESIGN.md runs is a `[[bench]]` of `hs-bench`,
//! and every `[[bench]]` is named in DESIGN.md. DESIGN.md cites no
//! commit id: per-PR history lives in CHANGES.md.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Backticked spans of `cell` that sit outside parentheses.
fn top_level_names(cell: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut depth = 0u32;
    let mut rest = cell;
    while let Some(c) = rest.chars().next() {
        match c {
            '`' => {
                let len = rest[1..]
                    .find('`')
                    .unwrap_or_else(|| panic!("unclosed backtick in {cell:?}"));
                if depth == 0 {
                    names.push(&rest[1..1 + len]);
                }
                rest = &rest[len + 2..];
                continue;
            }
            '(' => depth += 1,
            ')' => depth = depth.checked_sub(1).expect("balanced parentheses"),
            _ => {}
        }
        rest = &rest[c.len_utf8()..];
    }
    names
}

/// The cells of `section`'s table rows that start with `prefix`, each
/// row checked to have `width` cells.
fn table_rows<'a>(section: &'a str, prefix: &str, width: usize) -> Vec<Vec<&'a str>> {
    section
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|row| {
            let cells: Vec<&str> = row.trim_matches('|').split('|').collect();
            assert_eq!(cells.len(), width, "{width} cells in {row:?}");
            cells
        })
        .collect()
}

/// DESIGN.md's section `n`.
fn section(design: &str, n: u32) -> &str {
    design
        .split("\n## ")
        .find(|s| s.starts_with(&format!("{n}. ")))
        .unwrap_or_else(|| panic!("DESIGN.md has a §{n}"))
}

/// `(crate dir, named modules)` for every row of §3's table.
fn crate_table(design: &str) -> Vec<(String, Vec<String>)> {
    table_rows(section(design, 3), "| `crates/", 3)
        .into_iter()
        .map(|cells| {
            let dir = top_level_names(cells[0])[0].to_string();
            let modules = top_level_names(cells[2])
                .into_iter()
                .map(str::to_string)
                .collect();
            (dir, modules)
        })
        .collect()
}

/// The package name in `dir/Cargo.toml`.
fn package_name(dir: &Path) -> String {
    let manifest = fs::read_to_string(dir.join("Cargo.toml"))
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = "))
        .map(|name| name.trim_matches('"').to_string())
        .unwrap_or_else(|| panic!("{}: no package name", dir.display()))
}

/// Module names of `dir/src/*.rs`, less `lib` and `main`.
fn source_modules(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir.join("src"))
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            p.file_stem()
                .expect("file stem")
                .to_string_lossy()
                .into_owned()
        })
        .filter(|m| m != "lib" && m != "main")
        .collect()
}

#[test]
fn crate_table_names_every_module_and_only_those() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let table = crate_table(&design);
    assert!(!table.is_empty(), "no crate rows found in DESIGN.md §3");
    let mut problems = Vec::new();
    for (dir, modules) in &table {
        let crate_dir = root.join(dir);
        for m in modules {
            if !crate_dir.join("src").join(format!("{m}.rs")).is_file() {
                problems.push(format!("{dir}: `{m}` has no src/{m}.rs"));
            }
        }
        for m in source_modules(&crate_dir) {
            if !modules.contains(&m) {
                problems.push(format!("{dir}: src/{m}.rs is not in the table"));
            }
        }
    }
    let rows: BTreeSet<&str> = table.iter().map(|(dir, _)| dir.as_str()).collect();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let path = entry.expect("directory entry").path();
        let dir = format!(
            "crates/{}",
            path.file_name().expect("name").to_string_lossy()
        );
        if path.join("Cargo.toml").is_file() && !rows.contains(dir.as_str()) {
            problems.push(format!("{dir} has no row"));
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md §3 drifted:\n{}",
        problems.join("\n")
    );
}

#[test]
fn experiment_index_names_only_listed_modules() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let listed: BTreeMap<String, Vec<String>> = crate_table(&design)
        .into_iter()
        .map(|(dir, modules)| (package_name(&root.join(dir)), modules))
        .collect();
    let rows = table_rows(section(&design, 4), "| **", 5);
    assert!(!rows.is_empty(), "no experiment rows found in DESIGN.md §4");
    let mut problems = Vec::new();
    for cells in rows {
        let exp = cells[0].trim();
        for name in top_level_names(cells[3]) {
            let (krate, path) = name.split_once("::").unwrap_or((name, ""));
            let Some(modules) = listed.get(krate) else {
                problems.push(format!("{exp}: `{name}` names no §3 crate"));
                continue;
            };
            let first = path.split("::").next().unwrap_or_default();
            for m in first.split('/').filter(|m| !m.is_empty()) {
                if !modules.iter().any(|listed| listed == m) {
                    problems.push(format!("{exp}: `{name}`: {krate} lists no `{m}`"));
                }
            }
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md §4 cites modules §3 does not list:\n{}",
        problems.join("\n")
    );
}

/// The `[[bench]]` target names in `crates/bench/Cargo.toml`.
fn bench_targets(root: &Path) -> BTreeSet<String> {
    let manifest =
        fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("read hs-bench manifest");
    let mut lines = manifest.lines();
    let mut names = BTreeSet::new();
    while let Some(line) = lines.next() {
        if line.trim() == "[[bench]]" {
            let name = lines
                .next()
                .and_then(|l| l.strip_prefix("name = "))
                .unwrap_or_else(|| panic!("a [[bench]] whose next line is not its name"));
            names.insert(name.trim_matches('"').to_string());
        }
    }
    names
}

/// Identifier-like words of `text`: maximal runs of ASCII letters,
/// digits and underscores.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

#[test]
fn design_names_exactly_the_bench_targets() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let targets = bench_targets(&root);
    assert!(
        !targets.is_empty(),
        "no [[bench]] in crates/bench/Cargo.toml"
    );
    let run: BTreeSet<&str> = design
        .split("--bench ")
        .skip(1)
        .filter_map(|rest| words(rest).next())
        .collect();
    let named: BTreeSet<&str> = words(&design).collect();
    let mut problems = Vec::new();
    for name in &run {
        if !targets.contains(*name) {
            problems.push(format!(
                "DESIGN.md runs `--bench {name}`, which is no [[bench]]"
            ));
        }
    }
    for name in &targets {
        if !named.contains(name.as_str()) {
            problems.push(format!("[[bench]] `{name}` is not named in DESIGN.md"));
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md and crates/bench/Cargo.toml disagree:\n{}",
        problems.join("\n")
    );
}

/// A word of 7 to 12 lowercase hex digits with at least one digit and
/// one letter: the shape of an abbreviated commit id.
fn looks_like_commit_id(word: &str) -> bool {
    (7..=12).contains(&word.len())
        && word.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        && word.bytes().any(|b| b.is_ascii_digit())
        && word.bytes().any(|b| b.is_ascii_alphabetic())
}

#[test]
fn design_cites_no_commit_ids() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let ids: Vec<&str> = words(&design).filter(|w| looks_like_commit_id(w)).collect();
    assert!(
        ids.is_empty(),
        "DESIGN.md cites commit ids {ids:?}; per-PR history belongs in CHANGES.md"
    );
}

#[test]
fn commit_id_shape() {
    assert!(looks_like_commit_id("c2e5f8a"));
    assert!(looks_like_commit_id("9ba5771"));
    // Fingerprints are 16 digits; words need a digit and a letter.
    assert!(!looks_like_commit_id("f062cba5105dce1c"));
    assert!(!looks_like_commit_id("1234567"));
    assert!(!looks_like_commit_id("deadbeef"));
    assert!(!looks_like_commit_id("C2E5F8A"));
    assert_eq!(
        words("(`a_b`, c2e5f8a)").collect::<Vec<_>>(),
        ["a_b", "c2e5f8a"]
    );
}

#[test]
fn names_in_parentheses_are_description() {
    assert_eq!(
        top_level_names("`a` (x `b` (`c`)), `d` / `e` (`f(g)`); `h`"),
        vec!["a", "d", "e", "h"]
    );
}
