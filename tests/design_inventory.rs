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

#[test]
fn names_in_parentheses_are_description() {
    assert_eq!(
        top_level_names("`a` (x `b` (`c`)), `d` / `e` (`f(g)`); `h`"),
        vec!["a", "d", "e", "h"]
    );
}
