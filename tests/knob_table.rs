//! The "Environment variables" table in docs/OPERATIONS.md is the
//! authoritative list of knobs. Every variable the code names as a string
//! literal (the crates' `src` and `benches`, the root `src` and `examples`)
//! has a row there, and every row names a variable the code reads.

use std::collections::BTreeSet;
use std::path::Path;

const OPERATIONS: &str = include_str!("../docs/OPERATIONS.md");

/// The variable column of the table.
fn documented() -> BTreeSet<String> {
    let section = OPERATIONS.split("## Environment variables").nth(1).expect("the section exists");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_owned)
        .collect()
}

/// Every string literal that is exactly a `DMML_[A-Z0-9_]+` name, in the
/// `.rs` files under `dir`.
fn literals(dir: &Path, out: &mut BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() {
            literals(&path, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (at, _) in text.match_indices("\"DMML_") {
            let name: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if text[at + 1 + name.len()..].starts_with('"') {
                out.insert(name);
            }
        }
    }
}

#[test]
fn the_knob_table_lists_exactly_the_variables_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut code = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        literals(&krate.join("src"), &mut code);
        literals(&krate.join("benches"), &mut code);
    }
    literals(&root.join("src"), &mut code);
    literals(&root.join("examples"), &mut code);
    let docs = documented();
    assert!(code.len() > 10 && docs.len() > 10, "scan found too little: {code:?} / {docs:?}");
    let undocumented: Vec<_> = code.difference(&docs).collect();
    let unread: Vec<_> = docs.difference(&code).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "read but not in docs/OPERATIONS.md: {undocumented:?}; documented but never read: {unread:?}"
    );
}
