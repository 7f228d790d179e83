//! DESIGN.md names files; this keeps the names true as files move.

use std::path::Path;

const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "scripts/"];

/// `path` exists under `root`; a `*` in its last component stands for
/// any run of characters and must match at least one entry.
fn exists(root: &Path, path: &str) -> bool {
    let globbed = path.rsplit_once('/').and_then(|(dir, last)| {
        let (prefix, suffix) = last.split_once('*')?;
        Some((dir, prefix, suffix))
    });
    let Some((dir, prefix, suffix)) = globbed else {
        return root.join(path).exists();
    };
    std::fs::read_dir(root.join(dir)).is_ok_and(|entries| {
        entries.flatten().any(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        })
    })
}

/// Every `crates/…`, `tests/…`, `examples/…` and `scripts/…` path that
/// DESIGN.md puts in backticks exists (an `::item` suffix names something
/// inside the file and is not checked).
#[test]
fn every_path_design_md_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md at the root");
    // Splitting on backticks leaves the code spans at the odd positions;
    // a fenced block lands there too and is skipped for its whitespace.
    let named: Vec<&str> = design
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split("::").next().unwrap_or(span))
        .filter(|path| ROOTS.iter().any(|r| path.starts_with(r)))
        .filter(|path| !path.contains(char::is_whitespace))
        .collect();
    assert!(
        named.len() > 20,
        "found only {named:?}: did the format change?"
    );
    let missing: Vec<&str> = named.into_iter().filter(|p| !exists(root, p)).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md names paths that do not exist: {missing:?}"
    );
}
