//! The workspace clippy table is written three times: the root
//! `[workspace.lints.clippy]`, and the `[lints.clippy]` tables of obs
//! and serve, which cannot inherit because they re-allow `unsafe_code`
//! at one audited site each. Clippy is the only owner of panic-freedom,
//! so a deny added to one copy and forgotten in another would silently
//! exempt a crate. These tests keep the copies equal and every crate on
//! one of them.

#![allow(clippy::expect_used, clippy::panic)] // test code: panics are failures

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn manifest(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The entries of table `header` (e.g. `[lints.clippy]`), comments and
/// blank lines dropped, in file order. `None` when the table is absent.
fn table(toml: &str, header: &str) -> Option<Vec<String>> {
    let mut lines = toml.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_owned)
            .collect(),
    )
}

#[test]
fn the_three_clippy_tables_are_identical() {
    let root = table(&manifest("Cargo.toml"), "[workspace.lints.clippy]")
        .expect("root manifest has [workspace.lints.clippy]");
    for must in [
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
    ] {
        assert!(
            root.iter()
                .any(|l| l.starts_with(&format!("{must} = \"deny\""))),
            "root clippy table lost `{must} = \"deny\"`: {root:?}"
        );
    }
    for rel in ["crates/obs/Cargo.toml", "crates/serve/Cargo.toml"] {
        let local = table(&manifest(rel), "[lints.clippy]")
            .unwrap_or_else(|| panic!("{rel} has no [lints.clippy]"));
        assert_eq!(local, root, "{rel} drifted from the workspace table");
    }
}

#[test]
fn every_crate_inherits_or_carries_the_table() {
    let root = table(&manifest("Cargo.toml"), "[workspace.lints.clippy]")
        .expect("root manifest has [workspace.lints.clippy]");
    let mut crates: Vec<PathBuf> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "{crates:?}");
    for path in crates {
        let toml = std::fs::read_to_string(&path).expect("read manifest");
        let inherits = table(&toml, "[lints]").is_some_and(|t| t == ["workspace = true"]);
        let carries = table(&toml, "[lints.clippy]").as_ref() == Some(&root);
        assert!(
            inherits || carries,
            "{} neither inherits the workspace lints nor carries the clippy table",
            path.display()
        );
    }
}
