//! The workspace builds from a clean checkout with no network and an empty
//! Cargo registry: every dependency of every workspace manifest is a path
//! dependency, directly or through `workspace = true`, and the committed
//! lockfile names no package outside the workspace. A bare `cargo test`
//! covers the whole workspace, not just the root package.
//!
//! Manifests are read line by line (section headers and `key = value`
//! lines), which covers the inline-table style this workspace uses.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest followed by every `crates/*/Cargo.toml`.
fn manifests() -> Vec<PathBuf> {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("readable dir entry").path().join("Cargo.toml"))
        .filter(|path| path.is_file())
        .collect();
    crates.sort();
    let mut all = vec![root().join("Cargo.toml")];
    all.extend(crates);
    all
}

/// Every `(section, key, value)` of a manifest, comments stripped. A
/// section header alone yields `(section, "", "")`.
fn key_values(text: &str) -> Vec<(String, String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(|c| c == '[' || c == ']').to_owned();
            out.push((section.clone(), String::new(), String::new()));
        } else if let Some((key, value)) = line.split_once('=') {
            let (key, value) = (key.trim().to_owned(), value.trim().to_owned());
            out.push((section.clone(), key, value));
        }
    }
    out
}

/// Why a dependency entry is not a path dependency, if it is not one.
/// `workspace` maps the root's `[workspace.dependencies]` to their values.
fn non_path(
    section: &str,
    key: &str,
    value: &str,
    workspace: &BTreeMap<String, String>,
) -> Option<String> {
    let is_path = |v: &str| v.starts_with('{') && v.contains("path =");
    if section.contains("dependencies.") {
        return key
            .is_empty()
            .then(|| format!("[{section}]: use an inline table"));
    }
    if !section.ends_with("dependencies") || key.is_empty() {
        return None;
    }
    let name = key.trim_end_matches(".workspace");
    let inherited = (name != key && value == "true") || value.contains("workspace = true");
    let ok = if inherited {
        workspace.get(name).is_some_and(|v| is_path(v))
    } else {
        is_path(value)
    };
    (!ok).then(|| format!("[{section}] {key} = {value}"))
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let root_text = std::fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let workspace: BTreeMap<String, String> = key_values(&root_text)
        .into_iter()
        .filter(|(section, key, _)| section == "workspace.dependencies" && !key.is_empty())
        .map(|(_, key, value)| (key, value))
        .collect();
    assert!(workspace.len() > 5, "no [workspace.dependencies] found");
    let mut offenders = Vec::new();
    for manifest in manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        for (section, key, value) in key_values(&text) {
            if let Some(why) = non_path(&section, &key, &value, &workspace) {
                let rel = manifest.strip_prefix(root()).unwrap();
                offenders.push(format!("{}: {why}", rel.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "non-path dependencies:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn default_members_cover_the_root_and_every_crate() {
    let root_text = std::fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let members = key_values(&root_text)
        .into_iter()
        .find(|(section, key, _)| section == "workspace" && key == "default-members")
        .map(|(_, _, value)| value)
        .expect("[workspace] sets default-members");
    for entry in ["\".\"", "\"crates/*\""] {
        assert!(
            members.contains(entry),
            "default-members = {members} lacks {entry}"
        );
    }
}

#[test]
fn checker_rejects_registry_entries() {
    let workspace = BTreeMap::from([
        ("local".to_owned(), "{ path = \"crates/local\" }".to_owned()),
        ("remote".to_owned(), "\"1\"".to_owned()),
    ]);
    let manifest = "[dependencies]\nfoo = { path = \"../foo\" }\nlocal = { workspace = true }\n\
                    bar = \"1\" # comment\nremote.workspace = true\n[dev-dependencies.baz]\n\
                    version = \"1\"\n[package]\nname = \"x\"\n";
    let flagged: Vec<String> = key_values(manifest)
        .iter()
        .filter_map(|(s, k, v)| non_path(s, k, v, &workspace))
        .collect();
    assert_eq!(
        flagged,
        [
            "[dependencies] bar = \"1\"",
            "[dependencies] remote.workspace = true",
            "[dev-dependencies.baz]: use an inline table",
        ]
    );
}

#[test]
fn lockfile_names_only_workspace_packages() {
    let members: BTreeSet<String> = manifests()
        .iter()
        .flat_map(|m| key_values(&std::fs::read_to_string(m).unwrap()))
        .filter(|(section, key, _)| section == "package" && key == "name")
        .map(|(_, _, value)| value.trim_matches('"').to_owned())
        .collect();
    assert!(
        members.len() > 10,
        "only {} workspace packages",
        members.len()
    );
    let lock = std::fs::read_to_string(root().join("Cargo.lock")).expect("committed Cargo.lock");
    let locked: BTreeSet<String> = lock
        .lines()
        .filter_map(|line| line.strip_prefix("name = "))
        .map(|name| name.trim_matches('"').to_owned())
        .collect();
    assert_eq!(
        locked, members,
        "Cargo.lock must list exactly the workspace"
    );
    assert!(
        !lock.contains("source ="),
        "Cargo.lock names a registry source"
    );
}
