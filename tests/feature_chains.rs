//! The `invariants` feature is forwarded by hand through every manifest:
//! a crate that depends on a workspace crate declaring it must declare it
//! too and forward `dep/invariants`, or enabling the feature at the top
//! silently skips part of the stack. rustc's `unexpected_cfgs` covers the
//! other half (a `cfg(feature = ...)` naming an undeclared feature).

use std::collections::BTreeMap;
use std::path::Path;

const FORWARDED: [&str; 1] = ["invariants"];

/// The slice of a manifest the check needs.
#[derive(Default)]
struct Manifest {
    name: String,
    dependencies: Vec<String>,
    features: BTreeMap<String, Vec<String>>,
}

/// Reads the TOML subset the workspace manifests use: section headers,
/// `key = ...` lines, dotted keys and (multiline) string arrays.
fn parse(text: &str) -> Manifest {
    let mut manifest = Manifest::default();
    let mut section = String::new();
    let mut open_feature: Option<String> = None;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(feature) = &open_feature {
            let entry = manifest.features.entry(feature.clone()).or_default();
            entry.extend(quoted(line));
            if line.contains(']') {
                open_feature = None;
            }
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section.as_str() {
            "package" if key == "name" => manifest.name = quoted(value).concat(),
            "dependencies" => {
                let dep = key.split('.').next().unwrap_or(key);
                manifest.dependencies.push(dep.to_string());
            }
            "features" => {
                manifest.features.insert(key.to_string(), quoted(value));
                if !value.contains(']') {
                    open_feature = Some(key.to_string());
                }
            }
            _ => {}
        }
    }
    manifest
}

/// Every double-quoted string on a line.
fn quoted(text: &str) -> Vec<String> {
    text.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn forwarded_features_reach_every_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        paths.push(entry.unwrap().path().join("Cargo.toml"));
    }
    let manifests: Vec<Manifest> = paths
        .iter()
        .map(|path| parse(&std::fs::read_to_string(path).unwrap()))
        .collect();
    let by_name: BTreeMap<&str, &Manifest> =
        manifests.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut checked = 0;
    let mut broken = Vec::new();
    for manifest in &manifests {
        for dep in &manifest.dependencies {
            let Some(target) = by_name.get(dep.as_str()) else {
                continue;
            };
            for feature in FORWARDED
                .iter()
                .filter(|f| target.features.contains_key(**f))
            {
                checked += 1;
                let forward = format!("{dep}/{feature}");
                let forwarded = manifest
                    .features
                    .get(*feature)
                    .is_some_and(|enables| enables.contains(&forward));
                if !forwarded {
                    broken.push(format!(
                        "{}: feature `{feature}` lacks \"{forward}\"",
                        manifest.name
                    ));
                }
            }
        }
    }
    // Guards against a parser that silently finds nothing to check.
    assert!(checked > 50, "only {checked} forwarding edges found");
    assert!(
        broken.is_empty(),
        "stale feature chains:\n{}",
        broken.join("\n")
    );
}
