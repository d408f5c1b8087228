//! simlint — workspace-native determinism and invariant lints.
//!
//! The reproduction's headline guarantee is bit-identical results at every
//! worker count; one stray `HashMap` iteration, wall-clock read, or unseeded
//! RNG in a hot path silently breaks that. `simlint` is a dependency-free
//! analysis engine over a hand-rolled Rust lexer ([`lexer`]) and item-level
//! parser ([`parse`]): comments/strings/char literals are handled exactly,
//! and on top of the per-line D/R/Doc rules the engine enforces item rules —
//! unsafe audit (`U1`/`U2`), feature consistency (`F1`), and
//! dead-suppression detection (`A1`) — with `file:line` diagnostics, rule
//! IDs, severity levels, and `// simlint::allow(rule-id)` suppressions.
//!
//! The rule set lives in [`rules::Rule`]; which rules apply to which crate —
//! plus where `unsafe` may live — is resolved once per crate by
//! [`policy::policy_for_crate`]. Vendored shims (`proptest`, `criterion`)
//! and simlint itself are exempt.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod policy;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub use parse::CfgView;
pub use rules::{Rule, Severity};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of linting one source file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings that were not suppressed.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings silenced by `simlint::allow` comments.
    pub suppressed: usize,
}

/// The outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All unsuppressed findings, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Total suppressions honored across all files.
    pub suppressed: usize,
}

impl Report {
    /// Counts findings at the given effective severity.
    pub fn count_at(&self, severity: Severity, deny_warnings: bool) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| effective_severity(d.rule, deny_warnings) == severity)
            .count()
    }

    /// Finding counts per rule, in [`Rule::ALL`] order, zero counts
    /// omitted.
    pub fn per_rule_counts(&self) -> Vec<(Rule, usize)> {
        Rule::ALL
            .iter()
            .filter_map(|&rule| {
                let n = self.diagnostics.iter().filter(|d| d.rule == rule).count();
                (n > 0).then_some((rule, n))
            })
            .collect()
    }
}

/// A rule's severity after any `--deny-warnings` promotion.
pub fn effective_severity(rule: Rule, deny_warnings: bool) -> Severity {
    if deny_warnings {
        Severity::Deny
    } else {
        rule.default_severity()
    }
}

/// Which rules apply to a crate directory under `crates/` (the rule-set
/// slice of [`policy::policy_for_crate`], kept as a convenience).
pub fn rules_for_crate(dir_name: &str) -> &'static [Rule] {
    policy::policy_for_crate(dir_name).rules
}

/// Per-file exemptions that are part of the policy rather than inline
/// suppressions.
///
/// The vendored PRNG is the one place allowed to talk about RNG seeding
/// machinery — it *is* the seeded PRNG the rest of the workspace must use.
pub fn file_exempt(crate_name: &str, rel_path: &str, rule: Rule) -> bool {
    crate_name == "sim-core" && rel_path.ends_with("rng.rs") && rule == Rule::D3
}

/// Options controlling a single-source lint (what [`lint_workspace`]
/// derives from crate policy and manifests, spelled out for fixtures).
#[derive(Debug, Default)]
pub struct LintOptions {
    /// The cfg view (enabled features) to analyze under.
    pub view: CfgView,
    /// Whether `unsafe` is allowlisted for this file. Defaults to `true`
    /// so `U2` stays quiet unless a caller states a policy.
    pub unsafe_allowed: bool,
    /// Declared Cargo features, enabling the `F1` undeclared-cfg check
    /// when `Some`.
    pub declared_features: Option<BTreeSet<String>>,
}

impl LintOptions {
    /// Options with `unsafe` allowed and no item-rule context.
    pub fn permissive() -> Self {
        LintOptions {
            unsafe_allowed: true,
            ..LintOptions::default()
        }
    }
}

/// Extracts every rule named by `simlint::allow(...)` in a comment.
fn parse_allows(comment: &str) -> Vec<Rule> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("simlint::allow(") {
        let args = &rest[pos + "simlint::allow(".len()..];
        if let Some(close) = args.find(')') {
            for id in args[..close].split(',') {
                if let Some(rule) = Rule::parse(id) {
                    allows.push(rule);
                }
            }
            rest = &args[close + 1..];
        } else {
            break;
        }
    }
    allows
}

/// A raw finding before suppression is applied.
#[derive(Debug)]
struct RawFinding {
    line: usize,
    rule: Rule,
    message: String,
}

/// One `simlint::allow(rule)` occurrence, bound to the line it governs.
#[derive(Debug)]
struct AllowSite {
    /// Line the comment itself is on.
    decl_line: usize,
    /// Code line the suppression governs (`None` if the comment trails
    /// the file and never binds).
    bound_line: Option<usize>,
    rule: Rule,
    used: bool,
}

/// Everything extracted from one file; the crate-level rule `A1` and
/// suppression resolution run over these in [`finish_files`].
#[derive(Debug)]
struct FileAnalysis {
    path: PathBuf,
    label: String,
    enabled: Vec<Rule>,
    findings: Vec<RawFinding>,
    allows: Vec<AllowSite>,
    masked: Vec<bool>,
    syntax: parse::FileSyntax,
}

/// Runs the per-file passes: line rules, unsafe audit, cfg-feature refs.
fn analyze_file(
    path: PathBuf,
    label: String,
    source: &str,
    enabled: &[Rule],
    view: &CfgView,
    unsafe_allowed: bool,
    declared_features: Option<&BTreeSet<String>>,
) -> FileAnalysis {
    let lines = scan::clean_source(source);
    let syntax = parse::parse(source, view);
    let masked = syntax.masked_lines(lines.len());
    let mut findings = Vec::new();

    // Line rules (D1–D4, R1, R2, Doc1) over cleaned code, skipping lines
    // masked out by the cfg view (test modules, disabled features).
    let mut has_doc = false;
    let mut attr_depth: i64 = 0;
    for (idx, cl) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code_t = cl.code.trim();
        if code_t.is_empty() {
            if cl.doc {
                has_doc = true;
            }
            continue;
        }
        let is_attr = attr_depth > 0 || code_t.starts_with("#[") || code_t.starts_with("#![");
        if is_attr {
            for c in cl.code.chars() {
                match c {
                    '[' => attr_depth += 1,
                    ']' => attr_depth = (attr_depth - 1).max(0),
                    _ => {}
                }
            }
        }
        if !is_attr && !masked.get(idx).copied().unwrap_or(false) {
            for (rule, message) in rules::check_line(&cl.code, enabled, has_doc) {
                findings.push(RawFinding {
                    line: line_no,
                    rule,
                    message,
                });
            }
        }
        // Doc adjacency: attributes between the doc comment and the item
        // keep it attached; any other code line consumes it.
        if !is_attr {
            has_doc = false;
        }
    }

    // Suppression sites: same-line allows bind to their own line;
    // comment-only allows bind to the next code line.
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut pending: Vec<(usize, Rule)> = Vec::new();
    for (idx, cl) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let here = parse_allows(&cl.comment);
        if cl.code.trim().is_empty() {
            pending.extend(here.into_iter().map(|r| (line_no, r)));
        } else {
            for rule in here {
                allows.push(AllowSite {
                    decl_line: line_no,
                    bound_line: Some(line_no),
                    rule,
                    used: false,
                });
            }
            for (decl_line, rule) in pending.drain(..) {
                allows.push(AllowSite {
                    decl_line,
                    bound_line: Some(line_no),
                    rule,
                    used: false,
                });
            }
        }
    }
    for (decl_line, rule) in pending {
        allows.push(AllowSite {
            decl_line,
            bound_line: None,
            rule,
            used: false,
        });
    }

    // U1/U2: unsafe audit. The parser never descends into cfg-disabled
    // items, so every recorded site is live under this view.
    if enabled.contains(&Rule::U1) {
        for site in &syntax.unsafe_sites {
            if !site.has_safety {
                findings.push(RawFinding {
                    line: site.line,
                    rule: Rule::U1,
                    message: "unsafe without an adjacent `// SAFETY:` comment (or a `# Safety` \
                              doc section)"
                        .to_string(),
                });
            }
        }
    }
    if enabled.contains(&Rule::U2) && !unsafe_allowed {
        for site in &syntax.unsafe_sites {
            findings.push(RawFinding {
                line: site.line,
                rule: Rule::U2,
                message: "unsafe outside the per-crate allowlist (policy permits unsafe in \
                          thermal/src/simd.rs only)"
                    .to_string(),
            });
        }
    }

    // F1 (per-file half): every cfg(feature = "...") must name a declared
    // feature. Masking is irrelevant here — the compiler evaluates the
    // attribute text under every view.
    if enabled.contains(&Rule::F1) {
        if let Some(declared) = declared_features {
            let mut seen = BTreeSet::new();
            for r in &syntax.cfg_refs {
                if !declared.contains(&r.feature) && seen.insert((r.line, r.feature.clone())) {
                    findings.push(RawFinding {
                        line: r.line,
                        rule: Rule::F1,
                        message: format!(
                            "cfg(feature = \"{}\") but `{}` is not declared in this crate's \
                             Cargo.toml [features]",
                            r.feature, r.feature
                        ),
                    });
                }
            }
        }
    }

    FileAnalysis {
        path,
        label,
        enabled: enabled.to_vec(),
        findings,
        allows,
        masked,
        syntax,
    }
}

/// Applies the crate-level rule `A1` and suppression to a crate's
/// analyses.
fn finish_files(analyses: &mut [FileAnalysis]) -> (Vec<Diagnostic>, usize) {
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for a in analyses.iter_mut() {
        for finding in &a.findings {
            let site = a
                .allows
                .iter_mut()
                .find(|s| s.bound_line == Some(finding.line) && s.rule == finding.rule);
            if let Some(site) = site {
                site.used = true;
                suppressed += 1;
            } else {
                diagnostics.push(Diagnostic {
                    file: a.label.clone(),
                    line: finding.line,
                    rule: finding.rule,
                    message: finding.message.clone(),
                });
            }
        }
        // A1: a suppression whose rule no longer fires on its line is
        // itself a finding (not suppressible — fix it by deleting it).
        if a.enabled.contains(&Rule::A1) {
            for site in &a.allows {
                if site.used {
                    continue;
                }
                // A suppression bound inside a masked region cannot be
                // judged under this view; leave it alone.
                if let Some(b) = site.bound_line {
                    if a.masked.get(b - 1).copied().unwrap_or(false) {
                        continue;
                    }
                }
                diagnostics.push(Diagnostic {
                    file: a.label.clone(),
                    line: site.decl_line,
                    rule: Rule::A1,
                    message: format!(
                        "dead suppression: simlint::allow({}) but {} does not fire on the \
                         governed line; delete the comment",
                        site.rule, site.rule
                    ),
                });
            }
        }
    }
    (diagnostics, suppressed)
}

/// Lints one file's source text under the given rule set with default
/// options (permissive unsafe policy, no manifest).
///
/// `file` is the path recorded in diagnostics; it does not need to exist on
/// disk, which is what lets the self-tests lint fixture strings.
pub fn lint_source(file: &str, source: &str, enabled: &[Rule]) -> FileLint {
    lint_source_with(file, source, enabled, &LintOptions::permissive())
}

/// Lints one file's source text with explicit item-rule context.
pub fn lint_source_with(
    file: &str,
    source: &str,
    enabled: &[Rule],
    opts: &LintOptions,
) -> FileLint {
    let mut analyses = vec![analyze_file(
        PathBuf::from(file),
        file.to_string(),
        source,
        enabled,
        &opts.view,
        opts.unsafe_allowed,
        opts.declared_features.as_ref(),
    )];
    let (mut diagnostics, suppressed) = finish_files(&mut analyses);
    diagnostics.sort_by_key(|d| (d.line, d.rule));
    FileLint {
        diagnostics,
        suppressed,
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("simlint: cannot read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Relative display path (`/`-separated) of `path` under `root`.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Files excluded from this view because a cfg-disabled `mod x;` gates
/// them (e.g. `thermal/src/simd.rs` without `--features simd`).
fn excluded_mod_files(analyses: &[FileAnalysis]) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut exact = Vec::new();
    let mut prefixes = Vec::new();
    for a in analyses {
        let is_root_file = a
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| matches!(n, "lib.rs" | "main.rs" | "mod.rs"));
        let base = if is_root_file {
            a.path.parent().map(Path::to_path_buf)
        } else {
            a.path.parent().map(|p| {
                p.join(a.path.file_stem().map(|s| s.to_os_string()).unwrap_or_default())
            })
        };
        let Some(base) = base else { continue };
        for m in &a.syntax.mods {
            if m.enabled {
                continue;
            }
            exact.push(base.join(format!("{}.rs", m.name)));
            prefixes.push(base.join(&m.name));
        }
    }
    (exact, prefixes)
}

/// Analyzes one crate's `src/` tree: reads, parses, applies per-file and
/// crate-level rules, and drops files gated out by the cfg view.
fn lint_crate_sources(
    root: &Path,
    src: &Path,
    crate_label_prefix: &str,
    pol: &policy::CratePolicy,
    declared: &BTreeSet<String>,
    view: &CfgView,
    report: &mut Report,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs_files(src, &mut files)?;
    let mut analyses = Vec::new();
    for path in files {
        let label = rel_label(root, &path);
        let crate_rel = label
            .strip_prefix(crate_label_prefix)
            .unwrap_or(&label)
            .to_string();
        let per_file: Vec<Rule> = pol
            .rules
            .iter()
            .copied()
            .filter(|&r| !file_exempt(pol.name, &label, r))
            .collect();
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("simlint: cannot read {label}: {e}"))?;
        let unsafe_ok = pol.unsafe_files.contains(&crate_rel.as_str());
        analyses.push(analyze_file(
            path,
            label,
            &source,
            &per_file,
            view,
            unsafe_ok,
            Some(declared),
        ));
    }
    let (exact, prefixes) = excluded_mod_files(&analyses);
    analyses.retain(|a| {
        !exact.contains(&a.path) && !prefixes.iter().any(|p| a.path.starts_with(p))
    });
    report.files_scanned += analyses.len();
    let (diags, suppressed) = finish_files(&mut analyses);
    report.suppressed += suppressed;
    report.diagnostics.extend(diags);
    Ok(())
}

/// Workspace-level F1: a crate whose (non-dev) workspace dependency
/// declares a forwarded feature must declare that feature and forward it
/// as `"dep/feature"`.
///
/// Each entry is `(diagnostic label, parsed manifest, F1 enabled for that
/// crate)`. Public so the self-tests can exercise the forwarding check on
/// fixture manifests without a workspace on disk.
pub fn check_feature_forwarding(
    manifests: &[(String, manifest::Manifest, bool)],
    report: &mut Report,
) {
    let by_package: BTreeMap<&str, &manifest::Manifest> = manifests
        .iter()
        .map(|(_, m, _)| (m.package_name.as_str(), m))
        .collect();
    for (label, m, f1_enabled) in manifests {
        if !f1_enabled {
            continue;
        }
        for (dep, &dep_line) in &m.dependencies {
            let Some(dep_manifest) = by_package.get(dep.as_str()) else {
                continue;
            };
            for &feature in policy::FORWARDED_FEATURES {
                if !dep_manifest.features.contains_key(feature) {
                    continue;
                }
                let forward = format!("{dep}/{feature}");
                match m.features.get(feature) {
                    None => report.diagnostics.push(Diagnostic {
                        file: label.clone(),
                        line: m.features_header_line.unwrap_or(dep_line),
                        rule: Rule::F1,
                        message: format!(
                            "dependency `{dep}` declares forwarded feature `{feature}` but this \
                             crate does not re-export it (add `{feature} = [\"{forward}\"]`)"
                        ),
                    }),
                    Some(decl) if !decl.enables.iter().any(|e| e == &forward) => {
                        report.diagnostics.push(Diagnostic {
                            file: label.clone(),
                            line: decl.line,
                            rule: Rule::F1,
                            message: format!(
                                "feature `{feature}` does not forward to `{forward}`; the \
                                 hand-maintained chain is stale"
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Lints every governed source file in the workspace rooted at `root`,
/// under the default cfg view (no features enabled).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_workspace_with(root, &CfgView::default())
}

/// Lints the workspace under an explicit cfg view (`--features ...`).
///
/// Scope: `crates/*/src/**/*.rs` (per-crate policy), the facade package's
/// own `src/`, and every governed crate's `Cargo.toml` (feature
/// forwarding). Integration tests, benches, and examples are test code by
/// construction and are not scanned. Files gated out by the view (e.g.
/// `thermal/src/simd.rs` without `--features simd`) are excluded — CI runs
/// both views to cover every line.
pub fn lint_workspace_with(root: &Path, view: &CfgView) -> Result<Report, String> {
    let mut report = Report::default();
    // (workspace-relative Cargo.toml label, parsed manifest, F1 enabled)
    let mut manifests: Vec<(String, manifest::Manifest, bool)> = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("simlint: cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in crate_dirs {
        let name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let pol = policy::policy_for_crate(&name);
        if pol.rules.is_empty() {
            continue;
        }
        let manifest_path = crate_dir.join("Cargo.toml");
        let parsed = fs::read_to_string(&manifest_path)
            .ok()
            .map(|s| manifest::parse(&s));
        let declared: BTreeSet<String> = parsed
            .as_ref()
            .map(|m| m.features.keys().cloned().collect())
            .unwrap_or_default();
        if let Some(m) = parsed {
            manifests.push((
                rel_label(root, &manifest_path),
                m,
                pol.rules.contains(&Rule::F1),
            ));
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        lint_crate_sources(
            root,
            &src,
            &format!("crates/{name}/"),
            &pol,
            &declared,
            view,
            &mut report,
        )?;
    }

    // The facade package's own sources and manifest, if any.
    let facade_src = root.join("src");
    let facade_manifest = root.join("Cargo.toml");
    let facade_pol = policy::facade_policy();
    let parsed = fs::read_to_string(&facade_manifest)
        .ok()
        .map(|s| manifest::parse(&s));
    let declared: BTreeSet<String> = parsed
        .as_ref()
        .map(|m| m.features.keys().cloned().collect())
        .unwrap_or_default();
    if let Some(m) = parsed {
        manifests.push((
            rel_label(root, &facade_manifest),
            m,
            facade_pol.rules.contains(&Rule::F1),
        ));
    }
    if facade_src.is_dir() {
        lint_crate_sources(
            root,
            &facade_src,
            "src/",
            &facade_pol,
            &declared,
            view,
            &mut report,
        )?;
    }

    check_feature_forwarding(&manifests, &mut report);

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_skipped() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn violation_after_test_module_still_fires() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n\
                   fn lib() { x.unwrap(); }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 5);
    }

    #[test]
    fn same_line_suppression() {
        let src = "fn f() { x.unwrap(); } // simlint::allow(R1): infallible here\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn preceding_line_suppression() {
        let src = "// simlint::allow(D2): ordering handled by explicit sort below\n\
                   use std::collections::HashMap;\n";
        let lint = lint_source("x.rs", src, &[Rule::D2]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn suppression_does_not_leak_to_later_lines() {
        let src = "// simlint::allow(R1): first only\n\
                   fn a() { x.unwrap(); }\n\
                   fn b() { y.unwrap(); }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 3);
    }

    #[test]
    fn doc1_respects_doc_comments_and_attributes() {
        let src = "/// Documented.\n\
                   #[derive(Debug)]\n\
                   pub struct Ok1;\n\
                   pub struct Missing;\n";
        let lint = lint_source("x.rs", src, &[Rule::Doc1]);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].line, 4);
    }

    #[test]
    fn tokens_inside_strings_do_not_fire() {
        let src = "fn f() { let s = \"call .unwrap() on a HashMap\"; }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::D2]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn policy_exempts_shims() {
        assert!(rules_for_crate("proptest").is_empty());
        assert!(rules_for_crate("criterion").is_empty());
        assert!(rules_for_crate("simlint").is_empty());
        assert!(rules_for_crate("sim-core").contains(&Rule::Doc1));
        assert!(!rules_for_crate("thermal").contains(&Rule::Doc1));
    }

    #[test]
    fn r2_governs_the_supervised_crates() {
        for name in ["harness", "cli", "bench"] {
            assert!(rules_for_crate(name).contains(&Rule::R2), "{name}");
        }
        for name in ["thermal", "sim-core", "simlint"] {
            assert!(!rules_for_crate(name).contains(&Rule::R2), "{name}");
        }
    }

    #[test]
    fn rng_file_exempt_from_d3_only() {
        assert!(file_exempt("sim-core", "crates/sim-core/src/rng.rs", Rule::D3));
        assert!(!file_exempt("sim-core", "crates/sim-core/src/rng.rs", Rule::R1));
        assert!(!file_exempt("sched", "crates/sched/src/rng.rs", Rule::D3));
    }

    #[test]
    fn dead_suppression_fires_only_with_a1_enabled() {
        let src = "// simlint::allow(R1): stale justification\n\
                   fn a() { tidy(); }\n";
        let without = lint_source("x.rs", src, &[Rule::R1]);
        assert!(without.diagnostics.is_empty());
        let with = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert_eq!(with.diagnostics.len(), 1);
        assert_eq!(with.diagnostics[0].rule, Rule::A1);
        assert_eq!(with.diagnostics[0].line, 1);
    }

    #[test]
    fn live_suppression_is_not_dead() {
        let src = "fn a() { x.unwrap(); } // simlint::allow(R1): infallible\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert!(lint.diagnostics.is_empty());
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn suppression_in_masked_region_is_not_judged() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       // simlint::allow(R1): test-only\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let lint = lint_source("x.rs", src, &[Rule::R1, Rule::A1]);
        assert!(lint.diagnostics.is_empty());
    }

    #[test]
    fn u2_fires_when_unsafe_not_allowlisted() {
        let src = "fn f() {\n\
                       // SAFETY: fine\n\
                       unsafe { g() };\n\
                   }\n";
        let allowed = lint_source_with(
            "x.rs",
            src,
            &[Rule::U1, Rule::U2],
            &LintOptions::permissive(),
        );
        assert!(allowed.diagnostics.is_empty());
        let opts = LintOptions {
            unsafe_allowed: false,
            ..LintOptions::permissive()
        };
        let denied = lint_source_with("x.rs", src, &[Rule::U1, Rule::U2], &opts);
        assert_eq!(denied.diagnostics.len(), 1);
        assert_eq!(denied.diagnostics[0].rule, Rule::U2);
    }

    #[test]
    fn f1_fires_on_undeclared_feature() {
        let src = "#[cfg(feature = \"simd\")]\nfn gated() {}\n";
        let opts = LintOptions {
            declared_features: Some(["invariants".to_string()].into_iter().collect()),
            ..LintOptions::permissive()
        };
        let lint = lint_source_with("x.rs", src, &[Rule::F1], &opts);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].rule, Rule::F1);
        assert_eq!(lint.diagnostics[0].line, 1);
    }
}
