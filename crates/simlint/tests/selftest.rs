//! Self-tests: fixture files with seeded violations pin the exact rule IDs
//! and line numbers simlint reports, and the live workspace must be clean.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use simlint::parse::CfgView;
use simlint::{
    check_feature_forwarding, lint_source, lint_source_with, lint_workspace,
    lint_workspace_with, manifest, LintOptions, Report, Rule, Severity,
};

const FULL: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::R2,
    Rule::Doc1,
];
const LIB: &[Rule] = &[Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::R1, Rule::R2];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("cannot read fixture {}: {e}", path.display()),
    }
}

/// `(line, rule)` pairs of a lint result, in report order.
fn findings(source: &str, enabled: &[Rule]) -> Vec<(usize, Rule)> {
    lint_source("fixture.rs", source, enabled)
        .diagnostics
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

/// Same, with explicit item-rule options.
fn findings_with(source: &str, enabled: &[Rule], opts: &LintOptions) -> Vec<(usize, Rule)> {
    lint_source_with("fixture.rs", source, enabled, opts)
        .diagnostics
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn violations_fixture_fires_every_line_rule_at_exact_lines() {
    let src = fixture("violations.rs");
    assert_eq!(
        findings(&src, FULL),
        vec![
            (4, Rule::D2),   // use std::collections::HashMap;
            (5, Rule::D1),   // use std::time::Instant;
            (7, Rule::Doc1), // pub struct Undocumented;
            (10, Rule::D2),  // HashMap in the signature
            (11, Rule::D1),  // Instant::now()
            (12, Rule::D3),  // rand::thread_rng()
            (13, Rule::R1),  // .unwrap()
            (14, Rule::D4),  // *x == 0.5
            (15, Rule::R1),  // panic!
            (17, Rule::D4),  // as f32
            (18, Rule::R2),  // let _ = (...) discards a computed value
        ]
    );
}

#[test]
fn every_rule_is_exercised_by_some_fixture() {
    let mut fired: BTreeSet<Rule> = BTreeSet::new();
    fired.extend(findings(&fixture("violations.rs"), FULL).into_iter().map(|(_, r)| r));
    let audit = LintOptions::default(); // unsafe_allowed = false
    fired.extend(
        findings_with(&fixture("unsafe_audit.rs"), &[Rule::U1, Rule::U2], &audit)
            .into_iter()
            .map(|(_, r)| r),
    );
    let feats = LintOptions {
        declared_features: Some(["simd".to_string()].into_iter().collect()),
        ..LintOptions::permissive()
    };
    fired.extend(
        findings_with(&fixture("feature_cfg.rs"), &[Rule::F1], &feats)
            .into_iter()
            .map(|(_, r)| r),
    );
    fired.extend(
        findings(&fixture("dead_allow.rs"), &[Rule::D1, Rule::D3, Rule::A1])
            .into_iter()
            .map(|(_, r)| r),
    );
    for rule in Rule::ALL {
        assert!(fired.contains(&rule), "rule {rule} never fired");
    }
}

#[test]
fn unsafe_fixture_pins_u1_and_u2_lines() {
    let src = fixture("unsafe_audit.rs");
    // Outside the allowlist: U2 judges both sites, U1 only the bare one.
    let audit = LintOptions::default();
    assert_eq!(
        findings_with(&src, &[Rule::U1, Rule::U2], &audit),
        vec![
            (7, Rule::U2),  // documented, but unsafe is not allowed here
            (12, Rule::U1), // no SAFETY comment
            (12, Rule::U2),
        ]
    );
    // Allowlisted file: only the missing SAFETY comment remains.
    assert_eq!(
        findings_with(&src, &[Rule::U1, Rule::U2], &LintOptions::permissive()),
        vec![(12, Rule::U1)]
    );
}

#[test]
fn feature_fixture_pins_f1_lines() {
    let src = fixture("feature_cfg.rs");
    let feats = LintOptions {
        declared_features: Some(["simd".to_string()].into_iter().collect()),
        ..LintOptions::permissive()
    };
    assert_eq!(
        findings_with(&src, &[Rule::F1], &feats),
        vec![
            (10, Rule::F1), // cfg(feature = "turbo"), undeclared
            (15, Rule::F1), // cfg!(feature = "trubo"), undeclared
        ]
    );
}

#[test]
fn dead_allow_fixture_reports_the_stale_suppression() {
    let src = fixture("dead_allow.rs");
    let lint = lint_source("fixture.rs", &src, &[Rule::D1, Rule::D3, Rule::A1]);
    assert_eq!(lint.suppressed, 1, "the live D1 allow must be honored");
    let remaining: Vec<(usize, Rule)> =
        lint.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(remaining, vec![(11, Rule::A1)]);
}

#[test]
fn forwarding_check_flags_missing_and_stale_reexports() {
    let dep = manifest::parse(
        "[package]\nname = \"core\"\n\n[features]\nsimd = []\n",
    );
    // No [features] at all: F1 points at the dependency line.
    let missing = manifest::parse(
        "[package]\nname = \"power\"\n\n[dependencies]\ncore = { path = \"../core\" }\n",
    );
    // Declared but not forwarding "core/simd": F1 points at the decl.
    let stale = manifest::parse(
        "[package]\nname = \"sched\"\n\n[dependencies]\ncore = { path = \"../core\" }\n\n\
         [features]\nsimd = []\n",
    );
    // Correct forwarding chain: clean.
    let good = manifest::parse(
        "[package]\nname = \"bench\"\n\n[dependencies]\ncore = { path = \"../core\" }\n\n\
         [features]\nsimd = [\"core/simd\"]\n",
    );
    // Dev-dependencies are exempt by design (test code is not shipped).
    let dev_only = manifest::parse(
        "[package]\nname = \"lint\"\n\n[dev-dependencies]\ncore = { path = \"../core\" }\n",
    );
    let manifests = vec![
        ("core/Cargo.toml".to_string(), dep, true),
        ("power/Cargo.toml".to_string(), missing, true),
        ("sched/Cargo.toml".to_string(), stale, true),
        ("bench/Cargo.toml".to_string(), good, true),
        ("lint/Cargo.toml".to_string(), dev_only, true),
    ];
    let mut report = Report::default();
    check_feature_forwarding(&manifests, &mut report);
    let got: Vec<(&str, usize, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("power/Cargo.toml", 5, Rule::F1), // the `core = ...` line
            ("sched/Cargo.toml", 8, Rule::F1), // the stale `simd = []` decl
        ]
    );
}

#[test]
fn suppressions_fixture_honors_allows_and_reports_the_rest() {
    let src = fixture("suppressions.rs");
    let lint = lint_source("fixture.rs", &src, LIB);
    // D2@3 (same line), R1@6 (preceding line), D1+D3@9 (comma list),
    // R2@14 (preceding line).
    assert_eq!(lint.suppressed, 5);
    let remaining: Vec<(usize, Rule)> =
        lint.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(remaining, vec![(11, Rule::R1)]);
}

#[test]
fn test_gated_fixture_skips_cfg_test_regions() {
    let src = fixture("test_gated.rs");
    assert_eq!(findings(&src, &[Rule::R1]), vec![(16, Rule::R1)]);
}

#[test]
fn clean_fixture_is_clean() {
    let src = fixture("clean.rs");
    let lint = lint_source("fixture.rs", &src, FULL);
    assert!(lint.diagnostics.is_empty(), "{:?}", lint.diagnostics);
    assert_eq!(lint.suppressed, 0);
}

#[test]
fn severity_defaults_and_promotion() {
    assert_eq!(Rule::D1.default_severity(), Severity::Deny);
    assert_eq!(Rule::D2.default_severity(), Severity::Deny);
    assert_eq!(Rule::D3.default_severity(), Severity::Deny);
    assert_eq!(Rule::U2.default_severity(), Severity::Deny);
    assert_eq!(Rule::F1.default_severity(), Severity::Deny);
    assert_eq!(Rule::D4.default_severity(), Severity::Warn);
    assert_eq!(Rule::R1.default_severity(), Severity::Warn);
    assert_eq!(Rule::R2.default_severity(), Severity::Warn);
    assert_eq!(Rule::U1.default_severity(), Severity::Warn);
    assert_eq!(Rule::A1.default_severity(), Severity::Warn);
    assert_eq!(Rule::Doc1.default_severity(), Severity::Warn);
    for rule in Rule::ALL {
        assert_eq!(simlint::effective_severity(rule, true), Severity::Deny);
    }
}

/// The workspace itself must lint clean — this is the same gate CI runs.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    assert!(
        report.diagnostics.is_empty(),
        "workspace has simlint findings:\n{:#?}",
        report.diagnostics
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(report.suppressed > 0, "expected justified suppressions");
}

/// The simd cfg view swaps `thermal/src/simd.rs` into scope; the
/// workspace must be clean there too (CI runs both views).
#[test]
fn live_workspace_is_clean_under_simd_view() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let default = lint_workspace(&root).unwrap_or_else(|e| panic!("{e}"));
    let view = CfgView::with_features(["simd"]);
    let simd = lint_workspace_with(&root, &view).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        simd.diagnostics.is_empty(),
        "workspace has simlint findings under --features simd:\n{:#?}",
        simd.diagnostics
    );
    assert_eq!(
        simd.files_scanned,
        default.files_scanned + 1,
        "the simd view must scan exactly one extra file (thermal/src/simd.rs)"
    );
}

/// End-to-end: the binary exits 0 on the clean workspace even with
/// `--deny-warnings`, under both cfg views, and prints the summary.
#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for extra in [&[][..], &["--features", "simd"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .args(["--deny-warnings", "--root"])
            .arg(&root)
            .args(extra)
            .output()
            .expect("run simlint binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "simlint {extra:?} failed:\n{stdout}");
        assert!(
            stdout.contains("files scanned") && stdout.contains("0 violations"),
            "missing summary line:\n{stdout}"
        );
    }
}
