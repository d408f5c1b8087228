//! Command-line entry point for simlint.
//!
//! ```text
//! cargo run -p simlint                    # lint the workspace, warn-level findings pass
//! cargo run -p simlint -- --deny-warnings # CI mode: every finding is fatal
//! cargo run -p simlint -- --root <dir>    # lint a different workspace root
//! cargo run -p simlint -- --features simd # lint under the simd cfg view
//! ```
//!
//! Exit status is non-zero iff any deny-level finding remains after
//! suppression (with `--deny-warnings`, every finding is deny-level).

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{effective_severity, lint_workspace_with, CfgView, Severity};

fn usage() -> &'static str {
    "usage: simlint [--deny-warnings] [--root <dir>] [--features <a,b,...>]\n\
     \n\
     Lints the workspace for determinism and robustness hazards.\n\
     \n\
     options:\n\
       --deny-warnings     treat warn-level findings as errors (CI mode)\n\
       --root <dir>        workspace root to scan (default: current directory)\n\
       --features <list>   comma-separated Cargo features for the cfg view\n\
                           (files and items gated on other features are\n\
                           excluded, mirroring what the compiler would see)\n\
       -h, --help          show this help"
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut root: Option<PathBuf> = None;
    let mut features: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("simlint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--features" => match args.next() {
                Some(list) => features.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|f| !f.is_empty())
                        .map(String::from),
                ),
                None => {
                    eprintln!("simlint: --features requires a feature list");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => match std::env::current_dir() {
            Ok(cwd) => cwd,
            Err(e) => {
                eprintln!("simlint: cannot determine current directory: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let view = CfgView::with_features(features);
    let report = match lint_workspace_with(&root, &view) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        let severity = effective_severity(d.rule, deny_warnings);
        println!("{severity}[{}]: {}:{}: {}", d.rule, d.file, d.line, d.message);
    }

    let deny = report.count_at(Severity::Deny, deny_warnings);
    let warn = report.count_at(Severity::Warn, deny_warnings);
    let per_rule = report.per_rule_counts();
    let breakdown = if per_rule.is_empty() {
        String::new()
    } else {
        let parts: Vec<String> = per_rule
            .iter()
            .map(|(rule, n)| format!("{rule}={n}"))
            .collect();
        format!(", per-rule: {}", parts.join(" "))
    };
    println!(
        "simlint: {} files scanned, {} violations ({} deny, {} warn), {} suppressions honored{}",
        report.files_scanned,
        report.diagnostics.len(),
        deny,
        warn,
        report.suppressed,
        breakdown,
    );

    if deny > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
