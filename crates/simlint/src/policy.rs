//! Per-crate lint policy: which rules apply and where `unsafe` may live.
//!
//! Policy is resolved once per crate directory (not per file) by
//! [`policy_for_crate`]; `lib.rs` threads the resulting [`CratePolicy`]
//! through every file of that crate.

use crate::rules::Rule;

/// The features whose hand-forwarded chains F1 keeps consistent: any crate
/// depending on a crate that declares one of these must re-export it.
pub const FORWARDED_FEATURES: &[&str] = &["simd", "invariants"];

/// Everything the linter needs to know about one crate, resolved once.
#[derive(Debug, Clone)]
pub struct CratePolicy {
    /// The crate's directory name under `crates/`.
    pub name: &'static str,
    /// Rules enabled for this crate.
    pub rules: &'static [Rule],
    /// Crate-relative paths (always `/`-separated) of the only files
    /// allowed to contain `unsafe` (U2). Empty = no unsafe anywhere.
    pub unsafe_files: &'static [&'static str],
}

const FULL: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
    Rule::Doc1,
];
const LIB: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const HARNESS: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::R2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const APP: &[Rule] = &[
    Rule::D2,
    Rule::D3,
    Rule::R2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];
const BENCH: &[Rule] = &[
    Rule::D3,
    Rule::R2,
    Rule::U1,
    Rule::U2,
    Rule::F1,
    Rule::A1,
];

/// Resolves the policy for a crate directory under `crates/`.
///
/// Rule-set policy (unchanged from v1, plus the item rules everywhere):
/// - `sim-core`, `dimetrodon`: the full set including `Doc1`.
/// - other result-path library crates (`ckpt` included): everything but
///   `Doc1`.
/// - `harness`: library set plus `R2` (supervision must not swallow
///   failures).
/// - `cli`: determinism + `R2` + the item rules.
/// - `bench`: `D3` + `R2` + the item rules.
/// - vendored shims (`proptest`, `criterion`) and `simlint` itself: exempt.
///
/// Unsafe policy: `thermal` may keep `unsafe` in `src/simd.rs` only (the
/// AVX2 kernel); every other governed crate gets an empty allowlist.
pub fn policy_for_crate(dir_name: &str) -> CratePolicy {
    let (name, rules): (&'static str, &'static [Rule]) = match dir_name {
        "sim-core" => ("sim-core", FULL),
        "dimetrodon" => ("dimetrodon", FULL),
        "thermal" => ("thermal", LIB),
        "power" => ("power", LIB),
        "machine" => ("machine", LIB),
        "sched" => ("sched", LIB),
        "workload" => ("workload", LIB),
        "analysis" => ("analysis", LIB),
        "faults" => ("faults", LIB),
        "fleet" => ("fleet", LIB),
        "ckpt" => ("ckpt", LIB),
        "harness" => ("harness", HARNESS),
        "cli" => ("cli", APP),
        "bench" => ("bench", BENCH),
        _ => ("", &[]),
    };
    let unsafe_files: &'static [&'static str] = match dir_name {
        "thermal" => &["src/simd.rs"],
        _ => &[],
    };
    CratePolicy {
        name,
        rules,
        unsafe_files,
    }
}

/// Policy for the facade package's own `src/` at the workspace root: the
/// library rule set, no unsafe.
pub fn facade_policy() -> CratePolicy {
    CratePolicy {
        name: "facade",
        rules: LIB,
        unsafe_files: &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shims_and_simlint_are_exempt() {
        for name in ["proptest", "criterion", "simlint", "unknown"] {
            assert!(policy_for_crate(name).rules.is_empty(), "{name}");
        }
    }

    #[test]
    fn unsafe_allowlist_is_thermal_simd_only() {
        assert_eq!(policy_for_crate("thermal").unsafe_files, ["src/simd.rs"]);
        for name in ["sim-core", "machine", "sched", "harness", "cli"] {
            assert!(policy_for_crate(name).unsafe_files.is_empty(), "{name}");
        }
    }

    #[test]
    fn item_rules_are_on_everywhere_governed() {
        for name in [
            "sim-core",
            "thermal",
            "machine",
            "sched",
            "fleet",
            "harness",
            "cli",
            "bench",
        ] {
            let p = policy_for_crate(name);
            for rule in [Rule::U1, Rule::U2, Rule::F1, Rule::A1] {
                assert!(p.rules.contains(&rule), "{name} missing {rule}");
            }
        }
    }
}
