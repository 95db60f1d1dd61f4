//! The lint policy: every registry the rules consult, in one place.
//!
//! A change here changes what CI enforces, so it is reviewed like code:
//! each entry says why it is on the list. [`LintConfig::workspace`] is
//! the policy the workspace sweep runs under. Tests that need a
//! different registry build one with struct-update syntax
//! (`LintConfig { hotpaths: &[..], ..LintConfig::workspace() }`), and
//! `tests/self_run.rs` checks that every entry still names something
//! that exists in the tree.

use crate::Rule;

/// The trees a default run (no path arguments) sweeps, and the set the
/// workspace self-run test lints. `benchmark/` is a Cargo workspace of
/// its own but is held to the same rules.
pub const SWEEP: &[&str] = &["crates", "src", "examples", "tests", "benchmark"];

/// Modules with a standing exemption from one rule. Paths are
/// `/`-separated suffixes of the workspace-relative file path.
///
/// Kept deliberately tiny: the only ambient-nondeterminism consumers in
/// the tree are the `--timings` instrumentation in the repro driver and
/// the linter's own wall-time report (clock reads are *reported*, never
/// fed back into simulation state), and the only legitimate bare RNG
/// constructors are the stream-derivation layer itself and scenario
/// compilation.
pub const BUILTIN_ALLOW: &[(&str, Rule, &str)] = &[
    (
        "crates/bench/src/bin/repro.rs",
        Rule::D3,
        "--timings instrumentation: wall-clock reads are reported, never \
         fed into simulation state",
    ),
    (
        "crates/netsim/src/rng.rs",
        Rule::D4,
        "the stream-derivation layer itself",
    ),
    (
        "crates/campaign/src/scenario.rs",
        Rule::D4,
        "scenario compilation derives the panel seeds",
    ),
];

/// The registries D7–D9 run against.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// Path fragments (`/`-separated) under which D7 applies.
    pub d7_scope: &'static [&'static str],
    /// Hot-path function names for D8; entries are `Type::name` or a
    /// bare `name` (matches any function with that name).
    pub hotpaths: &'static [&'static str],
    /// Call paths forbidden inside hot paths (`Vec::new`, `vec!`, ...).
    /// `name!` entries match macro invocations.
    pub hotpath_forbid: &'static [&'static str],
    /// Path suffix of the one module allowed to declare `DOMAIN_*`
    /// constants for D9.
    pub rng_module: &'static str,
    /// Identifier prefix that marks an RNG domain constant.
    pub rng_domain_prefix: &'static str,
    /// Pinned key arity per domain (`derive_seed(seed, DOMAIN, &[..])`
    /// literal slice length). Domains absent here have variable arity.
    pub rng_arity: &'static [(&'static str, usize)],
}

impl LintConfig {
    /// The workspace policy.
    pub fn workspace() -> Self {
        LintConfig {
            // D7: trees whose non-test code must propagate typed errors
            // instead of panicking. Matched as path fragments.
            d7_scope: &[
                "crates/campaign/src",
                "crates/bench/src",
                "crates/apps/src",
                "crates/xcal/src",
            ],
            // D8: the per-tick hot path of the simulator. These run once
            // per phone-tick or once per span inside the campaign inner
            // loop, so a stray allocation multiplies by millions of
            // calls. Names match either bare (`evaluate_layer_span`) or
            // qualified with the impl type (`ShadowBank::catch_up`).
            hotpaths: &[
                // radio: correlated-shadowing window moves and the
                // catch-up that replays them before a read
                "ShadowBank::defer",
                "ShadowBank::catch_up",
                // geo: hinted route / plan lookups (per tick and per tile)
                "Route::point_at_hinted",
                "Route::nearest_city_hinted",
                "Route::region_at_hinted",
                "Route::timezone_at_hinted",
                "DrivePlan::state_at_hinted",
                "DrivePlan::pos_at_hinted",
                // ran: link-layer step and its halves, the serving-only
                // passive step, layer selection, fleet load folding
                "UeRadio::step",
                "UeRadio::step_serving",
                "UeRadio::mobility",
                "UeRadio::draw_link",
                "UeRadio::link",
                "ServingRadio::step",
                "UeRadio::candidate",
                "ShadowStore::defer",
                "ShadowStore::catch_up",
                "evaluate_layer_span",
                "score_span",
                "FleetLoad::fold_span",
                // campaign: per-TCP-tick wired RTT leg of the link driver
                "LinkDriver::wired_ms",
                // netsim: congestion-control per-ack ticks
                "Cubic::on_ack",
                "Bbr::on_ack",
                // xcal: streaming JSON emitters (called once per record)
                "records_fragment",
                "samples_fragment",
                "write_record_rows",
            ],
            // D8: allocating constructors forbidden inside (and one call
            // level below) the functions above.
            hotpath_forbid: &[
                "Vec::new",
                "vec!",
                "format!",
                "to_string",
                "to_owned",
                "collect",
                "Box::new",
                "String::new",
                "clone",
            ],
            // D9: every `derive_seed(campaign_seed, DOMAIN_*, &[..])` /
            // `stream(..)` call site must name a domain constant declared
            // exactly once in this module, and use the key arity pinned
            // below, so two call sites cannot key the same domain with
            // different word counts and collide streams.
            rng_module: "crates/netsim/src/rng.rs",
            rng_domain_prefix: "DOMAIN_",
            // DOMAIN_FAULT is deliberately unpinned: fault injection keys
            // a variable-length word list (&words), checked structurally
            // only.
            rng_arity: &[
                ("DOMAIN_PHONE", 2),   // [operator, day]
                ("DOMAIN_CYCLE", 1),   // [day]
                ("DOMAIN_STATIC", 3),  // [operator, day, unit]
                ("DOMAIN_PASSIVE", 1), // [operator]
                ("DOMAIN_FLEET", 1),   // [operator]
            ],
        }
    }

    /// Pinned arity for `domain`, if any.
    pub(crate) fn pinned_arity(&self, domain: &str) -> Option<usize> {
        self.rng_arity
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, n)| *n)
    }

    /// Does D7 apply to this (normalized, `/`-separated) path?
    pub(crate) fn d7_applies(&self, norm_path: &str) -> bool {
        self.d7_scope.iter().any(|frag| norm_path.contains(frag))
    }

    /// Is `qual` (e.g. `ShadowBank::catch_up`) a registered hot
    /// path? Bare registry entries match any function with that name.
    pub(crate) fn is_hotpath(&self, qual: &str, bare: &str) -> bool {
        self.hotpaths.iter().any(|h| *h == qual || *h == bare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d7_scope_matches_path_fragments() {
        let cfg = LintConfig::workspace();
        assert!(cfg.d7_applies("crates/campaign/src/runner.rs"));
        assert!(cfg.d7_applies("/abs/repo/crates/xcal/src/export.rs"));
        assert!(!cfg.d7_applies("crates/radio/src/shadowing.rs"));
    }

    #[test]
    fn hotpaths_match_qualified_or_bare() {
        let cfg = LintConfig {
            hotpaths: &["T::hot", "free"],
            ..LintConfig::workspace()
        };
        assert!(cfg.is_hotpath("T::hot", "hot"));
        assert!(!cfg.is_hotpath("U::hot", "hot"));
        assert!(cfg.is_hotpath("U::free", "free"));
        assert_eq!(cfg.pinned_arity("DOMAIN_PHONE"), Some(2));
        assert_eq!(cfg.pinned_arity("DOMAIN_FAULT"), None);
    }
}
