//! Search-space accounting (the paper's Figure 3).
//!
//! Three methods, three spaces:
//!
//! - **MetaProv** (Fig. 3a): the leaf nodes of the provenance tree —
//!   counted exactly via [`acr_prov::Provenance::leaves`] over the failed
//!   tests' derivation roots.
//! - **AED** (Fig. 3b): `2^(free variables)` of the whole-configuration
//!   delta encoding — one delta boolean per configuration line plus one
//!   value variable per symbolizable parameter. We report the *exponent*
//!   (the blow-up makes the count itself unrepresentable).
//! - **ACR** (Fig. 3c): the leaf nodes of the search forest — one leaf
//!   per (suspicious line, applicable template, instantiation) triple.

use crate::ctx::RepairCtx;
use crate::templates::candidates_for_line;
use acr_cfg::{NetworkConfig, Stmt};
use acr_prov::Provenance;
use acr_sim::DerivArena;
use acr_verify::Verification;

/// ACR's search space at one repair step: the number of candidate atomic
/// changes reachable from the currently suspicious lines (leaves of the
/// search forest, Fig. 3c). `pool` is the suspicious-line set the
/// localizer produced.
pub fn acr_space(ctx: &RepairCtx<'_>, pool: &[acr_cfg::LineId]) -> usize {
    pool.iter()
        .map(|l| candidates_for_line(*l, ctx).len())
        .sum()
}

/// MetaProv's search space: leaf nodes of the provenance of the failed
/// tests (Fig. 3a).
pub fn metaprov_space(arena: &DerivArena, verification: &Verification) -> usize {
    let prov = Provenance::new(arena);
    let roots = verification
        .failures()
        .flat_map(|r| r.deriv_roots.iter().copied())
        .collect::<Vec<_>>();
    prov.leaves(roots).len()
}

/// AED's free-variable count (the exponent of Fig. 3b): one delta boolean
/// per line plus one value variable per symbolizable parameter.
pub fn aed_free_variables(cfg: &NetworkConfig) -> usize {
    let mut vars = 0usize;
    for (_, device) in cfg.devices() {
        for stmt in device.stmts() {
            vars += 1; // the delta (enabled/disabled) variable
            vars += symbolizable_params(stmt);
        }
    }
    vars
}

/// How many parameters of a statement a synthesis encoding would make
/// symbolic (prefixes, AS numbers, next hops, ports…).
pub fn symbolizable_params(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::BgpProcess(_) => 1,
        Stmt::RouterId(_) => 1,
        Stmt::Network(_) => 1,
        Stmt::ImportRoute(_) => 1,
        Stmt::GroupDef(_) => 0,
        Stmt::PeerAs { .. } => 2,
        Stmt::PeerGroup { .. } => 1,
        Stmt::PeerPolicy { .. } => 1,
        Stmt::RoutePolicyDef { .. } => 1,
        Stmt::IfMatchPrefixList(_) => 1,
        Stmt::IfMatchCommunity(_) => 1,
        Stmt::ApplyAsPathOverwrite(_) => 1,
        Stmt::ApplyAsPathPrepend { .. } => 2,
        Stmt::ApplyLocalPref(_) | Stmt::ApplyMed(_) | Stmt::ApplyCommunity(_) => 1,
        Stmt::AclRule(_) => 4,
        Stmt::PbrRule { .. } => 2,
        Stmt::IpAddress { .. } => 2,
        Stmt::PrefixListEntry { .. } => 3,
        Stmt::StaticRoute { .. } => 2,
        Stmt::AclDef(_) | Stmt::PbrPolicyDef(_) | Stmt::Interface(_) => 0,
        Stmt::ApplyTrafficPolicy(_) => 1,
        Stmt::Remark(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_net_types::RouterId;

    #[test]
    fn aed_variables_grow_with_config() {
        let mut cfg = NetworkConfig::new();
        cfg.insert(
            RouterId(0),
            parse_device(
                "A",
                "bgp 65001\n network 10.0.0.0 16\nip route-static 20.0.0.0 16 NULL0\n",
            )
            .unwrap(),
        );
        let small = aed_free_variables(&cfg);
        // 3 lines: bgp (1+1), network (1+1), static (1+2) = 7.
        assert_eq!(small, 7);
        cfg.insert(
            RouterId(1),
            parse_device("B", "bgp 65002\n peer 10.0.0.1 as-number 65001\n").unwrap(),
        );
        assert!(aed_free_variables(&cfg) > small);
    }

    #[test]
    fn symbolizable_params_match_statement_shape() {
        assert_eq!(
            symbolizable_params(&Stmt::PrefixListEntry {
                list: "l".into(),
                index: 10,
                action: acr_cfg::PlAction::Permit,
                prefix: "10.0.0.0/8".parse().unwrap(),
                ge: None,
                le: None,
            }),
            3
        );
        assert_eq!(symbolizable_params(&Stmt::Remark("x".into())), 0);
    }
}
