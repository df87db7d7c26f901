//! Golden renderer test for the cross-device `acr-flow` rule
//! (`unimportable-route`): one minimal two-router incident, with the
//! report text pinned byte for byte so both the analysis verdict and the
//! rustc-style formatting are regression-guarded. (The companion guard —
//! that the rule does not fire on the *clean* workload corpus — lives in
//! `table1_detection.rs`.)

use acr_cfg::parse::parse_device;
use acr_cfg::NetworkConfig;
use acr_lint::lint_network;
use acr_topo::{Role, TopologyBuilder};

/// Builds a chain topology over `roles`, parses one config per router,
/// and returns the rendered lint report.
fn render(roles: &[(&str, Role)], cfgs: &[&str]) -> String {
    let mut tb = TopologyBuilder::new();
    let ids: Vec<_> = roles.iter().map(|(n, r)| tb.router(n, *r)).collect();
    for w in ids.windows(2) {
        tb.link(w[0], w[1]); // 172.16.0.1/.2, .5/.6, …
    }
    let topo = tb.build();
    let mut cfg = NetworkConfig::new();
    for (i, text) in cfgs.iter().enumerate() {
        cfg.insert(ids[i], parse_device(roles[i].0, text).unwrap());
    }
    lint_network(&topo, &cfg).render(&cfg)
}

const TWO_BACKBONES: &[(&str, Role)] = &[("A", Role::Backbone), ("B", Role::Backbone)];

/// A exports both origins unfiltered, but B's import keeps only
/// 10.9.0.0/16 — 10.5.0.0/16 survives export and is still unimportable
/// everywhere.
#[test]
fn unimportable_route_golden() {
    let report = render(
        TWO_BACKBONES,
        &[
            "bgp 65001\n\
             peer 172.16.0.2 as-number 65002\n\
             network 10.9.0.0 16\n\
             network 10.5.0.0 16\n",
            "bgp 65002\n\
             peer 172.16.0.1 as-number 65001\n\
             peer 172.16.0.1 route-policy In import\n\
             route-policy In permit node 10\n\
             if-match ip-prefix keep\n\
             ip prefix-list keep index 10 permit 10.9.0.0 16\n",
        ],
    );
    let expected = "\
warning[unimportable-route]: originated prefix 10.5.0.0/16 survives an export policy but no neighbor's import policy can accept it
  --> A:1
   |
 1 | bgp 65001
   |

0 errors, 1 warning
";
    assert_eq!(report, expected);
}
