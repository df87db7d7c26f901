//! Golden test for the rustc-style diagnostic renderer: the exact text,
//! byte for byte, so formatting regressions are loud.

use acr_cfg::parse::parse_device;
use acr_cfg::NetworkConfig;
use acr_lint::lint_network;
use acr_topo::{Role, TopologyBuilder};

#[test]
fn renders_the_expected_report() {
    let mut tb = TopologyBuilder::new();
    let a = tb.router("A", Role::Backbone);
    let b = tb.router("B", Role::Backbone);
    tb.link(a, b); // 172.16.0.1 / 172.16.0.2
    let topo = tb.build();
    let mut cfg = NetworkConfig::new();
    cfg.insert(
        a,
        parse_device(
            "A",
            "bgp 65001\n\
             peer 172.16.0.2 as-number 65009\n\
             peer 172.16.0.2 route-policy Absent import\n",
        )
        .unwrap(),
    );
    cfg.insert(
        b,
        parse_device("B", "bgp 65002\npeer 172.16.0.1 as-number 65001\n").unwrap(),
    );

    let report = lint_network(&topo, &cfg);
    let expected = "\
warning[session-asn-mismatch]: peer 172.16.0.2 is configured with as-number 65009 but B runs bgp 65002
  --> A:2
   |
 2 |  peer 172.16.0.2 as-number 65009
   |
   = related: B:1 the neighbor's BGP process — `bgp 65002`

error[undefined-route-policy]: route-policy `Absent` is applied but never defined
  --> A:3
   |
 3 |  peer 172.16.0.2 route-policy Absent import
   |

1 error, 1 warning
";
    assert_eq!(report.render(&cfg), expected);
}

#[test]
fn clean_report_renders_empty() {
    let mut tb = TopologyBuilder::new();
    let a = tb.router("A", Role::Backbone);
    let topo = tb.build();
    let mut cfg = NetworkConfig::new();
    cfg.insert(a, parse_device("A", "bgp 65001\n").unwrap());
    let report = lint_network(&topo, &cfg);
    assert!(report.is_clean());
    assert_eq!(report.render(&cfg), "");
}

/// A second `bgp` line replaces the device's ASN: a warning at the later
/// line, with the first as its related note.
#[test]
fn duplicate_bgp_process_golden() {
    let mut tb = TopologyBuilder::new();
    let a = tb.router("A", Role::Backbone);
    let topo = tb.build();
    let mut cfg = NetworkConfig::new();
    cfg.insert(
        a,
        parse_device("A", "bgp 65001\n network 10.1.0.0 16\nbgp 65009\n").unwrap(),
    );
    let report = lint_network(&topo, &cfg);
    let expected = "\
warning[duplicate-bgp-process]: a second BGP process `bgp 65009` replaces `bgp 65001`
  --> A:3
   |
 3 | bgp 65009
   |
   = related: A:1 the device's first BGP process — `bgp 65001`

0 errors, 1 warning
";
    assert_eq!(report.render(&cfg), expected);
}
