//! `FibView` ≡ the materialized FIB, on what the repair loop simulates.
//!
//! The forwarding walk never installs BGP entries: a [`FibView`] answers
//! each lookup from a router's connected/static base FIB and the outcomes
//! of the prefixes covering the destination. This test keeps the table
//! the view replaces as an oracle — every base FIB with every converged
//! best's [`bgp_entry`] put in by `Fib::install` — and checks that both
//! answer the same `(Prefix, FibEntry)` for every router and every probe
//! address: each test's destination, the first and last address of every
//! simulated prefix, every link address and 64 seeded addresses.
//!
//! Inputs: every Table-1 incident at every site of `wan(4,8)` plus one
//! delta-built candidate per incident (deleting a statement the fault
//! touched), the `wan(24,48)` incidents at seed 0 (most of the slice's
//! time: `try_inject` and the 72-router runs), the Figure 2 incident
//! (a flapping prefix, which installs nothing) and a line where a router
//! holds a static route at exactly a prefix it learns over BGP. Under
//! `heavy-tests`, every site of `wan(24,48)` too.

use acr_cfg::{Edit, NetworkConfig, Patch};
use acr_net_types::{Ipv4Addr, Prefix, RouterId, SplitMix64};
use acr_sim::{bgp_entry, covering, CompiledBase, Fib, FibView, SimOutcome, Simulator};
use acr_topo::{gen, Topology};
use acr_workloads::{
    fig2_incident, generate, inject_at, try_inject, GeneratedNetwork, Incident, TABLE1,
};

/// What the checks saw, so the test can insist the interesting cases
/// occurred.
#[derive(Default)]
struct Seen {
    lookups: usize,
    /// Answers that came from a BGP best.
    bgp: usize,
    /// Routers whose base FIB holds an entry at exactly a prefix they
    /// learned over BGP (the base entry must win).
    shadowed: usize,
    /// Flapping prefixes among the simulated ones.
    flapping: usize,
}

impl Seen {
    /// Checks `out`'s view against the materialized FIBs at every router
    /// for every probe address.
    fn check(&mut self, topo: &Topology, out: &SimOutcome, dsts: &[Ipv4Addr], what: &str) {
        let mut tries: Vec<Fib> = out.base_fibs.clone();
        for (p, o) in &out.outcomes {
            for (i, fib) in tries.iter_mut().enumerate() {
                if let Some(entry) = o.best_of(RouterId(i as u32)).and_then(bgp_entry) {
                    self.shadowed += fib.get(*p).is_some() as usize;
                    fib.install(*p, entry);
                }
            }
        }
        self.flapping += out.flapping().len();
        let base: Vec<&Fib> = out.base_fibs.iter().collect();
        let mut cover = Vec::new();
        for dst in probes(topo, out, dsts) {
            covering(&out.outcomes, dst, &mut cover);
            let view = FibView::new(&base, &cover);
            for r in topo.routers() {
                let want = tries[r.id.index()].lookup(dst).map(|(p, e)| (p, *e));
                let got = view.lookup(r.id, dst);
                assert_eq!(got, want, "{what}: {} looking up {dst}", r.name);
                self.lookups += 1;
                self.bgp +=
                    got.is_some_and(|(p, _)| out.base_fibs[r.id.index()].get(p).is_none()) as usize;
            }
        }
    }
}

/// The probe addresses: `dsts`, the first and last address of every
/// simulated prefix, every link address, and 64 seeded ones (half
/// anywhere, half inside a simulated prefix).
fn probes(topo: &Topology, out: &SimOutcome, dsts: &[Ipv4Addr]) -> Vec<Ipv4Addr> {
    let prefixes: Vec<Prefix> = out.outcomes.keys().copied().collect();
    let mut probes = dsts.to_vec();
    for p in &prefixes {
        probes.push(p.addr());
        probes.push(Ipv4Addr(p.addr().0 | !p.mask()));
    }
    for l in topo.links() {
        probes.extend([l.a.addr, l.b.addr]);
    }
    let mut rng = SplitMix64::new(64);
    for i in 0..64 {
        let any = Ipv4Addr(rng.next_u64() as u32);
        let addr = if prefixes.is_empty() || i % 2 == 0 {
            any
        } else {
            let p = prefixes[rng.index(prefixes.len())];
            Ipv4Addr(p.addr().0 | (any.0 & !p.mask()))
        };
        probes.push(addr);
    }
    probes.sort_unstable();
    probes.dedup();
    probes
}

fn test_dsts(net: &GeneratedNetwork) -> Vec<Ipv4Addr> {
    (net.spec.generate_tests(1).iter())
        .map(|t| t.flow.dst)
        .collect()
}

/// A candidate the repair loop validates against `incident`: delete the
/// first non-header statement at or after the fault's first edit.
fn candidate(incident: &Incident) -> Option<(NetworkConfig, Patch)> {
    let edit = incident.patch.edits.first()?;
    let device = incident.broken.device(edit.router())?;
    let index = (edit.index()..device.len()).find(|&i| !device.stmts()[i].is_header())?;
    let patch = Patch::single(Edit::Delete {
        router: edit.router(),
        index,
    });
    Some((patch.apply_cloned(&incident.broken).ok()?, patch))
}

/// `incident` simulated in full, then one candidate delta-built from it.
fn check_incident(seen: &mut Seen, net: &GeneratedNetwork, incident: &Incident, dsts: &[Ipv4Addr]) {
    let what = format!("{:?}", incident.fault);
    let sim = Simulator::new(&net.topo, &incident.broken);
    seen.check(&net.topo, &sim.run(), dsts, &what);
    let Some((cfg, patch)) = candidate(incident) else {
        return;
    };
    let base: &CompiledBase = sim.base();
    let cand = Simulator::from_base_with_patch(&net.topo, base, &cfg, &patch);
    seen.check(&net.topo, &cand.run(), dsts, &format!("{what} + {patch}"));
}

fn sites<'a>(net: &'a GeneratedNetwork) -> impl Iterator<Item = Incident> + 'a {
    TABLE1.iter().flat_map(move |&(fault, _)| {
        let routers = net.cfg.routers().into_iter();
        routers.filter_map(move |r| inject_at(fault, net, &net.cfg, r))
    })
}

/// The tier-1 slice, in two tests so they run side by side: `wan(4,8)`
/// with Figure 2 and the shadowing line, then `wan(24,48)`.
#[test]
fn fib_view_answers_as_the_materialized_fib() {
    let mut seen = Seen::default();
    let net = generate(&gen::wan(4, 8));
    let dsts = test_dsts(&net);
    let mut incidents = 0;
    for incident in sites(&net) {
        check_incident(&mut seen, &net, &incident, &dsts);
        incidents += 1;
    }
    assert!(incidents >= TABLE1.len(), "only {incidents} incidents");

    let fig2 = fig2_incident();
    let dsts: Vec<Ipv4Addr> = (fig2.spec.generate_tests(1).iter())
        .map(|t| t.flow.dst)
        .collect();
    let out = Simulator::new(&fig2.topo, &fig2.broken).run();
    seen.check(&fig2.topo, &out, &dsts, "fig2");

    seen.check_shadowing_line();

    assert!(seen.flapping > 0, "no flapping prefix was checked");
    assert!(seen.shadowed > 0, "no base entry at exactly a BGP prefix");
    seen.assert_bgp_answers();
}

#[test]
fn fib_view_answers_as_the_materialized_fib_on_wan72() {
    let mut seen = Seen::default();
    let net = generate(&gen::wan(24, 48));
    let dsts = test_dsts(&net);
    for (fault, _) in TABLE1 {
        if let Some(incident) = try_inject(fault, &net, 0) {
            let out = Simulator::new(&net.topo, &incident.broken).run();
            let what = format!("wan72 {:?}", incident.fault);
            seen.check(&net.topo, &out, &dsts, &what);
        }
    }
    seen.assert_bgp_answers();
}

impl Seen {
    /// R0 — R1 — R2 with 10.2/16 originated at R2. R1 learns it over BGP
    /// but holds a NULL0 static at exactly 10.2/16 (the static wins) and
    /// one at the shorter 10/8 (BGP's /16 wins below it).
    fn check_shadowing_line(&mut self) {
        let topo = gen::line(3);
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\nip route-static 10.2.0.0 16 NULL0\nip route-static 10.0.0.0 8 NULL0\n",
            "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
        ];
        let mut cfg = NetworkConfig::new();
        for (r, text) in topo.routers().iter().zip(cfgs) {
            cfg.insert(
                r.id,
                acr_cfg::parse::parse_device(r.name.clone(), text).unwrap(),
            );
        }
        let out = Simulator::new(&topo, &cfg).run();
        let shadowed = self.shadowed;
        self.check(&topo, &out, &[], "shadowing line");
        assert!(self.shadowed > shadowed, "R1's static shadows 10.2/16");
    }

    /// At least a tenth of the answers came from a BGP best: the view's
    /// BGP half was exercised, not only the base FIBs.
    fn assert_bgp_answers(&self) {
        assert!(
            self.bgp * 10 > self.lookups,
            "{} of {} answers from BGP",
            self.bgp,
            self.lookups
        );
    }
}

/// Every site of every class on `wan(24,48)`.
#[cfg(feature = "heavy-tests")]
#[test]
fn fib_view_answers_as_the_materialized_fib_at_every_site_of_wan72() {
    let mut seen = Seen::default();
    let net = generate(&gen::wan(24, 48));
    let dsts = test_dsts(&net);
    for incident in sites(&net) {
        check_incident(&mut seen, &net, &incident, &dsts);
    }
    seen.assert_bgp_answers();
}
