//! # acr-scenarios
//!
//! Compositional incident generation. Table 1 of the paper injects nine
//! *single*-fault classes; production incidents compose. This crate
//! extends `acr-workloads` with four scenario families:
//!
//! - **Multi-independent** — two Table-1 faults at disjoint routers,
//!   the second injected into the first's already-broken config, with
//!   the combined failure surface strictly larger than the first
//!   fault's (each fault is independently observable).
//! - **Interacting** — fault pairs whose combination misbehaves in a
//!   way the parts do not: one fault *masking* another's violations,
//!   *flap-inducing* pairs (the combination oscillates, neither fault
//!   alone does), or *overlapping* pairs (both faults implicate the
//!   same property, so no single-site patch can clear it).
//! - **Cascading** — the second fault is planted at a router chosen
//!   from the first fault's *converged degraded state*: a device newly
//!   carrying rerouted traffic, or still on a failing test's path. The
//!   cascade site is a function of the converged network, not of the
//!   topology alone.
//! - **Partial observability** — a (possibly multi-fault) incident
//!   paired with a deterministic [`ObsMask`]: the repairing verifier
//!   sees only a sampled subset of the intent properties, with at least
//!   one failing property kept visible. What the mask hides, the
//!   harness can still judge under full observability.
//!
//! Everything is deterministic and seed-addressable: `compose(family,
//! net, seed)` always yields the same scenario, and every scenario
//! carries a stable FNV-1a [`Scenario::digest`] over its family, seed,
//! faults, rendered broken configs and mask — pinned by the golden
//! corpus test so silent drift becomes an explicit diff.

use acr_cfg::NetworkConfig;
use acr_net_types::{fnv1a, RouterId, SplitMix64, FNV_OFFSET};
use acr_verify::{ObsMask, Spec, Verification, Verifier};
use acr_workloads::{
    inject_at, try_inject, try_inject_into, FaultType, GeneratedNetwork, Incident, TABLE1,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The four compositional scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    MultiIndependent,
    Interacting,
    Cascading,
    PartialObservability,
}

impl ScenarioFamily {
    /// Every family, in corpus order.
    pub const ALL: [ScenarioFamily; 4] = [
        ScenarioFamily::MultiIndependent,
        ScenarioFamily::Interacting,
        ScenarioFamily::Cascading,
        ScenarioFamily::PartialObservability,
    ];

    /// Stable short tag (bench keys, report tags, digests).
    pub fn tag(self) -> &'static str {
        match self {
            ScenarioFamily::MultiIndependent => "multi-independent",
            ScenarioFamily::Interacting => "interacting",
            ScenarioFamily::Cascading => "cascading",
            ScenarioFamily::PartialObservability => "partial-observability",
        }
    }
}

impl fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// How an interacting pair interacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    /// The second fault hides at least one of the first's violations.
    Masking,
    /// The combination fails to converge; each fault alone converges.
    FlapInducing,
    /// Both faults (at disjoint routers) implicate a common property —
    /// no single-site patch can clear it.
    Overlapping,
}

impl Interaction {
    pub fn tag(self) -> &'static str {
        match self {
            Interaction::Masking => "masking",
            Interaction::FlapInducing => "flap-inducing",
            Interaction::Overlapping => "overlapping",
        }
    }
}

/// One composed incident scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub family: ScenarioFamily,
    /// The seed `compose` was called with — replaying it regenerates
    /// this exact scenario.
    pub seed: u64,
    /// Corpus label (`family/index`), assigned by [`corpus`].
    pub label: String,
    /// The injected fault classes, in injection order.
    pub faults: Vec<FaultType>,
    /// Per-injection human-readable summaries.
    pub descriptions: Vec<String>,
    /// The composed misconfigured network.
    pub broken: NetworkConfig,
    /// Properties failing under *full* observability.
    pub failing_properties: BTreeSet<String>,
    /// Failing tests visible to the scenario's verifier (masked count
    /// for partial-observability scenarios, full count otherwise).
    pub violations: usize,
    /// Set for the interacting family.
    pub interaction: Option<Interaction>,
    /// Set for the partial-observability family.
    pub mask: Option<ObsMask>,
    /// Stable FNV-1a digest of the scenario's content.
    pub digest: u64,
}

impl Scenario {
    /// The spec this scenario's repairing verifier sees: the mask's
    /// restriction for partial-observability scenarios, `full` otherwise.
    pub fn visible_spec(&self, full: &Spec) -> Spec {
        match &self.mask {
            Some(m) => m.restrict(full),
            None => full.clone(),
        }
    }

    /// The report tags a repair run on this scenario should carry.
    pub fn tags(&self) -> Vec<String> {
        let mut tags = vec![format!("family:{}", self.family.tag())];
        if let Some(i) = self.interaction {
            tags.push(format!("interaction:{}", i.tag()));
        }
        tags.push(format!("scenario:{}", self.label));
        tags
    }
}

/// The stable digest of a scenario's content: family, seed, fault
/// classes, every rendered device config, the mask's visible indices
/// and the interaction kind. Rendered text (not fingerprints) so the
/// digest is a function of the artifact itself, stable across refactors
/// of internal hashing.
fn digest_of(
    family: ScenarioFamily,
    seed: u64,
    faults: &[FaultType],
    broken: &NetworkConfig,
    mask: Option<&ObsMask>,
    interaction: Option<Interaction>,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, family.tag().as_bytes());
    h = fnv1a(h, &seed.to_le_bytes());
    for f in faults {
        h = fnv1a(h, f.to_string().as_bytes());
    }
    for (r, d) in broken.devices() {
        h = fnv1a(h, &r.0.to_le_bytes());
        h = fnv1a(h, d.to_text().as_bytes());
    }
    if let Some(m) = mask {
        for i in m.visible() {
            h = fnv1a(h, &(i as u64).to_le_bytes());
        }
    }
    if let Some(i) = interaction {
        h = fnv1a(h, i.tag().as_bytes());
    }
    h
}

/// Full verification of `cfg` against the network's true spec.
fn verify(net: &GeneratedNetwork, cfg: &NetworkConfig) -> Verification {
    Verifier::new(&net.topo, &net.spec).run_full(cfg).0
}

/// Names of failing properties.
fn failing_props(v: &Verification) -> BTreeSet<String> {
    v.records
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.property.clone())
        .collect()
}

/// Indices (into `spec.properties`) of failing properties.
fn failing_indices(spec: &Spec, v: &Verification) -> BTreeSet<usize> {
    let by_name: BTreeMap<&str, usize> = spec
        .properties
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    v.records
        .iter()
        .filter(|r| !r.passed)
        .filter_map(|r| by_name.get(r.property.as_str()).copied())
        .collect()
}

/// Whether two incidents touch disjoint router sets.
fn disjoint(a: &Incident, b: &Incident) -> bool {
    let ra = a.patch.routers();
    b.patch.routers().iter().all(|r| !ra.contains(r))
}

/// A Table-1 fault class drawn uniformly.
fn pick_fault(rng: &mut SplitMix64) -> FaultType {
    TABLE1[rng.index(TABLE1.len())].0
}

#[allow(clippy::too_many_arguments)]
fn build(
    family: ScenarioFamily,
    seed: u64,
    faults: Vec<FaultType>,
    descriptions: Vec<String>,
    broken: NetworkConfig,
    full_verification: &Verification,
    visible_violations: usize,
    interaction: Option<Interaction>,
    mask: Option<ObsMask>,
) -> Scenario {
    let digest = digest_of(family, seed, &faults, &broken, mask.as_ref(), interaction);
    Scenario {
        family,
        seed,
        label: format!("{}/seed{seed:x}", family.tag()),
        faults,
        descriptions,
        broken,
        failing_properties: failing_props(full_verification),
        violations: visible_violations,
        interaction,
        mask,
        digest,
    }
}

/// Composes one scenario of `family` from `seed`. Deterministic; `None`
/// when the bounded site/fault search finds no composition satisfying
/// the family's acceptance criteria on this network.
pub fn compose(family: ScenarioFamily, net: &GeneratedNetwork, seed: u64) -> Option<Scenario> {
    match family {
        ScenarioFamily::MultiIndependent => multi_independent(net, seed),
        ScenarioFamily::Interacting => interacting(net, seed),
        ScenarioFamily::Cascading => cascading(net, seed),
        ScenarioFamily::PartialObservability => partial_observability(net, seed),
    }
}

/// Two faults at disjoint routers, the second injected into the first's
/// broken config, with a strictly larger failure surface than the first
/// fault alone (so neither fault is latent or masked).
fn multi_independent(net: &GeneratedNetwork, seed: u64) -> Option<Scenario> {
    let mut rng = SplitMix64::new(seed ^ 0x6d69); // "mi"
    for _ in 0..16 {
        let (fa, fb) = (pick_fault(&mut rng), pick_fault(&mut rng));
        let Some(a) = try_inject(fa, net, rng.next_u64()) else {
            continue;
        };
        let Some(b) = try_inject_into(fb, net, &a.broken, rng.next_u64()) else {
            continue;
        };
        if !disjoint(&a, &b) {
            continue;
        }
        let va = verify(net, &a.broken);
        let vb = verify(net, &b.broken);
        let (fail_a, fail_ab) = (failing_props(&va), failing_props(&vb));
        if !fail_a.is_subset(&fail_ab) || fail_ab.len() == fail_a.len() {
            continue; // the pair masks or adds nothing — not independent
        }
        let violations = vb.failed_count();
        return Some(build(
            ScenarioFamily::MultiIndependent,
            seed,
            vec![fa, fb],
            vec![a.description, b.description],
            b.broken,
            &vb,
            violations,
            None,
            None,
        ));
    }
    None
}

/// Fault pairs whose combination misbehaves in a way the parts do not:
/// flap-inducing, masking, or overlapping (see [`Interaction`]).
fn interacting(net: &GeneratedNetwork, seed: u64) -> Option<Scenario> {
    let mut rng = SplitMix64::new(seed ^ 0x6978); // "ix"
    for _ in 0..24 {
        let (fa, fb) = (pick_fault(&mut rng), pick_fault(&mut rng));
        let Some(a) = try_inject(fa, net, rng.next_u64()) else {
            continue;
        };
        let Some(b) = try_inject_into(fb, net, &a.broken, rng.next_u64()) else {
            continue;
        };
        let va = verify(net, &a.broken);
        let vb = verify(net, &b.broken);
        let (fail_a, fail_ab) = (failing_props(&va), failing_props(&vb));
        if fail_ab.is_empty() {
            continue;
        }
        let interaction = if va.flapping.is_empty() && !vb.flapping.is_empty() {
            Some(Interaction::FlapInducing)
        } else if fail_a.iter().any(|p| !fail_ab.contains(p)) {
            Some(Interaction::Masking)
        } else if disjoint(&a, &b) {
            // Overlapping: the second fault *alone* (same site, pristine
            // config) already implicates a property the first breaks —
            // clearing that property needs both sites patched.
            b.patch
                .routers()
                .first()
                .and_then(|r| inject_at(fb, net, &net.cfg, *r))
                .filter(|b_alone| {
                    let vba = verify(net, &b_alone.broken);
                    failing_props(&vba).intersection(&fail_a).next().is_some()
                })
                .map(|_| Interaction::Overlapping)
        } else {
            None
        };
        let Some(kind) = interaction else { continue };
        let violations = vb.failed_count();
        return Some(build(
            ScenarioFamily::Interacting,
            seed,
            vec![fa, fb],
            vec![a.description, b.description],
            b.broken,
            &vb,
            violations,
            Some(kind),
            None,
        ));
    }
    None
}

/// The second fault is planted where the first fault's *converged
/// degraded state* put traffic: a router newly on some test's forwarding
/// path (rerouted through it), or still on a failing test's path.
fn cascading(net: &GeneratedNetwork, seed: u64) -> Option<Scenario> {
    let mut rng = SplitMix64::new(seed ^ 0x6373); // "cs"
    let intended = verify(net, &net.cfg);
    for _ in 0..16 {
        let fa = pick_fault(&mut rng);
        let Some(a) = try_inject(fa, net, rng.next_u64()) else {
            continue;
        };
        let va = verify(net, &a.broken);
        // Cascade sites, discovery order: rerouted-through routers first
        // (per test, routers on the degraded path but not the intended
        // one), then routers still carrying failing traffic.
        let mut sites: Vec<RouterId> = Vec::new();
        for (db, di) in va.records.iter().zip(intended.records.iter()) {
            for r in &db.path {
                if !di.path.contains(r) && !sites.contains(r) {
                    sites.push(*r);
                }
            }
        }
        for rec in va.records.iter().filter(|r| !r.passed) {
            for r in &rec.path {
                if !sites.contains(r) {
                    sites.push(*r);
                }
            }
        }
        let first_sites: Vec<RouterId> = a.patch.routers();
        sites.retain(|r| !first_sites.contains(r));
        if sites.is_empty() {
            continue;
        }
        let fb = pick_fault(&mut rng);
        let fail_a = failing_props(&va);
        let start = rng.index(sites.len());
        for k in 0..sites.len() {
            let site = sites[(start + k) % sites.len()];
            let Some(b) = inject_at(fb, net, &a.broken, site) else {
                continue;
            };
            let vb = verify(net, &b.broken);
            if failing_props(&vb) == fail_a {
                continue; // the cascade must change the failure surface
            }
            let site_name = net.topo.router(site).name.clone();
            let violations = vb.failed_count();
            return Some(build(
                ScenarioFamily::Cascading,
                seed,
                vec![fa, fb],
                vec![
                    a.description,
                    format!(
                        "cascade at {site_name} (degraded-path router): {}",
                        b.description
                    ),
                ],
                b.broken,
                &vb,
                violations,
                None,
                None,
            ));
        }
    }
    None
}

/// A (possibly two-fault) incident under a deterministic observability
/// mask that hides at least one property while keeping at least one
/// *failing* property visible.
fn partial_observability(net: &GeneratedNetwork, seed: u64) -> Option<Scenario> {
    let mut rng = SplitMix64::new(seed ^ 0x706f); // "po"
    for _ in 0..16 {
        let fa = pick_fault(&mut rng);
        let Some(a) = try_inject(fa, net, rng.next_u64()) else {
            continue;
        };
        // Half the scenarios layer a second independent fault under the
        // mask — diagnosing *two* faults from a partial view.
        let fb = pick_fault(&mut rng);
        let second = if rng.next_u64().is_multiple_of(2) {
            try_inject_into(fb, net, &a.broken, rng.next_u64()).filter(|b| disjoint(&a, b))
        } else {
            None
        };
        let (broken, faults, descriptions) = match second {
            Some(b) => (
                b.broken,
                vec![a.fault, b.fault],
                vec![a.description, b.description],
            ),
            None => (a.broken, vec![a.fault], vec![a.description]),
        };
        let v = verify(net, &broken);
        let fail_idx = failing_indices(&net.spec, &v);
        let Some(&first_failing) = fail_idx.iter().next() else {
            continue;
        };
        let mut mask = ObsMask::sample(&net.spec, 60, rng.next_u64());
        mask.ensure_visible(first_failing);
        if mask.hidden_count() == 0 {
            continue; // degenerate draw — full observability is no scenario
        }
        // Visible violations: failing tests of visible properties only.
        let visible_spec = mask.restrict(&net.spec);
        let vv = Verifier::new(&net.topo, &visible_spec).run_full(&broken).0;
        let violations = vv.failed_count();
        if violations == 0 {
            continue;
        }
        return Some(build(
            ScenarioFamily::PartialObservability,
            seed,
            faults,
            descriptions,
            broken,
            &v,
            violations,
            None,
            Some(mask),
        ));
    }
    None
}

/// Derives the seed for a family's `sub`-th composition attempt.
fn scenario_seed(seed: u64, family: ScenarioFamily, sub: u64) -> u64 {
    let salt = fnv1a(FNV_OFFSET, family.tag().as_bytes());
    SplitMix64::new(seed ^ salt ^ sub.wrapping_mul(0x9e3779b97f4a7c15)).next_u64()
}

/// Generates a corpus of up to `per_family` scenarios for *each* family,
/// deterministically from `seed`, deduplicated by digest. Labels are
/// `family/index`.
pub fn corpus(net: &GeneratedNetwork, per_family: usize, seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for family in ScenarioFamily::ALL {
        let mut digests = BTreeSet::new();
        let (mut found, mut sub) = (0usize, 0u64);
        while found < per_family && sub < per_family as u64 * 24 {
            let s = scenario_seed(seed, family, sub);
            sub += 1;
            let Some(mut sc) = compose(family, net, s) else {
                continue;
            };
            if !digests.insert(sc.digest) {
                continue;
            }
            sc.label = format!("{}/{found}", family.tag());
            out.push(sc);
            found += 1;
        }
    }
    out
}

/// A single digest over a whole corpus (labels + scenario digests) —
/// what `ci.sh` compares across processes and toggles.
pub fn corpus_digest(scenarios: &[Scenario]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in scenarios {
        h = fnv1a(h, s.label.as_bytes());
        h = fnv1a(h, &s.digest.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_topo::gen;
    use acr_workloads::generate;

    fn wan48() -> GeneratedNetwork {
        generate(&gen::wan(4, 8))
    }

    #[test]
    fn every_family_composes_on_the_standard_wan() {
        let net = wan48();
        let corpus = corpus(&net, 2, 42);
        for family in ScenarioFamily::ALL {
            let n = corpus.iter().filter(|s| s.family == family).count();
            assert!(n >= 1, "family {family} produced no scenario");
        }
        for s in &corpus {
            assert!(s.violations >= 1, "{}: no visible violations", s.label);
            assert!(
                !s.failing_properties.is_empty(),
                "{}: no failing properties",
                s.label
            );
            assert!(!s.faults.is_empty());
            assert_eq!(s.faults.len(), s.descriptions.len());
        }
    }

    #[test]
    fn composition_is_deterministic() {
        let net = wan48();
        let a = corpus(&net, 2, 7);
        let b = corpus(&net, 2, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.digest, y.digest, "{} drifted", x.label);
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.broken.fingerprint(),
                y.broken.fingerprint(),
                "{}: config drifted",
                x.label
            );
        }
        assert_eq!(corpus_digest(&a), corpus_digest(&b));
    }

    #[test]
    fn multi_independent_faults_are_disjoint_and_additive() {
        let net = wan48();
        let sc = (0..32u64)
            .find_map(|s| compose(ScenarioFamily::MultiIndependent, &net, s))
            .expect("some seed composes");
        assert_eq!(sc.faults.len(), 2);
        assert!(sc.failing_properties.len() >= 2 || sc.violations >= 2);
    }

    #[test]
    fn partial_observability_masks_but_keeps_a_failing_property() {
        let net = wan48();
        let sc = (0..32u64)
            .find_map(|s| compose(ScenarioFamily::PartialObservability, &net, s))
            .expect("some seed composes");
        let mask = sc.mask.as_ref().expect("po scenarios carry a mask");
        assert!(mask.hidden_count() >= 1);
        assert!(sc.violations >= 1, "a failing property must stay visible");
        let visible = sc.visible_spec(&net.spec);
        assert_eq!(visible.len(), mask.visible_count());
    }

    #[test]
    fn interacting_scenarios_carry_their_kind() {
        let net = wan48();
        let sc = (0..48u64)
            .find_map(|s| compose(ScenarioFamily::Interacting, &net, s))
            .expect("some seed composes");
        assert!(sc.interaction.is_some());
        assert!(sc.tags().iter().any(|t| t.starts_with("interaction:")));
    }
}
