//! Workload inputs, made from the seed.
//!
//! The **fault-class mix of every workload is fixed**; the seed picks
//! the *site* of each fault (uniformly among the routers where the
//! fault is observable) and the job order. Repair cost is set mostly by
//! the fault class (6 ms for a missing redistribution, 86 ms for a
//! missing route policy on the 12-router WAN), so a corpus whose class
//! mix is *sampled* from the seed (`sample_incidents`,
//! `acr_scenarios::corpus`) has a median job latency that moves by 2-4x
//! between seeds — no regression bound survives that. Fixing the mix
//! and seeding the sites keeps inputs seed-dependent while the metrics
//! stay comparable across seeds.
//!
//! Two job sets also have **fixed sites** (the first observable one in
//! router order), because there the site alone moves a job's cost by
//! more than any bound: the six `wan72` jobs (596-1165 ms for a missing
//! redistribution, by router) and the two-fault tail of `serve_stream`
//! (31-136 ms for one pair under the daemon's default strategy). For
//! them the seed sets the order only.

use acr::net_types::SplitMix64;
use acr::prelude::*;
use acr::topo::gen;
use acr::workloads::{inject_at, GeneratedNetwork, Incident};
use std::collections::BTreeSet;

/// The Table-1 class no workload contains (2 of the table's 24
/// incidents). At this commit the engine reports `Fixed` for a missing
/// route policy on the last backbone router of `wan(4,8)` with a patch
/// that a fresh `Verifier::run_full` rejects — pinned by the ignored
/// test in `tests/known_failures.rs` — and a workload must not contain
/// failing jobs. Restore the class (it is the slowest: 1 to 7
/// iterations depending on the site) when that test passes.
pub const EXCLUDED: FaultType = FaultType::MissingRoutePolicy;

use FaultType::*;

/// `corpus12`: Table 1's shares of a dozen incidents (2.5, 1.5, 0.5, 2,
/// 1.5, 0.5, 0.5, 2 without the [`EXCLUDED`] class), rounded so that
/// every class appears and the twelve incidents can be distinct
/// (`wan(4,8)` has one site for a missing PBR permit, so of the two
/// classes at 1.5 the other is rounded up).
pub const CORPUS12: [FaultType; 12] = [
    MissingRedistribution,
    MissingRedistribution,
    MissingPbrPermit,
    ExtraPbrRedirect,
    MissingPeerGroup,
    MissingPeerGroup,
    ExtraPeerGroupItem,
    ExtraPeerGroupItem,
    StaleRouteMap,
    WrongOverrideAsn,
    MissingPrefixListItems,
    MissingPrefixListItems,
];

/// `wan72`: Table 1's shares of six incidents are 1.25, 0.75, 0.25, 1,
/// 0.75, 0.25, 0.25, 1: the five classes at 0.75 or more once each, and
/// the largest a second time. Chosen by weight, not by cost (the jobs
/// take 0.7 to 1.8 s), so a run fits only three passes.
pub const WAN72: [FaultType; 6] = [
    MissingRedistribution,
    MissingRedistribution,
    MissingPbrPermit,
    MissingPeerGroup,
    ExtraPeerGroupItem,
    MissingPrefixListItems,
];

/// `scenarios8`: eight two-fault scenarios of the multi-independent
/// shape (the second fault injected into the first's broken config at a
/// router the first did not touch), as ordered pairs covering the eight
/// remaining Table-1 classes. Each is repaired correctly by the beam
/// search at all 144 pairs of sites of `wan(4,8)` with a candidate
/// count that depends little on the sites (checked exhaustively when
/// chosen): six pairs of ~35 candidates, one of 74, one of ~130.
pub const SCENARIOS8: [(FaultType, FaultType); 8] = [
    (MissingRedistribution, MissingPrefixListItems),
    (MissingPbrPermit, MissingRedistribution),
    (ExtraPbrRedirect, MissingPeerGroup),
    (MissingPeerGroup, ExtraPeerGroupItem),
    (StaleRouteMap, MissingPeerGroup),
    (MissingPrefixListItems, WrongOverrideAsn),
    (WrongOverrideAsn, MissingRedistribution),
    (MissingPbrPermit, MissingPrefixListItems),
];

/// Rounds of back-to-back resubmission, and of the rotating window.
pub const ROUNDS: usize = 3;
/// Width of the rotating window: above `acr::core::WARM_SLOTS`, so
/// every revisit finds its warm slot evicted.
pub const WINDOW: usize = 6;
const _: () = assert!(WINDOW > acr::core::WARM_SLOTS);
/// The network name daemon jobs are submitted against.
pub const NETWORK: &str = "bench";

/// One distinct repair job.
pub struct Job {
    pub label: String,
    pub broken: NetworkConfig,
    /// Multi-patch beam search instead of the default strategy.
    pub beam: bool,
    /// The submit line (daemon workload only, else empty).
    pub line: String,
}

/// Everything a workload's run needs.
pub struct Inputs {
    pub net: GeneratedNetwork,
    pub jobs: Vec<Job>,
    /// One pass, as indices into `jobs`.
    pub pass: Vec<usize>,
    /// Timed passes of a 20 s run: a constant, so that every run ranks
    /// the same number of samples however fast the host or the code is.
    /// Sized for about 17 s on the host the benchmark was defined on.
    pub passes: usize,
}

impl Inputs {
    /// Whether jobs go through the daemon (they carry submit lines).
    pub fn daemon(&self) -> bool {
        self.jobs.iter().any(|j| !j.line.is_empty())
    }
}

/// The engine seed of every job: the product's default. (The seed moves
/// a repair's cost by up to 4x, so a per-job seed would swamp what is
/// measured.)
pub fn engine_seed() -> u64 {
    RepairConfig::default().seed
}

/// The engine configuration of a job: the product's defaults plus what
/// the job itself states.
pub fn job_config(job: &Job) -> RepairConfig {
    let mut rc = RepairConfig::default();
    if job.beam {
        rc.strategy = Strategy::beam();
    }
    rc
}

/// `fault` injected into `current` at a site that `accept`s: one drawn
/// by `rng` from all of them — every router is tried, so set-up costs
/// the same whatever the seed — or, without `rng`, the first in router
/// order. Panics (the seed check: the run exits non-zero) when the
/// network has no such site.
fn inject(
    fault: FaultType,
    net: &GeneratedNetwork,
    current: &NetworkConfig,
    rng: Option<&mut SplitMix64>,
    accept: impl Fn(&Incident) -> bool,
) -> Incident {
    let mut sites = current
        .routers()
        .into_iter()
        .filter_map(|r| inject_at(fault, net, current, r))
        .filter(accept);
    let site = match rng {
        None => sites.next(),
        Some(rng) => {
            let mut all: Vec<Incident> = sites.collect();
            (!all.is_empty()).then(|| all.swap_remove(rng.index(all.len())))
        }
    };
    site.unwrap_or_else(|| panic!("seed check: no site left for {fault:?} on this network"))
}

fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.index(i + 1));
    }
}

/// One single-fault job per entry of `faults`, no two with the same
/// broken config, at seeded sites (`seeded`) or at the first ones, in
/// seeded order.
fn singles(
    faults: &[FaultType],
    net: &GeneratedNetwork,
    rng: &mut SplitMix64,
    seeded: bool,
) -> Vec<Job> {
    let mut taken = BTreeSet::new();
    let mut jobs: Vec<Job> = faults
        .iter()
        .map(|&f| {
            let inc = inject(f, net, &net.cfg, seeded.then_some(&mut *rng), |i| {
                !taken.contains(&i.broken.fingerprint())
            });
            taken.insert(inc.broken.fingerprint());
            job(format!("{f:?}"), inc.broken, false)
        })
        .collect();
    shuffle(&mut jobs, rng);
    jobs
}

/// One two-fault job per pair of [`SCENARIOS8`], in seeded order: the
/// second fault goes into the first's broken config at a router the
/// first did not touch, so the two need two patches.
fn pairs(beam: bool, net: &GeneratedNetwork, rng: &mut SplitMix64, seeded: bool) -> Vec<Job> {
    let mut jobs: Vec<Job> = SCENARIOS8
        .iter()
        .map(|&(fa, fb)| {
            let a = inject(fa, net, &net.cfg, seeded.then_some(&mut *rng), |_| true);
            let taken = a.patch.routers();
            let b = inject(fb, net, &a.broken, seeded.then_some(&mut *rng), |b| {
                b.patch.routers().iter().all(|r| !taken.contains(r))
            });
            job(format!("{fa:?}+{fb:?}"), b.broken, beam)
        })
        .collect();
    shuffle(&mut jobs, rng);
    jobs
}

fn job(label: String, broken: NetworkConfig, beam: bool) -> Job {
    Job {
        label,
        broken,
        beam,
        line: String::new(),
    }
}

/// The whole set-up routine of `workload`: topology and configuration
/// generation, incident composition and — for the daemon workload —
/// rendering of the JSONL lines.
pub fn setup(workload: &str, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let one_pass = |jobs: &[Job]| (0..jobs.len()).collect();
    match workload {
        "corpus12" => {
            let net = generate(&gen::wan(4, 8));
            let jobs = singles(&CORPUS12, &net, &mut rng, true);
            Inputs {
                pass: one_pass(&jobs),
                passes: 110,
                net,
                jobs,
            }
        }
        "scenarios8" => {
            let net = generate(&gen::wan(4, 8));
            let jobs = pairs(true, &net, &mut rng, true);
            Inputs {
                pass: one_pass(&jobs),
                passes: 42,
                net,
                jobs,
            }
        }
        "wan72" => {
            let net = generate(&gen::wan(24, 48));
            let jobs = singles(&WAN72, &net, &mut rng, false);
            Inputs {
                pass: one_pass(&jobs),
                passes: 3,
                net,
                jobs,
            }
        }
        "serve_stream" => {
            // The corpus12 incidents, then the scenarios8 pairs (at
            // fixed sites) under the daemon's default strategy. No two
            // jobs share a config, so every first visit is cold,
            // whatever the seed.
            let net = generate(&gen::wan(4, 8));
            let mut jobs = singles(&CORPUS12, &net, &mut rng, true);
            let n = jobs.len();
            jobs.extend(pairs(false, &net, &mut rng, false));
            for j in &mut jobs {
                j.line = acr::serve::submit_line(
                    &net.topo,
                    &j.broken,
                    "ops",
                    NETWORK,
                    engine_seed(),
                    &[],
                );
            }
            // Back-to-back repeats (the warm-resume shape), a window
            // wider than the warm LRU revisited round-robin (the
            // eviction shape), then each multi-fault scenario once.
            let mut pass: Vec<usize> = (0..n).flat_map(|i| [i; ROUNDS]).collect();
            // The window's members are the same classes for every seed
            // (the first six incidents by class name): the mix's median
            // job is one of them.
            let mut window: Vec<usize> = (0..n).collect();
            window.sort_by_key(|&i| jobs[i].label.clone());
            for _ in 0..ROUNDS {
                pass.extend(&window[..WINDOW]);
            }
            pass.extend(n..jobs.len());
            Inputs {
                pass,
                passes: 18,
                net,
                jobs,
            }
        }
        other => panic!("unknown workload '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_full_size_corpora() {
        for (w, n_jobs, n_pass) in [
            ("corpus12", 12, 12),
            ("scenarios8", 8, 8),
            ("serve_stream", 20, 12 * ROUNDS + WINDOW * ROUNDS + 8),
        ] {
            for seed in [77, 78] {
                let (a, b) = (setup(w, seed), setup(w, seed));
                assert_eq!((a.jobs.len(), a.pass.len()), (n_jobs, n_pass), "{w}");
                let distinct: BTreeSet<u64> =
                    a.jobs.iter().map(|j| j.broken.fingerprint()).collect();
                assert_eq!(distinct.len(), n_jobs, "{w}: distinct configs");
                for (x, y) in a.jobs.iter().zip(&b.jobs) {
                    assert_eq!(x.label, y.label);
                    assert_eq!(x.broken.fingerprint(), y.broken.fingerprint());
                }
            }
        }
    }
}
