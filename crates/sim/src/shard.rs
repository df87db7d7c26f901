//! Per-prefix sharded convergence: mode selection, the thread-budget
//! clamp, and the deterministic join helpers.
//!
//! Prefixes are independent given the session list — no transfer, memo
//! entry, or derivation ever crosses a prefix boundary (the prefix is
//! part of every route, and memo hits are impossible across prefixes).
//! The sharded runner (`Simulator::run_prefixes_sharded` in `sim.rs`)
//! exploits this: it partitions the globally sorted prefix list
//! round-robin over workers, runs one sparse dirty-set engine per worker
//! with a private arena + [`crate::bgp::PolicyMemo`], and joins
//! deterministically.
//!
//! **Why the join is byte-identical to the unsharded run.** The engine's
//! dynamics are invariant under arena renumbering: within one arena,
//! `DerivId` equality is content equality, and no comparison the engine
//! makes depends on the numeric id values. So the sequence of derivation
//! *contents* a prefix interns (parents expressed as references to
//! earlier contents) is a function of the prefix alone, not of which
//! prefixes ran earlier in the same arena. A worker arena starts empty
//! and processes its prefixes in the same relative order as the global
//! sorted order, so the nodes created while running prefix *P* are a
//! superset of the nodes the unsharded run would create for *P*
//! (the worker has seen fewer earlier prefixes), in the same
//! first-intern order. Replaying those created ranges node-by-node
//! through the caller's arena, visiting prefixes in *global sorted
//! order*, dedups every globally-known content and appends exactly the
//! unsharded run's new-node sequence — hence a byte-identical arena,
//! and outcome remapping via the per-worker cumulative id maps yields
//! byte-identical outcomes (rejection lists are re-sorted after the
//! remap, matching the engines' sorted-and-deduped invariant).
//! `prop_shard_sim` exercises the claim over random topologies × faults
//! × shard counts.

use crate::bgp::PrefixOutcome;
use crate::deriv::{DerivArena, DerivId};
use crate::route::Route;
use acr_obs::metrics::Counter;

pub(crate) static SHARD_RUNS: Counter = Counter::new("sim.shard_runs");
pub(crate) static SHARD_PREFIXES: Counter = Counter::new("sim.shard_prefixes");
pub(crate) static SHARD_REPLAYED_NODES: Counter = Counter::new("sim.shard_replayed_nodes");

/// How a multi-prefix run is sharded across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Shard over the host's available parallelism
    /// ([`resolve_threads`]`(0)` workers) when that is enough workers to
    /// win back the join, else not at all.
    #[default]
    Auto,
    /// Never shard (the candidate-validation path sets this explicitly:
    /// candidates thread a cross-candidate memo and warm starts, which
    /// the sharded runner deliberately does not consult).
    Off,
    /// Exactly this many workers, whatever the host has — what the
    /// shard-count sweep in `prop_shard_sim` uses.
    Workers(usize),
}

impl ShardMode {
    /// The worker count to shard with, or `None` to run unsharded.
    pub(crate) fn resolve(self) -> Option<usize> {
        match self {
            ShardMode::Off => None,
            ShardMode::Workers(n) => Some(n.max(1)),
            ShardMode::Auto => auto_workers(resolve_threads(0)),
        }
    }
}

/// Workers `Auto` needs before it shards. The join replays every
/// worker's arena into the caller's on one thread, and that alone costs
/// about what the whole unsharded run does: on two cores, unsharded /
/// one worker / two workers took 6.5 / 13.0 / 14.4 ms on `wan(24,48)`
/// and 1.56 / 3.38 / 2.41 s on `wan(200,400)`. Fitted to the larger
/// (1.44 s of join + 1.94 s of convergence to divide), sharding breaks
/// even at sixteen workers; below that `Auto` runs the unsharded path.
const AUTO_MIN_WORKERS: usize = 16;

fn auto_workers(avail: usize) -> Option<usize> {
    (avail >= AUTO_MIN_WORKERS).then_some(avail)
}

/// Worker-thread count: `0` = available parallelism; explicit requests
/// are clamped to the host's available parallelism. Candidate validation
/// and sharded convergence are CPU-bound with no blocking I/O, so
/// oversubscription only adds contention (measured 1.7× slower at
/// threads=4 on a 1-core host) — there is no workload where more workers
/// than cores helps. (Shared with `acr-core`'s candidate worker pool.)
pub fn resolve_threads(configured: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if configured != 0 {
        return configured.min(avail);
    }
    avail
}

/// Replays one worker arena's `[start, end)` created-node range into
/// `main`, extending the worker's cumulative id map (which must already
/// cover `[0, start)` — ranges are replayed in creation order). Returns
/// the number of nodes replayed. Parents always have smaller ids than
/// their node (the arena is append-only), so the map is total when a
/// parent is translated.
pub(crate) fn replay_range(
    main: &mut DerivArena,
    worker: &DerivArena,
    range: (usize, usize),
    map: &mut Vec<DerivId>,
) -> u64 {
    let (start, end) = range;
    debug_assert_eq!(map.len(), start, "ranges must be replayed in order");
    for nid in start..end {
        let node = worker.node(DerivId(nid as u32));
        let parents: Vec<DerivId> = node.parents.iter().map(|p| map[p.0 as usize]).collect();
        let id = main.intern(node.kind, node.lines.clone(), parents);
        map.push(id);
    }
    (end - start) as u64
}

fn remap_route(mut r: Route, map: &[DerivId]) -> Route {
    r.deriv = map[r.deriv.0 as usize];
    r
}

fn remap_rejections(mut rejections: Vec<DerivId>, map: &[DerivId]) -> Vec<DerivId> {
    for d in rejections.iter_mut() {
        *d = map[d.0 as usize];
    }
    // The map is injective (content-addressed on both sides) but not
    // monotone — globally known contents translate to small ids — so the
    // engines' sorted-and-deduped invariant must be re-established.
    rejections.sort_unstable();
    rejections.dedup();
    rejections
}

/// Translates a worker-arena outcome into the caller's arena.
pub(crate) fn remap_outcome(o: PrefixOutcome, map: &[DerivId]) -> PrefixOutcome {
    match o {
        PrefixOutcome::Converged {
            rounds,
            best,
            rejections,
        } => PrefixOutcome::Converged {
            rounds,
            best: best
                .into_iter()
                .map(|r| r.map(|r| remap_route(r, map)))
                .collect(),
            rejections: remap_rejections(rejections, map),
        },
        PrefixOutcome::Flapping {
            first_seen_round,
            cycle_len,
            observed,
            rejections,
        } => PrefixOutcome::Flapping {
            first_seen_round,
            cycle_len,
            observed: observed
                .into_iter()
                .map(|v| v.into_iter().map(|r| remap_route(r, map)).collect())
                .collect(),
            rejections: remap_rejections(rejections, map),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_shards_only_with_enough_workers_to_pay_for_the_join() {
        assert_eq!(auto_workers(1), None);
        assert_eq!(auto_workers(2), None);
        assert_eq!(auto_workers(AUTO_MIN_WORKERS), Some(AUTO_MIN_WORKERS));
        // An explicit request still shards at one worker: the
        // shard-count sweep in `prop_shard_sim` depends on it.
        assert_eq!(ShardMode::Workers(1).resolve(), Some(1));
        assert_eq!(ShardMode::Off.resolve(), None);
    }
}
