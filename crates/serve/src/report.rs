//! Report serialization and determinism signatures.
//!
//! The daemon's result payloads carry the full [`RepairReport`] as JSON
//! ([`report_json`]; each `iteration_detail` entry carries every
//! funnel bucket, `skipped` included), and its CI-facing digests fold
//! per-job *signatures*:
//!
//! - [`decision_signature`] — everything the repair *chose* (outcome +
//!   patch, fitness trajectory, generation/keep decisions, attribution,
//!   tags) and none of the cache accounting. Resident serving is
//!   decision-transparent, so this is the signature a warm daemon must
//!   reproduce byte-for-byte against a cold batch run.
//! - [`full_signature`] — the decision signature plus the
//!   validated/cached/skipped accounting. A *cold* daemon (fresh session
//!   per job) must match a one-shot [`acr_core::RepairEngine::repair`]
//!   on this too.
//! - [`outcome_signature`] — the decision signature without the final
//!   iteration's `fitness`, `kept`, `lint_rejected` and `invalid`: the
//!   repair itself and every decision that shaped the search. The engine
//!   stops validating the final iteration at its winner, so which of
//!   that iteration's candidates were reached is validation order, not
//!   outcome; a change to that order must leave this signature alone.

use acr_core::{RepairOutcome, RepairReport};
use acr_net_types::{fnv1a, FNV_OFFSET};
use acr_obs::json;

/// FNV-1a 64 over signature lines, newline-folded — the same digest
/// shape `exp_scenarios` prints as `report_digest=<hex>` for ci.sh
/// cross-process comparison.
pub fn digest(signatures: impl IntoIterator<Item = impl AsRef<str>>) -> u64 {
    let mut h = FNV_OFFSET;
    for s in signatures {
        h = fnv1a(h, s.as_ref().as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

/// The signature label of one job: network + engine seed. Job ids and
/// tenants deliberately stay out — a batch run reproducing the same
/// repairs must fold to the same digest.
pub fn job_label(network: &str, seed: u64) -> String {
    format!("{network}#{seed}")
}

fn outcome_str(o: &RepairOutcome) -> String {
    match o {
        RepairOutcome::Fixed { patch, .. } => format!("fixed {patch}"),
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("no_candidates {best_fitness} {best_patch}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("iteration_limit {best_fitness} {best_patch}"),
    }
}

/// The outcome's kind tag (`fixed` / `no_candidates` / `iteration_limit`).
pub fn outcome_kind(o: &RepairOutcome) -> &'static str {
    match o {
        RepairOutcome::Fixed { .. } => "fixed",
        RepairOutcome::NoCandidates { .. } => "no_candidates",
        RepairOutcome::IterationLimit { .. } => "iteration_limit",
    }
}

/// The decision trace of a report: what was decided, not what it cost.
pub fn decision_signature(label: &str, r: &RepairReport) -> String {
    signature(label, r, false)
}

/// The decision trace without the final iteration's validation-order
/// fields (`fitness`, `kept`, `lint_rejected`, `invalid`): outcome,
/// patch, attribution, initial failures, the iteration count, the final
/// iteration's `best_fitness` and `generated`, and every earlier
/// iteration in full.
pub fn outcome_signature(label: &str, r: &RepairReport) -> String {
    signature(label, r, true)
}

fn signature(label: &str, r: &RepairReport, outcome_only: bool) -> String {
    let last = r.iterations.len().saturating_sub(1);
    let iters: Vec<String> = r
        .iterations
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if outcome_only && i == last {
                format!("{}:{}:{}", s.iteration, s.best_fitness, s.generated)
            } else {
                format!(
                    "{}:{}:{}:{}:{}:{}:{}",
                    s.iteration,
                    s.fitness,
                    s.best_fitness,
                    s.generated,
                    s.kept,
                    s.lint_rejected,
                    s.invalid
                )
            }
        })
        .collect();
    let attr: Vec<String> = r
        .attribution
        .iter()
        .map(|seg| {
            format!(
                "{}/{}/{}/{}",
                seg.iteration,
                seg.op,
                seg.origin.map(|l| l.to_string()).unwrap_or_default(),
                seg.edits
            )
        })
        .collect();
    format!(
        "{label} | {} | init={} | {} | attr={} | tags={}",
        outcome_str(&r.outcome),
        r.initial_failed,
        iters.join(";"),
        attr.join(";"),
        r.tags.join(",")
    )
}

/// The decision signature plus the validation-cost accounting. Byte-
/// identical between a *cold* daemon job and a one-shot repair; a
/// resident job moves exactly these buckets.
pub fn full_signature(label: &str, r: &RepairReport) -> String {
    let buckets: Vec<String> = r
        .iterations
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}:{}:{}",
                s.iteration,
                s.validated,
                s.cached,
                s.skipped,
                s.recomputed_prefixes,
                s.reused_prefixes
            )
        })
        .collect();
    format!(
        "{} || v={} c={} | {}",
        decision_signature(label, r),
        r.validations,
        r.validations_cached,
        buckets.join(";")
    )
}

/// The full report as a JSON object (the daemon's `result` payload).
/// Everything except `wall_us`/`stage` is deterministic for a given
/// (network, incident, seed).
pub fn report_json(r: &RepairReport) -> String {
    let iters: Vec<String> = r
        .iterations
        .iter()
        .map(|s| {
            json::Obj::new()
                .int("iteration", s.iteration)
                .int("fitness", s.fitness)
                .int("best_fitness", s.best_fitness)
                .int("generated", s.generated)
                .int("kept", s.kept)
                .int("lint_rejected", s.lint_rejected)
                .int("validated", s.validated)
                .int("cached", s.cached)
                .int("invalid", s.invalid)
                .int("skipped", s.skipped)
                .int("recomputed_prefixes", s.recomputed_prefixes)
                .int("reused_prefixes", s.reused_prefixes)
                .build()
        })
        .collect();
    let attr: Vec<String> = r
        .attribution
        .iter()
        .map(|seg| {
            json::Obj::new()
                .int("iteration", seg.iteration)
                .str("op", &seg.op)
                .str(
                    "origin",
                    &seg.origin.map(|l| l.to_string()).unwrap_or_default(),
                )
                .int("edits", seg.edits)
                .build()
        })
        .collect();
    let patch = match &r.outcome {
        RepairOutcome::Fixed { patch, .. } => patch.to_string(),
        RepairOutcome::NoCandidates { best_patch, .. }
        | RepairOutcome::IterationLimit { best_patch, .. } => best_patch.to_string(),
    };
    let best_fitness = match &r.outcome {
        RepairOutcome::Fixed { .. } => 0,
        RepairOutcome::NoCandidates { best_fitness, .. }
        | RepairOutcome::IterationLimit { best_fitness, .. } => *best_fitness,
    };
    json::Obj::new()
        .str("outcome", outcome_kind(&r.outcome))
        .str("patch", &patch)
        .int("best_fitness", best_fitness)
        .int("initial_failed", r.initial_failed)
        .int("iterations", r.iterations.len())
        .int("validations", r.validations)
        .int("validations_cached", r.validations_cached)
        .u64("wall_us", r.wall.as_micros() as u64)
        .raw("iteration_detail", &json::array(iters))
        .raw("attribution", &json::array(attr))
        .raw(
            "tags",
            &json::array(r.tags.iter().map(|t| format!("\"{}\"", json::escape(t)))),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = digest(["x", "y"]);
        let b = digest(["y", "x"]);
        assert_ne!(a, b);
        assert_eq!(a, digest(["x", "y"]));
        // Line folding means ["xy"] != ["x","y"].
        assert_ne!(digest(["xy"]), a);
    }
}
