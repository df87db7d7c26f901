//! The cross-device rule over the `acr-flow` may-propagation facts.
//!
//! [`Rule::UnimportableRoute`] fires on a **definite negative** of the
//! abstract interpretation: the may-relation over-approximates every
//! concrete behaviour, so "cannot be accepted abstractly" implies
//! "cannot be accepted in any simulation" — which is what keeps the rule
//! false-positive free on the clean workload corpus. It is a
//! [`Severity::Warning`](crate::Severity): it describes a network-wide
//! intent mismatch, not per-device incoherence, so it seeds
//! localization but never vetoes a candidate.

use crate::ctx::Ctx;
use crate::diag::{Diagnostic, Rule};
use acr_flow::FlowFacts;

/// [`Rule::UnimportableRoute`]: an originated prefix that passes at least
/// one of its origin's export policies but is rejected by every
/// neighbor's import.
pub(crate) fn run(ctx: &Ctx<'_>, facts: &FlowFacts, out: &mut Vec<Diagnostic>) {
    for ((r, p), lines) in &facts.origins {
        let mut offered = false;
        let mut accepted = false;
        for (s, sf) in facts.sessions.iter().zip(&facts.session_facts) {
            let dir = if s.a == *r {
                &sf.a_to_b
            } else if s.b == *r {
                &sf.b_to_a
            } else {
                continue;
            };
            offered |= dir.offered.contains(p);
            accepted |= dir.accepted.contains(p);
        }
        if offered && !accepted {
            let line = lines.iter().map(|l| l.line).min().unwrap_or(1);
            out.push(ctx.diag(
                Rule::UnimportableRoute,
                *r,
                (line, line),
                format!(
                    "originated prefix {p} survives an export policy but no \
                     neighbor's import policy can accept it"
                ),
            ));
        }
    }
}
