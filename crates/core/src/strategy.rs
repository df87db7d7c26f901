//! Fix-generation strategies (§4.2).
//!
//! **Brute force** systematically applies every applicable template to the
//! most suspicious statements — the Cartesian product the paper describes.
//! It is the [`Strategy::Beam`] that expands every surviving variant and
//! makes no pairs ([`Strategy::brute_force`]). One round of it
//! (`max_iterations: 1`) is the single-patch ablation arm: the population
//! is the unpatched root, so every candidate is one template application
//! to the original configuration, and a repair that needs edits at two
//! independent fault sites is out of its reach.
//!
//! **Search-based (genetic)** randomly applies templates to suspicious
//! statements "selected from either the original program or any one of the
//! updated programs from previous iterations", and additionally performs
//! single-point crossover between two candidate patches. The upside the
//! paper highlights — statements to modify are not limited to the original
//! program — is what lets it assemble multi-place repairs (like the two
//! prefix-list edits of the Figure 2 incident) across iterations.

use crate::engine::MAX_POPULATION;
use acr_cfg::Patch;

/// Candidate-generation strategy for the repair engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Random mutation over all variants plus single-point crossover.
    Genetic {
        /// Mutations attempted per iteration.
        mutations: usize,
        /// Crossover pairs attempted per iteration.
        crossovers: usize,
        /// Suspicious-line pool size to sample from.
        top_k: usize,
    },
    /// Multi-patch beam search over patch *sets*: the best `width`
    /// variants are each expanded with every per-suspect template fix
    /// *and* with pairwise combinations of fixes at distinct suspicious
    /// lines (capped at `max_pairs` per parent). Combined with the
    /// parent's accumulated patch this searches sets of coordinated
    /// edits directly, instead of waiting for them to accrete one
    /// iteration at a time; the lint gate prunes the combinations
    /// like any other candidate.
    Beam {
        /// Beam width: surviving variants expanded per iteration.
        width: usize,
        /// How many top-ranked lines to expand beyond the tied maximum.
        top_lines: usize,
        /// Pairwise fix combinations attempted per expanded parent.
        max_pairs: usize,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Genetic {
            mutations: 16,
            crossovers: 4,
            top_k: 10,
        }
    }
}

impl Strategy {
    /// The paper's brute force (§4.2): suspicious lines × applicable
    /// templates, expanded from every surviving variant, so multi-place
    /// repairs accrete one template application per iteration. A beam as
    /// wide as the population that makes no pairs.
    pub fn brute_force() -> Self {
        Strategy::Beam {
            width: MAX_POPULATION,
            top_lines: 15,
            max_pairs: 0,
        }
    }

    /// A multi-patch beam with sensible defaults.
    pub fn beam() -> Self {
        Strategy::Beam {
            width: 4,
            top_lines: 10,
            max_pairs: 24,
        }
    }
}

/// Single-point crossover of two patches: the first `point_a` edits of `a`
/// followed by the edits of `b` from `point_b` on. Offspring may fail to
/// apply (the validator discards those), exactly like ill-formed GenProg
/// offspring failing to compile.
pub fn crossover(a: &Patch, b: &Patch, point_a: usize, point_b: usize) -> Patch {
    let mut edits = Vec::new();
    edits.extend(a.edits.iter().take(point_a).cloned());
    edits.extend(b.edits.iter().skip(point_b).cloned());
    Patch { edits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::Edit;
    use acr_net_types::RouterId;

    fn del(r: u32, i: usize) -> Edit {
        Edit::Delete {
            router: RouterId(r),
            index: i,
        }
    }

    #[test]
    fn crossover_combines_prefix_and_suffix() {
        let a = Patch {
            edits: vec![del(0, 0), del(0, 1)],
        };
        let b = Patch {
            edits: vec![del(1, 0), del(1, 1), del(1, 2)],
        };
        let c = crossover(&a, &b, 1, 2);
        assert_eq!(c.edits, vec![del(0, 0), del(1, 2)]);
        // Degenerate points produce copies.
        assert_eq!(crossover(&a, &b, 2, 3), a);
        assert_eq!(crossover(&a, &b, 0, 0), b);
    }

    #[test]
    fn default_strategy_is_genetic() {
        assert!(matches!(Strategy::default(), Strategy::Genetic { .. }));
        assert!(matches!(
            Strategy::brute_force(),
            Strategy::Beam {
                top_lines: 15,
                max_pairs: 0,
                ..
            }
        ));
    }
}
