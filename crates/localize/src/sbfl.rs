//! Spectrum-Based Fault Localization formulas.
//!
//! One scoring loop ranks a coverage matrix: [`localize_boosted`], which
//! folds static-analysis boosts into the spectrum scores. Plain
//! [`localize`] is that loop with no boosts.

use crate::ranking::Ranking;
use acr_cfg::LineId;
use acr_prov::CoverageMatrix;
use std::collections::BTreeMap;

/// The SBFL suspiciousness formulas implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SbflFormula {
    /// The paper's Equation 1 (Jones & Harrold).
    Tarantula,
    /// `failed / sqrt(totalfailed * (failed + passed))`.
    Ochiai,
    /// `failed / (totalfailed + passed)`.
    Jaccard,
    /// `failed^star / (passed + (totalfailed - failed))`; D* with the
    /// conventional star = 2 is `DStar(2)`.
    DStar(u32),
}

impl std::fmt::Display for SbflFormula {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbflFormula::Tarantula => f.write_str("tarantula"),
            SbflFormula::Ochiai => f.write_str("ochiai"),
            SbflFormula::Jaccard => f.write_str("jaccard"),
            SbflFormula::DStar(k) => write!(f, "d-star({k})"),
        }
    }
}

/// Scores one statement from its spectrum counters.
///
/// `passed_s` / `failed_s` are the numbers of passed / failed tests
/// covering the statement; `total_passed` / `total_failed` are suite-wide
/// totals. All formulas return 0 when there are no failed tests (nothing
/// is suspicious in a healthy network), and cap division-by-zero cases at
/// `f64::INFINITY` only where the literature does (D*).
pub fn suspiciousness(
    formula: SbflFormula,
    passed_s: usize,
    failed_s: usize,
    total_passed: usize,
    total_failed: usize,
) -> f64 {
    if total_failed == 0 || failed_s == 0 {
        // A line never covered by a failure cannot explain the failure.
        return 0.0;
    }
    let (p, f, tp, tf) = (
        passed_s as f64,
        failed_s as f64,
        total_passed as f64,
        total_failed as f64,
    );
    match formula {
        SbflFormula::Tarantula => {
            let fail_ratio = f / tf;
            let pass_ratio = if total_passed == 0 { 0.0 } else { p / tp };
            fail_ratio / (pass_ratio + fail_ratio)
        }
        SbflFormula::Ochiai => f / (tf * (f + p)).sqrt(),
        SbflFormula::Jaccard => f / (tf + p),
        SbflFormula::DStar(star) => {
            let denom = p + (tf - f);
            if denom == 0.0 {
                f64::INFINITY
            } else {
                f.powi(star as i32) / denom
            }
        }
    }
}

/// Scores every covered line of a coverage matrix: [`localize_boosted`]
/// with no boosts, under which every factor is 1 and no line is added.
pub fn localize(matrix: &CoverageMatrix, formula: SbflFormula) -> Ranking {
    localize_boosted(matrix, formula, &BTreeMap::new())
}

/// Scores every covered line, multiplying suspiciousness by a per-line
/// boost factor (static-analysis hits from `acr-lint` feed in here).
///
/// Lines absent from `boosts` keep their spectrum score (factor 1). A
/// boosted line whose spectrum score is 0 — typically a line a static
/// rule flagged but no failing probe covered — receives a floor of
/// `0.05 * factor` so it enters the ranking instead of being invisible
/// to the template stage.
pub fn localize_boosted(
    matrix: &CoverageMatrix,
    formula: SbflFormula,
    boosts: &BTreeMap<LineId, f64>,
) -> Ranking {
    let (total_passed, total_failed) = matrix.totals();
    let mut entries: Vec<(LineId, f64)> = matrix
        .per_line_counts()
        .into_iter()
        .map(|(line, (p, f))| {
            let base = suspiciousness(formula, p, f, total_passed, total_failed);
            let factor = boosts.get(&line).copied().unwrap_or(1.0);
            let score = if base > 0.0 {
                base * factor
            } else if factor > 1.0 {
                0.05 * factor
            } else {
                base
            };
            (line, score)
        })
        .collect();
    // Flagged lines the spectrum never saw still deserve a slot. The
    // covered lines came out of a sorted map, so they stay searchable.
    let covered = entries.len();
    for (&line, &factor) in boosts {
        if factor > 1.0
            && entries[..covered]
                .binary_search_by_key(&line, |(l, _)| *l)
                .is_err()
        {
            entries.push((line, 0.05 * factor));
        }
    }
    Ranking::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_net_types::RouterId;
    use acr_prov::{TestCoverage, TestId};

    /// §5 worked example: failed(s)=1, passed(s)=1, totals (2 passed,
    /// 1 failed) ⇒ Tarantula = 0.67.
    #[test]
    fn tarantula_matches_worked_example() {
        let s = suspiciousness(SbflFormula::Tarantula, 1, 1, 2, 1);
        assert!((s - 2.0 / 3.0).abs() < 1e-9, "{s}");
        // A line covered by all three tests scores 0.5.
        let s = suspiciousness(SbflFormula::Tarantula, 2, 1, 2, 1);
        assert!((s - 0.5).abs() < 1e-9, "{s}");
        // Covered only by the failed test: 1.0.
        let s = suspiciousness(SbflFormula::Tarantula, 0, 1, 2, 1);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn all_formulas_zero_without_failures() {
        for f in [
            SbflFormula::Tarantula,
            SbflFormula::Ochiai,
            SbflFormula::Jaccard,
            SbflFormula::DStar(2),
        ] {
            assert_eq!(suspiciousness(f, 3, 0, 5, 0), 0.0, "{f}");
            assert_eq!(suspiciousness(f, 0, 0, 5, 2), 0.0, "{f} uncovered");
        }
    }

    #[test]
    fn ochiai_jaccard_dstar_values() {
        // failed=2, passed=1, tf=2, tp=3.
        let o = suspiciousness(SbflFormula::Ochiai, 1, 2, 3, 2);
        assert!((o - 2.0 / (2.0f64 * 3.0).sqrt()).abs() < 1e-9);
        let j = suspiciousness(SbflFormula::Jaccard, 1, 2, 3, 2);
        assert!((j - 2.0 / 3.0).abs() < 1e-9);
        let d = suspiciousness(SbflFormula::DStar(2), 1, 2, 3, 2);
        assert!((d - 4.0).abs() < 1e-9);
        // D* divide-by-zero: covered by every failure, no passes.
        let d = suspiciousness(SbflFormula::DStar(2), 0, 2, 3, 2);
        assert!(d.is_infinite());
    }

    #[test]
    fn tarantula_with_no_passed_tests() {
        // Only failures in the suite: every failure-covered line scores 1.
        let s = suspiciousness(SbflFormula::Tarantula, 0, 1, 0, 1);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn localize_ranks_fault_covering_line_first() {
        let l = |n: u32| LineId::new(RouterId(0), n);
        let mut m = CoverageMatrix::new();
        // Line 3 covered only by the failure; line 1 by everything.
        m.push(TestCoverage {
            test: TestId(0),
            passed: true,
            lines: [l(1)].into(),
        });
        m.push(TestCoverage {
            test: TestId(1),
            passed: true,
            lines: [l(1), l(2)].into(),
        });
        m.push(TestCoverage {
            test: TestId(2),
            passed: false,
            lines: [l(1), l(3)].into(),
        });
        let ranking = localize(&m, SbflFormula::Tarantula);
        assert_eq!(ranking.top().unwrap().0, l(3));
        assert!(ranking.score_of(l(3)).unwrap() > ranking.score_of(l(1)).unwrap());
        assert_eq!(ranking.score_of(l(2)), Some(0.0));
    }

    #[test]
    fn boosted_localization_reorders_and_floors() {
        let l = |n: u32| LineId::new(RouterId(0), n);
        let mut m = CoverageMatrix::new();
        m.push(TestCoverage {
            test: TestId(0),
            passed: true,
            lines: [l(1)].into(),
        });
        m.push(TestCoverage {
            test: TestId(1),
            passed: false,
            lines: [l(1), l(2), l(3)].into(),
        });
        let plain = localize(&m, SbflFormula::Tarantula);
        // Lines 2 and 3 tie on the spectrum alone.
        assert_eq!(plain.score_of(l(2)), plain.score_of(l(3)));

        let boosts = [(l(3), 4.0), (l(9), 2.0)].into_iter().collect();
        let boosted = localize_boosted(&m, SbflFormula::Tarantula, &boosts);
        // The lint-flagged line now outranks its spectrum twin.
        assert!(boosted.score_of(l(3)).unwrap() > boosted.score_of(l(2)).unwrap());
        assert_eq!(boosted.top().unwrap().0, l(3));
        // A flagged line the spectrum never covered gets the floor score.
        assert!((boosted.score_of(l(9)).unwrap() - 0.1).abs() < 1e-9);
        // Unflagged lines keep their plain scores.
        assert_eq!(boosted.score_of(l(1)), plain.score_of(l(1)));
    }
}
