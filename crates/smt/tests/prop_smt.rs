//! Property tests for the constraint solver.
//!
//! The solver is checked against a brute-force model evaluator: random
//! formulas over a small variable pool must (a) be reported satisfiable
//! exactly when brute force finds a model, and (b) return models that the
//! formula actually evaluates true under.

// Gated: run with `cargo test --features heavy-tests` (vendored proptest shim).
#![cfg(feature = "heavy-tests")]

use acr_net_types::Prefix;
use acr_smt::{Atom, Formula, Model, Solver, VarId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Fixed variable pool: 3 booleans, 1 int over {1,2,3}, 1 prefix set over
/// a 3-prefix universe.
const INT_DOMAIN: [i64; 3] = [1, 2, 3];

fn universe() -> Vec<Prefix> {
    vec![
        "10.0.0.0/16".parse().unwrap(),
        "10.1.0.0/16".parse().unwrap(),
        "10.2.0.0/16".parse().unwrap(),
    ]
}

/// Random atoms over the pool (var ids assigned in `build_solver` order:
/// b0,b1,b2 = 0..3, int = 3, set = 4).
fn arb_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0u32..3).prop_map(|v| Atom::Bool(VarId(v))),
        // Include an out-of-domain value now and then (must act as false).
        prop_oneof![Just(1i64), Just(2), Just(3), Just(99)]
            .prop_map(|val| Atom::IntEq(VarId(3), val)),
        (0usize..3).prop_map(|i| Atom::Member(VarId(4), universe()[i])),
    ]
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        arb_atom().prop_map(Formula::Atom),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::and),
            proptest::collection::vec(inner, 1..4).prop_map(Formula::or),
        ]
    })
}

fn build_solver() -> (Solver, [VarId; 5]) {
    let mut s = Solver::new();
    let b0 = s.new_bool();
    let b1 = s.new_bool();
    let b2 = s.new_bool();
    let int = s.new_int(INT_DOMAIN);
    let set = s.new_prefix_set(universe());
    (s, [b0, b1, b2, int, set])
}

/// Brute-force evaluation of a formula under a concrete assignment.
fn eval(f: &Formula, bools: [bool; 3], int: i64, set: &BTreeSet<Prefix>) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Not(g) => !eval(g, bools, int, set),
        Formula::And(gs) => gs.iter().all(|g| eval(g, bools, int, set)),
        Formula::Or(gs) => gs.iter().any(|g| eval(g, bools, int, set)),
        Formula::Atom(Atom::Bool(v)) => bools[v.0 as usize],
        Formula::Atom(Atom::IntEq(_, val)) => int == *val,
        Formula::Atom(Atom::Member(_, p)) => set.contains(p),
    }
}

/// Exhaustive satisfiability over the finite pool (3 bools × 3 ints ×
/// 2^3 sets = 216 assignments).
fn brute_force_sat(f: &Formula) -> bool {
    let uni = universe();
    for mask in 0u8..8 {
        let bools = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        for int in INT_DOMAIN {
            for set_mask in 0u8..8 {
                let set: BTreeSet<Prefix> = uni
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| set_mask & (1 << i) != 0)
                    .map(|(_, p)| *p)
                    .collect();
                if eval(f, bools, int, &set) {
                    return true;
                }
            }
        }
    }
    false
}

fn model_satisfies(f: &Formula, m: &Model, vars: &[VarId; 5]) -> bool {
    let bools = [m.bools[&vars[0]], m.bools[&vars[1]], m.bools[&vars[2]]];
    let int = m.ints[&vars[3]];
    let set = &m.sets[&vars[4]];
    eval(f, bools, int, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The solver agrees with brute force on satisfiability, and returned
    /// models actually satisfy the formula.
    #[test]
    fn solver_matches_brute_force(f in arb_formula()) {
        let (mut solver, vars) = build_solver();
        solver.assert(f.clone());
        match solver.solve() {
            Some(model) => {
                prop_assert!(brute_force_sat(&f), "solver found a model for an unsat formula");
                prop_assert!(
                    model_satisfies(&f, &model, &vars),
                    "returned model does not satisfy the formula: {f:?} vs {model:?}"
                );
            }
            None => {
                prop_assert!(!brute_force_sat(&f), "solver missed a model for {f:?}");
            }
        }
    }

    /// Conjoining two formulas never gains models: sat(f ∧ g) ⇒ sat(f).
    #[test]
    fn conjunction_is_monotone(f in arb_formula(), g in arb_formula()) {
        let (mut s_both, _) = build_solver();
        s_both.assert(f.clone());
        s_both.assert(g);
        if s_both.solve().is_some() {
            let (mut s_one, _) = build_solver();
            s_one.assert(f);
            prop_assert!(s_one.solve().is_some());
        }
    }

    /// The grow-MSS result is sound: hard constraints plus every kept soft
    /// constraint are simultaneously satisfied by the returned model.
    #[test]
    fn mss_model_satisfies_kept_softs(
        hard in arb_formula(),
        softs in proptest::collection::vec(arb_formula(), 0..4),
    ) {
        let (mut solver, vars) = build_solver();
        solver.assert(hard.clone());
        match solver.maximal_satisfiable_subset(&softs) {
            None => prop_assert!(!brute_force_sat(&hard)),
            Some((model, kept)) => {
                prop_assert!(model_satisfies(&hard, &model, &vars), "hard violated");
                for i in kept {
                    prop_assert!(
                        model_satisfies(&softs[i], &model, &vars),
                        "kept soft {i} violated"
                    );
                }
            }
        }
    }
}
