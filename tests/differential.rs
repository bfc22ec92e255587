//! Differential tests for the chase engine: the semi-naive
//! `ChaseStepper` must be observationally identical to the naive
//! reference evaluator of `bddfc_fuzz::reference` — same facts, same
//! fresh-null names, same depths, same body-match counts, round by round
//! — on every paper program in the zoo and on seeded random programs,
//! for both the restricted and the oblivious variant. Datalog saturation,
//! a driver over the stepper, must equal the reference run over the
//! datalog rules. Additionally, the restricted-chase result must map
//! homomorphically into the oblivious-chase result (the restricted chase
//! is the "economical" sub-chase of the blind one).

use bddfc::chase::{
    certain_ucq, chase, saturate_datalog, ChaseConfig, ChaseStatus, ChaseStepper, ChaseVariant,
};
use bddfc::core::{
    hom, parse_program, Atom, Binding, ConjunctiveQuery, Instance, Program, Term, Theory, Ucq,
    Vocabulary,
};
use bddfc::core::fxhash::FxHashMap;
use bddfc_fuzz::gen::random_program;
use bddfc_fuzz::proptest_lite::run_prop;
use bddfc_fuzz::reference::{self, Reference};

/// Every ready-made paper program from the zoo.
fn zoo_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("example1", bddfc::zoo::example1()),
        ("example1_m_prime", bddfc::zoo::example1_m_prime()),
        ("chain_theory", bddfc::zoo::chain_theory()),
        ("remark3", bddfc::zoo::remark3()),
        ("total_order_4", bddfc::zoo::total_order(4)),
        ("example7", bddfc::zoo::example7()),
        ("example9", bddfc::zoo::example9()),
        ("section54", bddfc::zoo::section54()),
        ("notorious", bddfc::zoo::notorious()),
        ("order_theory", bddfc::zoo::order_theory()),
        ("linear_ontology", bddfc::zoo::linear_ontology()),
        ("guarded_example", bddfc::zoo::guarded_example()),
        ("sticky_example", bddfc::zoo::sticky_example()),
    ]
}

const MAX_ROUNDS: u32 = 5;
const MAX_FACTS: usize = 4_000;

/// Steps the reference and the engine side by side and asserts
/// byte-identical behaviour every round: same new facts in the same order
/// (hence the same fresh-null names), same instances, same body-match
/// count.
fn assert_strategies_agree_roundwise(
    name: &str,
    db: &Instance,
    theory: &Theory,
    voc: &Vocabulary,
    variant: ChaseVariant,
) {
    let mut voc_n = voc.clone();
    let mut voc_s = voc.clone();
    let mut naive = Reference::new(db, theory, variant);
    let mut semi = ChaseStepper::new(db, theory, variant);
    for round in 1..=MAX_ROUNDS {
        let new_n = naive.step(&mut voc_n);
        let new_s = semi.step(&mut voc_s);
        assert_eq!(
            new_n.new_facts, new_s,
            "{name}/{variant:?}: round {round} facts differ (reference vs engine)"
        );
        assert_eq!(
            naive.instance, semi.instance,
            "{name}/{variant:?}: instances diverged at round {round}"
        );
        assert_eq!(
            Some(&new_n.body_matches),
            semi.stats.body_matches_per_round.last(),
            "{name}/{variant:?}: round {round} body matches"
        );
        if new_s.is_empty() || semi.instance.len() > MAX_FACTS {
            break;
        }
    }
}

/// Full-run comparison through the public `chase` entry point: identical
/// instance, depth map, round count, status and per-round body matches.
fn assert_chase_results_agree(
    name: &str,
    db: &Instance,
    theory: &Theory,
    voc: &Vocabulary,
    variant: ChaseVariant,
) {
    let config = ChaseConfig { max_rounds: MAX_ROUNDS, max_facts: MAX_FACTS, variant };
    let res_n = reference::run(db, theory, &mut voc.clone(), config);
    let res_s = chase(db, theory, &mut voc.clone(), config);
    assert_eq!(res_n.instance, res_s.instance, "{name}/{variant:?}: instance");
    assert_eq!(res_n.depth, res_s.depth_map(), "{name}/{variant:?}: depth map");
    assert_eq!(res_n.rounds, res_s.rounds, "{name}/{variant:?}: rounds");
    assert_eq!(res_n.status, res_s.status, "{name}/{variant:?}: status");
    assert_eq!(
        res_n.body_matches_per_round, res_s.stats.body_matches_per_round,
        "{name}/{variant:?}: per-round body matches"
    );
}

/// Checks that the restricted-chase result maps homomorphically into the
/// oblivious-chase result (both truncated at the same round bound):
/// nulls become existential variables, constants must map to themselves.
fn assert_restricted_embeds_in_oblivious(
    name: &str,
    db: &Instance,
    theory: &Theory,
    voc: &Vocabulary,
) {
    let config = ChaseConfig { max_rounds: MAX_ROUNDS, max_facts: MAX_FACTS, ..Default::default() };
    let mut voc_r = voc.clone();
    let restricted = chase(db, theory, &mut voc_r, config.with_variant(ChaseVariant::Restricted));
    let oblivious = chase(
        db,
        theory,
        &mut voc.clone(),
        config.with_variant(ChaseVariant::Oblivious),
    );
    // Turn the restricted result into one big conjunctive query: each
    // labelled null becomes a fresh variable, constants stay themselves.
    let mut null_var = FxHashMap::default();
    let mut atoms = Vec::new();
    for fact in restricted.instance.facts() {
        let args = fact
            .args
            .iter()
            .map(|&c| {
                if voc_r.is_null(c) {
                    Term::Var(*null_var.entry(c).or_insert_with(|| voc_r.fresh_var("h")))
                } else {
                    Term::Const(c)
                }
            })
            .collect();
        atoms.push(Atom::new(fact.pred, args));
    }
    assert!(
        hom::hom_exists(&oblivious.instance, &atoms, &Binding::default()),
        "{name}: restricted chase ({} facts) must embed into oblivious chase ({} facts)",
        restricted.instance.len(),
        oblivious.instance.len(),
    );
}

#[test]
fn zoo_programs_naive_equals_seminaive_roundwise() {
    for (name, prog) in zoo_programs() {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            assert_strategies_agree_roundwise(
                name,
                &prog.instance,
                &prog.theory,
                &prog.voc,
                variant,
            );
        }
    }
}

#[test]
fn zoo_programs_chase_results_identical() {
    for (name, prog) in zoo_programs() {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            assert_chase_results_agree(name, &prog.instance, &prog.theory, &prog.voc, variant);
        }
    }
}

#[test]
fn zoo_programs_restricted_embeds_in_oblivious() {
    for (name, prog) in zoo_programs() {
        assert_restricted_embeds_in_oblivious(name, &prog.instance, &prog.theory, &prog.voc);
    }
}

/// The whole engine-vs-reference agreement suite, re-run in-process with
/// the engine's fork-join layer genuinely sharding (2 threads, then an
/// odd 7 so shard boundaries move): the oracle equality must be
/// thread-blind.
#[test]
fn zoo_programs_agree_multithreaded() {
    for threads in [2usize, 7] {
        bddfc::core::par::with_thread_count(threads, || {
            for (name, prog) in zoo_programs() {
                for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
                    assert_strategies_agree_roundwise(
                        name,
                        &prog.instance,
                        &prog.theory,
                        &prog.voc,
                        variant,
                    );
                    assert_chase_results_agree(
                        name,
                        &prog.instance,
                        &prog.theory,
                        &prog.voc,
                        variant,
                    );
                }
            }
        });
    }
}

/// The certain-answer layer on top of the stepper: the witnessing depth
/// `k` reported in `Certainty::True(k)` (and the `False`/`Unknown`
/// verdicts) must equal the one read off the naive reference's round
/// prefixes — the `k` is the empirical `k_Ψ` of the BDD definition, and
/// an evaluation-dependent value would make the depth probes
/// meaningless.
fn assert_certainty_depths_agree(name: &str, prog: &Program, voc: &Vocabulary, query: &Ucq) {
    for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
        let config = ChaseConfig { max_rounds: MAX_ROUNDS, max_facts: MAX_FACTS, variant };
        let c_n =
            reference::certainty(&prog.instance, &prog.theory, &mut voc.clone(), query, config);
        let c_s = certain_ucq(&prog.instance, &prog.theory, &mut voc.clone(), query, config);
        assert_eq!(
            c_n, c_s,
            "{name}/{variant:?}: Certainty (and depth k) diverged from the reference"
        );
    }
}

#[test]
fn zoo_programs_certain_depths_strategy_blind() {
    for (name, prog) in zoo_programs() {
        // The program's own queries, plus generic E-path queries of
        // lengths 1..=3 (false or unknown on E-less programs — the
        // verdicts must still agree).
        let mut voc = prog.voc.clone();
        let mut queries: Vec<Ucq> =
            prog.queries.iter().cloned().map(Ucq::single).collect();
        for len in 1..=3 {
            queries.push(Ucq::single(bddfc::zoo::path_query(&mut voc, len)));
        }
        for query in &queries {
            assert_certainty_depths_agree(name, &prog, &voc, query);
        }
    }
}

#[test]
fn random_programs_certain_depths_strategy_blind() {
    run_prop("random_programs_certain_depths_strategy_blind", 12, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let prog = random_program(seed);
        let mut voc = prog.voc.clone();
        // Two-step path queries over every ordered pair of the three
        // R-predicates the random theories and instances range over.
        let preds: Vec<_> = (0..3)
            .map(|i| voc.find_pred(&format!("R{i}")).expect("R-predicate"))
            .collect();
        let mut queries = Vec::new();
        for &p in &preds {
            for &q in &preds {
                let (x, y, z) =
                    (voc.fresh_var("dx"), voc.fresh_var("dy"), voc.fresh_var("dz"));
                queries.push(Ucq::single(ConjunctiveQuery::boolean(vec![
                    Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                    Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
                ])));
            }
        }
        for query in &queries {
            assert_certainty_depths_agree("random", &prog, &voc, query);
        }
        Ok(())
    });
}

#[test]
fn random_programs_naive_equals_seminaive() {
    run_prop("random_programs_naive_equals_seminaive", 24, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let prog = random_program(seed);
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            assert_strategies_agree_roundwise(
                "random",
                &prog.instance,
                &prog.theory,
                &prog.voc,
                variant,
            );
            assert_chase_results_agree("random", &prog.instance, &prog.theory, &prog.voc, variant);
        }
        Ok(())
    });
}

#[test]
fn random_programs_restricted_embeds_in_oblivious() {
    run_prop("random_programs_restricted_embeds_in_oblivious", 16, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let prog = random_program(seed);
        assert_restricted_embeds_in_oblivious("random", &prog.instance, &prog.theory, &prog.voc);
        Ok(())
    });
}

/// Example 1 plus transitivity, and a theory mixing an existential rule
/// with datalog rules over its nulls: the engine matches the reference
/// exactly, body matches included, under both variants.
#[test]
fn mixed_theories_match_the_reference_exactly() {
    for src in [
        "E(X,Y) -> exists Z . E(Y,Z).
         E(X,Y), E(Y,Z) -> E(X,Z).
         E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
         E(a,b). E(b,c). E(c,a).",
        "E(X,Y) -> exists Z . E(Y,Z).
         E(X,Y), E(Y,Z) -> R(X,Z).
         E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
         U(X,T), E(X,Y) -> U(Y,T).
         E(a,b). E(b,c). E(c,a). E(c,c).",
    ] {
        let prog = parse_program(src).unwrap();
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            assert_strategies_agree_roundwise(
                "mixed",
                &prog.instance,
                &prog.theory,
                &prog.voc,
                variant,
            );
            assert_chase_results_agree("mixed", &prog.instance, &prog.theory, &prog.voc, variant);
        }
    }
}

/// The transitive-closure rule over an `n`-edge chain.
fn tc_chain(n: usize) -> Program {
    let edges: String = (1..=n).map(|i| format!("E(a{i},a{}). ", i + 1)).collect();
    parse_program(&format!("E(X,Y), E(Y,Z) -> E(X,Z). {edges}")).unwrap()
}

/// The point of semi-naive evaluation: on transitive closure of a chain,
/// re-deriving every round from scratch (the reference's naive work) does
/// at least twice the engine's body-match work, for the same closure.
#[test]
fn seminaive_does_less_work_on_transitive_closure() {
    let prog = tc_chain(24);
    let config = ChaseConfig::default();
    let naive = reference::run(&prog.instance, &prog.theory, &mut prog.voc.clone(), config);
    let semi = chase(&prog.instance, &prog.theory, &mut prog.voc.clone(), config);
    assert_eq!(naive.instance, semi.instance);
    assert_eq!(semi.instance.len(), 24 * 25 / 2);
    let (n_work, s_work) = (naive.naive_matches, semi.stats.total_body_matches());
    assert!(n_work >= 2 * s_work, "expected ≥2× savings, got naive = {n_work}, semi-naive = {s_work}");
}

/// Saturation is a stepper run over the datalog rules: it equals the
/// reference run over those rules — instance, productive rounds, derived
/// count and per-round body matches. Returns the reference run.
fn assert_saturation_matches_reference(name: &str, prog: &Program) -> reference::ReferenceRun {
    let sat = saturate_datalog(&prog.instance, &prog.theory);
    let datalog = Theory::new(prog.theory.datalog_rules().cloned().collect());
    let config = ChaseConfig { max_rounds: u32::MAX, max_facts: usize::MAX, ..Default::default() };
    let expect = reference::run(&prog.instance, &datalog, &mut prog.voc.clone(), config);
    assert_eq!(expect.status, ChaseStatus::Fixpoint, "{name}");
    assert_eq!(expect.instance, sat.instance, "{name}: instance");
    assert_eq!(expect.rounds, sat.rounds, "{name}: rounds");
    assert_eq!(expect.instance.len() - prog.instance.len(), sat.derived, "{name}: derived");
    assert_eq!(
        expect.body_matches_per_round, sat.body_matches_per_round,
        "{name}: per-round body matches"
    );
    expect
}

#[test]
fn saturation_matches_the_reference() {
    let prog = parse_program(
        "E(X,Y) -> exists Z . E(Y,Z).
         E(X,Y), E(Y,Z) -> E(X,Z).
         E(X,Y), E(X2,Y) -> R(X,X2).
         R(X,X) -> Loop(X).
         E(a,b). E(b,c). E(c,a). E(d,c).",
    )
    .unwrap();
    assert_saturation_matches_reference("mixed", &prog);
    for (name, prog) in zoo_programs() {
        assert_saturation_matches_reference(name, &prog);
    }
    // The naive reference does at least twice the semi-naive work.
    let expect = assert_saturation_matches_reference("tc40", &tc_chain(40));
    let semi: u64 = expect.body_matches_per_round.iter().sum();
    let naive = expect.naive_matches;
    assert!(naive >= 2 * semi, "naive {naive} vs semi-naive {semi}");
}
