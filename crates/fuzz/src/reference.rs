//! The reference chase evaluator: `Chase¹` (Section 1.1) written the way
//! the paper defines it, as the one oracle the shipped
//! [`bddfc_chase::ChaseStepper`] is checked against.
//!
//! One round runs against the instance frozen at the start of the round:
//!
//! 1. every homomorphism `h` of every rule body into the *whole* instance
//!    is enumerated (naive evaluation, [`hom::for_each_hom`]);
//! 2. each distinct pair `(t, x̄)` of a rule `t` and the image `x̄` of its
//!    sorted frontier under `h` is a trigger. It is *active* when
//!    * restricted: no witness for the head exists
//!      ([`satisfaction::head_satisfied`] on the frontier binding);
//!    * oblivious: `(t, x̄)` has never fired before in this run;
//! 3. active triggers are repaired in the canonical order — rule index,
//!    then frontier tuple. Each repair mints one fresh null `c_{t,x̄}` per
//!    existential variable, in sorted-variable order, and adds the
//!    grounded head atoms in head order.
//!
//! Nothing here is shared with the engine but the homomorphism search and
//! the satisfaction check. The evaluator is single-threaded and slow on
//! purpose.
//!
//! Besides the facts, every round reports its semi-naive body-match
//! count: `Σ_h |{i : h(body_i) ∈ Δ}|`, where `Δ` is the previous round's
//! new facts (the whole database on the opening round). That is exactly
//! the count of the engine's pinned-delta joins, which find a match once
//! per body atom that lands in `Δ`. A body-less rule has one empty match
//! that joins nothing; the engine enumerates it on the opening round
//! only, so it counts one there. Each round also reports its naive
//! work — every homomorphism it enumerated — which is what re-deriving
//! every round from scratch costs.
//!
//! [`type_partition`] is the second oracle here: the `≡ₙ` partition of
//! Definition 4 by a plain pairwise scan, against which the type
//! analyzer's bucketed, signature-interning partition is checked.
//!
//! [`finite_countermodel`] is the third: the Theorem 2 pipeline with a
//! budgeted full chase of the quotient `Mₙ(S̄)` as its step 6
//! ([`final_chase`]), against which the shipped pipeline's datalog
//! saturation plus `⊨ T` check (Lemma 5) is compared.

use bddfc_chase::{chase, Certainty, ChaseConfig, ChaseStatus, ChaseVariant};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::satisfaction::{head_satisfied, restrict_binding};
use bddfc_core::{
    hom, Atom, Binding, ConjunctiveQuery, ConstId, Fact, Instance, Rule, Term, Theory, Ucq, VarId,
    Vocabulary,
};
use bddfc_finite::{finite_countermodel_with, FcConfig, FcOutcome};
use std::ops::{ControlFlow, Range};

/// What one reference round produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// The facts the round added, in insertion order.
    pub new_facts: Vec<Fact>,
    /// Semi-naive body matches of the round (see the module docs).
    pub body_matches: u64,
    /// Body homomorphisms the naive round enumerated.
    pub naive_matches: u64,
}

/// A round-by-round reference chase of one database under one theory.
pub struct Reference<'t> {
    theory: &'t Theory,
    variant: ChaseVariant,
    /// The instance chased so far.
    pub instance: Instance,
    /// The previous round's new facts, as a range of `instance.facts()`.
    delta: Range<usize>,
    /// Oblivious variant: the triggers that already fired.
    fired: FxHashSet<(usize, Vec<ConstId>)>,
    rounds: u32,
}

/// A trigger `(t, x̄)` with its frontier binding.
struct Trigger {
    rule_idx: usize,
    tuple: Vec<ConstId>,
    frontier: Binding,
}

fn sorted_vars(vars: impl IntoIterator<Item = VarId>) -> Vec<VarId> {
    let mut v: Vec<VarId> = vars.into_iter().collect();
    v.sort_unstable();
    v
}

fn ground(atom: &Atom, b: &Binding) -> Fact {
    atom.apply(&|v| b.get(&v).map(|&c| Term::Const(c)))
        .to_fact()
        .expect("atom grounded by a total binding")
}

impl<'t> Reference<'t> {
    /// Starts a reference chase of `db` under `theory`.
    pub fn new(db: &Instance, theory: &'t Theory, variant: ChaseVariant) -> Self {
        Reference {
            theory,
            variant,
            instance: db.clone(),
            delta: 0..db.len(),
            fired: FxHashSet::default(),
            rounds: 0,
        }
    }

    /// Runs one `Chase¹` round; its new facts are empty iff the instance
    /// is a fixpoint.
    pub fn step(&mut self, voc: &mut Vocabulary) -> Round {
        let inst = &self.instance;
        let delta: FxHashSet<&Fact> = inst.facts()[self.delta.clone()].iter().collect();
        let mut body_matches = 0u64;
        let mut naive_matches = 0u64;
        let mut triggers: Vec<Trigger> = Vec::new();
        for (rule_idx, rule) in self.theory.rules.iter().enumerate() {
            if rule.body.is_empty() && self.rounds == 0 {
                body_matches += 1;
            }
            let frontier = sorted_vars(rule.frontier());
            let mut seen: FxHashSet<Vec<ConstId>> = FxHashSet::default();
            let _ = hom::for_each_hom(inst, &rule.body, &Binding::default(), |h| {
                naive_matches += 1;
                body_matches += rule
                    .body
                    .iter()
                    .filter(|a| delta.contains(&ground(a, h)))
                    .count() as u64;
                let tuple: Vec<ConstId> = frontier.iter().map(|v| h[v]).collect();
                if seen.insert(tuple.clone()) {
                    let frontier = restrict_binding(h, &frontier);
                    triggers.push(Trigger {
                        rule_idx,
                        tuple,
                        frontier,
                    });
                }
                ControlFlow::Continue(())
            });
        }
        let mut active: Vec<Trigger> = Vec::new();
        for t in triggers {
            let rule = &self.theory.rules[t.rule_idx];
            let fires = match self.variant {
                ChaseVariant::Restricted => !head_satisfied(inst, rule, &t.frontier),
                ChaseVariant::Oblivious => self.fired.insert((t.rule_idx, t.tuple.clone())),
            };
            if fires {
                active.push(t);
            }
        }
        active.sort_by(|a, b| (a.rule_idx, &a.tuple).cmp(&(b.rule_idx, &b.tuple)));
        let start = self.instance.len();
        for t in active {
            let rule: &Rule = &self.theory.rules[t.rule_idx];
            let mut b = t.frontier;
            for v in sorted_vars(rule.existential_vars()) {
                b.insert(v, voc.fresh_null("n"));
            }
            for atom in &rule.head {
                self.instance.insert(ground(atom, &b));
            }
        }
        self.delta = start..self.instance.len();
        self.rounds += 1;
        Round {
            new_facts: self.instance.facts()[start..].to_vec(),
            body_matches,
            naive_matches,
        }
    }
}

/// A budgeted reference run, the counterpart of `bddfc_chase::chase`.
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// The chased instance.
    pub instance: Instance,
    /// The round at which each fact appeared (`0` for the database).
    pub depth: FxHashMap<Fact, u32>,
    /// Productive rounds completed.
    pub rounds: u32,
    /// Why the run stopped.
    pub status: ChaseStatus,
    /// Body matches of every round run, including a final empty one.
    pub body_matches_per_round: Vec<u64>,
    /// Body homomorphisms enumerated over all rounds run: the work of
    /// naive evaluation.
    pub naive_matches: u64,
}

/// Chases `db` under `theory` within `config`'s budgets: stop before a
/// round past `max_rounds`, on an empty round (fixpoint), or after the
/// round that takes the instance past `max_facts`.
pub fn run(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
) -> ReferenceRun {
    let mut r = Reference::new(db, theory, config.variant);
    let mut depth: FxHashMap<Fact, u32> = db.facts().iter().map(|f| (f.clone(), 0)).collect();
    let mut body_matches_per_round = Vec::new();
    let mut naive_matches = 0;
    let mut rounds = 0;
    let status = loop {
        if rounds >= config.max_rounds {
            break ChaseStatus::RoundBudget;
        }
        let round = r.step(voc);
        body_matches_per_round.push(round.body_matches);
        naive_matches += round.naive_matches;
        if round.new_facts.is_empty() {
            break ChaseStatus::Fixpoint;
        }
        rounds += 1;
        depth.extend(round.new_facts.into_iter().map(|f| (f, rounds)));
        if r.instance.len() > config.max_facts {
            break ChaseStatus::FactBudget;
        }
    };
    ReferenceRun {
        instance: r.instance,
        depth,
        rounds,
        status,
        body_matches_per_round,
        naive_matches,
    }
}

/// The certain-answer verdict on the reference's round prefixes, the
/// counterpart of `bddfc_chase::certain_ucq`: `True(k)` for the first
/// prefix `Chaseᵏ` satisfying `query`, `False` at a fixpoint that does
/// not, `Unknown` when a budget runs out first.
pub fn certainty(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &Ucq,
    config: ChaseConfig,
) -> Certainty {
    if hom::satisfies_ucq(db, query) {
        return Certainty::True(0);
    }
    let mut r = Reference::new(db, theory, config.variant);
    for round in 1..=config.max_rounds {
        if r.step(voc).new_facts.is_empty() {
            return Certainty::False;
        }
        if hom::satisfies_ucq(&r.instance, query) {
            return Certainty::True(round);
        }
        if r.instance.len() > config.max_facts {
            break;
        }
    }
    Certainty::Unknown
}

/// The `≡ₙ` partition of Definition 4 by the plain first-equivalent-
/// representative scan: the oracle `bddfc_types::TypeAnalyzer::partition`
/// is checked against. It uses no invariant buckets and no signatures.
/// Named elements are singleton classes (Remark 1). Every other element,
/// in sorted order, is compared with each class representative so far
/// and joins the first it is equivalent to, else opens a class.
///
/// `d ≡ₙ e` is mutual inclusion of positive types, decided on connected
/// canonical queries: for every set `S ∋ d` of at most `n` unnamed
/// elements, connected through shared facts, the atoms with an argument
/// in `S` and all arguments in `S` or named must map into `inst` with `d`
/// sent to `e`, named elements fixed (and the same the other way round).
pub fn type_partition(inst: &Instance, voc: &Vocabulary, n: usize) -> Vec<Vec<ConstId>> {
    let named = |c: ConstId| !voc.is_null(c);
    let mut adj: FxHashMap<ConstId, FxHashSet<ConstId>> = FxHashMap::default();
    for fact in inst.facts() {
        for &a in fact.args.iter().filter(|&&a| !named(a)) {
            for &b in fact.args.iter().filter(|&&b| b != a && !named(b)) {
                adj.entry(a).or_default().insert(b);
            }
        }
    }
    // Every connected set containing `root`, root first, grown one
    // neighbour at a time and deduplicated as sets.
    let subsets = |root: ConstId| -> Vec<Vec<ConstId>> {
        let mut seen: FxHashSet<Vec<ConstId>> = FxHashSet::default();
        let mut layer = vec![vec![root]];
        let mut all = layer.clone();
        for _ in 1..n {
            let mut next = Vec::new();
            for s in &layer {
                for x in s {
                    for &y in adj.get(x).into_iter().flatten() {
                        if s.contains(&y) {
                            continue;
                        }
                        let mut grown = s.clone();
                        grown.push(y);
                        let mut key = grown.clone();
                        key.sort_unstable();
                        if seen.insert(key) {
                            next.push(grown);
                        }
                    }
                }
            }
            all.extend(next.iter().cloned());
            layer = next;
        }
        all
    };
    let canonical = |s: &[ConstId]| -> Vec<Atom> {
        let mut facts: Vec<usize> =
            s.iter().flat_map(|&c| inst.facts_with_element(c)).copied().collect();
        facts.sort_unstable();
        facts.dedup();
        facts
            .into_iter()
            .map(|i| inst.fact(i))
            .filter(|f| f.args.iter().all(|a| s.contains(a) || named(*a)))
            .map(|f| {
                let args = f.args.iter().map(|a| match s.iter().position(|x| x == a) {
                    Some(i) => Term::Var(VarId(i as u32)),
                    None => Term::Const(*a),
                });
                Atom::new(f.pred, args.collect())
            })
            .collect()
    };
    let queries: FxHashMap<ConstId, Vec<Vec<Atom>>> = inst
        .domain()
        .filter(|&c| !named(c))
        .map(|c| (c, subsets(c).iter().map(|s| canonical(s)).collect()))
        .collect();
    let included = |d: ConstId, e: ConstId| {
        let init: Binding = [(VarId(0), e)].into_iter().collect();
        queries[&d].iter().all(|q| hom::hom_exists(inst, q, &init))
    };
    let mut classes: Vec<Vec<ConstId>> = Vec::new();
    for d in inst.sorted_domain() {
        let class = (!named(d))
            .then(|| {
                classes.iter().position(|c| {
                    let rep = c[0];
                    !named(rep) && included(d, rep) && included(rep, d)
                })
            })
            .flatten();
        match class {
            Some(i) => classes[i].push(d),
            None => classes.push(vec![d]),
        }
    }
    classes
}

/// The reference step 6 of the Theorem 2 pipeline: a restricted chase
/// of the quotient `m_sigma` under the full normalized theory `norm`,
/// within `config.final_rounds` rounds and a quarter of the prefix fact
/// budget (at least 10,000 facts). It fails the attempt unless the chase
/// reaches a fixpoint, which may hold elements the quotient lacks.
pub fn final_chase(
    m_sigma: &Instance,
    norm: &Theory,
    voc: &mut Vocabulary,
    config: &FcConfig,
) -> Result<Instance, &'static str> {
    let res = chase(
        m_sigma,
        norm,
        voc,
        ChaseConfig {
            max_rounds: config.final_rounds,
            max_facts: (config.chase_facts / 4).max(10_000),
            ..Default::default()
        },
    );
    match res.status {
        ChaseStatus::Fixpoint => Ok(res.instance),
        _ => Err("final chase diverged"),
    }
}

/// The Theorem 2 pipeline with [`final_chase`] as its step 6: the
/// counterpart of `bddfc_finite::finite_countermodel`.
pub fn finite_countermodel(
    db: &Instance,
    theory0: &Theory,
    query: &ConjunctiveQuery,
    voc: &mut Vocabulary,
    config: FcConfig,
) -> FcOutcome {
    finite_countermodel_with(db, theory0, query, voc, config, |m_sigma, norm, voc| {
        final_chase(m_sigma, norm, voc, &config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;

    /// Renders facts as text, nulls by their minted names.
    fn show(facts: &[Fact], voc: &Vocabulary) -> Vec<String> {
        facts.iter().map(|f| f.display(voc).to_string()).collect()
    }

    /// Example 1 on the single edge `E(a,b)`. Round 1: the only violated
    /// trigger is the successor rule at `Y = b`, which mints `n0`. Round 2:
    /// `E(b,n0)` needs a successor, and nothing forms a triangle yet.
    #[test]
    fn example1_first_two_rounds() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
             U(X,Y) -> exists Z . U(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut r = Reference::new(&prog.instance, &prog.theory, ChaseVariant::Restricted);
        let one = r.step(&mut voc);
        let n0 = voc.const_name(one.new_facts[0].args[1]).to_string();
        assert_eq!(show(&one.new_facts, &voc), vec![format!("E(b,{n0})")]);
        let two = r.step(&mut voc);
        let n1 = voc.const_name(two.new_facts[0].args[1]).to_string();
        assert_ne!(n0, n1);
        assert_eq!(show(&two.new_facts, &voc), vec![format!("E({n0},{n1})")]);
        // Round 1 sees the one edge at its one body atom; round 2 sees the
        // two homomorphisms of `E(X,Y)`, of which only the new edge is in Δ.
        assert_eq!((one.body_matches, two.body_matches), (1, 1));
        assert_eq!((one.naive_matches, two.naive_matches), (1, 2));
    }

    /// Example 1 on the triangle `M'`: the successor rule is satisfied,
    /// and round 1 repairs the triangle rule once per vertex, in
    /// frontier order `a < b < c`.
    #[test]
    fn example1_triangle_first_round() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
             U(X,Y) -> exists Z . U(Y,Z).
             E(a,b). E(b,c). E(c,a).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut r = Reference::new(&prog.instance, &prog.theory, ChaseVariant::Restricted);
        let one = r.step(&mut voc);
        let nulls: Vec<String> = one
            .new_facts
            .iter()
            .map(|f| voc.const_name(f.args[1]).to_string())
            .collect();
        assert!(nulls[0] != nulls[1] && nulls[1] != nulls[2] && nulls[0] != nulls[2]);
        assert_eq!(
            show(&one.new_facts, &voc),
            vec![
                format!("U(a,{})", nulls[0]),
                format!("U(b,{})", nulls[1]),
                format!("U(c,{})", nulls[2]),
            ]
        );
        // Round 2 gives each of the three U-atoms a successor.
        let two = r.step(&mut voc);
        assert_eq!(two.new_facts.len(), 3);
        assert!(two
            .new_facts
            .iter()
            .all(|f| nulls.contains(&voc.const_name(f.args[0]).to_string())));
    }

    /// `E(b,a)` already witnesses `E(a,Y) -> ∃Z E(Y,Z)` at `Y = b`, so the
    /// restricted chase adds nothing; the oblivious chase fires both
    /// triggers anyway, once each.
    #[test]
    fn restricted_reuses_witnesses_oblivious_fires_once() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b). E(b,a).").unwrap();
        let mut voc = prog.voc.clone();
        let mut r = Reference::new(&prog.instance, &prog.theory, ChaseVariant::Restricted);
        assert!(r.step(&mut voc).new_facts.is_empty());

        let mut voc = prog.voc.clone();
        let mut o = Reference::new(&prog.instance, &prog.theory, ChaseVariant::Oblivious);
        let one = o.step(&mut voc);
        let n: Vec<String> = one
            .new_facts
            .iter()
            .map(|f| voc.const_name(f.args[1]).to_string())
            .collect();
        assert_eq!(
            show(&one.new_facts, &voc),
            vec![format!("E(a,{})", n[0]), format!("E(b,{})", n[1])]
        );
        // Round 2 fires only the two triggers at the new nulls.
        let two = o.step(&mut voc);
        assert_eq!(two.new_facts.len(), 2);
        assert!(two
            .new_facts
            .iter()
            .all(|f| n.contains(&voc.const_name(f.args[0]).to_string())));
    }

    /// A body-less rule has one trigger: it fires on the opening round and
    /// never again, under either variant. (The parser rejects empty
    /// bodies, so the rule is built directly.)
    #[test]
    fn body_less_rule_fires_once() {
        let prog = parse_program("Q(a).").unwrap();
        let mut voc = prog.voc.clone();
        let p = voc.pred("P", 1);
        let z = voc.var("Z");
        let theory = Theory::new(vec![Rule::new(
            vec![],
            vec![Atom::new(p, vec![Term::Var(z)])],
        )]);
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let mut voc = voc.clone();
            let mut r = Reference::new(&prog.instance, &theory, variant);
            let one = r.step(&mut voc);
            let n = voc.const_name(one.new_facts[0].args[0]).to_string();
            assert_eq!(
                show(&one.new_facts, &voc),
                vec![format!("P({n})")],
                "{variant:?}"
            );
            assert_eq!(one.body_matches, 1, "{variant:?}");
            let two = r.step(&mut voc);
            assert!(two.new_facts.is_empty(), "{variant:?}");
            assert_eq!(two.body_matches, 0, "{variant:?}");
        }
    }

    #[test]
    fn run_reports_depths_and_budgets() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let res = run(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            ChaseConfig::rounds(3),
        );
        assert_eq!(
            (res.rounds, res.status, res.instance.len()),
            (3, ChaseStatus::RoundBudget, 4)
        );
        let mut depths: Vec<u32> = res.depth.values().copied().collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![0, 1, 2, 3]);
    }
}
