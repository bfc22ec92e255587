//! The differential property registry: every cross-engine invariant the
//! repository pins, as named, Result-returning checks over one parsed
//! program.
//!
//! Each [`Prop`] is a pure function of the case (plus the explicit
//! [`PropCtx`] budgets), so a failure replays from its seed alone. The
//! registry consolidates the oracle pairs that used to live scattered
//! across `tests/{differential,lint,determinism}.rs`:
//!
//! | property | engine pair |
//! |---|---|
//! | `chase_vs_reference` | `ChaseStepper` vs the [`crate::reference`] evaluator, both variants, roundwise + full-run, body matches included |
//! | `chase_restricted_embeds` | restricted chase embeds homomorphically into oblivious |
//! | `certainty_vs_reference` | `certain_ucq` verdicts + depth `k` vs the reference's round prefixes |
//! | `chase_thread_invariance` | chase outputs + obs counters at `BDDFC_THREADS` ∈ {1,2,7} |
//! | `classes_witness_oracle` | witness-producing recognizers vs legacy boolean oracles |
//! | `rewrite_vs_chase` | UCQ-rewriting certain answers vs chase certain answers |
//! | `lint_stability` | linting is deterministic and panic-free |
//! | `serve_vs_scratch_chase` | bddfc-serve incremental sessions vs from-scratch chase of the folded base |
//! | `static_bound_vs_observed_rounds` | bddfc-analyze termination certificates vs the real chase |
//! | `type_partition_vs_reference` | `TypeAnalyzer::partition` vs the reference pairwise `≡ₙ` scan, on chased instances and natural-colored skeletons, `n ∈ {1,2,3}` |
//! | `fc_pipeline_vs_reference` | `finite_countermodel` (step 6: datalog saturation + `⊨ T`) vs the reference pipeline (step 6: full chase of the quotient), on seeded linear binary theories |
//!
//! [`Mutation`] deliberately breaks one engine side — the seeded
//! known-bad mutations behind `bddfc-fuzz --mutate` that prove the
//! harness catches and shrinks real discrepancies.

use crate::gen::{random_fc_input, FuzzCase};
use crate::proptest_lite::{ensure, ensure_eq, PropResult};
use crate::reference::{self, Reference};
use bddfc_analyze::{analyze as static_analyze, domain::DomainAnalysis};
use bddfc_chase::{
    certain_ucq, certain_ucq_outcome, chase, chase_with, Certainty, ChaseConfig, ChaseStatus,
    ChaseStepper, ChaseVariant,
};
use bddfc_classes::{
    guard_violations, is_guarded, is_sticky, is_theorem3_fragment, is_weakly_acyclic,
    sticky_violations, theorem3_violations, weak_acyclicity_violation,
};
use bddfc_core::fxhash::FxHashMap;
use bddfc_core::obs::Memory;
use bddfc_core::satisfaction::satisfies_theory;
use bddfc_core::{
    hom, par, Atom, Binding, ConjunctiveQuery, Fact, Instance, PredId, Program, Term, Theory,
    Ucq, Vocabulary,
};
use bddfc_finite::{finite_countermodel, normalize_spade5, skeleton, FcConfig, FcOutcome};
use bddfc_lint::lint_source;
use bddfc_rewrite::{certainly_entailed_rewriting, RewriteConfig};
use bddfc_serve::{transcript as serve_transcript, ServeConfig, Server};
use bddfc_types::{natural_coloring, TypeAnalyzer};

/// A deliberate, deterministic engine defect, injected on the
/// *secondary* side of a differential pair (`bddfc-fuzz --mutate`).
/// [`Mutation::None`] is the production configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Healthy engines.
    #[default]
    None,
    /// The secondary engine silently forgets the last rule of the theory
    /// (models a lost delta batch).
    SkipLastRule,
    /// The secondary engine reorders the first two body atoms of every
    /// multi-atom rule (perturbs the canonical repair order, so fresh
    /// null names drift).
    SwapBodyAtoms,
}

impl Mutation {
    /// Parses a `--mutate` argument.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "skip-last-rule" => Some(Mutation::SkipLastRule),
            "swap-body-atoms" => Some(Mutation::SwapBodyAtoms),
            _ => None,
        }
    }

    /// Stable name (inverse of [`Mutation::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipLastRule => "skip-last-rule",
            Mutation::SwapBodyAtoms => "swap-body-atoms",
        }
    }

    /// The mutated theory the secondary engine side runs with.
    pub fn apply(self, theory: &Theory) -> Theory {
        match self {
            Mutation::None => theory.clone(),
            Mutation::SkipLastRule => {
                let mut rules = theory.rules.clone();
                rules.pop();
                Theory::new(rules)
            }
            Mutation::SwapBodyAtoms => {
                let rules = theory
                    .rules
                    .iter()
                    .map(|r| {
                        let mut body = r.body.clone();
                        if body.len() >= 2 {
                            body.swap(0, 1);
                        }
                        bddfc_core::Rule::new(body, r.head.clone())
                    })
                    .collect();
                Theory::new(rules)
            }
        }
    }
}

/// Budgets and mutation configuration shared by every property check.
#[derive(Clone, Copy, Debug)]
pub struct PropCtx {
    /// Round cap for chase comparisons.
    pub max_rounds: u32,
    /// Fact cap for chase comparisons.
    pub max_facts: usize,
    /// Injected engine defect ([`Mutation::None`] in production).
    pub mutation: Mutation,
}

impl Default for PropCtx {
    fn default() -> Self {
        PropCtx { max_rounds: 5, max_facts: 4_000, mutation: Mutation::None }
    }
}

/// One registered differential property.
pub struct Prop {
    /// Stable CLI-addressable name (`bddfc-fuzz --prop <name>`).
    pub name: &'static str,
    /// One-line description for `--list-props`.
    pub describe: &'static str,
    /// The check itself. `Err` is a finding; panics inside are caught by
    /// the runner and reported the same way.
    pub check: fn(&FuzzCase, &Program, &PropCtx) -> PropResult,
}

/// The registry, in fixed execution order.
pub static PROPS: &[Prop] = &[
    Prop {
        name: "chase_vs_reference",
        describe: "the chase engine agrees with the reference evaluator round-by-round and end-to-end",
        check: chase_vs_reference,
    },
    Prop {
        name: "chase_restricted_embeds",
        describe: "the restricted chase result embeds homomorphically into the oblivious one",
        check: chase_restricted_embeds,
    },
    Prop {
        name: "certainty_vs_reference",
        describe: "certain-answer verdicts and depth k agree with the reference evaluator",
        check: certainty_vs_reference,
    },
    Prop {
        name: "chase_thread_invariance",
        describe: "chase outputs and obs counters are byte-identical at 1/2/7 threads",
        check: chase_thread_invariance,
    },
    Prop {
        name: "classes_witness_oracle",
        describe: "witness-producing class recognizers agree with the boolean oracles",
        check: classes_witness_oracle,
    },
    Prop {
        name: "rewrite_vs_chase",
        describe: "UCQ-rewriting certain answers agree with chase certain answers",
        check: rewrite_vs_chase,
    },
    Prop {
        name: "lint_stability",
        describe: "linting is deterministic (identical reports on identical input)",
        check: lint_stability,
    },
    Prop {
        name: "serve_vs_scratch_chase",
        describe: "bddfc-serve sessions agree with a from-scratch chase and are thread-invariant",
        check: serve_vs_scratch_chase,
    },
    Prop {
        name: "static_bound_vs_observed_rounds",
        describe: "bddfc-analyze termination certificates dominate the observed chase",
        check: static_bound_vs_observed_rounds,
    },
    Prop {
        name: "type_partition_vs_reference",
        describe: "the type analyzer's ≡ₙ partition equals the reference pairwise scan",
        check: type_partition_vs_reference,
    },
    Prop {
        name: "fc_pipeline_vs_reference",
        describe: "the FC pipeline's Lemma 5 step 6 gives the full-chase reference's verdicts",
        check: fc_pipeline_vs_reference,
    },
];

/// Looks a property up by its stable name.
pub fn find_prop(name: &str) -> Option<&'static Prop> {
    PROPS.iter().find(|p| p.name == name)
}

fn chase_config(ctx: &PropCtx, variant: ChaseVariant) -> ChaseConfig {
    ChaseConfig { max_rounds: ctx.max_rounds, max_facts: ctx.max_facts, variant }
}

/// Compact instance comparison: equality or a bounded message naming one
/// differing fact (full instances can be thousands of facts — the
/// shrinker, not the message, is the readable artifact).
fn ensure_same_instance(a: &Instance, b: &Instance, voc: &Vocabulary, what: &str) -> PropResult {
    if a == b {
        return Ok(());
    }
    let missing = a
        .facts()
        .iter()
        .find(|f| !b.contains(f))
        .or_else(|| b.facts().iter().find(|f| !a.contains(f)));
    Err(format!(
        "{what}: instances differ ({} vs {} facts; e.g. {})",
        a.len(),
        b.len(),
        missing.map_or_else(|| "same fact set?".into(), |f| f.display(voc).to_string()),
    ))
}

/// `chase_vs_reference`: the engine ([`ChaseStepper`], and `chase` over
/// it) against the [`reference`] evaluator, both variants. Stepped round
/// by round: same new facts in the same order (hence the same fresh-null
/// names), same instance and same semi-naive body-match count. Then the
/// full budgeted runs: instance, depth map, rounds, status and per-round
/// body matches. The mutation runs on the engine side.
fn chase_vs_reference(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
        let mut voc_r = prog.voc.clone();
        let mut voc_e = prog.voc.clone();
        let mut oracle = Reference::new(&prog.instance, &prog.theory, variant);
        let mut engine = ChaseStepper::new(&prog.instance, &mutated, variant);
        for round in 1..=ctx.max_rounds {
            let expect = oracle.step(&mut voc_r);
            let got = engine.step(&mut voc_e);
            if expect.new_facts != got {
                return Err(format!(
                    "{variant:?}: round {round} facts differ (reference {} vs engine {})",
                    expect.new_facts.len(),
                    got.len()
                ));
            }
            ensure_same_instance(
                &oracle.instance,
                &engine.instance,
                &voc_r,
                &format!("{variant:?}: round {round}"),
            )?;
            ensure_eq(
                Some(&expect.body_matches),
                engine.stats.body_matches_per_round.last(),
                &format!("{variant:?}: round {round} body matches"),
            )?;
            if got.is_empty() || engine.instance.len() > ctx.max_facts {
                break;
            }
        }

        let cfg = chase_config(ctx, variant);
        let expect = reference::run(&prog.instance, &prog.theory, &mut prog.voc.clone(), cfg);
        let got = chase(&prog.instance, &mutated, &mut prog.voc.clone(), cfg);
        let what = format!("{variant:?}: full run");
        ensure_same_instance(&expect.instance, &got.instance, &prog.voc, &what)?;
        ensure_eq(expect.depth, got.depth_map(), &format!("{what}: depth map"))?;
        ensure_eq(expect.rounds, got.rounds, &format!("{what}: rounds"))?;
        ensure_eq(expect.status, got.status, &format!("{what}: status"))?;
        ensure_eq(
            expect.body_matches_per_round,
            got.stats.body_matches_per_round,
            &format!("{what}: per-round body matches"),
        )?;
    }
    Ok(())
}

/// `chase_restricted_embeds`: the restricted-chase result (nulls turned
/// into existential variables) maps homomorphically into the oblivious
/// result at the same budget. The mutation runs on the oblivious side.
fn chase_restricted_embeds(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let mut voc_r = prog.voc.clone();
    let restricted = chase(
        &prog.instance,
        &prog.theory,
        &mut voc_r,
        chase_config(ctx, ChaseVariant::Restricted),
    );
    let oblivious = chase(
        &prog.instance,
        &mutated,
        &mut prog.voc.clone(),
        chase_config(ctx, ChaseVariant::Oblivious),
    );
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
    ensure(
        hom::hom_exists(&oblivious.instance, &atoms, &Binding::default()),
        &format!(
            "restricted chase ({} facts) does not embed into oblivious chase ({} facts)",
            restricted.instance.len(),
            oblivious.instance.len()
        ),
    )
}

/// The queries a case is probed with: its own `?-` queries plus two-atom
/// join queries over the (at most three first) binary predicates it
/// mentions.
fn derived_queries(prog: &Program) -> (Vocabulary, Vec<Ucq>) {
    let mut voc = prog.voc.clone();
    let mut queries: Vec<Ucq> = prog.queries.iter().cloned().map(Ucq::single).collect();
    let mut binary: Vec<PredId> = voc
        .preds()
        .filter(|&(_, arity)| arity == 2)
        .map(|(p, _)| p)
        .collect();
    binary.truncate(3);
    for &p in &binary {
        for &q in &binary {
            let (x, y, z) = (voc.fresh_var("dx"), voc.fresh_var("dy"), voc.fresh_var("dz"));
            queries.push(Ucq::single(ConjunctiveQuery::boolean(vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
            ])));
        }
    }
    (voc, queries)
}

/// `certainty_vs_reference`: the `Certainty` verdict of `certain_ucq` —
/// including the witnessing depth `k` in `True(k)` — equals the one read
/// off the [`reference`] evaluator's round prefixes under the same
/// budgets. The mutation runs on the engine side.
fn certainty_vs_reference(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let (voc, queries) = derived_queries(prog);
    for (qi, query) in queries.iter().enumerate() {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let cfg = chase_config(ctx, variant);
            let expect =
                reference::certainty(&prog.instance, &prog.theory, &mut voc.clone(), query, cfg);
            let got = certain_ucq(&prog.instance, &mutated, &mut voc.clone(), query, cfg);
            ensure_eq(
                expect,
                got,
                &format!("{variant:?}: Certainty diverged from the reference on query #{qi}"),
            )?;
        }
    }
    Ok(())
}

/// `chase_thread_invariance`: the chase result *and* the aggregated obs
/// counters/event counts are identical at 1, 2 and 7 worker threads —
/// the executable form of the fields-vs-gauges contract. The mutation
/// runs at every thread count above 1.
fn chase_thread_invariance(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let run = |threads: usize, theory: &Theory| {
        par::with_thread_count(threads, || {
            let sink = Memory::new(1 << 14);
            let res = chase_with(
                &prog.instance,
                theory,
                &mut prog.voc.clone(),
                chase_config(ctx, ChaseVariant::Restricted),
                &sink,
            );
            (res, sink.counters(), sink.event_counts())
        })
    };
    let base = run(1, &prog.theory);
    for threads in [2usize, 7] {
        let other = run(threads, &mutated);
        ensure_same_instance(
            &base.0.instance,
            &other.0.instance,
            &prog.voc,
            &format!("{threads} threads"),
        )?;
        ensure_eq(base.0.depth_map(), other.0.depth_map(), &format!("{threads} threads: depth map"))?;
        ensure_eq(base.0.rounds, other.0.rounds, &format!("{threads} threads: rounds"))?;
        ensure_eq(base.0.status, other.0.status, &format!("{threads} threads: status"))?;
        ensure_eq(base.1.clone(), other.1, &format!("{threads} threads: obs counters"))?;
        ensure_eq(base.2.clone(), other.2, &format!("{threads} threads: obs event counts"))?;
    }
    Ok(())
}

/// `classes_witness_oracle`: every witness-producing recognizer agrees
/// with its legacy boolean oracle, and every witness re-validates
/// against the theory from scratch. The mutation checks the *mutated*
/// theory both ways (witnesses must stay self-consistent on any input).
fn classes_witness_oracle(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let theory = ctx.mutation.apply(&prog.theory);

    let guards = guard_violations(&theory);
    ensure(
        is_guarded(&theory) == guards.is_empty(),
        "guard witness/oracle disagree",
    )?;
    for v in &guards {
        v.validate(&theory).map_err(|e| format!("bogus guard witness: {e}"))?;
    }

    let sticky = sticky_violations(&theory);
    ensure(
        is_sticky(&theory) == sticky.is_empty(),
        "sticky witness/oracle disagree",
    )?;
    for v in &sticky {
        v.validate(&theory).map_err(|e| format!("bogus sticky witness: {e}"))?;
    }

    let wa = weak_acyclicity_violation(&theory);
    ensure(
        is_weakly_acyclic(&theory) == wa.is_none(),
        "weak-acyclicity witness/oracle disagree",
    )?;
    if let Some(v) = &wa {
        v.validate(&theory).map_err(|e| format!("bogus WA witness: {e}"))?;
    }

    let t3 = theorem3_violations(&theory);
    ensure(
        is_theorem3_fragment(&theory) == t3.is_empty(),
        "theorem3 witness/oracle disagree",
    )?;
    for v in &t3 {
        v.validate(&theory).map_err(|e| format!("bogus theorem3 witness: {e}"))?;
    }
    Ok(())
}

/// `rewrite_vs_chase`: where the UCQ rewriting saturates (Definition 2
/// applies), evaluating the rewriting over `D` must agree with the
/// chase-based certain answer whenever the chase decides within budget.
/// Single-head theories only (the rewriter's contract). The mutation
/// runs on the rewriting side.
fn rewrite_vs_chase(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    if !prog.theory.is_single_head() {
        return Ok(());
    }
    let mutated = ctx.mutation.apply(&prog.theory);
    let (voc, queries) = derived_queries(prog);
    let config = RewriteConfig { max_disjuncts: 15, max_steps: 300, max_piece: 2 };
    for (qi, ucq) in queries.iter().enumerate() {
        // The rewriter takes single CQs; probe each disjunct separately.
        for cq in &ucq.disjuncts {
            let via_rw = certainly_entailed_rewriting(
                &prog.instance,
                &mutated,
                &mut voc.clone(),
                cq,
                config,
            );
            let Some(rw) = via_rw else { continue }; // did not saturate
            let chase_verdict = certain_ucq(
                &prog.instance,
                &prog.theory,
                &mut voc.clone(),
                &Ucq::single(cq.clone()),
                chase_config(ctx, ChaseVariant::Restricted),
            );
            if !chase_verdict.is_decided() {
                continue;
            }
            ensure_eq(
                rw,
                chase_verdict.is_true(),
                &format!("rewriting and chase disagree on query #{qi}"),
            )?;
        }
    }
    Ok(())
}

/// `serve_vs_scratch_chase`: an incremental `bddfc-serve` session
/// (insert half the facts, query, insert the rest, query, retract the
/// first half, query) produces certain answers that agree with a
/// from-scratch chase of the *folded base* — the mutation log replayed
/// into a plain fact set — at every query point where both sides
/// decided, every epoch that reached a fixpoint satisfies the theory,
/// and the whole-session transcript is byte-identical at 1, 2 and 7
/// worker threads. The mutation runs on the resident (serve) side.
fn serve_vs_scratch_chase(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    // The case's own queries plus two-atom join probes — like
    // `derived_queries`, but with parser-friendly variable names, since
    // these queries travel through the serve protocol as *text*.
    let mut qvoc = prog.voc.clone();
    let mut queries: Vec<Ucq> = prog.queries.iter().cloned().map(Ucq::single).collect();
    let mut binary: Vec<PredId> =
        qvoc.preds().filter(|&(_, arity)| arity == 2).map(|(p, _)| p).collect();
    binary.truncate(3);
    let (x, y, z) = (qvoc.var("SVX"), qvoc.var("SVY"), qvoc.var("SVZ"));
    for &p in &binary {
        for &q in &binary {
            queries.push(Ucq::single(ConjunctiveQuery::boolean(vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
            ])));
        }
    }
    let facts = prog.instance.facts();
    let (first, second) = facts.split_at(facts.len() / 2);

    enum Step<'a> {
        Ins(&'a [Fact]),
        Ret(&'a [Fact]),
        Query(usize),
    }
    let mut steps: Vec<Step<'_>> = Vec::new();
    let probe_all = |steps: &mut Vec<Step<'_>>| {
        for qi in 0..queries.len() {
            steps.push(Step::Query(qi));
        }
    };
    if !first.is_empty() {
        steps.push(Step::Ins(first));
    }
    probe_all(&mut steps);
    if !second.is_empty() {
        steps.push(Step::Ins(second));
    }
    probe_all(&mut steps);
    if !first.is_empty() {
        steps.push(Step::Ret(first));
    }
    probe_all(&mut steps);

    let payload = |fs: &[Fact]| -> String {
        fs.iter().map(|f| format!("{}.", f.display(&qvoc))).collect::<Vec<_>>().join(" ")
    };
    let mut script = String::new();
    for step in &steps {
        match step {
            Step::Ins(fs) => script.push_str(&format!("insert {}\n", payload(fs))),
            Step::Ret(fs) => script.push_str(&format!("retract {}\n", payload(fs))),
            Step::Query(qi) => {
                let body = queries[*qi].disjuncts[0]
                    .atoms
                    .iter()
                    .map(|a| a.display(&qvoc).to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                script.push_str(&format!("query {body}\n"));
            }
        }
    }
    script.push_str("stats\n");

    let serve_prog = Program {
        voc: qvoc.clone(),
        theory: mutated,
        instance: Instance::new(),
        queries: Vec::new(),
    };
    let config = ServeConfig {
        max_rounds: ctx.max_rounds,
        max_facts: ctx.max_facts,
        oracle: false,
        ..ServeConfig::default()
    };
    // Drives the script one command at a time so every epoch can be
    // inspected: one that reached a fixpoint must be a model of the
    // theory. A re-derivation that misses a re-fire fails here directly,
    // whatever the queries probe. Returns the transcript and the first
    // epoch that is not a model.
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            let server = Server::new(&serve_prog, config);
            let mut transcript = String::new();
            let mut not_a_model = None;
            for line in script.lines() {
                transcript.push_str(&serve_transcript(&server, line));
                let epoch = server.snapshot();
                if not_a_model.is_none()
                    && epoch.complete
                    && !satisfies_theory(&epoch.instance, &prog.theory)
                {
                    not_a_model = Some(epoch.id);
                }
            }
            (transcript, not_a_model)
        })
    };
    let (transcript, not_a_model) = run(1);
    ensure_eq(not_a_model, None, "fixpoint epoch that does not satisfy the theory")?;
    for threads in [2usize, 7] {
        ensure_eq(
            transcript.clone(),
            run(threads).0,
            &format!("serve transcript at {threads} threads"),
        )?;
    }

    // Differential: replay the mutation log into a plain base instance
    // and ask the from-scratch chase at every query point.
    let lines: Vec<&str> = transcript.lines().collect();
    ensure_eq(lines.len(), steps.len() + 1, "one response line per command (plus stats)")?;
    let mut base = Instance::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Ins(fs) => {
                for f in *fs {
                    base.insert(f.clone());
                }
                ensure(lines[i].starts_with("ok "), &format!("insert failed: {}", lines[i]))?;
            }
            Step::Ret(fs) => {
                let kept: Vec<Fact> =
                    base.facts().iter().filter(|f| !fs.contains(f)).cloned().collect();
                base = Instance::new();
                for f in kept {
                    base.insert(f);
                }
                ensure(lines[i].starts_with("ok "), &format!("retract failed: {}", lines[i]))?;
            }
            Step::Query(qi) => {
                let resident = lines[i];
                if resident != "true" && resident != "false" {
                    ensure(
                        resident.starts_with("unknown"),
                        &format!("unexpected query reply: {resident}"),
                    )?;
                    continue;
                }
                let outcome = certain_ucq_outcome(
                    &base,
                    &prog.theory,
                    &mut qvoc.clone(),
                    &queries[*qi],
                    chase_config(ctx, ChaseVariant::Restricted),
                );
                let scratch = match outcome.certainty {
                    Certainty::True(_) => "true",
                    Certainty::False => "false",
                    Certainty::Unknown => continue, // scratch budget ran out first
                };
                ensure_eq(
                    resident,
                    scratch,
                    &format!("serve and scratch chase disagree on query #{qi} at step {i}"),
                )?;
            }
        }
    }
    Ok(())
}

/// `static_bound_vs_observed_rounds`: the static analyzer is sound
/// against the real chase —
///
/// * the counting-lattice weak-acyclicity verdict agrees with the
///   position-graph oracle of `bddfc-classes`;
/// * a termination certificate implies weak acyclicity, and every
///   emitted certificate passes its own independent validator;
/// * the restricted semi-naive chase never exceeds a certified bound:
///   a fixpoint within the session budgets stays within `round_bound`
///   rounds and `fact_bound` distinct facts, and a budget stop with the
///   budget at or past the certified bound is a soundness violation;
/// * the analysis JSON is byte-identical at 1, 2 and 7 worker threads.
///
/// The mutation runs on the analyzer side: bounds computed from a
/// defective view of the theory must be caught by the real chase.
fn static_bound_vs_observed_rounds(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let analyzed = Program {
        voc: prog.voc.clone(),
        theory: ctx.mutation.apply(&prog.theory),
        instance: prog.instance.clone(),
        queries: prog.queries.clone(),
    };
    let dom = DomainAnalysis::analyze(&analyzed);
    ensure_eq(
        dom.weakly_acyclic,
        bddfc_classes::is_weakly_acyclic(&analyzed.theory),
        "domain analysis disagrees with the weak-acyclicity oracle",
    )?;

    let a = static_analyze(&analyzed);
    let render = |threads: usize| {
        par::with_thread_count(threads, || static_analyze(&analyzed).json("fuzz", &analyzed))
    };
    let one = render(1);
    ensure_eq(one.clone(), a.json("fuzz", &analyzed), "analysis JSON is unstable")?;
    for threads in [2usize, 7] {
        ensure_eq(
            one.clone(),
            render(threads),
            &format!("analysis JSON diverged at {threads} threads"),
        )?;
    }

    // No certificate is always permitted for a WA theory (the counting
    // lattice may have saturated), never the other way around.
    let Some(cert) = &a.certificate else {
        return Ok(());
    };
    ensure(dom.weakly_acyclic, "certificate emitted for a non-weakly-acyclic theory")?;
    cert.validate(&analyzed).map_err(|e| format!("certificate fails its own validator: {e}"))?;

    let res = chase(
        &prog.instance,
        &prog.theory,
        &mut prog.voc.clone(),
        chase_config(ctx, ChaseVariant::Restricted),
    );
    match res.status {
        ChaseStatus::Fixpoint => {
            ensure(
                u64::from(res.rounds) <= cert.round_bound,
                &format!("observed {} rounds > certified {}", res.rounds, cert.round_bound),
            )?;
            ensure(
                res.instance.len() as u64 <= cert.fact_bound,
                &format!(
                    "observed {} facts > certified {}",
                    res.instance.len(),
                    cert.fact_bound
                ),
            )?;
        }
        // A budget stop is only consistent with the certificate when
        // the budget ran out *before* the bound: the engine needs
        // `round_bound` productive rounds plus one empty round to
        // observe the fixpoint the certificate promises.
        ChaseStatus::RoundBudget => {
            ensure(
                u64::from(ctx.max_rounds) < cert.round_bound.saturating_add(1),
                &format!(
                    "no fixpoint within {} rounds despite certified round bound {}",
                    ctx.max_rounds, cert.round_bound
                ),
            )?;
        }
        ChaseStatus::FactBudget => {
            ensure(
                (ctx.max_facts as u64) < cert.fact_bound,
                &format!(
                    "fact budget {} overrun despite certified fact bound {}",
                    ctx.max_facts, cert.fact_bound
                ),
            )?;
        }
    }
    Ok(())
}

/// `type_partition_vs_reference`: [`TypeAnalyzer::partition`] equals
/// [`reference::type_partition`] exactly (same classes, same order) for
/// `n ∈ {1,2,3}`, on the case's restricted chase prefix and, when the
/// theory has a (♠5) normal form, on the skeleton of the normalized
/// theory's prefix under a natural coloring (`m = 2`): the structure the
/// FC certifier partitions. Other skeletons are not colored, because the
/// natural coloring is only cheap on (♠5) skeletons, whose nulls have one
/// predecessor each. Prefixes are kept small: the reference compares
/// every element with every class.
fn type_partition_vs_reference(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mut voc = prog.voc.clone();
    let config = ChaseConfig {
        max_rounds: ctx.max_rounds.min(4),
        max_facts: ctx.max_facts.min(TYPE_PARTITION_FACTS),
        variant: ChaseVariant::Restricted,
    };
    let prefix = chase(&prog.instance, &prog.theory, &mut voc, config).instance;
    let mut structures = vec![("chase prefix", prefix)];
    if let Ok(norm) = normalize_spade5(&prog.theory, &mut voc) {
        let chased = chase(&prog.instance, &norm, &mut voc, config).instance;
        let skel = skeleton(&chased, &prog.instance, &norm);
        structures.push(("colored skeleton", natural_coloring(&skel, &mut voc, 2).apply(&skel)));
    }
    for (what, inst) in &structures {
        for n in 1..=3 {
            let expect = reference::type_partition(inst, &voc, n);
            let got = TypeAnalyzer::new(inst, &mut voc, n).partition();
            if got != expect {
                return Err(format!(
                    "{what}, n = {n}: partitions differ ({} classes vs the reference's {})",
                    got.len(),
                    expect.len()
                ));
            }
        }
    }
    Ok(())
}

/// Fact cap of the chase prefix `type_partition_vs_reference` partitions.
const TYPE_PARTITION_FACTS: usize = 300;

/// `fc_pipeline_vs_reference`: the Theorem 2 pipeline, whose step 6
/// saturates the quotient with the datalog rules and checks `⊨ T`
/// (Lemma 5), gives the same verdict as [`reference::finite_countermodel`],
/// whose step 6 is a budgeted full chase of the quotient: the same kind,
/// the same `n`, prefix depth and model size for a countermodel, and the
/// same depth for an entailed query. Inconclusive runs only need to agree
/// on the kind, since their reasons name the failing step.
///
/// The input is a pure function of the case seed, not the case program:
/// [`random_fc_input`]'s linear binary theory, loop-free database and
/// query. Shrinking the case source therefore leaves the input as it is,
/// and the failure message prints it. The budgets are [`FC_CONFIG`]. The
/// mutation runs on the shipped pipeline's theory.
fn fc_pipeline_vs_reference(case: &FuzzCase, _prog: &Program, ctx: &PropCtx) -> PropResult {
    let (prog, query) = random_fc_input(case.seed);
    let mutated = ctx.mutation.apply(&prog.theory);
    let (db, voc) = (&prog.instance, &prog.voc);
    let expect = reference::finite_countermodel(db, &prog.theory, &query, &mut voc.clone(), FC_CONFIG);
    let got = finite_countermodel(db, &mutated, &query, &mut voc.clone(), FC_CONFIG);
    ensure_eq(
        fc_verdict(&expect),
        fc_verdict(&got),
        &format!(
            "verdicts differ (reference, shipped) on\n{}{}?- {}.",
            prog.theory.display(voc),
            db.display(voc),
            query.display(voc)
        ),
    )
}

/// What `fc_pipeline_vs_reference` compares of a pipeline outcome.
fn fc_verdict(out: &FcOutcome) -> String {
    match out {
        FcOutcome::Countermodel(c) => {
            format!("countermodel (n {}, depth {}, size {})", c.n, c.chase_depth, c.model_size)
        }
        FcOutcome::Entailed { depth } => format!("entailed at depth {depth}"),
        FcOutcome::Inconclusive(_) => "inconclusive".into(),
    }
}

/// Budgets of `fc_pipeline_vs_reference`: small enough that both
/// pipelines finish a case in milliseconds. The reference chase gets 16
/// rounds rather than the default 64, which keeps the debug-build tests
/// quick and is still twice the shipped fallback chase's 8.
const FC_CONFIG: FcConfig = FcConfig {
    rewrite: RewriteConfig { max_disjuncts: 50, max_steps: 2_000, max_piece: 2 },
    chase_depth: 6,
    max_chase_depth: 12,
    chase_facts: 5_000,
    n_max: 3,
    final_rounds: 16,
    max_skeleton: 500,
};

/// `lint_stability`: linting the case source twice gives byte-identical
/// reports (text and JSON) and never panics. (Panic-freedom is enforced
/// by the runner's catch-unwind; this check makes it a named property.)
fn lint_stability(case: &FuzzCase, _prog: &Program, _ctx: &PropCtx) -> PropResult {
    let a = lint_source("fuzz-case", &case.src);
    let b = lint_source("fuzz-case", &case.src);
    ensure(a.json() == b.json(), "lint JSON output is unstable")?;
    ensure(a.render() == b.render(), "lint rendered output is unstable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for p in PROPS {
            assert!(std::ptr::eq(find_prop(p.name).unwrap(), p));
        }
        let mut names: Vec<_> = PROPS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROPS.len());
    }

    #[test]
    fn healthy_engines_pass_all_props_on_sample_seeds() {
        let ctx = PropCtx::default();
        for seed in 0..30 {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            for prop in PROPS {
                (prop.check)(&case, &prog, &ctx).unwrap_or_else(|e| {
                    panic!("seed {seed}, prop {}: {e}\n{}", prop.name, case.src)
                });
            }
        }
    }

    #[test]
    fn skip_last_rule_mutation_is_caught_somewhere() {
        let ctx = PropCtx { mutation: Mutation::SkipLastRule, ..PropCtx::default() };
        let caught = (0..40).any(|seed| {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            PROPS.iter().any(|p| {
                crate::proptest_lite::run_case_caught(|| (p.check)(&case, &prog, &ctx)).is_err()
            })
        });
        assert!(caught, "the known-bad mutation must be caught within 40 seeds");
    }
}
