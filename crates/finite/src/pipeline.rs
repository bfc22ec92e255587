//! The Theorem 2 pipeline: certified finite countermodels for binary BDD
//! theories.
//!
//! Given `T₀`, `D` and a query `Q` with `Chase(D,T₀) ⊭ Q`, the pipeline
//! constructs a finite `M ⊨ D, T₀` with `M ⊭ Q` by walking the paper's
//! proof:
//!
//! 1. hide the query: `T = T₀ ∪ {Q ⇒ ∃z F(y,z)}` (♠4);
//! 2. normalize heads into (♠5) form;
//! 3. compute κ — the maximal variable count of any rule-body rewriting
//!    (Section 3.3); failure means the theory is not usably BDD;
//! 4. chase a finite prefix and extract the skeleton `S(D,T)`
//!    (Definition 12);
//! 5. color `S` naturally (Definition 14) and search for `n` such that
//!    the quotient `Mₙ(S̄)` preserves positive κ-types (Definition 8) —
//!    the Main Lemma guarantees such an `n` exists;
//! 6. saturate `Mₙ(S̄)` with the datalog rules, then check `⊨ T`: by
//!    Lemma 5 the chase of the quotient creates no elements, so the
//!    saturation is the whole chase. A quotient whose saturation still
//!    leaves an existential rule unsatisfied gets a small bounded full
//!    chase (see [`lemma5_saturation`]); if that reaches no fixpoint,
//!    the `(n, L)` attempt fails ("Lemma 5 violated") and the search goes
//!    on to the next `n` or a deeper prefix;
//! 7. **certify** the result independently (`⊨ D`, `⊨ T₀`, `⊭ Q`).
//!
//! [`finite_countermodel_with`] runs the same pipeline with another
//! step 6. The fuzz harness's reference pipeline passes a budgeted full
//! chase of `Mₙ(S̄)` there and compares verdicts.
//!
//! ## The finite-prefix substitution
//!
//! The paper quotients the *infinite* chase. We quotient a finite prefix
//! of depth `L`, with one twist: positive `n`-types only depend on
//! radius-`n` neighbourhoods (they are decided by connected canonical
//! queries — see `bddfc-types`), so elements created at depth
//! `≤ L − max(n, κ)` have exactly their infinite-chase types. The quotient
//! projects only facts among these *safe* elements; rim elements
//! contribute nothing. Any residual artifact is caught by step 7, which
//! triggers a retry with a deeper prefix — soundness never depends on the
//! heuristic.

use crate::certify::{certify_countermodel, CertFailure};
use crate::skeleton::skeleton;
use crate::transform::{hide_query, normalize_spade5};
use bddfc_chase::{chase, saturate_datalog, ChaseConfig, ChaseStatus};
use bddfc_core::satisfaction::satisfies_theory;
use bddfc_core::{
    hom, ConjunctiveQuery, ConstId, Instance, PredId, Theory, Vocabulary,
};
use bddfc_rewrite::{kappa, RewriteConfig};
use bddfc_types::{natural_coloring, Quotient, TypeAnalyzer};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};

/// Budgets and parameters for the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct FcConfig {
    /// Rewriting budget for the κ computation.
    pub rewrite: RewriteConfig,
    /// Initial chase prefix depth `L`.
    pub chase_depth: u32,
    /// Maximal prefix depth before giving up.
    pub max_chase_depth: u32,
    /// Fact budget per chase prefix.
    pub chase_facts: usize,
    /// Maximal quotient parameter `n` tried per prefix.
    pub n_max: usize,
    /// Round budget of the reference full chase of the quotient, the
    /// step 6 that `bddfc_fuzz::reference` and perfbench's `fc_certify`
    /// replica run. [`finite_countermodel`] does not read it: its step 6
    /// is [`lemma5_saturation`], whose fallback chase has budgets of its
    /// own.
    pub final_rounds: u32,
    /// Skeleton size cap: prefixes whose skeleton exceeds this are not
    /// quotiented (the partition cost would dominate); the run gives up
    /// instead of hanging.
    pub max_skeleton: usize,
}

impl Default for FcConfig {
    fn default() -> Self {
        FcConfig {
            rewrite: RewriteConfig::default(),
            chase_depth: 8,
            max_chase_depth: 64,
            chase_facts: 200_000,
            n_max: 4,
            final_rounds: 64,
            max_skeleton: 9_000,
        }
    }
}

/// A certified finite countermodel, with provenance.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The model (over the original signature, color and auxiliary
    /// predicates removed).
    pub model: Instance,
    /// κ used for conservativity (Section 3.3).
    pub kappa: usize,
    /// The quotient parameter `n` that worked.
    pub n: usize,
    /// The chase prefix depth used.
    pub chase_depth: u32,
    /// Did Lemma 5 hold exactly (step 6 created no new elements)?
    pub lemma5_no_new_elements: bool,
    /// Domain size of the model.
    pub model_size: usize,
}

/// Outcome of a pipeline run.
#[derive(Clone, Debug)]
pub enum FcOutcome {
    /// A certified finite countermodel.
    Countermodel(Box<Certified>),
    /// The query is certainly entailed — no countermodel exists at all.
    /// Reports the chase round at which the query became true.
    Entailed {
        /// Chase depth at which the forbidden atom appeared.
        depth: u32,
    },
    /// The budgets were exhausted without a decision.
    Inconclusive(String),
}

impl FcOutcome {
    /// The certified model, if any.
    pub fn model(&self) -> Option<&Certified> {
        match self {
            FcOutcome::Countermodel(c) => Some(c),
            _ => None,
        }
    }
}

/// Element creation depths: the round at which each element first appears.
fn element_depths(res: &bddfc_chase::ChaseResult) -> FxHashMap<ConstId, u32> {
    let mut depth: FxHashMap<ConstId, u32> = FxHashMap::default();
    for (idx, fact) in res.instance.facts().iter().enumerate() {
        let d = res.fact_depth(idx);
        for &c in &fact.args {
            depth
                .entry(c)
                .and_modify(|cur| *cur = (*cur).min(d))
                .or_insert(d);
        }
    }
    depth
}

/// Step 6 as Lemma 5 states it: saturates the quotient `m_sigma` with
/// the datalog rules of the normalized theory `norm` and checks that the
/// result satisfies all of `norm`.
///
/// An unsatisfied existential rule means the chase of this quotient
/// creates elements. The finite prefix can leave a rim artifact that a
/// few new elements repair, so a full chase of `m_sigma` then runs as a
/// fallback, within `FALLBACK_ROUNDS` rounds and `FALLBACK_GROWTH` times
/// the quotient's facts. If it reaches no fixpoint, the attempt fails.
pub fn lemma5_saturation(
    m_sigma: &Instance,
    norm: &Theory,
    voc: &mut Vocabulary,
) -> Result<Instance, &'static str> {
    let sat = saturate_datalog(m_sigma, norm);
    if satisfies_theory(&sat.instance, norm) {
        return Ok(sat.instance);
    }
    let res = chase(
        m_sigma,
        norm,
        voc,
        ChaseConfig {
            max_rounds: FALLBACK_ROUNDS,
            max_facts: FALLBACK_GROWTH * m_sigma.len().max(1),
            ..Default::default()
        },
    );
    match res.status {
        ChaseStatus::Fixpoint => Ok(res.instance),
        _ => Err("Lemma 5 violated"),
    }
}

/// Round budget of the fallback chase of [`lemma5_saturation`].
/// `fc_pipeline_vs_reference` found quotients whose full chase reaches
/// a fixpoint with new elements; none took more than 5 rounds.
const FALLBACK_ROUNDS: u32 = 8;

/// The fallback chase of [`lemma5_saturation`] stops once the instance
/// holds more than this many times the quotient's facts. The quotients
/// whose chase reached a fixpoint grew to at most 3.3 times their facts;
/// a diverging one (example9's `n = 4` quotient at depth 8 doubles its
/// domain every round) is cut off after a few rounds.
const FALLBACK_GROWTH: usize = 16;

/// Runs the full Theorem 2 pipeline.
pub fn finite_countermodel(
    db: &Instance,
    theory0: &Theory,
    query: &ConjunctiveQuery,
    voc: &mut Vocabulary,
    config: FcConfig,
) -> FcOutcome {
    finite_countermodel_with(db, theory0, query, voc, config, lemma5_saturation)
}

/// Runs the Theorem 2 pipeline with `final_step` as step 6. It gets the
/// quotient `Mₙ(S̄)`, the normalized theory and the vocabulary, and
/// returns the instance steps 6–7 check, or why this `(n, L)` attempt
/// fails. Step 7 certifies whatever it returns, so no `final_step` can
/// make the pipeline return a wrong model.
pub fn finite_countermodel_with(
    db: &Instance,
    theory0: &Theory,
    query: &ConjunctiveQuery,
    voc: &mut Vocabulary,
    config: FcConfig,
    mut final_step: impl FnMut(&Instance, &Theory, &mut Vocabulary) -> Result<Instance, &'static str>,
) -> FcOutcome {
    // Step 0: the query may already hold in D.
    if hom::satisfies_cq(db, query) {
        return FcOutcome::Entailed { depth: 0 };
    }

    // Steps 1–2: hide the query, normalize heads.
    let hidden = hide_query(theory0, query, voc);
    let norm = match normalize_spade5(&hidden.theory, voc) {
        Ok(t) => t,
        Err(e) => return FcOutcome::Inconclusive(format!("normalization failed: {e}")),
    };
    let forbidden = hidden.forbidden;

    // Step 3: κ.
    let Some(kap) = kappa(&norm, voc, config.rewrite) else {
        return FcOutcome::Inconclusive(
            "κ computation failed: some rule-body rewriting did not saturate (theory not \
             verifiably BDD within budget)"
                .into(),
        );
    };
    let m = kap.max(2);

    let color_free_preds: FxHashSet<PredId> = norm.preds().into_iter().collect();

    let mut l = config.chase_depth;
    let mut last_reason = String::from("no prefix attempted");
    while l <= config.max_chase_depth {
        // Step 4: chase prefix and skeleton.
        let res = chase(
            db,
            &norm,
            voc,
            ChaseConfig {
                max_rounds: l,
                max_facts: config.chase_facts,
                ..Default::default()
            },
        );
        if !res.instance.facts_with_pred(forbidden).is_empty() {
            let d = res
                .instance
                .facts_with_pred(forbidden)
                .iter()
                .map(|&i| res.fact_depth(i))
                .min()
                .unwrap_or(res.rounds);
            // The forbidden atom appears one round after the query became
            // true (the hidden (♠4) rule fires on it).
            return FcOutcome::Entailed { depth: d.saturating_sub(1) };
        }
        if res.status == ChaseStatus::Fixpoint {
            // The chase itself is finite and F-free: it is the model.
            let model = res.instance.restrict_to_preds(&theory0.preds());
            let failures = certify_countermodel(&res.instance, db, theory0, query, voc);
            if failures.is_empty() {
                return FcOutcome::Countermodel(Box::new(Certified {
                    model_size: model.domain_size(),
                    model,
                    kappa: kap,
                    n: 0,
                    chase_depth: res.rounds,
                    lemma5_no_new_elements: true,
                }));
            }
            return FcOutcome::Inconclusive(format!(
                "terminating chase failed certification: {:?}",
                failures
            ));
        }

        let skel = skeleton(&res.instance, db, &norm);
        if skel.domain_size() > config.max_skeleton {
            return FcOutcome::Inconclusive(format!(
                "skeleton prefix too large to quotient ({} elements > cap {}); last: {last_reason}",
                skel.domain_size(),
                config.max_skeleton
            ));
        }
        let depths = element_depths(&res);

        // Step 5: color and search n.
        let coloring = natural_coloring(&skel, voc, m);
        let colored = coloring.apply(&skel);

        for n in m..=config.n_max {
            let margin = (n.max(m)) as u32;
            if margin >= l {
                break;
            }
            let safe: FxHashSet<ConstId> = skel
                .domain()
                .filter(|c| depths.get(c).copied().unwrap_or(0) + margin <= l)
                .collect();
            if !db.domain().all(|c| safe.contains(&c)) {
                last_reason = "database elements not safe (prefix too shallow)".into();
                continue;
            }
            let partition = {
                let analyzer = TypeAnalyzer::new(&colored, voc, n);
                analyzer.partition()
            };
            let colored_safe = colored.restrict_to_elements(&safe);
            let quotient = Quotient::new(&colored_safe, partition, voc);
            let m_sigma = quotient.instance.restrict_to_preds(&color_free_preds);

            // Conservativity (♠2) on safe elements: quotient types map back.
            let analyzer_m = TypeAnalyzer::new(&m_sigma, voc, m);
            let mut conservative = true;
            for &e in &safe {
                let Some(qe) = quotient.try_project(e) else {
                    continue;
                };
                if !m_sigma.in_domain(qe) {
                    continue;
                }
                if !analyzer_m.ptp_included_in(qe, &skel, e) {
                    conservative = false;
                    break;
                }
            }
            if !conservative {
                last_reason = format!("n = {n} not conservative at prefix depth {l}");
                continue;
            }

            // Step 6: by Lemma 5, saturate the quotient and check it.
            let candidate = match final_step(&m_sigma, &norm, voc) {
                Ok(inst) => inst,
                Err(why) => {
                    last_reason = format!("{why} for n = {n}, depth {l}");
                    continue;
                }
            };
            if !candidate.facts_with_pred(forbidden).is_empty() {
                last_reason = format!("forbidden atom re-derived for n = {n}, depth {l}");
                continue;
            }

            // Step 7: certify against the *original* theory and query.
            let failures: Vec<CertFailure> =
                certify_countermodel(&candidate, db, theory0, query, voc);
            if failures.is_empty() {
                let lemma5 = candidate.domain_size() == m_sigma.domain_size();
                let model = candidate.restrict_to_preds(&theory0.preds());
                return FcOutcome::Countermodel(Box::new(Certified {
                    model_size: candidate.domain_size(),
                    model,
                    kappa: kap,
                    n,
                    chase_depth: l,
                    lemma5_no_new_elements: lemma5,
                }));
            }
            last_reason = format!(
                "certification failed for n = {n}, depth {l}: {}",
                failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        // Grow gently: partition cost is superlinear in prefix size.
        l += (l / 2).max(4);
    }
    FcOutcome::Inconclusive(last_reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::{parse_program, parse_query};

    fn run(src: &str, query: &str, config: FcConfig) -> (FcOutcome, Vocabulary, Instance, Theory, ConjunctiveQuery) {
        let prog = parse_program(src).unwrap();
        let mut voc = prog.voc.clone();
        let q = parse_query(query, &mut voc).unwrap();
        let out = finite_countermodel(&prog.instance, &prog.theory, &q, &mut voc, config);
        (out, voc, prog.instance, prog.theory, q)
    }

    #[test]
    fn successor_rule_gets_certified_countermodel() {
        // The simplest diverging-chase BDD theory: E(x,y) → ∃z E(y,z).
        // Chase(E(a,b)) is an infinite chain without loops, so E(x,x) is
        // not entailed; the pipeline must find a finite loop-free model…
        // wait — every finite model of the successor rule contains a
        // cycle, but not necessarily a *self-loop*; E(X,X) must stay false.
        let (out, voc, db, theory, q) = run(
            "E(X,Y) -> exists Z . E(Y,Z). E(a,b).",
            "E(X,X)",
            FcConfig::default(),
        );
        let cert = out.model().unwrap_or_else(|| panic!("expected countermodel: {out:?}"));
        assert!(cert.model_size >= 2);
        let failures = certify_countermodel(&cert.model, &db, &theory, &q, &voc);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn entailed_query_is_detected() {
        let (out, _, _, _, _) = run(
            "E(X,Y) -> exists Z . E(Y,Z). E(a,b).",
            "E(X1,X2), E(X2,X3), E(X3,X4)",
            FcConfig::default(),
        );
        match out {
            FcOutcome::Entailed { depth } => assert_eq!(depth, 2),
            other => panic!("expected Entailed, got {other:?}"),
        }
    }

    #[test]
    fn terminating_chase_is_its_own_model() {
        let (out, _, _, _, _) = run(
            "E(X,Y) -> exists Z . E(Y,Z). E(a,a).",
            "U(W)",
            FcConfig::default(),
        );
        let cert = out.model().expect("fixpoint fast path");
        assert_eq!(cert.model_size, 1);
        assert!(cert.lemma5_no_new_elements);
    }

    #[test]
    fn example7_theory_countermodel() {
        // Example 7/8: the full theory with the datalog rule deriving R;
        // the query asks for an R-edge between *distinct-typed* ends via
        // a fresh marker that never appears: use F0(x,y) absent from the
        // theory. Simplest meaningful check: R(x,y) with an E-edge apart —
        // the chase has only R(e,e) atoms, no query R(x,y),E(x,y) match.
        let (out, voc, db, theory, q) = run(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(X2,Y) -> R(X,X2).
             E(a,b).",
            "R(X,Y), E(X,Y)",
            FcConfig::default(),
        );
        let cert = out
            .model()
            .unwrap_or_else(|| panic!("expected countermodel: {out:?}"));
        let failures = certify_countermodel(&cert.model, &db, &theory, &q, &voc);
        assert!(failures.is_empty(), "{failures:?}");
        // The model saturates R over the loop classes: Lemma 5 may add
        // facts but never elements.
        assert!(cert.model_size < 64);
    }

    #[test]
    fn two_relation_tree_theory() {
        // Example 9's binary-tree theory: F/G successors everywhere.
        let (out, voc, db, theory, q) = run(
            "F(X,Y) -> exists Z . F(Y,Z).
             F(X,Y) -> exists Z . G(Y,Z).
             G(X,Y) -> exists Z . F(Y,Z).
             G(X,Y) -> exists Z . G(Y,Z).
             F(a,b).",
            "F(X,X)",
            FcConfig { n_max: 6, ..FcConfig::default() },
        );
        let cert = out
            .model()
            .unwrap_or_else(|| panic!("expected countermodel: {out:?}"));
        let failures = certify_countermodel(&cert.model, &db, &theory, &q, &voc);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn lemma5_violation_fails_the_attempt_and_the_search_moves_on() {
        // Example 9's binary tree. At prefix depth 8, the saturation of
        // every quotient (n = 2, 3, 4) leaves an existential rule
        // unsatisfied, and the fallback chase reaches no fixpoint.
        let tree = "F(X,Y) -> exists Z . F(Y,Z).
                    F(X,Y) -> exists Z . G(Y,Z).
                    G(X,Y) -> exists Z . F(Y,Z).
                    G(X,Y) -> exists Z . G(Y,Z).
                    F(a,b).";
        let depth8 = FcConfig { max_chase_depth: 8, ..FcConfig::default() };
        match run(tree, "F(X,X)", depth8).0 {
            FcOutcome::Inconclusive(reason) => {
                assert_eq!(reason, "Lemma 5 violated for n = 4, depth 8")
            }
            other => panic!("expected every depth-8 attempt to be rejected, got {other:?}"),
        }

        // Unbounded, the search goes on to depth 12, where the n = 2
        // quotient saturates to a model that step 7 accepts.
        let prog = parse_program(tree).unwrap();
        let mut voc = prog.voc.clone();
        let q = parse_query("F(X,X)", &mut voc).unwrap();
        let mut passed = Vec::new();
        let out = finite_countermodel_with(
            &prog.instance,
            &prog.theory,
            &q,
            &mut voc,
            FcConfig::default(),
            |m_sigma, norm, voc| {
                let step = lemma5_saturation(m_sigma, norm, voc);
                passed.push(step.is_ok());
                step
            },
        );
        assert_eq!(passed, [false, false, false, true]);
        let cert = out.model().unwrap_or_else(|| panic!("expected countermodel: {out:?}"));
        assert_eq!((cert.n, cert.chase_depth, cert.model_size), (2, 12, 32));
        assert!(cert.lemma5_no_new_elements);
        let failures = certify_countermodel(&cert.model, &prog.instance, &prog.theory, &q, &voc);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn non_bdd_theory_is_inconclusive() {
        // Transitivity is not BDD; κ must fail.
        let (out, _, _, _, _) = run(
            "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b).",
            "E(b,a)",
            FcConfig {
                rewrite: RewriteConfig { max_disjuncts: 15, max_steps: 3000, max_piece: 2 },
                ..FcConfig::default()
            },
        );
        match out {
            FcOutcome::Inconclusive(reason) => {
                assert!(reason.contains("κ"), "{reason}")
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn query_already_true_in_db() {
        let (out, _, _, _, _) = run("E(a,a).", "E(X,X)", FcConfig::default());
        assert!(matches!(out, FcOutcome::Entailed { depth: 0 }));
    }
}
