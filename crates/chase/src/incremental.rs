//! Incremental chase maintenance: a resident chased instance that
//! absorbs fact insertions as semi-naive delta rounds and fact
//! retractions by DRed (delete and re-derive).
//!
//! ## Why insertion is "just another round"
//!
//! A semi-naive chase round enumerates only triggers that join at least
//! one fact from the previous round's delta — the invariant being that
//! every trigger contained entirely in older facts was already processed
//! (repaired, or skipped because a witness existed; the chase never
//! deletes, so the witness persists). An *insertion into a fixpoint
//! instance* satisfies exactly the same invariant with the inserted
//! facts as the delta, so [`IncrementalChase::insert_with`] simply
//! appends the new facts and resumes the engine's [`ChaseStepper`] with
//! them as the pending delta: rounds already applied are never re-run,
//! and only rules whose bodies can touch the delta re-fire.
//!
//! ## Why retraction needs provenance
//!
//! The chase is monotone; deletion is not. Removing a base fact may
//! invalidate derived facts, which may invalidate further facts, while
//! other copies remain independently derivable. The classical answer is
//! **DRed** (delete-and-rederive): over-delete everything whose recorded
//! derivation (transitively) used a deleted fact, then re-derive what
//! still has another derivation. To support this, maintenance rounds
//! run through [`ChaseStepper::step_traced`], recording one canonical
//! derivation ([`Support`]: rule plus premise fact indexes) per derived
//! fact.
//!
//! Recorded premises always precede the fact they support in insertion
//! order (a round derives from the instance as it stood before the
//! round), and deletion keeps the survivors' order. So the over-delete
//! cascade is one forward pass from the first deleted fact, and
//! re-derivation only has to look at the triggers whose head witnesses
//! were deleted (`ChaseStepper::step_reopened_traced`) before resuming
//! semi-naive rounds from there. Beyond moving the survivors into a
//! rebuilt store, a retraction's work follows the change, not the whole
//! resident state.
//!
//! The maintained invariant, restored after every mutation: **every
//! resident fact is a base fact or carries a recorded derivation whose
//! premises are themselves resident** (and precede it). By induction
//! every resident fact has a full derivation tree over the current
//! base, so the resident instance maps homomorphically into every model
//! of (base, theory) — which is what makes resident-instance query
//! answers *certain* answers (a query witnessed in the resident instance
//! is certainly entailed even before fixpoint; "certainly false"
//! additionally needs the fixpoint flag).
//!
//! The maintained chase is always the restricted variant under
//! semi-naive evaluation — the pair whose resumption invariant the
//! module relies on (restricted admission is stateless; oblivious
//! resumption would need the fired set carried across mutations).

use crate::answers::BudgetExhausted;
use crate::engine::{ChaseStepper, ChaseVariant, Support};
use crate::trace::{derivation_tree, DerivationTree};
use bddfc_core::fxhash::FxHashSet;
use bddfc_core::obs::{EventSink, NULL};
use bddfc_core::{Fact, FactIdx, Instance, Theory, Vocabulary};

/// Per-mutation resource limits for incremental maintenance — the
/// analogue of [`crate::engine::ChaseConfig`] for a single
/// insert/retract's closure rounds.
#[derive(Clone, Copy, Debug)]
pub struct MaintainConfig {
    /// Maximum closure rounds one mutation may run.
    pub max_rounds: u32,
    /// Stop (incomplete) once the instance exceeds this many facts.
    pub max_facts: usize,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig { max_rounds: 64, max_facts: 1_000_000 }
    }
}

/// What one mutation did to the resident instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Facts added to the instance by this mutation (inserted base facts
    /// that were genuinely new, plus everything its closure rounds
    /// derived — for a retraction, everything re-derivation brought
    /// back).
    pub new_facts: usize,
    /// Base facts actually removed (retraction only).
    pub retracted: usize,
    /// Derived facts removed by the DRed over-deletion cascade, beyond
    /// the retracted base facts themselves (retraction only; counts
    /// facts later re-derived too).
    pub overdeleted: usize,
    /// Closure rounds this mutation ran. A retraction's re-derivation
    /// round counts only when it fires a trigger.
    pub rounds: u32,
    /// Whether the resident instance is at a fixpoint of the theory.
    pub complete: bool,
    /// `Some` iff `!complete`: which budget stopped the closure.
    pub exhausted: Option<BudgetExhausted>,
    /// Resident instance size after the mutation.
    pub facts_total: usize,
}

/// A resident chased instance with provenance, maintained incrementally
/// under fact insertions and retractions (see the module docs).
pub struct IncrementalChase {
    theory: Theory,
    /// Base (extensional) facts, in first-insertion order.
    base: Vec<Fact>,
    /// The resident instance: base plus everything derived so far.
    instance: Instance,
    /// Per resident fact, parallel to `instance.facts()`: is it a base
    /// fact?
    is_base: Vec<bool>,
    /// Per resident fact, parallel to `instance.facts()`: its recorded
    /// derivation, if it has one. Premise indexes are smaller than the
    /// index of the fact they support.
    support: Vec<Option<Support>>,
    /// Number of `Some` entries in `support`.
    derived: usize,
    /// Start of the unprocessed suffix of `instance.facts()` — equal to
    /// `instance.len()` exactly when the closure is complete.
    delta_start: usize,
    complete: bool,
    exhausted: Option<BudgetExhausted>,
    rounds_total: u64,
    overdeleted_total: u64,
    rederived_total: u64,
    /// Static cardinality priors for the batch join planner (see
    /// [`IncrementalChase::with_priors`]).
    priors: Option<bddfc_core::Priors>,
}

impl IncrementalChase {
    /// An empty maintained instance under `theory`. Empty instances are
    /// vacuously at fixpoint (rule bodies are non-empty).
    pub fn new(theory: &Theory) -> Self {
        IncrementalChase {
            theory: theory.clone(),
            base: Vec::new(),
            instance: Instance::new(),
            is_base: Vec::new(),
            support: Vec::new(),
            derived: 0,
            delta_start: 0,
            complete: true,
            exhausted: None,
            rounds_total: 0,
            overdeleted_total: 0,
            rederived_total: 0,
            priors: None,
        }
    }

    /// Seeds every closure's batch join planner with static cardinality
    /// priors (from the `bddfc-analyze` cost model). Priors are
    /// tie-breakers below live cardinalities, so the maintained instance
    /// is identical with or without them; only join work can differ.
    pub fn with_priors(mut self, priors: bddfc_core::Priors) -> Self {
        self.priors = (!priors.is_empty()).then_some(priors);
        self
    }

    /// The resident instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The theory the instance is maintained under.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// Current base facts, in first-insertion order.
    pub fn base(&self) -> &[Fact] {
        &self.base
    }

    /// Whether the resident instance is at a fixpoint of the theory.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Which budget stopped the last incomplete closure (`None` when
    /// [`IncrementalChase::complete`]).
    pub fn exhausted(&self) -> Option<BudgetExhausted> {
        self.exhausted
    }

    /// Total closure rounds run over the lifetime of this instance.
    pub fn rounds_total(&self) -> u64 {
        self.rounds_total
    }

    /// Lifetime total of facts removed by DRed over-deletion cascades,
    /// beyond the retracted base facts themselves (counts facts later
    /// re-derived too) — the cascade fan-out a metrics surface wants to
    /// watch.
    pub fn overdeleted_total(&self) -> u64 {
        self.overdeleted_total
    }

    /// Lifetime total of facts the re-derivation phase brought back
    /// after retractions.
    pub fn rederived_total(&self) -> u64 {
        self.rederived_total
    }

    /// Number of resident facts carrying a recorded derivation — the
    /// size of the provenance (derivation) index.
    pub fn provenance_len(&self) -> usize {
        self.derived
    }

    /// Inserts base facts and closes over them with semi-naive delta
    /// rounds (plus any delta still pending from an earlier exhausted
    /// mutation). Already-present facts are absorbed silently — they
    /// become base-supported in addition to whatever support they had.
    pub fn insert_with<S: EventSink>(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
    ) -> MaintainOutcome {
        let before = self.instance.len();
        for f in facts {
            match self.instance.index_of(f.pred, &f.args) {
                Some(i) if self.is_base[i] => {}
                Some(i) => {
                    self.is_base[i] = true;
                    self.base.push(f.clone());
                }
                None => {
                    self.instance.insert(f.clone());
                    self.is_base.push(true);
                    self.support.push(None);
                    self.base.push(f.clone());
                }
            }
        }
        let mut outcome = self.close(&[], voc, config, sink);
        outcome.new_facts = self.instance.len() - before;
        outcome
    }

    /// [`IncrementalChase::insert_with`] without telemetry.
    pub fn insert(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
    ) -> MaintainOutcome {
        self.insert_with(facts, voc, config, &NULL)
    }

    /// Retracts base facts by DRed: over-delete every fact whose
    /// recorded derivation transitively used a deleted fact, then
    /// re-derive from the survivors so facts with alternative
    /// derivations come back. Retracting a fact that is not currently a
    /// base fact is a no-op (in particular, purely-derived facts cannot
    /// be retracted — they would immediately be re-derived).
    ///
    /// The cascade walks forward from the first deleted fact, the
    /// survivors are moved (not cloned) into a rebuilt store, and
    /// re-derivation starts from the triggers whose head witnesses were
    /// deleted rather than from every trigger of the instance.
    pub fn retract_with<S: EventSink>(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
    ) -> MaintainOutcome {
        let n = self.instance.len();
        let mut deleted = vec![false; n];
        let mut first = n;
        let mut retracted: FxHashSet<&Fact> = FxHashSet::default();
        for f in facts {
            let Some(i) = self.instance.index_of(f.pred, &f.args) else { continue };
            if !self.is_base[i] {
                continue;
            }
            self.is_base[i] = false;
            retracted.insert(f);
            // A retracted base fact survives as a derived fact if it has
            // a recorded derivation; otherwise it is a deletion seed.
            if self.support[i].is_none() {
                deleted[i] = true;
                first = first.min(i);
            }
        }
        if retracted.is_empty() {
            return self.unchanged();
        }
        self.base.retain(|f| !retracted.contains(f));

        // Over-delete: premises precede their dependents, so one forward
        // pass sees every premise's fate before the facts it supports. A
        // dependent loses its stored derivation; if it is not
        // base-supported it is deleted and cascades.
        let mut overdeleted = 0usize;
        for i in first..n {
            if deleted[i] {
                continue;
            }
            let lost = self.support[i]
                .as_ref()
                .is_some_and(|s| s.premises.iter().any(|&p| deleted[p]));
            if lost {
                self.support[i] = None;
                self.derived -= 1;
                if !self.is_base[i] {
                    deleted[i] = true;
                    overdeleted += 1;
                }
            }
        }

        // Rebuild the store from the survivors, keeping their order, and
        // move the side tables and the pending delta along with it. Facts
        // before `first` keep their indexes.
        let removed = self.instance.retain(|i, _| !deleted[i]);
        let start = first.min(self.delta_start);
        self.delta_start -= deleted[start..self.delta_start].iter().filter(|&&d| d).count();
        let mut new_index = vec![usize::MAX; n - first];
        let support = self.support.split_off(first);
        let is_base = self.is_base.split_off(first);
        for (offset, (s, b)) in support.into_iter().zip(is_base).enumerate() {
            if deleted[first + offset] {
                continue;
            }
            new_index[offset] = self.support.len();
            self.support.push(s.map(|mut s| {
                for p in &mut s.premises {
                    if *p >= first {
                        *p = new_index[*p - first];
                        debug_assert_ne!(*p, usize::MAX, "a survivor's premise survives");
                    }
                }
                s
            }));
            self.is_base.push(b);
        }
        let rederive_from = self.instance.len();

        let mut outcome = self.close(&removed, voc, config, sink);
        outcome.retracted = retracted.len();
        outcome.overdeleted = overdeleted;
        outcome.new_facts = self.instance.len() - rederive_from;
        self.overdeleted_total += overdeleted as u64;
        self.rederived_total += outcome.new_facts as u64;
        outcome
    }

    /// [`IncrementalChase::retract_with`] without telemetry.
    pub fn retract(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
    ) -> MaintainOutcome {
        self.retract_with(facts, voc, config, &NULL)
    }

    /// The outcome of a mutation that changed nothing.
    fn unchanged(&self) -> MaintainOutcome {
        MaintainOutcome {
            new_facts: 0,
            retracted: 0,
            overdeleted: 0,
            rounds: 0,
            complete: self.complete,
            exhausted: self.exhausted,
            facts_total: self.instance.len(),
        }
    }

    /// Runs provenance-recording closure rounds until fixpoint or
    /// budget: first the round re-opened by the `removed` facts (if
    /// any), then semi-naive rounds over the pending delta.
    fn close<S: EventSink>(
        &mut self,
        removed: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
    ) -> MaintainOutcome {
        if self.delta_start == self.instance.len() && removed.is_empty() {
            // Nothing pending (e.g. every inserted fact was already
            // resident): the completeness state is unchanged.
            return self.unchanged();
        }
        let instance = std::mem::replace(&mut self.instance, Instance::new());
        let delta = self.delta_start..instance.len();
        let mut stepper =
            ChaseStepper::resume(instance, &self.theory, ChaseVariant::Restricted, sink, delta);
        if let Some(p) = &self.priors {
            stepper = stepper.with_priors(p.clone());
        }
        let mut supports: Vec<(FactIdx, Support)> = Vec::new();
        // The re-opened round runs whatever the round budget: until it
        // has run, the resumption invariant does not hold.
        let mut grew = !removed.is_empty()
            && stepper.step_reopened_traced(voc, removed, &mut supports).is_some();
        let mut rounds = u32::from(grew);
        loop {
            if grew && stepper.instance.len() > config.max_facts {
                self.complete = false;
                self.exhausted = Some(BudgetExhausted::Facts);
                break;
            }
            if stepper.pending_delta().is_empty() {
                self.complete = true;
                self.exhausted = None;
                break;
            }
            if rounds >= config.max_rounds {
                self.complete = false;
                self.exhausted = Some(BudgetExhausted::Rounds);
                break;
            }
            let before = stepper.instance.len();
            stepper.step_traced(voc, &mut supports);
            rounds += 1;
            grew = stepper.instance.len() > before;
            if !grew {
                self.complete = true;
                self.exhausted = None;
                break;
            }
        }
        self.delta_start = if self.complete {
            stepper.instance.len()
        } else {
            stepper.pending_delta().start
        };
        self.rounds_total += u64::from(rounds);
        self.instance = stepper.into_instance();
        self.is_base.resize(self.instance.len(), false);
        self.support.resize(self.instance.len(), None);
        self.derived += supports.len();
        for (idx, s) in supports {
            self.support[idx] = Some(s);
        }
        MaintainOutcome { rounds, ..self.unchanged() }
    }

    /// Extracts the derivation tree of a resident fact (`None` if the
    /// fact is not resident). Base facts are leaves. Walks the recorded
    /// derivations in place.
    pub fn explain(&self, fact: &Fact) -> Option<DerivationTree> {
        let root = self.instance.index_of(fact.pred, &fact.args)?;
        Some(derivation_tree(
            root,
            |&i| self.instance.fact(i).clone(),
            |&i| self.support[i].as_ref().map(|s| (s.rule_idx, s.premises.as_slice())),
        ))
    }

    /// Debug invariant: every resident fact is base-supported or carries
    /// a recorded derivation whose premises are resident and precede it.
    /// Returns the first violating fact, if any.
    pub fn check_support(&self) -> Option<&Fact> {
        assert_eq!(self.is_base.len(), self.instance.len(), "base flags track the instance");
        assert_eq!(self.support.len(), self.instance.len(), "supports track the instance");
        assert_eq!(self.support.iter().flatten().count(), self.derived, "derived count drift");
        self.instance.facts().iter().enumerate().find_map(|(i, f)| {
            let supported = self.is_base[i]
                || self.support[i].as_ref().is_some_and(|s| s.premises.iter().all(|&p| p < i));
            (!supported).then_some(f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseConfig};
    use bddfc_core::hom;
    use bddfc_core::parse_program;
    use bddfc_core::satisfaction::satisfies_theory;

    fn cfg() -> MaintainConfig {
        MaintainConfig::default()
    }

    /// Datalog closures are confluent, so incremental and scratch
    /// instances must be *equal as sets*, not merely query-equivalent.
    #[test]
    fn datalog_insert_batches_match_scratch_chase() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d). E(d,e).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let facts: Vec<_> = prog.instance.facts().to_vec();
        let (first, rest) = facts.split_at(2);
        let out = inc.insert(first, &mut voc, cfg());
        assert!(out.complete);
        let out = inc.insert(rest, &mut voc, cfg());
        assert!(out.complete);
        let scratch =
            chase(&prog.instance, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
        assert!(scratch.is_fixpoint());
        assert_eq!(*inc.instance(), scratch.instance);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn datalog_retract_matches_scratch_chase_of_surviving_base() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d). E(a,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        // Retract E(b,c): E(a,c), E(b,d) and E(a,d)-via-chain lose their
        // derivations; E(a,d) survives (still base), the others go.
        let retract = vec![prog.instance.facts()[1].clone()];
        let out = inc.retract(&retract, &mut voc, cfg());
        assert!(out.complete);
        assert_eq!(out.retracted, 1);
        assert!(out.overdeleted >= 2, "E(a,c) and E(b,d) must be over-deleted");
        let mut base = Instance::new();
        for f in inc.base() {
            base.insert(f.clone());
        }
        let scratch = chase(&base, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
        assert_eq!(*inc.instance(), scratch.instance);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn retract_keeps_facts_with_alternative_derivations() {
        // E(a,c) is both base and derivable from E(a,b), E(b,c):
        // retracting it from the base must keep it resident.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(a,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        let eac = prog.instance.facts()[2].clone();
        let out = inc.retract(&[eac.clone()], &mut voc, cfg());
        assert_eq!(out.retracted, 1);
        assert!(inc.instance().contains_ground(eac.pred, &eac.args));
        assert!(inc.check_support().is_none());
        // Now cut its only derivation: it must disappear with it.
        let eab = prog.instance.facts()[0].clone();
        inc.retract(&[eab.clone()], &mut voc, cfg());
        assert!(!inc.instance().contains_ground(eac.pred, &eac.args));
        assert!(!inc.instance().contains_ground(eab.pred, &eab.args));
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn existential_retract_cascades_through_nulls() {
        let prog = parse_program(
            "P(X) -> exists Z . E(X,Z).
             E(X,Y) -> U(Y).
             P(a). P(b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        assert!(out.complete);
        // P(a), P(b), E(a,n), E(b,n'), U(n), U(n').
        assert_eq!(inc.instance().len(), 6);
        let pa = prog.instance.facts()[0].clone();
        let out = inc.retract(&[pa], &mut voc, cfg());
        assert!(out.complete);
        // P(a)'s null chain (E(a,n), U(n)) must go with it.
        assert_eq!(out.overdeleted, 2);
        assert_eq!(inc.instance().len(), 3);
        assert!(inc.check_support().is_none());
        // Lifetime counters track the cascade, and the provenance index
        // reflects the surviving derived facts.
        assert_eq!(inc.overdeleted_total(), 2);
        assert_eq!(inc.rederived_total(), 0);
        assert_eq!(inc.provenance_len(), 2, "E(b,n') and U(n') stay derived");
    }

    #[test]
    fn base_fact_that_lost_its_derivation_goes_when_retracted() {
        // E(a,c) is derived from E(a,b), E(b,c), then also inserted as a
        // base fact. Retracting E(b,c) leaves it resident (base) but cuts
        // its recorded derivation; retracting it afterwards must remove
        // it instead of keeping it on a derivation that no longer holds.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(prog.instance.facts(), &mut voc, cfg());
        let e = voc.pred("E", 2);
        let (a, c) = (voc.constant("a"), voc.constant("c"));
        let eac = Fact::new(e, vec![a, c]);
        assert!(inc.instance().contains(&eac));
        let derived_before = inc.provenance_len();
        let out = inc.insert(std::slice::from_ref(&eac), &mut voc, cfg());
        assert_eq!(out.new_facts, 0, "E(a,c) was already resident");
        assert_eq!(inc.provenance_len(), derived_before, "it keeps its derivation");
        let ebc = prog.instance.facts()[1].clone();
        let out = inc.retract(&[ebc], &mut voc, cfg());
        assert_eq!(out.overdeleted, 0, "E(a,c) is base-supported");
        assert!(inc.instance().contains(&eac));
        assert_eq!(inc.provenance_len(), 0, "its derivation lost a premise");
        assert!(inc.check_support().is_none());
        let out = inc.retract(std::slice::from_ref(&eac), &mut voc, cfg());
        assert_eq!(out.retracted, 1);
        assert!(!inc.instance().contains(&eac));
        assert_eq!(inc.instance().len(), 1, "only E(a,b) is left");
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn existential_trigger_refires_when_its_witness_is_retracted() {
        let prog = parse_program(
            "P(X) -> exists Z . E(X,Z).
             E(a,b). P(a).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(prog.instance.facts(), &mut voc, cfg());
        assert_eq!(inc.instance().len(), 2, "E(a,b) witnesses P(a)'s trigger");
        let eab = prog.instance.facts()[0].clone();
        let out = inc.retract(std::slice::from_ref(&eab), &mut voc, cfg());
        assert!(out.complete);
        assert_eq!((out.retracted, out.overdeleted, out.new_facts), (1, 0, 1));
        assert_eq!(out.rounds, 2, "the re-opened round, then one finding the fixpoint");
        assert!(!inc.instance().contains(&eab));
        assert_eq!(inc.instance().len(), 2, "P(a) and a fresh E(a,_)");
        assert!(satisfies_theory(inc.instance(), &prog.theory));
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn retract_that_rederives_nothing_runs_no_round() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(prog.instance.facts(), &mut voc, cfg());
        let rounds_before = inc.rounds_total();
        let out = inc.retract(&[prog.instance.facts()[1].clone()], &mut voc, cfg());
        assert!(out.complete);
        assert_eq!((out.overdeleted, out.new_facts, out.rounds), (1, 0, 0));
        assert_eq!(inc.rounds_total(), rounds_before);
    }

    #[test]
    fn retract_during_an_incomplete_closure_resumes_the_pending_delta() {
        let mut src = String::from("E(X,Y), E(Y,Z) -> E(X,Z).\n");
        for i in 0..8 {
            src.push_str(&format!("E(v{i},v{}).\n", i + 1));
        }
        let prog = parse_program(&src).unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let tight = MaintainConfig { max_rounds: 1, ..MaintainConfig::default() };
        let out = inc.insert(prog.instance.facts(), &mut voc, tight);
        assert!(!out.complete);
        // Retract an edge near the end: the pending delta (this round's
        // new facts) partly survives and must still be processed.
        let out = inc.retract(&[prog.instance.facts()[6].clone()], &mut voc, cfg());
        assert!(out.complete);
        let base: Instance = inc.base().iter().cloned().collect();
        let scratch = chase(&base, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
        assert_eq!(*inc.instance(), scratch.instance);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn random_insert_retract_sessions_match_scratch_chase() {
        // Datalog closures are confluent: after every mutation the
        // resident instance must equal the chase of the current base.
        let prog = parse_program(
            "E(X,Y) -> T(X,Y).
             T(X,Y), E(Y,Z) -> T(X,Z).
             T(X,Y), T(Y,X) -> C(X).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let e = voc.pred("E", 2);
        let nodes: Vec<_> = (0..7).map(|i| voc.constant(&format!("v{i}"))).collect();
        let mut rng = bddfc_core::prng::SplitMix64::new(3);
        let mut inc = IncrementalChase::new(&prog.theory);
        for step in 0..120 {
            let edge = Fact::new(e, vec![*rng.pick(&nodes), *rng.pick(&nodes)]);
            let out = if rng.below(2) == 0 {
                inc.insert(&[edge], &mut voc, cfg())
            } else {
                let victim = match inc.base().len() {
                    0 => edge,
                    n => inc.base()[rng.below(n)].clone(),
                };
                inc.retract(&[victim], &mut voc, cfg())
            };
            assert!(out.complete);
            let base: Instance = inc.base().iter().cloned().collect();
            let scratch =
                chase(&base, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
            assert_eq!(*inc.instance(), scratch.instance, "step {step}");
            assert!(inc.check_support().is_none(), "step {step}");
        }
    }

    #[test]
    fn lifetime_counters_accumulate_across_retractions() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(a,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(prog.instance.facts(), &mut voc, cfg());
        // Retracting base E(a,c) leaves it derivable: the cascade
        // deletes nothing, but re-derivation brings back anything the
        // over-deletion took (here the rebuilt E(a,c) support).
        let eac = prog.instance.facts()[2].clone();
        inc.retract(&[eac], &mut voc, cfg());
        let after_first = (inc.overdeleted_total(), inc.rederived_total());
        let eab = prog.instance.facts()[0].clone();
        inc.retract(&[eab], &mut voc, cfg());
        assert!(inc.overdeleted_total() >= after_first.0);
        assert!(inc.rederived_total() >= after_first.1);
        assert_eq!(inc.provenance_len(), 0, "no derived facts survive");
    }

    #[test]
    fn insert_into_fixpoint_runs_only_delta_rounds() {
        // A chased 16-node chain; appending one edge at the end closes
        // in 2 rounds (one deriving, one observing fixpoint), far fewer
        // than the from-scratch closure.
        let mut src = String::from("E(X,Y), E(Y,Z) -> E(X,Z).\n");
        for i in 0..16 {
            src.push_str(&format!("E(v{i},v{}).\n", i + 1));
        }
        let prog = parse_program(&src).unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let initial = inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        assert!(initial.complete);
        assert!(initial.rounds >= 4, "closing a 16-chain takes several rounds");
        let e = voc.pred("E", 2);
        let v16 = voc.constant("v16");
        let v17 = voc.constant("v17");
        let out = inc.insert(&[Fact::new(e, vec![v16, v17])], &mut voc, cfg());
        assert!(out.complete);
        assert_eq!(out.rounds, 2, "delta maintenance must not re-run applied rounds");
        // All transitive pairs ending at v17 appeared in one round.
        assert_eq!(out.new_facts, 17);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn exhausted_insert_resumes_pending_delta_on_next_mutation() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let tight = MaintainConfig { max_rounds: 2, ..MaintainConfig::default() };
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, tight);
        assert!(!out.complete);
        assert_eq!(out.exhausted, Some(BudgetExhausted::Rounds));
        let len_after = inc.instance().len();
        // An unrelated insert must pick the pending delta back up: two
        // more rounds of the diverging chain get appended.
        let u = voc.pred("U", 1);
        let c = voc.constant("c");
        let out = inc.insert(&[Fact::new(u, vec![c])], &mut voc, tight);
        assert!(!out.complete);
        assert!(inc.instance().len() > len_after + 1);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn resident_true_answers_are_certain_even_when_incomplete() {
        // Every resident fact has a derivation tree over the base, so a
        // witnessed query is entailed no matter how the closure was cut
        // short.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X1,X2), E(X2,X3), E(X3,X4).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let tight = MaintainConfig { max_rounds: 3, ..MaintainConfig::default() };
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, tight);
        assert!(!out.complete);
        let q = bddfc_core::Ucq::single(prog.queries[0].clone());
        assert!(hom::satisfies_ucq(inc.instance(), &q));
        let scratch = crate::answers::certain_ucq(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &q,
            ChaseConfig::default(),
        );
        assert!(scratch.is_true());
    }

    #[test]
    fn explain_builds_a_tree_over_the_current_base() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        let e = voc.pred("E", 2);
        let a = voc.constant("a");
        let d = voc.constant("d");
        let tree = inc.explain(&Fact::new(e, vec![a, d])).expect("E(a,d) is derived");
        assert!(tree.height() >= 1);
        assert!(inc.explain(&Fact::new(e, vec![d, a])).is_none());
    }
}
