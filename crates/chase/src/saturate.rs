//! Saturation under the datalog rules of a theory.
//!
//! By Lemma 5, chasing the quotient `Mη(S̄)` of the Section 3
//! finite-model pipeline fires only the datalog rules, so the pipeline's
//! step 6 runs this saturation instead of a chase. It runs a
//! restricted [`ChaseStepper`] over *only* the datalog rules to a
//! fixpoint, which always terminates (no new elements are ever created).
//! The stepper's semi-naive rounds mean every derived fact uses at least
//! one fact from the previous round's delta.

use crate::engine::{ChaseStepper, ChaseVariant};
use bddfc_core::obs::{EventSink, NULL};
use bddfc_core::{Instance, Theory, Vocabulary};

/// The result of a datalog saturation.
#[derive(Clone, Debug)]
pub struct SaturationResult {
    /// The saturated instance (a model of the datalog rules).
    pub instance: Instance,
    /// Number of semi-naive rounds performed.
    pub rounds: u32,
    /// Number of facts added on top of the input.
    pub derived: usize,
    /// Completed body-homomorphism enumerations per round (the work
    /// metric semi-naive evaluation reduces; see [`crate::ChaseStats`]).
    pub body_matches_per_round: Vec<u64>,
}

impl SaturationResult {
    /// Total body matches across all rounds.
    pub fn total_body_matches(&self) -> u64 {
        self.body_matches_per_round.iter().sum()
    }
}

/// Saturates `inst` under the *datalog rules* of `theory` (existential
/// TGDs are ignored), using semi-naive evaluation. Always terminates.
pub fn saturate_datalog(inst: &Instance, theory: &Theory) -> SaturationResult {
    saturate_datalog_with(inst, theory, &NULL)
}

/// Like [`saturate_datalog`], but reports the stepper's telemetry into
/// `sink`: one `saturate`/`run` span enclosing the usual per-round
/// `chase`/`round` spans and events (see [`ChaseStepper::step`]). Rule
/// keys of the `chase`/`trigger` events index the theory's datalog rules
/// in order, not the whole theory. The final, empty round that certifies
/// the fixpoint also emits its events, aligning the round-event count
/// with `body_matches_per_round`.
pub fn saturate_datalog_with<S: EventSink>(
    inst: &Instance,
    theory: &Theory,
    sink: &S,
) -> SaturationResult {
    let datalog = Theory::new(theory.datalog_rules().cloned().collect());
    let run_span = if S::ENABLED { sink.span_open("saturate", "run", 0, None) } else { 0 };
    let mut stepper =
        ChaseStepper::with_sink(inst, &datalog, ChaseVariant::Restricted, sink).under_span(run_span);
    // Datalog repairs never invent a null, so the vocabulary the stepper
    // mints from stays untouched; a scratch one keeps the API voc-free.
    let mut voc = Vocabulary::new();
    let mut rounds = 0;
    while stepper.step_indexed(&mut voc) < stepper.instance.len() {
        rounds += 1;
    }
    if S::ENABLED {
        sink.span_close(run_span);
    }
    SaturationResult {
        derived: stepper.instance.len() - inst.len(),
        instance: stepper.instance,
        rounds,
        body_matches_per_round: stepper.stats.body_matches_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;
    use bddfc_core::satisfaction::satisfies_theory;

    #[test]
    fn transitive_closure_of_chain() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        // TC of a 4-edge chain has C(5,2) = 10 pairs.
        assert_eq!(res.instance.len(), 10);
        assert_eq!(res.derived, 6);
        assert!(satisfies_theory(&res.instance, &prog.theory));
    }

    #[test]
    fn tgds_are_ignored() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        assert_eq!(res.instance.len(), 3); // only E(a,c) added
        assert_eq!(res.instance.domain_size(), 3); // no new elements ever
    }

    #[test]
    fn transitive_closure_of_cycle() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,a).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        // TC of a 3-cycle is the full relation on 3 elements: 9 facts.
        assert_eq!(res.instance.len(), 9);
    }

    #[test]
    fn rounds_are_logarithmic_for_chain() {
        // Semi-naive TC derives paths of length ≤ 2^k after k rounds... at
        // least 2 rounds are needed for a chain of 4 edges and derivations
        // stop when no new facts appear.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        assert!(res.rounds >= 2 && res.rounds <= 3, "rounds = {}", res.rounds);
    }

    #[test]
    fn multiple_rules_interleave() {
        // Example 7's datalog rule plus a unary marker rule.
        let prog = parse_program(
            "E(X,Y), E(X2,Y) -> R(X,X2).
             R(X,X) -> Loop(X).
             E(a,c). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        let r = prog.voc.find_pred("R").unwrap();
        let l = prog.voc.find_pred("Loop").unwrap();
        assert_eq!(res.instance.facts_with_pred(r).len(), 4); // aa, ab, ba, bb
        assert_eq!(res.instance.facts_with_pred(l).len(), 2); // a, b
    }

    #[test]
    fn constants_in_rule_bodies() {
        let prog = parse_program(
            "E(a,Y) -> Marked(Y).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        let m = prog.voc.find_pred("Marked").unwrap();
        assert_eq!(res.instance.facts_with_pred(m).len(), 1);
    }

    #[test]
    fn empty_theory_is_noop() {
        let prog = parse_program("E(a,b).").unwrap();
        let res = saturate_datalog(&prog.instance, &Default::default());
        assert_eq!(res.instance.len(), 1);
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn sink_counters_mirror_saturation_result() {
        use bddfc_core::obs::Memory;
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let sink = Memory::new(64);
        let res = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
        assert_eq!(res.instance, saturate_datalog(&prog.instance, &prog.theory).instance);
        assert_eq!(sink.counter("chase", "round", "new_facts"), res.derived as u64);
        assert_eq!(
            sink.counter("chase", "round", "body_matches"),
            res.total_body_matches()
        );
        let round_events = sink
            .event_counts()
            .into_iter()
            .find(|&((e, n), _)| (e, n) == ("chase", "round"))
            .map(|(_, c)| c);
        assert_eq!(round_events, Some(res.body_matches_per_round.len() as u64));
        // Per-rule attribution reconciles with the round totals, and the
        // batched join kernel charges its probes.
        assert_eq!(
            sink.counter("chase", "trigger", "body_matches"),
            res.total_body_matches()
        );
        assert!(sink.counter("join", "probe", "matches") >= res.total_body_matches());
        // One run span enclosing one stepper round span per round, all
        // closed.
        let spans = sink.spans();
        assert_eq!(spans.len(), 1 + res.body_matches_per_round.len());
        assert_eq!((spans[0].engine, spans[0].name), ("saturate", "run"));
        assert!(spans.iter().all(|s| s.is_closed()));
        assert!(spans[1..]
            .iter()
            .all(|s| (s.engine, s.name, s.parent) == ("chase", "round", spans[0].id)));
    }

    #[test]
    fn trigger_keys_index_the_datalog_rules() {
        use bddfc_core::obs::Memory;
        // The transitivity rule is theory rule #1 but datalog rule #0.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let sink = Memory::new(64);
        let _ = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
        let keys: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| (e.engine, e.name) == ("chase", "trigger"))
            .map(|e| e.key)
            .collect();
        assert!(!keys.is_empty());
        assert!(keys.iter().all(|&k| k == Some(("rule", 0))), "{keys:?}");
    }
}
