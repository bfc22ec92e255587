//! Greedy delta-debugging shrinker.
//!
//! Given a failing (case, property) pair, reduce the case source to a
//! local minimum while preserving the failure. Two phases, both
//! deterministic and bounded by an evaluation budget:
//!
//! 1. **statement level** — repeatedly try deleting each line (the
//!    generator and corpus format put exactly one statement per line),
//!    committing every deletion after which the property still fails;
//! 2. **atom level** — for each surviving rule line, try dropping each
//!    body atom and each head atom, re-rendering the rule through the
//!    pinned display syntax.
//!
//! The invariant, pinned by `tests/fuzz_props.rs`: every shrunk output
//! still parses and still fails the *same* property with the *same*
//! [`PropCtx`]. A candidate that fails a different way (e.g. stops
//! parsing) is rejected, so shrinking can only tighten a reproducer,
//! never corrupt it.

use crate::gen::FuzzCase;
use crate::props::{Prop, PropCtx};
use crate::proptest_lite::run_case_caught;
use bddfc_core::{parse_rule, Rule, Vocabulary};

/// Default candidate-evaluation budget; generated cases have at most
/// ~15 statements, so the greedy passes converge well under this.
pub const DEFAULT_MAX_EVALS: usize = 500;

/// The result of shrinking one failure.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimized case (same seed/stratum labels, reduced source).
    pub case: FuzzCase,
    /// Failure message of the minimized case.
    pub message: String,
    /// Number of candidate evaluations spent.
    pub evals: usize,
}

struct Shrinker<'a> {
    prop: &'a Prop,
    ctx: &'a PropCtx,
    seed: u64,
    strat: Option<crate::gen::Strat>,
    evals: usize,
    max_evals: usize,
}

impl Shrinker<'_> {
    /// Runs the property on a candidate source. `Some(msg)` iff the
    /// candidate parses and still fails.
    fn still_fails(&mut self, src: &str) -> Option<String> {
        if self.evals >= self.max_evals {
            return None;
        }
        self.evals += 1;
        let case = FuzzCase { seed: self.seed, strat: self.strat, src: src.to_string() };
        let prog = case.program().ok()?;
        run_case_caught(|| (self.prop.check)(&case, &prog, self.ctx)).err()
    }

    /// Phase 1: greedy line deletion to a fixpoint.
    fn shrink_lines(&mut self, lines: &mut Vec<String>, message: &mut String) {
        let mut changed = true;
        while changed && self.evals < self.max_evals {
            changed = false;
            let mut i = 0;
            while i < lines.len() {
                if lines.len() == 1 {
                    break; // keep at least one statement
                }
                let mut candidate = lines.clone();
                candidate.remove(i);
                let src = candidate.join("\n");
                if let Some(msg) = self.still_fails(&src) {
                    *lines = candidate;
                    *message = msg;
                    changed = true;
                    // do not advance: the next line slid into slot i
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Phase 2: per-rule atom deletion (body atoms, then extra head
    /// atoms), re-rendered through the display syntax the parser
    /// round-trips.
    fn shrink_atoms(&mut self, lines: &mut Vec<String>, message: &mut String) {
        let mut changed = true;
        while changed && self.evals < self.max_evals {
            changed = false;
            for i in 0..lines.len() {
                if !lines[i].contains("->") {
                    continue;
                }
                let mut voc = Vocabulary::new();
                let Ok(rule) = parse_rule(&lines[i], &mut voc) else { continue };
                let n_body = rule.body.len();
                let n_head = rule.head.len();
                for (which, len) in [(0usize, n_body), (1, n_head)] {
                    if len < 2 {
                        continue; // safety/shape requires ≥1 atom each side
                    }
                    for j in 0..len {
                        let mut body = rule.body.clone();
                        let mut head = rule.head.clone();
                        if which == 0 {
                            body.remove(j);
                        } else {
                            head.remove(j);
                        }
                        let slim = Rule::new(body, head);
                        let rendered = format!("{}.", slim.display(&voc));
                        let mut candidate = lines.clone();
                        candidate[i] = rendered;
                        let src = candidate.join("\n");
                        if let Some(msg) = self.still_fails(&src) {
                            *lines = candidate;
                            *message = msg;
                            changed = true;
                            break;
                        }
                    }
                    if changed {
                        break;
                    }
                }
                if changed {
                    break; // re-parse the mutated line on the next sweep
                }
            }
        }
    }
}

/// Shrinks a known-failing case with respect to `prop` under `ctx`.
///
/// `message` is the failure message of the original case (kept if no
/// smaller candidate survives). The returned case is guaranteed to parse
/// and to fail `prop`; comment and blank lines are stripped first so the
/// reproducer is pure statements.
pub fn shrink(
    case: &FuzzCase,
    prop: &Prop,
    ctx: &PropCtx,
    message: &str,
    max_evals: usize,
) -> ShrinkOutcome {
    let mut shrinker = Shrinker {
        prop,
        ctx,
        seed: case.seed,
        strat: case.strat,
        evals: 0,
        max_evals,
    };
    let mut lines: Vec<String> = case
        .src
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('%'))
        .map(str::to_string)
        .collect();
    let mut message = message.to_string();

    // Dropping the comments/blanks must not change the failure; if it
    // somehow does, fall back to the untouched source.
    match shrinker.still_fails(&lines.join("\n")) {
        Some(msg) => message = msg,
        None => {
            lines = case.src.lines().map(str::to_string).collect();
        }
    }

    shrinker.shrink_lines(&mut lines, &mut message);
    shrinker.shrink_atoms(&mut lines, &mut message);
    shrinker.shrink_lines(&mut lines, &mut message); // atom drops can free lines

    ShrinkOutcome {
        case: FuzzCase { seed: case.seed, strat: case.strat, src: lines.join("\n") },
        message,
        evals: shrinker.evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;
    use crate::props::{find_prop, Mutation, PropCtx};

    /// Find a seed the known-bad mutation trips on, shrink it, and check
    /// the contract: output parses, still fails, and is genuinely small.
    #[test]
    fn shrinks_known_bad_mutation_to_a_minimal_reproducer() {
        let ctx = PropCtx { mutation: Mutation::SkipLastRule, ..PropCtx::default() };
        let prop = find_prop("chase_vs_reference").unwrap();
        let (case, msg) = (0..60)
            .find_map(|seed| {
                let case = gen_case(seed);
                let prog = case.program().unwrap();
                run_case_caught(|| (prop.check)(&case, &prog, &ctx))
                    .err()
                    .map(|m| (case, m))
            })
            .expect("mutation must be caught within 60 seeds");
        let out = shrink(&case, prop, &ctx, &msg, DEFAULT_MAX_EVALS);
        let prog = out.case.program().expect("shrunk case must parse");
        run_case_caught(|| (prop.check)(&out.case, &prog, &ctx))
            .expect_err("shrunk case must still fail");
        assert!(out.case.src.len() <= case.src.len());
        assert!(
            prog.theory.len() <= 5,
            "acceptance: shrunk to ≤ 5 rules, got {}:\n{}",
            prog.theory.len(),
            out.case.src
        );
    }

    #[test]
    fn shrinking_is_deterministic() {
        let ctx = PropCtx { mutation: Mutation::SkipLastRule, ..PropCtx::default() };
        let prop = find_prop("chase_vs_reference").unwrap();
        for seed in 0..60 {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            if let Err(msg) = run_case_caught(|| (prop.check)(&case, &prog, &ctx)) {
                let a = shrink(&case, prop, &ctx, &msg, DEFAULT_MAX_EVALS);
                let b = shrink(&case, prop, &ctx, &msg, DEFAULT_MAX_EVALS);
                assert_eq!(a.case.src, b.case.src);
                assert_eq!(a.message, b.message);
                assert_eq!(a.evals, b.evals);
                return;
            }
        }
        panic!("mutation must be caught within 60 seeds");
    }
}
