//! `rewrite_ucq`: `rewrite_query` to saturation of seeded path queries
//! under seeded `random_linear_theory` programs. Linear theories have
//! finite UCQ rewritings ("A Journey to the Frontiers of Query
//! Rewritability"), so every input can saturate; one that does not
//! within the default budget stays in the set and counts as failed.
//! This is the only workload where the rewriter does most of the work.
//!
//! Check: on a seeded small database per input, the saturated UCQ
//! holds exactly when `certain_ucq_outcome` says the query is entailed,
//! wherever that chase decides.

use crate::recorder::Recorder;
use crate::stats::{geomean_of_medians, ratio, sum_of_medians_s};
use crate::{sub_seed, Between, Budget, Metric, Outcome};
use bddfc_chase::{certain_ucq_outcome, Certainty, ChaseConfig};
use bddfc_core::prng::SplitMix64;
use bddfc_core::{
    hom, Atom, ConjunctiveQuery, Fact, Instance, PredId, Term, Theory, Ucq, Vocabulary,
};
use bddfc_rewrite::{rewrite_query, rewrite_query_with, RewriteConfig, RewriteResult};
use std::time::Instant;

/// Inputs per run. Rewriting cost has a heavy tail, and only this many
/// distinct inputs sample it the same way whatever the seed.
const CASES: u64 = 4000;
const CONSTANTS: usize = 5;
const DB_FACTS: usize = 8;

struct Case {
    voc: Vocabulary,
    theory: Theory,
    query: ConjunctiveQuery,
    db: Instance,
}

/// One input: 3-4 binary predicates, 4-6 linear rules, a path query of
/// 2-3 atoms over those predicates, and a small database.
fn case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let preds = 3 + rng.below(2);
    let rules = 4 + rng.below(3);
    let len = 2 + rng.below(2);
    let mut voc = Vocabulary::new();
    let theory = bddfc_zoo::random_linear_theory(&mut voc, preds, rules, rng.next_u64());
    let ps: Vec<PredId> = (0..preds).map(|i| voc.pred(&format!("R{i}"), 2)).collect();
    let vars: Vec<_> = (0..=len).map(|i| voc.fresh_var(&format!("q{i}"))).collect();
    let atoms = (0..len)
        .map(|i| {
            Atom::new(
                ps[rng.below(preds)],
                vec![Term::Var(vars[i]), Term::Var(vars[i + 1])],
            )
        })
        .collect();
    let consts: Vec<_> = (0..CONSTANTS)
        .map(|i| voc.constant(&format!("c{i}")))
        .collect();
    let mut db = Instance::new();
    for _ in 0..DB_FACTS {
        let (a, b) = (consts[rng.below(CONSTANTS)], consts[rng.below(CONSTANTS)]);
        db.insert(Fact::new(ps[rng.below(preds)], vec![a, b]));
    }
    Case {
        voc,
        theory,
        query: ConjunctiveQuery::boolean(atoms),
        db,
    }
}

/// Rewrites every input in turn, in whole passes, until the budget is
/// spent, calling `after_pass` after each pass; returns per-input times
/// (ms) and total seconds. The first pass fills `refs` when it is empty;
/// every other rewriting must match its reference in saturation and
/// size.
fn cycle(
    cases: &[Case],
    refs: &mut Vec<RewriteResult>,
    seconds: f64,
    out: &mut Outcome,
    after_pass: &mut dyn FnMut(),
) -> (Vec<Vec<f64>>, f64) {
    let budget = Budget::new(seconds);
    let mut times = vec![Vec::new(); cases.len()];
    let mut total = 0.0;
    loop {
        for (i, c) in cases.iter().enumerate() {
            let mut voc = c.voc.clone();
            let t = Instant::now();
            let r = rewrite_query(&c.query, &c.theory, &mut voc, RewriteConfig::default());
            let dt = t.elapsed().as_secs_f64();
            total += dt;
            times[i].push(dt * 1e3);
            out.attempted += 1;
            let r = r.expect("linear theories are single-head");
            if !r.saturated {
                out.failed += 1;
            }
            match refs.get(i) {
                None => refs.push(r),
                Some(rf) if (r.saturated, r.ucq.len()) != (rf.saturated, rf.ucq.len()) => {
                    out.mismatch(format!("input {i}: rewriting differs between repetitions"))
                }
                Some(_) => {}
            }
        }
        after_pass();
        if budget.over() {
            return (times, total);
        }
    }
}

/// Checks a saturated rewriting against the chase on the input's
/// database, where the chase decides.
fn check(i: usize, c: &Case, r: &RewriteResult, out: &mut Outcome) {
    if !r.saturated {
        eprintln!(
            "input {i}: rewriting unsaturated after {} steps (counted as failed)",
            r.steps
        );
        return;
    }
    let mut voc = c.voc.clone();
    let chased = certain_ucq_outcome(
        &c.db,
        &c.theory,
        &mut voc,
        &Ucq::single(c.query.clone()),
        ChaseConfig {
            max_rounds: 16,
            max_facts: 5_000,
            ..Default::default()
        },
    );
    let by_rewriting = hom::satisfies_ucq(&c.db, &r.ucq);
    let by_chase = match chased.certainty {
        Certainty::True(_) => true,
        Certainty::False => false,
        Certainty::Unknown => return,
    };
    if by_rewriting != by_chase {
        out.mismatch(format!(
            "input {i}: rewriting says {by_rewriting}, chase says {by_chase}"
        ));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let make_cases = || {
        (0..CASES)
            .map(|i| case(sub_seed(seed, i)))
            .collect::<Vec<_>>()
    };
    let mut between = Between::default();
    let cases = between.setup(make_cases);
    between.reference();
    let phase = if trace { seconds / 3.0 } else { seconds };
    let mut refs = Vec::with_capacity(cases.len());
    let (times, total) = cycle(&cases, &mut refs, phase, &mut out, &mut || {
        between.setup(make_cases);
        between.reference();
    });
    out.setup_s = between.setup_s();
    out.reference_ms = between.reference_ms();
    for (i, (c, r)) in cases.iter().zip(&refs).enumerate() {
        check(i, c, r, &mut out);
    }
    let n: usize = times.iter().map(Vec::len).sum();
    out.samples = n;
    out.throughput_per_s = cases.len() as f64 / sum_of_medians_s(&times);
    out.latency_geomean_ms = geomean_of_medians(&times);
    out.named.push(Metric::new(
        "rewrites_per_s",
        out.throughput_per_s,
        "1/s",
        n,
    ));
    if trace {
        traced(&cases, &mut refs, phase, total / n as f64, &mut out);
    }
    out
}

fn traced(
    cases: &[Case],
    refs: &mut Vec<RewriteResult>,
    phase: f64,
    per_rewrite: f64,
    out: &mut Outcome,
) {
    let rec = Recorder::default();
    let budget = Budget::new(phase);
    let (mut n, mut total, mut steps) = (0usize, 0.0, 0.0);
    'run: loop {
        for c in cases {
            let mut voc = c.voc.clone();
            let t = Instant::now();
            let r = rewrite_query_with(
                &c.query,
                &c.theory,
                &mut voc,
                RewriteConfig::default(),
                &rec,
            )
            .expect("linear theories are single-head");
            total += t.elapsed().as_secs_f64();
            n += 1;
            out.attempted += 1;
            out.failed += u64::from(!r.saturated);
            steps += r.steps as f64;
            if budget.over() {
                break 'run;
            }
        }
    }
    let per = |v: f64| v / n as f64;
    out.layer(
        "rewrite.generations",
        per(rec.events("rewrite", "generation")),
        n,
    );
    out.layer("rewrite.steps", per(steps), n);
    out.layer(
        "rewrite.retained_yield",
        ratio(
            rec.field("rewrite", "generation", "inserted"),
            rec.field("rewrite", "generation", "expanded"),
        ),
        n,
    );
    out.layer(
        "rewrite.subsume_pairs",
        per(rec.field("rewrite", "generation", "subsume_pairs")),
        n,
    );
    out.layer(
        "rewrite.prefilter_rejects",
        per(rec.field("rewrite", "generation", "prefilter_rejects")),
        n,
    );
    out.layer("rewrite.rule_ms", per(rec.gauge_ms("rewrite", "rule")), n);
    out.layer("trace.overhead", total / n as f64 / per_rewrite, n);
    let gen_ms = rec.span_ms("rewrite", "generation");
    out.layer(
        "trace.unattributed_share",
        (total * 1e3 - gen_ms) / (total * 1e3),
        n,
    );

    let mut one = Outcome::default();
    let (_, multi) = crate::at_default_threads(|| cycle(cases, refs, phase, &mut one, &mut || {}));
    let n1 = one.attempted as usize;
    out.attempted += one.attempted;
    out.failed += one.failed;
    out.mismatches.append(&mut one.mismatches);
    out.layer("par.thread_ratio", multi / n1 as f64 / per_rewrite, n1);
}
