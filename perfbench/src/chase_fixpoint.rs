//! `chase_fixpoint`: a restricted chase to fixpoint of seeded random
//! graphs under a weakly acyclic theory that mixes a recursive datalog
//! join (transitive closure, one hop per round) with two existential
//! rules. Rounds are large, so `chase`, `join` and `columnar` do nearly
//! all the work and per-call costs are amortised.
//!
//! The graphs are dense enough (mean out-degree 2) that the giant
//! component, and so the fact count, barely moves from seed to seed:
//! about 315k facts in 22-24 rounds.
//!
//! Check: each result satisfies the theory (`satisfies_theory`), ended
//! at a fixpoint, and has the fact count of a run at the default thread
//! count; every repeated chase of a graph gives the same count.

use crate::recorder::Recorder;
use crate::stats::{geomean_of_medians, ratio, sum_of_medians_s};
use crate::{sub_seed, Between, Budget, Metric, Outcome};
use bddfc_chase::{chase, chase_with, ChaseConfig, ChaseStatus};
use bddfc_core::satisfaction::satisfies_theory;
use bddfc_core::{par, parse_into, Instance, Theory, Vocabulary};
use std::time::Instant;

const THEORY: &str = "E(X,Y) -> T(X,Y).
     T(X,Y), E(Y,Z) -> T(X,Z).
     T(X,Y) -> exists Z . A(Y,Z).
     A(X,Y) -> exists Z . B(Y,Z).";
const GRAPHS: u64 = 3;
const NODES: usize = 700;
const EDGES: usize = 1400;

struct Input {
    voc: Vocabulary,
    db: Instance,
    theory: Theory,
}

fn make_inputs(seed: u64) -> Vec<Input> {
    (0..GRAPHS)
        .map(|i| {
            let mut voc = Vocabulary::new();
            let db = bddfc_zoo::random_graph(&mut voc, NODES, EDGES, sub_seed(seed, i));
            let (theory, _, _) = parse_into(THEORY, &mut voc).expect("theory parses");
            Input { voc, db, theory }
        })
        .collect()
}

/// The chase has no finite budget to hit: the theory is weakly acyclic.
fn config() -> ChaseConfig {
    ChaseConfig {
        max_rounds: u32::MAX,
        max_facts: usize::MAX,
        ..Default::default()
    }
}

/// Chases every graph in turn, in whole passes, until the budget is
/// spent, calling `after_pass` after each pass; returns the per-graph
/// times (ms) and the total seconds.
fn cycle(
    inputs: &[Input],
    counts: &[usize],
    seconds: f64,
    out: &mut Outcome,
    after_pass: &mut dyn FnMut(),
) -> (Vec<Vec<f64>>, f64) {
    let budget = Budget::new(seconds);
    let mut times = vec![Vec::new(); inputs.len()];
    let mut total = 0.0;
    loop {
        for (i, inp) in inputs.iter().enumerate() {
            let mut voc = inp.voc.clone();
            let t = Instant::now();
            let res = chase(&inp.db, &inp.theory, &mut voc, config());
            let dt = t.elapsed().as_secs_f64();
            total += dt;
            times[i].push(dt * 1e3);
            out.attempted += 1;
            if res.status != ChaseStatus::Fixpoint || res.instance.len() != counts[i] {
                out.mismatch(format!(
                    "graph {i}: {:?} with {} facts, expected a fixpoint of {}",
                    res.status,
                    res.instance.len(),
                    counts[i]
                ));
            }
        }
        after_pass();
        if budget.over() {
            return (times, total);
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut between = Between::default();
    let inputs = between.setup(|| make_inputs(seed));
    between.reference();

    // Reference counts from runs at the other thread count, each
    // checked as a model.
    let counts: Vec<usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            let mut voc = inp.voc.clone();
            let res = crate::at_default_threads(|| chase(&inp.db, &inp.theory, &mut voc, config()));
            if !satisfies_theory(&res.instance, &inp.theory) {
                out.mismatch(format!("graph {i}: chase result violates the theory"));
            }
            res.instance.len()
        })
        .collect();

    let phase = if trace { seconds / 3.0 } else { seconds };
    let (times, total) = cycle(&inputs, &counts, phase, &mut out, &mut || {
        between.setup(|| make_inputs(seed));
        between.reference();
    });
    out.setup_s = between.setup_s();
    out.reference_ms = between.reference_ms();
    let n: usize = times.iter().map(Vec::len).sum();
    out.samples = n;
    out.throughput_per_s = counts.iter().sum::<usize>() as f64 / sum_of_medians_s(&times);
    out.latency_geomean_ms = geomean_of_medians(&times);
    out.named
        .push(Metric::new("facts_per_s", out.throughput_per_s, "1/s", n));
    if trace {
        traced(&inputs, &counts, phase, total / n as f64, &mut out);
    }
    out
}

fn traced(inputs: &[Input], counts: &[usize], phase: f64, per_chase: f64, out: &mut Outcome) {
    let rec = Recorder::default();
    let budget = Budget::new(phase);
    let (mut chases, mut total) = (0usize, 0.0);
    while chases == 0 || !budget.over() {
        for (i, inp) in inputs.iter().enumerate() {
            let mut voc = inp.voc.clone();
            let t = Instant::now();
            let res = chase_with(&inp.db, &inp.theory, &mut voc, config(), &rec);
            total += t.elapsed().as_secs_f64();
            chases += 1;
            out.attempted += 1;
            if res.instance.len() != counts[i] {
                out.mismatch(format!(
                    "graph {i}: traced chase gave {} facts",
                    res.instance.len()
                ));
            }
        }
    }
    let per = |v: f64| v / chases as f64;
    let threads = par::num_threads() as f64;
    // Enumeration time is summed over worker shards; its wall share is
    // estimated as that sum over the thread count.
    let collect = rec.gauge_ms("chase", "trigger");
    let rounds_ms = rec.span_ms("chase", "round");
    out.layer("chase.rounds", per(rec.events("chase", "round")), chases);
    out.layer("chase.collect_ms", per(collect), chases);
    out.layer(
        "chase.admit_apply_ms",
        per((rounds_ms - collect / threads).max(0.0)),
        chases,
    );
    out.layer(
        "chase.body_matches",
        per(rec.field("chase", "round", "body_matches")),
        chases,
    );
    out.layer(
        "chase.fire_yield",
        ratio(
            rec.field("chase", "round", "triggers_fired"),
            rec.field("chase", "round", "candidates"),
        ),
        chases,
    );
    out.layer("join.build_ms", per(rec.gauge_ms("join", "build")), chases);
    out.layer("join.probe_ms", per(rec.gauge_ms("join", "probe")), chases);
    let rows = rec.field("join", "probe", "rows");
    out.layer("join.probe_rows", per(rows), chases);
    out.layer(
        "join.match_yield",
        ratio(rec.field("join", "probe", "matches"), rows),
        chases,
    );
    out.layer(
        "hom.scan_candidates",
        per(rec.field("hom", "scan", "candidates")),
        chases,
    );
    out.layer("trace.overhead", total / chases as f64 / per_chase, chases);
    out.layer(
        "trace.unattributed_share",
        (total * 1e3 - rounds_ms) / (total * 1e3),
        chases,
    );

    let mut one = Outcome::default();
    let (_, multi) =
        crate::at_default_threads(|| cycle(inputs, counts, phase, &mut one, &mut || {}));
    let n1 = one.attempted as usize;
    out.attempted += one.attempted;
    out.mismatches.append(&mut one.mismatches);
    out.layer("par.thread_ratio", multi / n1 as f64 / per_chase, n1);
}
