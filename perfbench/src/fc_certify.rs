//! `fc_certify`: `finite_countermodel` over the five E8 inputs, cycled
//! in a seed-permuted order. This is Theorem 2's object end to end.
//!
//! Check: every verdict is a countermodel of the E8 size, and
//! `certify_countermodel` accepts it again. The traced run re-drives the
//! pipeline's public stages in order and fails if its verdict (n, prefix
//! depth, model size) differs from `finite_countermodel`'s.

use crate::stats::{geomean_of_medians, ratio, sum_of_medians_s};
use crate::{Between, Budget, Metric, Outcome};
use bddfc_chase::{chase, ChaseConfig, ChaseResult, ChaseStatus};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::prng::SplitMix64;
use bddfc_core::{hom, parse_query, ConjunctiveQuery, ConstId, PredId, Program, Vocabulary};
use bddfc_finite::{
    certify_countermodel, finite_countermodel, hide_query, normalize_spade5, skeleton, FcConfig,
    FcOutcome,
};
use bddfc_rewrite::kappa;
use bddfc_types::{natural_coloring, Quotient, TypeAnalyzer};
use std::time::Instant;

/// `(theory, query, expected model size)`: the E8 rows.
const CASES: [(&str, &str, usize); 5] = [
    ("chain", "E(X,X)", 9),
    ("chain", "E(X,Y), E(Y,X)", 9),
    ("example7", "R(X,Y), E(X,Y)", 11),
    ("linear_ontology", "HasParent(W,W)", 13),
    ("example9", "F(X,X)", 32),
];

struct Input {
    label: String,
    prog: Program,
    query: ConjunctiveQuery,
    voc: Vocabulary,
    size: usize,
}

fn make_inputs() -> Vec<Input> {
    CASES
        .iter()
        .map(|&(theory, q, size)| {
            let prog = match theory {
                "chain" => bddfc_zoo::chain_theory(),
                "example7" => bddfc_zoo::example7(),
                "linear_ontology" => bddfc_zoo::linear_ontology(),
                "example9" => bddfc_zoo::example9(),
                other => unreachable!("no zoo theory {other}"),
            };
            let mut voc = prog.voc.clone();
            let query = parse_query(q, &mut voc).expect("E8 query parses");
            Input {
                label: format!("{theory}/{q}"),
                prog,
                query,
                voc,
                size,
            }
        })
        .collect()
}

/// The verdict fields the replica must reproduce.
type Verdict = Option<(usize, u32, usize)>;

/// Times one verdict per input in `order`, in whole passes, until the
/// budget is spent, calling `after_pass` after each pass. Returns
/// per-input times in ms and the total seconds.
fn cycle(
    inputs: &[Input],
    order: &[usize],
    seconds: f64,
    out: &mut Outcome,
    after_pass: &mut dyn FnMut(),
) -> (Vec<Vec<f64>>, f64) {
    let budget = Budget::new(seconds);
    let mut times = vec![Vec::new(); inputs.len()];
    let mut total = 0.0;
    loop {
        for &i in order {
            let inp = &inputs[i];
            let mut voc = inp.voc.clone();
            let t = Instant::now();
            let res = finite_countermodel(
                &inp.prog.instance,
                &inp.prog.theory,
                &inp.query,
                &mut voc,
                FcConfig::default(),
            );
            let dt = t.elapsed().as_secs_f64();
            total += dt;
            times[i].push(dt * 1e3);
            out.attempted += 1;
            check(inp, &res, &voc, out);
        }
        after_pass();
        if budget.over() {
            return (times, total);
        }
    }
}

fn check(inp: &Input, res: &FcOutcome, voc: &Vocabulary, out: &mut Outcome) {
    let Some(cert) = res.model() else {
        out.failed += 1;
        out.mismatch(format!("{}: no countermodel: {res:?}", inp.label));
        return;
    };
    if cert.model_size != inp.size {
        out.mismatch(format!(
            "{}: model size {} != E8's {}",
            inp.label, cert.model_size, inp.size
        ));
    }
    let failures = certify_countermodel(
        &cert.model,
        &inp.prog.instance,
        &inp.prog.theory,
        &inp.query,
        voc,
    );
    if !failures.is_empty() {
        out.mismatch(format!(
            "{}: certifier rejects the model: {failures:?}",
            inp.label
        ));
    }
}

fn verdict(res: &FcOutcome) -> Verdict {
    res.model().map(|c| (c.n, c.chase_depth, c.model_size))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut between = Between::default();
    let inputs = between.setup(make_inputs);
    between.reference();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    let phase = if trace { seconds / 3.0 } else { seconds };
    let (times, total) = cycle(&inputs, &order, phase, &mut out, &mut || {
        between.setup(make_inputs);
        between.reference();
    });
    out.setup_s = between.setup_s();
    out.reference_ms = between.reference_ms();
    let n: usize = times.iter().map(Vec::len).sum();
    out.samples = n;
    let geo = geomean_of_medians(&times);
    out.throughput_per_s = inputs.len() as f64 / sum_of_medians_s(&times);
    out.latency_geomean_ms = geo;
    out.named.push(Metric::new(
        "verdicts_per_s",
        out.throughput_per_s,
        "1/s",
        n,
    ));
    out.named
        .push(Metric::new("verdict_ms_geomean", geo, "ms", n));
    if trace {
        traced(&inputs, &order, phase, total / n as f64, &mut out);
    }
    out
}

/// Stage timers of the replica, summed over verdicts, in seconds.
#[derive(Default)]
struct Stages {
    transform: f64,
    kappa: f64,
    prefix: f64,
    skeleton: f64,
    coloring: f64,
    partition: f64,
    quotient: f64,
    conservative: f64,
    quotient_chase: f64,
    certify: f64,
    attempts: usize,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.transform
            + self.kappa
            + self.prefix
            + self.skeleton
            + self.coloring
            + self.partition
            + self.quotient
            + self.conservative
            + self.quotient_chase
            + self.certify
    }
}

fn traced(inputs: &[Input], order: &[usize], phase: f64, per_verdict: f64, out: &mut Outcome) {
    // The replica, timed stage by stage, against finite_countermodel's verdict.
    let expected: Vec<Verdict> = inputs
        .iter()
        .map(|inp| {
            let mut voc = inp.voc.clone();
            verdict(&finite_countermodel(
                &inp.prog.instance,
                &inp.prog.theory,
                &inp.query,
                &mut voc,
                FcConfig::default(),
            ))
        })
        .collect();
    let mut st = Stages::default();
    let mut total = 0.0;
    let budget = Budget::new(phase);
    let mut verdicts = 0usize;
    while verdicts == 0 || !budget.over() {
        for &i in order {
            let inp = &inputs[i];
            let mut voc = inp.voc.clone();
            let t = Instant::now();
            let v = replica(inp, &mut voc, FcConfig::default(), &mut st);
            let dt = t.elapsed().as_secs_f64();
            total += dt;
            verdicts += 1;
            out.attempted += 1;
            if v != expected[i] {
                out.mismatch(format!(
                    "{}: replica verdict {v:?} != finite_countermodel's {:?}",
                    inp.label, expected[i]
                ));
            }
        }
    }
    let per = |s: f64| s * 1e3 / verdicts as f64;
    out.layer("finite.transform_ms", per(st.transform), verdicts);
    out.layer("finite.skeleton_ms", per(st.skeleton), verdicts);
    out.layer("finite.certify_ms", per(st.certify), verdicts);
    out.layer(
        "finite.attempts",
        st.attempts as f64 / verdicts as f64,
        verdicts,
    );
    out.layer(
        "finite.attempt_yield",
        ratio(verdicts as f64, st.attempts as f64),
        verdicts,
    );
    out.layer("types.coloring_ms", per(st.coloring), verdicts);
    out.layer("types.partition_ms", per(st.partition), verdicts);
    out.layer("types.quotient_ms", per(st.quotient), verdicts);
    out.layer("types.conservative_ms", per(st.conservative), verdicts);
    out.layer("rewrite.kappa_ms", per(st.kappa), verdicts);
    out.layer("chase.prefix_ms", per(st.prefix), verdicts);
    out.layer("chase.quotient_ms", per(st.quotient_chase), verdicts);
    out.layer(
        "trace.overhead",
        total / verdicts as f64 / per_verdict,
        verdicts,
    );
    out.layer(
        "trace.unattributed_share",
        (total - st.sum()) / total,
        verdicts,
    );

    let mut one = Outcome::default();
    let (_, multi) =
        crate::at_default_threads(|| cycle(inputs, order, phase, &mut one, &mut || {}));
    let n1 = one.attempted as usize;
    out.attempted += one.attempted;
    out.failed += one.failed;
    out.mismatches.append(&mut one.mismatches);
    out.layer("par.thread_ratio", multi / n1 as f64 / per_verdict, n1);
}

/// Creation round of every element of a chase prefix.
fn element_depths(res: &ChaseResult) -> FxHashMap<ConstId, u32> {
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

/// Re-drives the Theorem 2 pipeline through its public stages, in the
/// order `finite_countermodel` runs them, timing each stage.
fn replica(inp: &Input, voc: &mut Vocabulary, cfg: FcConfig, st: &mut Stages) -> Verdict {
    let (db, theory0, query) = (&inp.prog.instance, &inp.prog.theory, &inp.query);
    if hom::satisfies_cq(db, query) {
        return None;
    }
    let t = Instant::now();
    let hidden = hide_query(theory0, query, voc);
    let norm = normalize_spade5(&hidden.theory, voc).ok();
    st.transform += t.elapsed().as_secs_f64();
    let norm = norm?;
    let forbidden = hidden.forbidden;

    let t = Instant::now();
    let kap = kappa(&norm, voc, cfg.rewrite);
    st.kappa += t.elapsed().as_secs_f64();
    let m = kap?.max(2);
    let color_free: FxHashSet<PredId> = norm.preds().into_iter().collect();

    let mut l = cfg.chase_depth;
    while l <= cfg.max_chase_depth {
        let t = Instant::now();
        let res = chase(
            db,
            &norm,
            voc,
            ChaseConfig {
                max_rounds: l,
                max_facts: cfg.chase_facts,
                ..Default::default()
            },
        );
        st.prefix += t.elapsed().as_secs_f64();
        if !res.instance.facts_with_pred(forbidden).is_empty() {
            return None;
        }
        if res.status == ChaseStatus::Fixpoint {
            st.attempts += 1;
            let t = Instant::now();
            let ok = certify_countermodel(&res.instance, db, theory0, query, voc).is_empty();
            st.certify += t.elapsed().as_secs_f64();
            let size = res
                .instance
                .restrict_to_preds(&theory0.preds())
                .domain_size();
            return ok.then_some((0, res.rounds, size));
        }

        let t = Instant::now();
        let skel = skeleton(&res.instance, db, &norm);
        let depths = element_depths(&res);
        st.skeleton += t.elapsed().as_secs_f64();
        if skel.domain_size() > cfg.max_skeleton {
            return None;
        }

        let t = Instant::now();
        let colored = natural_coloring(&skel, voc, m).apply(&skel);
        st.coloring += t.elapsed().as_secs_f64();

        for n in m..=cfg.n_max {
            let margin = n.max(m) as u32;
            if margin >= l {
                break;
            }
            let safe: FxHashSet<ConstId> = skel
                .domain()
                .filter(|c| depths.get(c).copied().unwrap_or(0) + margin <= l)
                .collect();
            if !db.domain().all(|c| safe.contains(&c)) {
                continue;
            }
            st.attempts += 1;

            let t = Instant::now();
            let partition = TypeAnalyzer::new(&colored, voc, n).partition();
            st.partition += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let quotient = Quotient::new(&colored.restrict_to_elements(&safe), partition, voc);
            let m_sigma = quotient.instance.restrict_to_preds(&color_free);
            st.quotient += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let analyzer_m = TypeAnalyzer::new(&m_sigma, voc, m);
            let conservative = safe.iter().all(|&e| match quotient.try_project(e) {
                Some(qe) if m_sigma.in_domain(qe) => analyzer_m.ptp_included_in(qe, &skel, e),
                _ => true,
            });
            st.conservative += t.elapsed().as_secs_f64();
            if !conservative {
                continue;
            }

            let t = Instant::now();
            let final_res = chase(
                &m_sigma,
                &norm,
                voc,
                ChaseConfig {
                    max_rounds: cfg.final_rounds,
                    max_facts: (cfg.chase_facts / 4).max(10_000),
                    ..Default::default()
                },
            );
            st.quotient_chase += t.elapsed().as_secs_f64();
            if final_res.status != ChaseStatus::Fixpoint
                || !final_res.instance.facts_with_pred(forbidden).is_empty()
            {
                continue;
            }

            let t = Instant::now();
            let ok = certify_countermodel(&final_res.instance, db, theory0, query, voc).is_empty();
            st.certify += t.elapsed().as_secs_f64();
            if ok {
                return Some((n, l, final_res.instance.domain_size()));
            }
        }
        l += (l / 2).max(4);
    }
    None
}
