//! `bddfc-fuzz`: a seeded, shrinking, corpus-replaying differential
//! fuzz harness across every engine pair in the workspace.
//!
//! The crate consolidates the repository's oracle density into one
//! subsystem (ROADMAP item 5):
//!
//! * [`gen`] — a deterministic generator of random Datalog∃ programs,
//!   stratified across the recognized classes (guarded, sticky, weakly
//!   acyclic, Theorem 3 fragment, unrestricted);
//! * [`reference`] — the one reference chase evaluator, naive and
//!   written line by line after the paper's `Chase¹`, the pairwise `≡ₙ`
//!   partition, and the FC pipeline with a full chase of the quotient as
//!   its step 6;
//! * [`props`] — the registry of differential properties: chase and
//!   certain answers vs the reference, restricted-embeds-in-oblivious,
//!   thread/obs invariance, witness-vs-oracle class recognizers,
//!   rewriting vs chase, lint stability, type partition and FC pipeline
//!   vs their references;
//! * [`shrink`] — a greedy delta-debugging shrinker that reduces any
//!   failure to a minimal parseable reproducer;
//! * [`report`] — deterministic human- and machine-readable reports;
//! * [`proptest_lite`] — the seeded property harness shared with the
//!   integration tests (promoted from `tests/support/`).
//!
//! Everything is seeded and hermetic: a failure report always carries a
//! `bddfc-fuzz --seed <n> --prop <name>` line that replays it exactly,
//! and `bddfc-fuzz --replay tests/corpus` re-runs the committed corpus.

pub mod gen;
pub mod proptest_lite;
pub mod props;
pub mod reference;
pub mod report;
pub mod shrink;

use gen::{gen_case, FuzzCase};
use props::{Prop, PropCtx};
use proptest_lite::{run_case_caught, PropResult};
use report::{Failure, FuzzReport};
use std::time::{Duration, Instant};

/// Parses and checks one case against one property, catching panics.
///
/// A case that does not parse is itself a failure (generated cases must
/// always parse; corpus cases are validated earlier by the replayer).
pub fn check_case(case: &FuzzCase, prop: &Prop, ctx: &PropCtx) -> PropResult {
    let prog = match case.program() {
        Ok(p) => p,
        Err(e) => return Err(format!("case does not parse: {e}")),
    };
    run_case_caught(|| (prop.check)(case, &prog, ctx))
}

/// The canonical seed → case → verdict path shared by `--seed` replays,
/// the fuzz loop and `run_prop` reproduction lines: generate the case
/// for `seed`, check `prop`.
pub fn run_seeded_case(seed: u64, prop: &Prop, ctx: &PropCtx) -> (FuzzCase, PropResult) {
    let case = gen_case(seed);
    let verdict = check_case(&case, prop, ctx);
    (case, verdict)
}

/// Options for one fuzzing run.
pub struct FuzzOptions {
    /// Base seed; the per-case seeds are a fixed stream derived from it.
    pub seed: u64,
    /// Wall-clock budget. Checked *between* cases, so the executed case
    /// count is speed-dependent — which is why it is reported on stderr,
    /// never in the [`FuzzReport`].
    pub budget_ms: Option<u64>,
    /// Exact number of cases (overrides the budget when set).
    pub cases: Option<u64>,
    /// Properties to check, in registry order.
    pub props: Vec<&'static Prop>,
    /// Budgets + injected mutation.
    pub ctx: PropCtx,
}

/// Speed-dependent statistics, reported on stderr only.
#[derive(Debug, Default, Clone, Copy)]
pub struct FuzzStats {
    /// Cases generated and checked.
    pub cases: u64,
    /// Individual property checks executed.
    pub checks: u64,
    /// Shrink candidate evaluations.
    pub shrink_evals: u64,
}

fn origin_of(case: &FuzzCase) -> String {
    match case.strat {
        Some(s) => format!("seed {:#x}, strat {}", case.seed, s.name()),
        None => format!("seed {:#x}", case.seed),
    }
}

fn shrunk_failure(
    case: &FuzzCase,
    prop: &'static Prop,
    ctx: &PropCtx,
    message: String,
    repro: String,
    stats: &mut FuzzStats,
) -> Failure {
    let out = shrink::shrink(case, prop, ctx, &message, shrink::DEFAULT_MAX_EVALS);
    stats.shrink_evals += out.evals as u64;
    Failure {
        prop: prop.name,
        origin: origin_of(case),
        message: out.message,
        shrunk: out.case.src,
        repro,
    }
}

/// Runs the fuzz loop: draw case seeds from the base seed, check every
/// selected property on each case, stop (and shrink) at the first
/// failure or when the budget/case count runs out.
pub fn fuzz(opts: &FuzzOptions) -> (FuzzReport, FuzzStats) {
    let mut report = FuzzReport {
        mode: "fuzz",
        seed: Some(opts.seed),
        budget_ms: opts.budget_ms,
        props: opts.props.iter().map(|p| p.name).collect(),
        mutation: opts.ctx.mutation,
        ..Default::default()
    };
    let mut stats = FuzzStats::default();
    let deadline = opts
        .budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut seeds = bddfc_core::prng::SplitMix64::new(opts.seed ^ 0xF0_22);
    loop {
        if let Some(cap) = opts.cases {
            if stats.cases >= cap {
                break;
            }
        } else if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                break;
            }
        } else if stats.cases >= 1 {
            break; // no budget and no count: single-case mode
        }
        let case_seed = seeds.next_u64();
        let case = gen_case(case_seed);
        stats.cases += 1;
        for prop in &opts.props {
            stats.checks += 1;
            if let Err(msg) = check_case(&case, prop, &opts.ctx) {
                let repro = format!("bddfc-fuzz --seed {case_seed:#x} --prop {}", prop.name);
                report.failures.push(shrunk_failure(
                    &case, prop, &opts.ctx, msg, repro, &mut stats,
                ));
                return (report, stats);
            }
        }
    }
    (report, stats)
}

/// Checks one explicit seed against the selected properties (the
/// `--seed S [--prop P]` replay mode). All failures are shrunk and
/// reported — this is the path `run_prop` reproduction lines re-enter.
pub fn run_single_seed(
    seed: u64,
    props: &[&'static Prop],
    ctx: &PropCtx,
) -> (FuzzReport, FuzzStats) {
    let mut report = FuzzReport {
        mode: "case",
        seed: Some(seed),
        props: props.iter().map(|p| p.name).collect(),
        mutation: ctx.mutation,
        ..Default::default()
    };
    let mut stats = FuzzStats { cases: 1, ..Default::default() };
    for prop in props {
        stats.checks += 1;
        let (case, verdict) = run_seeded_case(seed, prop, ctx);
        if let Err(msg) = verdict {
            let repro = format!("bddfc-fuzz --seed {seed:#x} --prop {}", prop.name);
            report
                .failures
                .push(shrunk_failure(&case, prop, ctx, msg, repro, &mut stats));
        }
    }
    (report, stats)
}

/// Replays corpus files (already read into memory as `(path, source)`
/// pairs, in deterministic path order).
///
/// A file that does not parse is *corrupt*, not a finding: the replay
/// aborts with `Err` so the CLI can exit 2, distinguishing a broken
/// checkout from a real engine discrepancy (exit 1).
pub fn replay_sources(
    files: &[(String, String)],
    props: &[&'static Prop],
    ctx: &PropCtx,
) -> Result<(FuzzReport, FuzzStats), String> {
    let mut report = FuzzReport {
        mode: "replay",
        props: props.iter().map(|p| p.name).collect(),
        mutation: ctx.mutation,
        ..Default::default()
    };
    let mut stats = FuzzStats::default();
    for (path, src) in files {
        let case = FuzzCase { seed: 0, strat: None, src: src.clone() };
        if let Err(e) = case.program() {
            return Err(format!("corrupt corpus file {path}: {e}"));
        }
        stats.cases += 1;
        let mut verdict = "ok";
        for prop in props {
            stats.checks += 1;
            if let Err(msg) = check_case(&case, prop, ctx) {
                verdict = "fail";
                let repro = format!("bddfc-fuzz --replay {path} --prop {}", prop.name);
                let mut failure =
                    shrunk_failure(&case, prop, ctx, msg, repro, &mut stats);
                failure.origin = path.clone();
                report.failures.push(failure);
                break;
            }
        }
        report.corpus.push((path.clone(), verdict));
    }
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use props::{Mutation, PROPS};

    fn all_props() -> Vec<&'static Prop> {
        PROPS.iter().collect()
    }

    #[test]
    fn healthy_fuzz_run_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            seed: 42,
            budget_ms: None,
            cases: Some(5),
            props: all_props(),
            ctx: PropCtx::default(),
        };
        let (a, sa) = fuzz(&opts);
        let (b, sb) = fuzz(&opts);
        assert!(a.clean(), "{}", a.render());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.json(), b.json());
        assert_eq!(sa.cases, 5);
        assert_eq!(sa.checks, sb.checks);
    }

    #[test]
    fn mutated_fuzz_run_finds_and_shrinks_a_failure() {
        let opts = FuzzOptions {
            seed: 1,
            budget_ms: None,
            cases: Some(80),
            props: all_props(),
            ctx: PropCtx { mutation: Mutation::SkipLastRule, ..PropCtx::default() },
        };
        let (report, _) = fuzz(&opts);
        assert!(!report.clean(), "the known-bad mutation must be caught");
        let f = &report.failures[0];
        assert!(f.repro.starts_with("bddfc-fuzz --seed 0x"), "{}", f.repro);
        // The printed reproducer replays: re-running the seed under the
        // same mutation fails the same property.
        let seed_hex = f.repro.split_whitespace().nth(2).unwrap();
        let seed = u64::from_str_radix(seed_hex.trim_start_matches("0x"), 16).unwrap();
        let prop = props::find_prop(f.prop).unwrap();
        let (_, verdict) = run_seeded_case(seed, prop, &opts.ctx);
        assert!(verdict.is_err(), "repro line must replay the failure");
    }

    #[test]
    fn replay_flags_corrupt_files_as_errors_not_findings() {
        let files = vec![("bad.dlg".to_string(), "P(X ->".to_string())];
        let err = replay_sources(&files, &all_props(), &PropCtx::default()).unwrap_err();
        assert!(err.contains("corrupt corpus file bad.dlg"), "{err}");
    }

    #[test]
    fn replay_runs_clean_on_wellformed_sources() {
        let files = vec![(
            "mini.dlg".to_string(),
            "E(a,b).\nE(X,Y) -> exists Z . E(Y,Z).\n".to_string(),
        )];
        let (report, stats) =
            replay_sources(&files, &all_props(), &PropCtx::default()).unwrap();
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.corpus, vec![("mini.dlg".to_string(), "ok")]);
        assert_eq!(stats.cases, 1);
    }
}
