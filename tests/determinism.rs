//! Thread-count determinism suite: the chase and datalog saturation —
//! the stepper is the one client of `bddfc_core::par` — must produce
//! byte-identical outputs for `BDDFC_THREADS` in {1, 2, 7}, across the
//! paper zoo and seeded random programs, and no engine's telemetry may
//! depend on the setting. The shard-then-merge contract of
//! `bddfc_core::par` (results collected per shard, merged in input
//! order, order-sensitive phases sequential) is what makes this hold;
//! this suite is the executable statement of that contract.

use bddfc::chase::{
    chase, chase_with, find_model_with, saturate_datalog, saturate_datalog_with,
    ChaseConfig, ChaseResult, ChaseVariant, FinderConfig,
};
use bddfc::core::obs::Memory;
use bddfc::core::par;
use bddfc::core::{Instance, Program, Theory, Vocabulary};
use bddfc::rewrite::{rewrite_query_with, RewriteConfig};
use bddfc::types::TypeAnalyzer;
use bddfc_fuzz::gen::random_program;
use bddfc_fuzz::proptest_lite::run_prop;

/// The thread counts the suite compares: the sequential baseline, the
/// smallest genuine fork-join, and an odd count that never divides the
/// work evenly (so shard boundaries move).
const THREADS: [usize; 3] = [1, 2, 7];

fn zoo_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("example1", bddfc::zoo::example1()),
        ("example1_m_prime", bddfc::zoo::example1_m_prime()),
        ("chain_theory", bddfc::zoo::chain_theory()),
        ("remark3", bddfc::zoo::remark3()),
        ("total_order_4", bddfc::zoo::total_order(4)),
        ("example7", bddfc::zoo::example7()),
        ("example9", bddfc::zoo::example9()),
        ("section54", bddfc::zoo::section54()),
        ("notorious", bddfc::zoo::notorious()),
        ("order_theory", bddfc::zoo::order_theory()),
        ("linear_ontology", bddfc::zoo::linear_ontology()),
        ("guarded_example", bddfc::zoo::guarded_example()),
        ("sticky_example", bddfc::zoo::sticky_example()),
    ]
}

fn assert_chase_identical(name: &str, db: &Instance, theory: &Theory, voc: &Vocabulary) {
    for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
        let config = ChaseConfig { max_rounds: 4, max_facts: 4_000, variant };
        let run = |threads: usize| -> ChaseResult {
            par::with_thread_count(threads, || chase(db, theory, &mut voc.clone(), config))
        };
        let base = run(THREADS[0]);
        for &t in &THREADS[1..] {
            let other = run(t);
            let ctx = format!("{name}/{variant:?} at {t} threads");
            assert_eq!(base.instance, other.instance, "{ctx}: instance");
            assert_eq!(base.depth_map(), other.depth_map(), "{ctx}: depth map");
            assert_eq!(base.rounds, other.rounds, "{ctx}: rounds");
            assert_eq!(base.status, other.status, "{ctx}: status");
            assert_eq!(
                base.stats.body_matches_per_round, other.stats.body_matches_per_round,
                "{ctx}: work counters"
            );
        }
    }
}

#[test]
fn chase_is_thread_count_invariant_on_zoo() {
    for (name, prog) in zoo_programs() {
        assert_chase_identical(name, &prog.instance, &prog.theory, &prog.voc);
    }
}

#[test]
fn chase_is_thread_count_invariant_on_random_programs() {
    run_prop("chase_is_thread_count_invariant_on_random_programs", 12, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let prog = random_program(seed);
        assert_chase_identical("random", &prog.instance, &prog.theory, &prog.voc);
        Ok(())
    });
}

#[test]
fn saturation_is_thread_count_invariant() {
    for (name, prog) in zoo_programs() {
        let base =
            par::with_thread_count(1, || saturate_datalog(&prog.instance, &prog.theory));
        for &t in &THREADS[1..] {
            let other =
                par::with_thread_count(t, || saturate_datalog(&prog.instance, &prog.theory));
            assert_eq!(base.instance, other.instance, "{name} at {t} threads: instance");
            assert_eq!(base.rounds, other.rounds, "{name} at {t} threads: rounds");
            assert_eq!(base.derived, other.derived, "{name} at {t} threads: derived");
            assert_eq!(
                base.body_matches_per_round, other.body_matches_per_round,
                "{name} at {t} threads: work counters"
            );
        }
    }
}

/// Telemetry determinism: with a `Memory` sink attached, every engine's
/// aggregated counters and per-event-kind counts — not just its outputs
/// — must be identical across thread counts. This is the executable form
/// of the fields-vs-gauges contract in `bddfc_core::obs`: event *fields*
/// are algorithmic work counts and thread-blind; only *gauges*
/// (`wall_ns`, `threads`) may vary, and they are excluded from
/// aggregation.
#[test]
fn telemetry_counters_are_thread_count_invariant() {
    for (name, prog) in zoo_programs() {
        let run = |threads: usize| {
            par::with_thread_count(threads, || {
                let sink = Memory::new(4096);
                let mut voc = prog.voc.clone();
                let chased = chase_with(
                    &prog.instance,
                    &prog.theory,
                    &mut voc,
                    ChaseConfig { max_rounds: 3, max_facts: 2_000, ..Default::default() },
                    &sink,
                );
                let sat = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
                let outcome = find_model_with(
                    &prog.instance,
                    &prog.theory,
                    &mut prog.voc.clone(),
                    prog.queries.first(),
                    FinderConfig { max_size: 3, max_nodes: 20_000 },
                    &sink,
                );
                let partition = TypeAnalyzer::new(&chased.instance, &mut voc, 2)
                    .partition_with(&sink);
                let rewritten = prog.queries.first().and_then(|q| {
                    rewrite_query_with(
                        q,
                        &prog.theory,
                        &mut prog.voc.clone(),
                        RewriteConfig { max_disjuncts: 15, max_steps: 300, max_piece: 2 },
                        &sink,
                    )
                });
                (
                    chased.instance,
                    sat.instance,
                    outcome,
                    partition,
                    rewritten.map(|r| r.ucq),
                    sink.counters(),
                    sink.event_counts(),
                )
            })
        };
        let base = run(THREADS[0]);
        assert!(
            !base.6.is_empty(),
            "{name}: expected telemetry events from the instrumented engines"
        );
        for &t in &THREADS[1..] {
            let other = run(t);
            let ctx = format!("{name} at {t} threads");
            assert_eq!(base.0, other.0, "{ctx}: chase instance");
            assert_eq!(base.1, other.1, "{ctx}: saturated instance");
            assert_eq!(base.2, other.2, "{ctx}: finder outcome");
            assert_eq!(base.3, other.3, "{ctx}: partition");
            assert_eq!(base.4, other.4, "{ctx}: rewritten UCQ");
            assert_eq!(base.5, other.5, "{ctx}: telemetry counters");
            assert_eq!(base.6, other.6, "{ctx}: telemetry event counts");
        }
    }
}

/// Bounded-capacity semantics of the `Memory` sink: with a tiny cap the
/// event and span *logs* stop growing, but counters keep accumulating
/// over every event, and `dropped()` / `spans_dropped()` report the
/// elided tail exactly — at any thread count. The drop decision happens
/// in the sink's sequential record path, so even which events survive in
/// the log is deterministic.
#[test]
fn memory_sink_bounded_cap_is_thread_count_invariant() {
    let prog = bddfc::zoo::example1();
    let config = ChaseConfig { max_rounds: 4, max_facts: 2_000, ..Default::default() };
    let run = |threads: usize, cap: usize| {
        par::with_thread_count(threads, || {
            let sink = Memory::new(cap);
            let _ = chase_with(&prog.instance, &prog.theory, &mut prog.voc.clone(), config, &sink);
            (
                sink.len(),
                sink.dropped(),
                // Deterministic event payload only: gauges (wall_ns) vary
                // run to run and are excluded by the obs contract.
                sink.events()
                    .iter()
                    .map(|e| (e.engine, e.name, e.parent, e.key, e.fields.clone()))
                    .collect::<Vec<_>>(),
                sink.counters(),
                sink.spans_opened(),
                sink.spans_dropped(),
                sink.spans()
                    .iter()
                    .map(|s| (s.id, s.parent, s.engine, s.name, s.key))
                    .collect::<Vec<_>>(),
            )
        })
    };
    let unbounded = run(1, 1 << 16);
    assert_eq!(unbounded.1, 0, "cap 65536 must not drop anything here");
    let total_events = unbounded.0;
    let total_spans = unbounded.4;
    assert!(total_events > 3, "workload too small to exercise the bound");
    assert!(total_spans > 3);

    const CAP: usize = 3;
    let base = run(THREADS[0], CAP);
    assert_eq!(base.2.len(), CAP, "event log must stop at the cap");
    assert_eq!(base.1, total_events - CAP as u64, "dropped() must be exact");
    assert_eq!(base.3, unbounded.3, "counters must keep accumulating past the cap");
    assert_eq!(base.4, total_spans, "span ids must keep advancing past the cap");
    assert_eq!(base.5, total_spans - CAP as u64, "spans_dropped() must be exact");
    // The surviving log prefix matches the unbounded run's prefix.
    assert_eq!(base.2[..], unbounded.2[..CAP]);
    assert_eq!(base.6[..], unbounded.6[..CAP]);
    for &t in &THREADS[1..] {
        assert_eq!(run(t, CAP), base, "bounded Memory sink at {t} threads");
    }
}

/// Span-id determinism: the deterministic half of a span — id, parent,
/// engine, name, attribution key — is byte-identical across thread
/// counts for every engine, on the whole zoo. Only `start_ns`/`end_ns`
/// are gauges.
#[test]
fn span_identities_are_thread_count_invariant() {
    for (name, prog) in zoo_programs() {
        let run = |threads: usize| {
            par::with_thread_count(threads, || {
                let sink = Memory::new(1 << 14);
                let mut voc = prog.voc.clone();
                let _ = chase_with(
                    &prog.instance,
                    &prog.theory,
                    &mut voc,
                    ChaseConfig { max_rounds: 3, max_facts: 2_000, ..Default::default() },
                    &sink,
                );
                let _ = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
                let _ = find_model_with(
                    &prog.instance,
                    &prog.theory,
                    &mut prog.voc.clone(),
                    prog.queries.first(),
                    FinderConfig { max_size: 3, max_nodes: 20_000 },
                    &sink,
                );
                let spans = sink.spans();
                assert!(spans.iter().all(|s| s.is_closed()), "{name}: span left open");
                spans
                    .iter()
                    .map(|s| (s.id, s.parent, s.engine, s.name, s.key))
                    .collect::<Vec<_>>()
            })
        };
        let base = run(THREADS[0]);
        assert!(!base.is_empty(), "{name}: expected spans from the instrumented engines");
        // Sequential ids starting at 1, by construction.
        for (i, s) in base.iter().enumerate() {
            assert_eq!(s.0, i as u64 + 1, "{name}: span ids must be sequential");
        }
        for &t in &THREADS[1..] {
            assert_eq!(base, run(t), "{name} at {t} threads: span identities");
        }
    }
}
