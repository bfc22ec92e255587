//! Benches for the chase engine (experiments E1 and E13), plus the
//! semi-naive work-ratio check: on Example 1's transitive-closure
//! program the semi-naive engine must attempt at least 2× fewer body
//! matches per run than the naive reference evaluator.

use bddfc_bench::bench;
use bddfc_chase::{chase, ChaseConfig, ChaseVariant};
use bddfc_fuzz::reference;
use bddfc_core::{par, parse_into, parse_program, Vocabulary};

/// E13 — chase throughput over random graphs, restricted vs. oblivious.
fn chase_throughput() {
    for nodes in [30usize, 100] {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let mut voc = Vocabulary::new();
            let db = bddfc_zoo::random_graph(&mut voc, nodes, nodes * 2, 42);
            let (theory, _, _) = parse_into(
                "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
                &mut voc,
            )
            .unwrap();
            bench(&format!("chase_throughput/{variant:?}/{nodes}"), 10, || {
                let mut v = voc.clone();
                chase(
                    &db,
                    &theory,
                    &mut v,
                    ChaseConfig {
                        max_rounds: 3,
                        max_facts: 2_000_000,
                        variant,
                    },
                )
                .instance
                .len()
            });
        }
    }
}

/// E1 — divergence of Example 1 on the triangle image, per prefix depth.
fn chase_divergence() {
    for rounds in [6u32, 12] {
        let prog = bddfc_zoo::example1();
        let mut voc = prog.voc.clone();
        let (_, mp, _) = parse_into("E(a,b). E(b,c). E(c,a).", &mut voc).unwrap();
        bench(&format!("chase_divergence_example1/{rounds}"), 10, || {
            let mut v = voc.clone();
            chase(&mp, &prog.theory, &mut v, ChaseConfig::rounds(rounds))
                .instance
                .len()
        });
    }
}

/// Semi-naive vs naive body-match counts on Example 1's
/// transitive-closure rule over a chain — the engine's own work metric
/// against the naive reference evaluator's, asserted ≥2×.
fn seminaive_work_ratio() {
    let edges: String = (1..=24).map(|i| format!("E(v{i},v{}). ", i + 1)).collect();
    let prog =
        parse_program(&format!("E(X,Y), E(Y,Z) -> E(X,Z). {edges}")).unwrap();
    let config = ChaseConfig::default();
    let semi = chase(&prog.instance, &prog.theory, &mut prog.voc.clone(), config)
        .stats
        .total_body_matches();
    let naive =
        reference::run(&prog.instance, &prog.theory, &mut prog.voc.clone(), config).naive_matches;
    bench("seminaive_ratio/SemiNaive", 3, || {
        let mut v = prog.voc.clone();
        chase(&prog.instance, &prog.theory, &mut v, config).instance.len()
    });
    println!("seminaive_ratio: {naive} naive vs {semi} semi-naive body matches");
    assert!(
        naive >= 2 * semi,
        "semi-naive must do at least 2x fewer body matches ({naive} vs {semi})"
    );
}

/// Multi-thread speedup on the E13 throughput workload: 4 worker threads
/// must beat 1 thread by ≥1.3× on the median. Skipped with a notice on
/// machines with fewer than 4 cores, where the comparison is meaningless.
fn thread_speedup() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "chase_thread_speedup: SKIPPED — {cores} core(s) available, \
             need >= 4 for the 4-vs-1 thread comparison"
        );
        return;
    }
    let mut voc = Vocabulary::new();
    let db = bddfc_zoo::random_graph(&mut voc, 300, 600, 42);
    let (theory, _, _) = parse_into(
        "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
        &mut voc,
    )
    .unwrap();
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            bench(&format!("chase_thread_speedup/{threads}"), 5, || {
                let mut v = voc.clone();
                chase(
                    &db,
                    &theory,
                    &mut v,
                    ChaseConfig { max_rounds: 3, max_facts: 2_000_000, ..Default::default() },
                )
                .instance
                .len()
            })
        })
    };
    let single = run(1);
    let quad = run(4);
    let (m1, m4) = (single.median().as_nanos() as f64, quad.median().as_nanos() as f64);
    println!(
        "chase_thread_speedup: {:.2}x (1 thread {:?}, 4 threads {:?})",
        m1 / m4,
        single.median(),
        quad.median()
    );
    assert!(
        m1 >= 1.3 * m4,
        "expected a >=1.3x median speedup with 4 threads over 1, got {:.2}x",
        m1 / m4
    );
}

fn main() {
    bddfc_bench::init_json("chase");
    chase_throughput();
    chase_divergence();
    seminaive_work_ratio();
    thread_speedup();
}
