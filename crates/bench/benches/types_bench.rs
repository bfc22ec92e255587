//! Benches for the positive-type machinery (experiments E3, E4, E8 and
//! E14).

use bddfc_bench::bench;
use bddfc_chase::{chase, ChaseConfig};
use bddfc_core::{parse_query, Instance, Vocabulary};
use bddfc_finite::{hide_query, normalize_spade5, skeleton};
use bddfc_rewrite::{kappa, RewriteConfig};
use bddfc_types::{find_conservative_n, natural_coloring, Quotient, TypeAnalyzer};

/// E14 — ≡ₙ partition cost vs. chain length and n.
fn pebble_scaling() {
    for len in [20usize, 60] {
        for n in [2usize, 3] {
            let mut voc = Vocabulary::new();
            let (inst, _) = bddfc_zoo::anonymous_chain(&mut voc, len);
            bench(&format!("partition/n{n}/{len}"), 10, || {
                let mut v = voc.clone();
                let analyzer = TypeAnalyzer::new(&inst, &mut v, n);
                analyzer.partition().len()
            });
        }
    }
}

/// The structure E8's certifier partitions on its decisive `example9`
/// attempt (`F(X,X)`, prefix depth 12): the naturally colored skeleton of
/// the normalized theory's chase prefix, 8,192 elements.
fn example9_skeleton(voc: &mut Vocabulary) -> Instance {
    let prog = bddfc_zoo::example9();
    *voc = prog.voc.clone();
    let query = parse_query("F(X,X)", voc).expect("E8 query parses");
    let hidden = hide_query(&prog.theory, &query, voc);
    let norm = normalize_spade5(&hidden.theory, voc).expect("example9 normalizes");
    let m = kappa(&norm, voc, RewriteConfig::default()).expect("κ saturates").max(2);
    let config = ChaseConfig { max_rounds: 12, max_facts: 200_000, ..Default::default() };
    let prefix = chase(&prog.instance, &norm, voc, config).instance;
    let skel = skeleton(&prefix, &prog.instance, &norm);
    natural_coloring(&skel, voc, m).apply(&skel)
}

/// E8 — the `≡₂` partition of the `example9` skeleton, where most
/// elements join their class by canonical-query signature.
fn example9_partition() {
    let mut voc = Vocabulary::new();
    let inst = example9_skeleton(&mut voc);
    assert_eq!(inst.domain_size(), 8_192, "E8's decisive example9 skeleton");
    bench("partition/example9_skeleton/n2", 10, || {
        let mut v = voc.clone();
        TypeAnalyzer::new(&inst, &mut v, 2).partition().len()
    });
}

/// E3 — quotient construction on the chain.
fn quotient_chain() {
    for len in [20usize, 60] {
        let mut voc = Vocabulary::new();
        let (inst, _) = bddfc_zoo::anonymous_chain(&mut voc, len);
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        let partition = analyzer.partition();
        bench(&format!("quotient_chain/{len}"), 10, || {
            let mut v = voc.clone();
            Quotient::new(&inst, partition.clone(), &mut v)
                .instance
                .len()
        });
    }
}

/// E4 — the conservative-n search with the natural coloring.
fn conservative_search() {
    for m in [1usize, 2] {
        let mut voc = Vocabulary::new();
        let (inst, _) = bddfc_zoo::anonymous_chain(&mut voc, 24);
        bench(&format!("conservative_n/{m}"), 10, || {
            let mut v = voc.clone();
            find_conservative_n(&inst, &mut v, m, m.max(2)..=(m + 4)).map(|(n, _)| n)
        });
    }
}

fn main() {
    bddfc_bench::init_json("types");
    pebble_scaling();
    example9_partition();
    quotient_chain();
    conservative_search();
}
