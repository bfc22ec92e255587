//! `serve_mix`: one closed-loop client drives `Server::handle_line` over
//! a seeded transitive-closure program. About 70% of requests are
//! queries, 15% inserts of a new edge and 15% retracts of an edge
//! inserted earlier. Reads and writes share `incremental`, `chase` and
//! `hom`, so a gain for one that costs the other shows in the
//! per-command latencies.
//!
//! The client replays one seeded script of [`SESSION`] requests per
//! pass, each pass against a fresh server on the same program, so every
//! pass meets the same sequence of resident states: a faster build does
//! not drift into a larger closure by getting further in the script.
//!
//! Check: every reply is decided (`err` and `unknown` count as failed),
//! and at the end of each pass the resident instance equals a
//! from-scratch chase of the surviving base facts.

use crate::recorder::Recorder;
use crate::stats::{geomean, percentile, ratio};
use crate::{median_setup, Between, Budget, Metric, Outcome};
use bddfc_chase::{chase, ChaseConfig, IncrementalChase, MaintainConfig};
use bddfc_core::fxhash::FxHashSet;
use bddfc_core::obs::EventSink;
use bddfc_core::prng::SplitMix64;
use bddfc_core::{hom, parse_program, parse_query, Fact, Vocabulary};
use bddfc_serve::{ServeConfig, Server};
use std::collections::BTreeSet;
use std::time::Instant;

const RULES: &str = "E(X,Y) -> T(X,Y).\nT(X,Y), E(Y,Z) -> T(X,Z).\n";
/// A sparse graph (mean out-degree 0.5), so that the closure stays
/// small and a retract, which rebuilds the resident store, stays cheap.
const NODES: usize = 1000;
const EDGES: usize = 500;

/// Requests per pass.
const SESSION: usize = 12_000;

const QUERY: usize = 0;
const INSERT: usize = 1;
const RETRACT: usize = 2;

struct Request {
    kind: usize,
    line: String,
    edge: (usize, usize),
}

/// The seeded request stream. It tracks the base edges, so a retract
/// only names an edge that an earlier insert added and that is still
/// there.
struct Script {
    rng: SplitMix64,
    base: FxHashSet<(usize, usize)>,
    inserted: Vec<(usize, usize)>,
}

impl Script {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut base = FxHashSet::default();
        while base.len() < EDGES {
            base.insert((rng.below(NODES), rng.below(NODES)));
        }
        Script {
            rng,
            base,
            inserted: Vec::new(),
        }
    }

    fn program(&self) -> String {
        let edges: BTreeSet<&(usize, usize)> = self.base.iter().collect();
        let mut src = String::from(RULES);
        for (a, b) in edges {
            src.push_str(&format!("E(v{a},v{b}).\n"));
        }
        src
    }

    fn next(&mut self) -> Request {
        let r = self.rng.below(100);
        let (a, b) = (self.rng.below(NODES), self.rng.below(NODES));
        if r < 70 {
            let line = if r < 35 {
                format!("query T(v{a},v{b})")
            } else {
                format!("query T(v{a},X), E(X,v{b})")
            };
            return Request {
                kind: QUERY,
                line,
                edge: (a, b),
            };
        }
        if r < 85 || self.inserted.is_empty() {
            let mut e = (a, b);
            while self.base.contains(&e) {
                e = (self.rng.below(NODES), self.rng.below(NODES));
            }
            self.base.insert(e);
            self.inserted.push(e);
            return Request {
                kind: INSERT,
                line: format!("insert E(v{},v{}).", e.0, e.1),
                edge: e,
            };
        }
        let e = self
            .inserted
            .swap_remove(self.rng.below(self.inserted.len()));
        self.base.remove(&e);
        Request {
            kind: RETRACT,
            line: format!("retract E(v{},v{}).", e.0, e.1),
            edge: e,
        }
    }
}

/// Sends one pass of the script and checks the resident state after it;
/// returns per-command latencies in µs.
fn session<S: EventSink>(server: &Server<'_, S>, seed: u64, out: &mut Outcome) -> [Vec<f64>; 3] {
    let mut script = Script::new(seed);
    let mut lat: [Vec<f64>; 3] = Default::default();
    for _ in 0..SESSION {
        let req = script.next();
        let t = Instant::now();
        let reply = server.handle_line(&req.line);
        lat[req.kind].push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        let text = reply.text().unwrap_or("");
        if text.starts_with("err") || text.starts_with("unknown") {
            out.failed += 1;
            if out.failed <= 5 {
                eprintln!("failed request: {} -> {text}", req.line);
            }
        }
    }
    check_resident(server, &script, out);
    lat
}

/// The resident instance must be the chase of the surviving base.
fn check_resident<S: EventSink>(server: &Server<'_, S>, script: &Script, out: &mut Outcome) {
    let epoch = server.snapshot();
    let scratch = parse_program(&script.program()).expect("program parses");
    let mut voc = scratch.voc.clone();
    let res = chase(
        &scratch.instance,
        &scratch.theory,
        &mut voc,
        ChaseConfig {
            max_rounds: u32::MAX,
            max_facts: usize::MAX,
            ..Default::default()
        },
    );
    if !epoch.complete
        || sorted_facts(epoch.instance.facts(), &epoch.voc)
            != sorted_facts(res.instance.facts(), &voc)
    {
        out.mismatch(format!(
            "resident instance ({} facts, fixpoint={}) differs from the chase of the base ({} facts)",
            epoch.instance.len(),
            epoch.complete,
            res.instance.len()
        ));
    }
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

fn maintain_config() -> MaintainConfig {
    let c = config();
    MaintainConfig {
        max_rounds: c.max_rounds,
        max_facts: c.max_facts,
    }
}

fn sorted_facts(facts: &[Fact], voc: &Vocabulary) -> Vec<String> {
    let mut v: Vec<String> = facts.iter().map(|f| f.display(voc).to_string()).collect();
    v.sort_unstable();
    v
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let src = Script::new(seed).program();
    let mut between = Between::default();
    between.reference();
    let load = || Server::new(&parse_program(&src).expect("program parses"), config());

    let phase = if trace { seconds / 3.0 } else { seconds };
    let budget = Budget::new(phase);
    let mut lat: [Vec<f64>; 3] = Default::default();
    let (mut passes, mut wait_ns) = (0usize, 0u64);
    while passes == 0 || !budget.over() {
        // Five timed loads per pass; the last one serves the pass.
        for _ in 0..4 {
            between.setup(load);
        }
        let server = between.setup(load);
        for (all, pass) in lat.iter_mut().zip(session(&server, seed, &mut out)) {
            all.extend(pass);
        }
        wait_ns += server
            .metrics_snapshot()
            .map_or(0, |s| s.counter("bddfc_writer_lock_wait_ns_total", None));
        passes += 1;
        between.reference();
    }

    out.setup_s = between.setup_s();
    out.reference_ms = between.reference_ms();
    let n: usize = lat.iter().map(Vec::len).sum();
    out.samples = n;
    let total_us: f64 = lat.iter().flatten().sum();
    // The command mix at each command's median latency, so that a few
    // stalled requests on a shared host do not set the figure.
    let mix_us: f64 = lat
        .iter()
        .map(|l| l.len() as f64 / n as f64 * percentile(l, 50.0))
        .sum();
    out.throughput_per_s = 1e6 / mix_us;
    out.latency_geomean_ms = geomean(
        &lat.iter()
            .map(|l| percentile(l, 50.0) / 1e3)
            .collect::<Vec<_>>(),
    );
    out.named.push(Metric::new(
        "requests_per_s",
        out.throughput_per_s,
        "1/s",
        n,
    ));
    const NAMES: [[&str; 2]; 3] = [
        ["query_p50_us", "query_p99_us"],
        ["insert_p50_us", "insert_p99_us"],
        ["retract_p50_us", "retract_p99_us"],
    ];
    for (k, [p50, p99]) in NAMES.iter().enumerate() {
        out.named.push(Metric::new(
            p50,
            percentile(&lat[k], 50.0),
            "us",
            lat[k].len(),
        ));
        out.named.push(Metric::new(
            p99,
            percentile(&lat[k], 99.0),
            "us",
            lat[k].len(),
        ));
    }
    if trace {
        out.layer(
            "serve.writer_wait_ms",
            wait_ns as f64 / 1e6 / passes as f64,
            passes,
        );
        traced(seed, &src, total_us / passes as f64, &mut out);
    }
    out
}

/// `untraced_us` is the untraced time of one pass.
fn traced(seed: u64, src: &str, untraced_us: f64, out: &mut Outcome) {
    // Load stages, each timed on its own.
    let (parse_s, prog) = median_setup(5, || parse_program(src).expect("program parses"));
    let (analyze_s, analysis) = median_setup(5, || bddfc_analyze::analyze(&prog));
    let priors = analysis.cost.priors();
    let load = || {
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory).with_priors(priors.clone());
        inc.insert(prog.instance.facts(), &mut voc, maintain_config());
        (inc, voc)
    };
    let (chase_s, (mut inc, mut voc)) = median_setup(5, load);
    out.layer("parser.load_ms", parse_s * 1e3, 5);
    out.layer("analyze.load_ms", analyze_s * 1e3, 5);
    out.layer("chase.load_ms", chase_s * 1e3, 5);

    // The same script against a traced server, with each request's
    // layer call replayed on its own: `satisfies_cq` on the pinned epoch
    // for a query, `IncrementalChase` for a mutation.
    let rec = Recorder::default();
    let server = Server::with_sink(&prog, config(), &rec);
    let mut script = Script::new(seed);
    let n = SESSION;
    let e = voc.pred("E", 2);
    let (mut traced_us, mut layer_us) = (0.0, 0.0);
    let mut layer: [Vec<f64>; 3] = Default::default();
    let (mut rounds, mut overdeleted, mut rederived) = (0u64, 0u64, 0u64);
    for _ in 0..n {
        let req = script.next();
        let us = if req.kind == QUERY {
            let epoch = server.snapshot();
            let mut qvoc = (*epoch.voc).clone();
            let cq = parse_query(req.line.trim_start_matches("query "), &mut qvoc)
                .expect("query parses");
            let t = Instant::now();
            std::hint::black_box(hom::satisfies_cq(&epoch.instance, &cq));
            t.elapsed().as_secs_f64() * 1e6
        } else {
            let (a, b) = req.edge;
            let fact = Fact::new(
                e,
                vec![
                    voc.constant(&format!("v{a}")),
                    voc.constant(&format!("v{b}")),
                ],
            );
            let t = Instant::now();
            let o = if req.kind == INSERT {
                inc.insert(&[fact], &mut voc, maintain_config())
            } else {
                inc.retract(&[fact], &mut voc, maintain_config())
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            if req.kind == INSERT {
                rounds += u64::from(o.rounds);
            } else {
                overdeleted += o.overdeleted as u64;
                rederived += o.new_facts as u64;
            }
            us
        };
        layer[req.kind].push(us);
        layer_us += us;
        let t = Instant::now();
        let reply = server.handle_line(&req.line);
        traced_us += t.elapsed().as_secs_f64() * 1e6;
        out.attempted += 1;
        if reply
            .text()
            .is_some_and(|t| t.starts_with("err") || t.starts_with("unknown"))
        {
            out.failed += 1;
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    out.layer("hom.query_us", mean(&layer[QUERY]), layer[QUERY].len());
    out.layer(
        "incremental.insert_us",
        mean(&layer[INSERT]),
        layer[INSERT].len(),
    );
    out.layer(
        "incremental.retract_us",
        mean(&layer[RETRACT]),
        layer[RETRACT].len(),
    );
    out.layer(
        "incremental.rounds_per_insert",
        ratio(rounds as f64, layer[INSERT].len() as f64),
        layer[INSERT].len(),
    );
    out.layer(
        "incremental.overdeleted_per_retract",
        ratio(overdeleted as f64, layer[RETRACT].len() as f64),
        layer[RETRACT].len(),
    );
    out.layer(
        "incremental.rederive_yield",
        ratio(rederived as f64, overdeleted as f64),
        layer[RETRACT].len(),
    );
    out.layer("serve.overhead_us", (untraced_us - layer_us) / n as f64, n);
    out.layer("trace.overhead", traced_us / untraced_us, n);
    out.layer(
        "trace.unattributed_share",
        (traced_us - layer_us) / traced_us,
        n,
    );

    // The same pass at the default thread count.
    let multi_us = crate::at_default_threads(|| {
        let server = Server::new(&prog, config());
        session(&server, seed, out).iter().flatten().sum::<f64>()
    });
    out.layer("par.thread_ratio", multi_us / untraced_us, n);
}
