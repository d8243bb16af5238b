//! Seeded inputs: the ledger graph and every workload's request stream.
//!
//! The graph is fixed (graph seed 1); the workload seed selects only the
//! request streams, so the same seed always yields the same requests.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_graph::{generators, topo, DiGraph, NodeId};
use tc_kb::Pred;

/// The ROADMAP ledger graph: `random_dag`, 50k nodes, out-degree 3, seed 1.
pub const NODES: usize = 50_000;
pub const DEGREE: f64 = 3.0;
pub const GRAPH_SEED: u64 = 1;

/// Pairs per `reaches-batch` request on `read_paged`.
pub const BATCH: usize = 16;

pub fn ledger_graph() -> DiGraph {
    generators::random_dag(generators::RandomDagConfig {
        nodes: NODES,
        avg_out_degree: DEGREE,
        seed: GRAPH_SEED,
    })
}

/// An independent generator for one purpose of one run.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// Uniformly random node pairs.
pub fn pairs(rng: &mut StdRng, count: usize) -> Vec<(u32, u32)> {
    (0..count)
        .map(|_| {
            (
                rng.random_range(0..NODES as u32),
                rng.random_range(0..NODES as u32),
            )
        })
        .collect()
}

pub fn reaches_line(&(a, b): &(u32, u32)) -> Vec<u8> {
    format!("reaches n{a} n{b}\n").into_bytes()
}

pub fn batch_line(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut s = String::from("reaches-batch");
    for &(a, b) in pairs {
        s.push_str(&format!(" n{a} n{b}"));
    }
    s.push('\n');
    s.into_bytes()
}

/// One `write_mix` write: `add-edge` of a forward pair, or its removal.
#[derive(Clone, Copy)]
pub struct Write {
    pub src: u32,
    pub dst: u32,
    pub add: bool,
}

impl Write {
    pub fn line(&self) -> Vec<u8> {
        let verb = if self.add { "add-edge" } else { "remove-edge" };
        format!("{verb} n{} n{}\n", self.src, self.dst).into_bytes()
    }

    pub fn expected(&self) -> &'static [u8] {
        if self.add {
            b"ok added"
        } else {
            b"ok removed"
        }
    }
}

/// `cycles` writes alternating between adding a seeded forward pair (a
/// pair in topological order that is not yet an arc, so it can never close
/// a cycle) and removing that same pair: the graph stays within one arc of
/// the ledger graph and every write changes it, so each causes a publish.
pub fn write_cycles(g: &DiGraph, rng: &mut StdRng, cycles: usize) -> Vec<Write> {
    let rank = topo::topo_rank(g).expect("the ledger graph is acyclic");
    let mut out = Vec::with_capacity(cycles);
    while out.len() < cycles {
        let (a, b) = (
            rng.random_range(0..NODES as u32),
            rng.random_range(0..NODES as u32),
        );
        let (src, dst) = if rank[a as usize] < rank[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        if src == dst || g.has_edge(NodeId(src), NodeId(dst)) {
            continue;
        }
        out.push(Write {
            src,
            dst,
            add: true,
        });
        out.push(Write {
            src,
            dst,
            add: false,
        });
    }
    out.truncate(cycles);
    out
}

/// The knowledge-base stream of `kb_scale`: six layers of 48 concepts, the
/// two rules, asserts that point strictly downhill (so nothing can be
/// cycle-rejected) and 20% retracts of a still-asserted fact.
pub const KB_LAYERS: usize = 6;
pub const KB_WIDTH: usize = 48;
pub const KB_RETRACT_PCT: u64 = 20;
pub const KB_RULES: [&str; 2] = [
    "up: isa(X, Y) :- partof(X, Z), isa(Z, Y)",
    "share: partof(X, Y) :- isa(X, Z), partof(Z, Y)",
];

/// One KB request: the wire line and the command the mirror executes.
pub struct KbOp {
    pub wire: String,
    pub mirror: String,
    pub kind: KbKind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum KbKind {
    Rule,
    Assert,
    Retract,
    Ask,
}

impl KbOp {
    pub fn is_mutation(&self) -> bool {
        matches!(self.kind, KbKind::Assert | KbKind::Retract)
    }
}

/// Generates the KB stream: the rules, then `prefix` mutations (the warm
/// set-up), then `timed` mutations each followed by `asks` asks over known
/// concepts. The mutations come from `facts`, the asks from `queries`.
/// Returns the stream and the index where the timed part starts.
pub fn kb_stream(
    facts: &mut StdRng,
    queries: &mut StdRng,
    prefix: usize,
    timed: usize,
    asks: usize,
) -> (Vec<KbOp>, usize) {
    let mut ops = Vec::new();
    for rule in KB_RULES {
        ops.push(KbOp {
            wire: format!("define-rule {rule}"),
            mirror: format!("rule {rule}"),
            kind: KbKind::Rule,
        });
    }
    let mut live: BTreeSet<(Pred, String, String)> = BTreeSet::new();
    let mut names: Vec<String> = Vec::new();
    let mut known: BTreeSet<String> = BTreeSet::new();
    let name = |layer: usize, slot: usize| format!("l{layer}n{slot}");
    let mut mutate = |rng: &mut StdRng, ops: &mut Vec<KbOp>, names: &mut Vec<String>| {
        if !live.is_empty() && rng.random_range(0..100u64) < KB_RETRACT_PCT {
            let ix = rng.random_range(0..live.len());
            let fact = live.iter().nth(ix).expect("index in range").clone();
            let line = format!("retract {} {} {}", fact.0.name(), fact.1, fact.2);
            ops.push(KbOp {
                wire: line.clone(),
                mirror: line,
                kind: KbKind::Retract,
            });
            live.remove(&fact);
            return;
        }
        let hi = rng.random_range(1..KB_LAYERS);
        let lo = rng.random_range(0..hi);
        let a = name(hi, rng.random_range(0..KB_WIDTH));
        let b = name(lo, rng.random_range(0..KB_WIDTH));
        let pred = if rng.random_bool(0.5) {
            Pred::IsA
        } else {
            Pred::PartOf
        };
        let line = format!("assert {} {a} {b}", pred.name());
        ops.push(KbOp {
            wire: line.clone(),
            mirror: line,
            kind: KbKind::Assert,
        });
        for n in [&a, &b] {
            if known.insert(n.clone()) {
                names.push(n.clone());
            }
        }
        live.insert((pred, a, b));
    };
    for _ in 0..prefix {
        mutate(facts, &mut ops, &mut names);
    }
    let start = ops.len();
    for _ in 0..timed {
        mutate(facts, &mut ops, &mut names);
        for _ in 0..asks {
            let a = &names[queries.random_range(0..names.len())];
            let mut b = &names[queries.random_range(0..names.len())];
            while b == a {
                b = &names[queries.random_range(0..names.len())];
            }
            let rel = if queries.random_bool(0.7) {
                "isa"
            } else {
                "partof"
            };
            let line = format!("ask {rel} {a} {b}");
            ops.push(KbOp {
                wire: line.clone(),
                mirror: line,
                kind: KbKind::Ask,
            });
        }
    }
    (ops, start)
}
