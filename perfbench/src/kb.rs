//! `kb_ingest`: the KB verbs on an empty daemon with two shards.
//!
//! Each round's set-up starts the daemon, defines the two rules and
//! ingests a warm prefix of the fact stream; its timed phase sends the
//! rest, each mutation followed by asks. Every answer is stored and, after
//! the rounds, compared with an in-process mirror [`KnowledgeBase`]
//! executing the same commands, which then has to pass the naive
//! re-derivation gate.

use std::time::Instant;

use tc_core::{ClosureConfig, ShardedClosure};
use tc_graph::DiGraph;
use tc_kb::{KbCommand, KnowledgeBase};
use tc_server::Dict;

use crate::hostspeed::Probe;
use crate::rounds::{self, Block, ROUNDS};
use crate::stats;
use crate::streams::{self, KbOp};
use crate::wire::{Conn, Daemon};
use crate::Outcome;

pub const SHARDS: usize = 2;
pub const PREFIX: usize = 2_500;
pub const TIMED: usize = 600;
pub const ASKS: usize = 4;
/// Mutations (each with its asks) per block, after which the host is
/// probed: about 80 ms, so a round samples the host often.
const BLOCK: usize = 20;

/// The fact stream is fixed, like the ledger graph, since the cost of
/// ingesting it depends on how its derivations happen to interlock (after
/// a 1,500-mutation prefix, ten fact streams ranged from 2,100 to 3,100
/// requests/s); the workload seed selects the asks.
pub fn stream(seed: u64) -> (Vec<KbOp>, usize) {
    let mut facts = streams::rng(streams::GRAPH_SEED, 8);
    streams::kb_stream(
        &mut facts,
        &mut streams::rng(seed, 800),
        PREFIX,
        TIMED,
        ASKS,
    )
}

pub fn empty_sharded() -> ShardedClosure {
    ShardedClosure::build(ClosureConfig::new(), &DiGraph::new(), SHARDS)
        .expect("the empty graph is acyclic")
}

/// Daemon start, the rules, the warm prefix and a flush.
fn set_up(lines: &[Vec<u8>]) -> (Daemon, Conn, Vec<String>, f64) {
    let t = Instant::now();
    let daemon = Daemon::start(empty_sharded(), Dict::new());
    let mut conn = daemon.connect();
    let mut answers: Vec<String> = lines
        .iter()
        .map(|l| String::from_utf8_lossy(conn.call(l)).into_owned())
        .collect();
    answers.push(String::from_utf8_lossy(conn.call(b"flush\n")).into_owned());
    (daemon, conn, answers, t.elapsed().as_secs_f64())
}

pub fn run(seed: u64) -> Result<Outcome, String> {
    let (ops, start) = stream(seed);
    let lines: Vec<Vec<u8>> = ops
        .iter()
        .map(|op| format!("{}\n", op.wire).into_bytes())
        .collect();
    let (prefix, timed) = lines.split_at(start);
    // Block boundaries: every BLOCK-th mutation starts a new block.
    let mut cuts = vec![0];
    let mut mutations = 0;
    for (i, op) in ops[start..].iter().enumerate() {
        if op.is_mutation() {
            if mutations > 0 && mutations % BLOCK == 0 {
                cuts.push(i);
            }
            mutations += 1;
        }
    }
    cuts.push(timed.len());

    let mut probe = Probe::start();
    let (mut setup, mut rss) = (Vec::new(), f64::NAN);
    let mut blocks = Vec::new();
    let mut answers = Vec::new();
    let mut flushes = Vec::new();
    for _ in 0..ROUNDS {
        probe.measure();
        let (daemon, mut conn, mut got, secs) = set_up(prefix);
        setup.push(secs);
        let mut round = Vec::new();
        probe.measure();
        for w in cuts.windows(2) {
            let mut b = Block {
                requests: w[1] - w[0],
                ..Block::default()
            };
            let t = Instant::now();
            for i in w[0]..w[1] {
                let sent = Instant::now();
                let resp = conn.call(&timed[i]);
                let ns = sent.elapsed().as_nanos() as u64;
                got.push(String::from_utf8_lossy(resp).into_owned());
                if ops[start + i].is_mutation() {
                    b.writes.push(ns);
                } else {
                    b.reads.push(ns);
                }
            }
            b.wall_ns = t.elapsed().as_nanos() as u64;
            // The daemon publishes in the background on this same CPU; an
            // untimed flush lets that finish, so the probe sees the host
            // and not the publish.
            flushes.push(String::from_utf8_lossy(conn.call(b"flush\n")).into_owned());
            probe.measure();
            round.push(b);
        }
        blocks.push(round);
        answers.push(got);
        if setup.len() == 1 {
            rss = stats::peak_rss_mb();
        }
        drop(conn);
        daemon.stop()?;
    }
    let report = rounds::report(&setup, rss, &blocks, probe.mean_rtt_ns());

    let mut problems = Vec::new();
    let mut failed = 0;
    let mut wire = Vec::new();
    for (r, got) in answers.iter().enumerate() {
        failed += got[start + 1..]
            .iter()
            .filter(|a| !a.starts_with("ok"))
            .count() as u64;
        if got[start] != "ok flushed" {
            problems.push(format!("round {r}: set-up flush answered {:?}", got[start]));
        }
        wire.push(
            got[..start]
                .iter()
                .chain(&got[start + 1..])
                .map(String::as_str)
                .collect(),
        );
    }
    mirror_check(&ops, &wire, &mut problems);
    if let Some(f) = flushes.iter().find(|f| *f != "ok flushed") {
        problems.push(format!("a flush between blocks answered {f:?}"));
    }
    Ok(Outcome {
        report,
        attempted: (ROUNDS * timed.len()) as u64,
        failed,
        problems,
    })
}

/// Replays `ops` on a fresh mirror, comparing the wire answers of every
/// round that sent them with `ok <mirror answer>`, then runs the naive
/// re-derivation gate.
pub fn mirror_check(
    ops: &[KbOp],
    answers: &[Vec<&str>],
    problems: &mut Vec<String>,
) -> KnowledgeBase {
    let mut mirror = KnowledgeBase::new();
    let mut wrong = 0;
    for (i, op) in ops.iter().enumerate() {
        let want = KbCommand::parse(&op.mirror)
            .and_then(|cmd| cmd.execute(&mut mirror))
            .map(|a| format!("ok {a}"))
            .unwrap_or_else(|e| format!("mirror error {e}"));
        for (r, wire) in answers.iter().enumerate() {
            let got = wire.get(i).copied().unwrap_or("(no answer)");
            if got != want {
                wrong += 1;
                if wrong <= 3 {
                    problems.push(format!(
                        "round {r} op {i} {:?}: wire {got:?}, mirror {want:?}",
                        op.wire
                    ));
                }
            }
        }
    }
    if wrong > 0 {
        problems.push(format!("{wrong} KB answers differ from the mirror"));
    }
    let s = mirror.stats();
    if s.cycle_rejected != 0 || s.derive_failed != 0 {
        problems.push(format!(
            "mirror counted {} cycle rejections and {} failed derivations",
            s.cycle_rejected, s.derive_failed
        ));
    }
    if let Err(e) = mirror.check_against_naive() {
        problems.push(format!("naive re-derivation gate: {e}"));
    }
    mirror
}
