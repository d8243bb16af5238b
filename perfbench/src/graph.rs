//! The three graph workloads: `read_resident`, `read_paged`, `write_mix`.
//!
//! Each round sets the daemon up from scratch and sends a fixed number of
//! seeded requests over one connection, storing every response. Only after
//! the rounds end is every stored answer checked against an oracle closure
//! built separately from the same graph.

use std::time::Instant;

use tc_core::{ClosureConfig, CompressedClosure, ShardedClosure};
use tc_graph::{DiGraph, NodeId};
use tc_server::Dict;

use crate::hostspeed::Probe;
use crate::rounds::{self, Block, ROUNDS};
use crate::stats;
use crate::streams::{self, Write, BATCH, NODES};
use crate::wire::{Conn, Daemon};
use crate::Outcome;

/// Buffer-pool pages of the paged daemon: 1/8 of the 69,297 payload pages
/// the ledger graph's plane occupies, so most of the plane is not cached.
pub const POOL_PAGES: usize = 69_297 / 8;

/// Untimed warm-up requests after each set-up.
const WARM_READS: usize = 2_000;
const WARM_BATCHES: usize = 2_500;

/// Timed requests per round, and per block (after each block the host is
/// probed).
const RESIDENT_READS: usize = 30_000;
const RESIDENT_BLOCK: usize = 1_500;
const PAGED_BATCHES: usize = 1_500;
const PAGED_BLOCK: usize = 100;
/// Rounds of the read workloads: more than [`ROUNDS`], since their timed
/// phases are short and their set-ups vary more than the rest.
const READ_ROUNDS: usize = 4;
/// `write_mix` cycles per round (add a pair, then remove it), reads sent
/// while each write's publish runs, and exact reads after its flush.
const CYCLES: usize = 2;
const CYCLE_READS: usize = 40_000;
const CYCLE_EXACT_READS: usize = 16;
/// Host-speed probes taken at each idle point of `write_mix`.
const IDLE_PROBES: usize = 10;

/// Which daemon a graph workload runs against.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Resident,
    Paged,
}

pub fn build_sharded(g: &DiGraph, plane: Plane) -> ShardedClosure {
    let config = match plane {
        Plane::Resident => ClosureConfig::new(),
        Plane::Paged => ClosureConfig::new().paged(POOL_PAGES),
    };
    ShardedClosure::build(config, g, 1).expect("the ledger graph is acyclic")
}

/// The oracle: an unfrozen closure built on its own, answering from its
/// mutable labels rather than any frozen plane.
pub fn oracle(g: &DiGraph) -> CompressedClosure {
    CompressedClosure::build(g).expect("the ledger graph is acyclic")
}

pub fn reaches(o: &CompressedClosure, (a, b): (u32, u32)) -> bool {
    o.reaches(NodeId(a), NodeId(b))
}

/// One response to a read request, reduced to what the checks need.
#[derive(Clone, Copy, Debug)]
enum Answer {
    /// A well-formed `ok` answer: bit i is set when pair i is reachable.
    Bits(u32),
    /// An `err` response or a lost connection: a failed request.
    Failed,
    /// Anything else, such as an answer to fewer or more pairs than were
    /// asked: a wrong answer.
    Malformed,
}

/// Reduces the response to a request of `width` pairs.
fn read_bits(resp: &[u8], width: usize) -> Answer {
    if resp.starts_with(b"err") {
        return Answer::Failed;
    }
    let bits = if width == 1 {
        match resp {
            b"ok true" => Some(1),
            b"ok false" => Some(0),
            _ => None,
        }
    } else {
        resp.strip_prefix(b"ok ").and_then(|rest| {
            let mut bits = 0u32;
            let mut n = 0;
            for tok in rest.split(|&c| c == b' ') {
                match tok {
                    b"1" => bits |= 1 << n,
                    b"0" => {}
                    _ => return None,
                }
                n += 1;
            }
            (n == width).then_some(bits)
        })
    };
    bits.map_or(Answer::Malformed, Answer::Bits)
}

/// Sends every line (each a request of `width` pairs), keeping the
/// answers (and the latencies when asked).
fn drive(
    conn: &mut Conn,
    lines: &[Vec<u8>],
    width: usize,
    lat: Option<&mut Vec<u64>>,
    out: &mut Vec<Answer>,
) {
    match lat {
        Some(lat) => {
            for line in lines {
                let t = Instant::now();
                let resp = conn.call(line);
                lat.push(t.elapsed().as_nanos() as u64);
                out.push(read_bits(resp, width));
            }
        }
        None => {
            for line in lines {
                out.push(read_bits(conn.call(line), width));
            }
        }
    }
}

/// Expected bits of one request's pairs.
fn expect_bits(o: &CompressedClosure, pairs: &[(u32, u32)]) -> u32 {
    pairs
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &p)| acc | (u32::from(reaches(o, p)) << i))
}

/// Compares answers with the oracle; returns (failed, wrong) counts and
/// reports the first few wrong answers.
fn check(
    what: &str,
    answers: &[Answer],
    requests: &[&[(u32, u32)]],
    o: &CompressedClosure,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let (mut failed, mut wrong) = (0, 0);
    for (i, (ans, pairs)) in answers.iter().zip(requests).enumerate() {
        match ans {
            Answer::Failed => failed += 1,
            Answer::Bits(bits) if *bits == expect_bits(o, pairs) => {}
            _ => {
                wrong += 1;
                if wrong <= 3 {
                    problems.push(format!("{what} request {i} {pairs:?}: got {ans:?}"));
                }
            }
        }
    }
    (failed, wrong)
}

/// Generation, build and freeze, daemon start, connect and warm-up.
fn set_up(plane: Plane, warm: &[Vec<u8>], width: usize) -> (Daemon, Conn, Vec<Answer>, f64) {
    let t = Instant::now();
    let g = streams::ledger_graph();
    let daemon = Daemon::start(build_sharded(&g, plane), Dict::with_default_keys(NODES));
    let mut conn = daemon.connect();
    let mut warm_answers = Vec::with_capacity(warm.len());
    drive(&mut conn, warm, width, None, &mut warm_answers);
    (daemon, conn, warm_answers, t.elapsed().as_secs_f64())
}

fn stop(daemon: Daemon, conn: Conn) -> Result<(), String> {
    drop(conn);
    daemon.stop()
}

/// `read_resident` (`Plane::Resident`) and `read_paged` (`Plane::Paged`).
pub fn run_reads(plane: Plane, seed: u64) -> Result<Outcome, String> {
    let (rounds, warm_n, timed_n, block, width) = match plane {
        Plane::Resident => (READ_ROUNDS, WARM_READS, RESIDENT_READS, RESIDENT_BLOCK, 1),
        Plane::Paged => (READ_ROUNDS, WARM_BATCHES, PAGED_BATCHES, PAGED_BLOCK, BATCH),
    };
    let frame = |pairs: &[(u32, u32)]| -> Vec<Vec<u8>> {
        pairs
            .chunks(width)
            .map(|c| {
                if width == 1 {
                    streams::reaches_line(&c[0])
                } else {
                    streams::batch_line(c)
                }
            })
            .collect()
    };
    let stream =
        |purpose: u64, n: usize| streams::pairs(&mut streams::rng(seed, purpose), n * width);
    let warm: Vec<Vec<(u32, u32)>> = (0..rounds)
        .map(|r| stream(100 + r as u64, warm_n))
        .collect();
    let timed: Vec<Vec<(u32, u32)>> = (0..rounds)
        .map(|r| stream(200 + r as u64, timed_n))
        .collect();

    let mut probe = Probe::start();
    let (mut setup, mut rss) = (Vec::new(), f64::NAN);
    let mut blocks = Vec::new();
    let mut answers = Vec::new();
    for r in 0..rounds {
        let (lines, warm_lines) = (frame(&timed[r]), frame(&warm[r]));
        probe.measure();
        let (daemon, mut conn, warm_answers, secs) = set_up(plane, &warm_lines, width);
        setup.push(secs);
        let mut got = Vec::with_capacity(lines.len());
        let mut round = Vec::new();
        probe.measure();
        for chunk in lines.chunks(block) {
            let mut b = Block {
                requests: chunk.len(),
                ..Block::default()
            };
            let t = Instant::now();
            drive(&mut conn, chunk, width, Some(&mut b.reads), &mut got);
            b.wall_ns = t.elapsed().as_nanos() as u64;
            probe.measure();
            round.push(b);
        }
        blocks.push(round);
        answers.push((warm_answers, got));
        if setup.len() == 1 {
            rss = stats::peak_rss_mb();
        }
        stop(daemon, conn)?;
    }
    let report = rounds::report(&setup, rss, &blocks, probe.mean_rtt_ns());

    let o = oracle(&streams::ledger_graph());
    let mut problems = Vec::new();
    let (mut failed, mut wrong) = (0, 0);
    for (r, (warm_answers, got)) in answers.iter().enumerate() {
        for (what, ans, pairs) in [
            ("warm-up", warm_answers, &warm[r]),
            ("timed", got, &timed[r]),
        ] {
            let reqs: Vec<&[(u32, u32)]> = pairs.chunks(width).collect();
            let (f, w) = check(&format!("round {r} {what}"), ans, &reqs, &o, &mut problems);
            failed += f;
            wrong += w;
        }
    }
    if wrong > 0 {
        problems.push(format!("{wrong} answers differ from the oracle"));
    }
    let attempted = (rounds * timed_n) as u64;
    Ok(Outcome {
        report,
        attempted,
        failed,
        problems,
    })
}

/// One round of `write_mix`: per cycle one write, [`CYCLE_READS`] reads
/// while its publish runs, `flush`, then [`CYCLE_EXACT_READS`] reads that
/// must see the write.
struct WriteRound {
    writes: Vec<Write>,
    racing: Vec<(u32, u32)>,
    exact: Vec<(u32, u32)>,
    write_answers: Vec<Vec<u8>>,
    flush_answers: Vec<Vec<u8>>,
    racing_answers: Vec<Answer>,
    exact_answers: Vec<Answer>,
    warm_answers: Vec<Answer>,
}

/// A `write_mix` cycle lasts seconds and the daemon is idle only between
/// cycles, so the host is sampled there with several probes in a row.
fn probe_idle(probe: &mut Probe) {
    for _ in 0..IDLE_PROBES {
        probe.measure();
    }
}

pub fn run_write_mix(seed: u64) -> Result<Outcome, String> {
    let g = streams::ledger_graph();
    let warm_pairs = streams::pairs(&mut streams::rng(seed, 100), WARM_READS);
    let warm: Vec<Vec<u8>> = warm_pairs.iter().map(streams::reaches_line).collect();

    let mut probe = Probe::start();
    let (mut setup, mut rss) = (Vec::new(), f64::NAN);
    let mut blocks = Vec::new();
    let mut done = Vec::new();
    for r in 0..ROUNDS as u64 {
        let mut w = WriteRound {
            writes: streams::write_cycles(&g, &mut streams::rng(seed, 300 + r), CYCLES),
            racing: streams::pairs(&mut streams::rng(seed, 400 + r), CYCLES * CYCLE_READS),
            exact: streams::pairs(&mut streams::rng(seed, 500 + r), CYCLES * CYCLE_EXACT_READS),
            write_answers: Vec::new(),
            flush_answers: Vec::new(),
            racing_answers: Vec::new(),
            exact_answers: Vec::new(),
            warm_answers: Vec::new(),
        };
        let racing_lines: Vec<Vec<u8>> = w.racing.iter().map(streams::reaches_line).collect();
        let exact_lines: Vec<Vec<u8>> = w.exact.iter().map(streams::reaches_line).collect();
        let write_lines: Vec<Vec<u8>> = w.writes.iter().map(Write::line).collect();
        probe.measure();
        let (daemon, mut conn, warm_answers, secs) = set_up(Plane::Resident, &warm, 1);
        setup.push(secs);
        w.warm_answers = warm_answers;
        probe_idle(&mut probe);
        let mut round = Vec::new();
        let cycles = write_lines
            .iter()
            .zip(racing_lines.chunks(CYCLE_READS))
            .zip(exact_lines.chunks(CYCLE_EXACT_READS));
        for ((write, racing), exact) in cycles {
            let mut b = Block {
                requests: 2 + CYCLE_READS + CYCLE_EXACT_READS,
                ..Block::default()
            };
            let sent = Instant::now();
            w.write_answers.push(conn.call(write).to_vec());
            b.writes.push(sent.elapsed().as_nanos() as u64);
            drive(&mut conn, racing, 1, Some(&mut b.reads), &mut w.racing_answers);
            w.flush_answers.push(conn.call(b"flush\n").to_vec());
            b.publishes.push(sent.elapsed().as_nanos() as u64);
            drive(&mut conn, exact, 1, None, &mut w.exact_answers);
            b.wall_ns = sent.elapsed().as_nanos() as u64;
            probe_idle(&mut probe);
            round.push(b);
        }
        blocks.push(round);
        done.push(w);
        if setup.len() == 1 {
            rss = stats::peak_rss_mb();
        }
        stop(daemon, conn)?;
    }
    let report = rounds::report(&setup, rss, &blocks, probe.mean_rtt_ns());

    // Replay each round's writes on the oracle: a racing read may see the
    // graph before or after its cycle's write, an exact read only after.
    // Each round adds a pair and removes it, so the oracle ends every round
    // back on the ledger graph.
    let mut o = oracle(&g);
    let mut problems = Vec::new();
    let (mut failed, mut wrong) = (0u64, 0u64);
    let warm_reqs: Vec<&[(u32, u32)]> = warm_pairs.chunks(1).collect();
    for (r, w) in done.iter().enumerate() {
        let (f, x) = check(
            &format!("round {r} warm-up"),
            &w.warm_answers,
            &warm_reqs,
            &o,
            &mut problems,
        );
        failed += f;
        wrong += x;
        for (c, write) in w.writes.iter().enumerate() {
            let span = c * CYCLE_READS..(c + 1) * CYCLE_READS;
            let before: Vec<bool> = w.racing[span.clone()]
                .iter()
                .map(|&p| reaches(&o, p))
                .collect();
            let (src, dst) = (NodeId(write.src), NodeId(write.dst));
            let applied = if write.add {
                o.add_edge(src, dst).map(|_| ())
            } else {
                o.remove_edge(src, dst)
            };
            applied.map_err(|e| format!("oracle rejected round {r} cycle {c}'s write: {e}"))?;
            let mut bad = |msg: String| {
                wrong += 1;
                if wrong <= 3 {
                    problems.push(format!("round {r} cycle {c}: {msg}"));
                }
            };
            if w.write_answers[c] != write.expected() {
                bad(format!(
                    "write answered {:?}",
                    String::from_utf8_lossy(&w.write_answers[c])
                ));
            }
            if w.flush_answers[c] != b"ok flushed" {
                bad(format!(
                    "flush answered {:?}",
                    String::from_utf8_lossy(&w.flush_answers[c])
                ));
            }
            for (k, i) in span.enumerate() {
                match w.racing_answers[i] {
                    Answer::Failed => failed += 1,
                    Answer::Bits(b)
                        if (b == 1) == before[k] || (b == 1) == reaches(&o, w.racing[i]) => {}
                    a => bad(format!("racing read {:?} answered {a:?}", w.racing[i])),
                }
            }
            for i in c * CYCLE_EXACT_READS..(c + 1) * CYCLE_EXACT_READS {
                match w.exact_answers[i] {
                    Answer::Failed => failed += 1,
                    Answer::Bits(b) if (b == 1) == reaches(&o, w.exact[i]) => {}
                    a => bad(format!("read after flush {:?} answered {a:?}", w.exact[i])),
                }
            }
        }
    }
    if wrong > 0 {
        problems.push(format!("{wrong} answers differ from the oracle"));
    }
    let attempted = (ROUNDS * CYCLES * (2 + CYCLE_READS + CYCLE_EXACT_READS)) as u64;
    Ok(Outcome {
        report,
        attempted,
        failed,
        problems,
    })
}
