//! The layer sweep (`--trace 1`).
//!
//! It replays the seeded streams of all four workloads through
//! progressively deeper public entry points, timing every call as a span
//! (name, request, start, end, parent):
//!
//! * reads: the wire round trip, `Engine::handle`, `tc_server::parse` and
//!   `Dict::resolve`, `ShardedReader::reaches`, `ServiceSnapshot::reaches`,
//!   then `QueryPlane::reaches` (resident) or `PagedPlane::reaches` with
//!   its I/O counters (paged);
//! * writes: a wire write and flush, `Engine::handle` of a write and a
//!   flush, `ShardedService::submit_with_outcome` and `flush`,
//!   `ClosureService` submit and flush, `CompressedClosure::add_edge` /
//!   `remove_edge`, and `CompressedClosure::freeze`;
//! * the KB: `Engine::handle` of every KB verb, then
//!   `KnowledgeBase::assert_fact` / `retract_fact` / `ask` with the
//!   `KbStats` deltas, forwarding the journal into a two-shard service to
//!   size its boundary closure.
//!
//! A span's parent is the span of the layer above for the same request,
//! so a layer's self time is its span minus its children's. Each read
//! layer is replayed twice and only the second, warm pass is kept. The spans
//! are written to `<out>/spans-<workload>-seed<seed>.tsv`. Every layer's
//! answers are checked against the oracle, like the workloads' answers.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tc_core::{
    ClosureService, CompressedClosure, ServiceConfig, ServiceOp, ServiceSnapshot, ShardedService,
};
use tc_graph::NodeId;
use tc_kb::{AssertOutcome, KbChange, KnowledgeBase, Pred, RetractOutcome};
use tc_server::{Dict, Engine, EngineConfig, Request};

use crate::graph::{self, Plane, POOL_PAGES};
use crate::kb;
use crate::stats::{self, Report};
use crate::streams::{self, KbKind, BATCH, NODES};
use crate::wire::Daemon;
use crate::Outcome;

/// Requests per layer replay.
const READS: usize = 10_000;
const BATCHES: usize = 500;
const WARM_BATCHES: usize = 2_500;
/// Publish cycles (each publishes on the wire, the engine, the sharded
/// service and the closure service, and freezes the oracle once).
const CYCLES: usize = 2;
/// Extra add/remove pairs applied to the oracle for `updates.apply`.
const APPLY_PAIRS: usize = 100;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    req: u32,
    start: u64,
    end: u64,
    parent: u32,
}

/// Spans kept in memory; durations have the timer's own cost removed.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    overhead: u64,
}

impl Tracer {
    fn new() -> Tracer {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 19),
            overhead: 0,
        };
        for i in 0..20_000 {
            t.time("calibrate", i, NONE, || ());
        }
        let mut d: Vec<u64> = t.spans.iter().map(|s| s.end - s.start).collect();
        d.sort_unstable();
        t.overhead = d[d.len() / 2];
        t.spans.clear();
        t
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn time<T>(
        &mut self,
        name: &'static str,
        req: usize,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let v = f();
        let end = self.now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            req: req as u32,
            start,
            end,
            parent,
        });
        (v, id)
    }

    /// Opens a span whose children are timed before [`Tracer::close`].
    fn open(&mut self, name: &'static str, req: usize, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            req: req as u32,
            start,
            end: start,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.now();
    }

    /// Runs `pass` twice over the same requests and keeps only the
    /// second pass's spans: the first, untimed in effect, warms the caches.
    /// Returns the span ids `pass` returned for the kept pass.
    fn warmed(&mut self, mut pass: impl FnMut(&mut Tracer) -> Vec<u32>) -> Vec<u32> {
        let mark = self.spans.len();
        pass(self);
        self.spans.truncate(mark);
        pass(self)
    }

    fn dur(&self, s: &Span) -> u64 {
        (s.end - s.start).saturating_sub(self.overhead)
    }

    /// Sorted durations of every span called `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.dur(s))
            .collect();
        d.sort_unstable();
        d
    }

    /// Per request: the summed self time (span minus children) of every
    /// span called `name`, sorted.
    fn self_by_request(&self, name: &str) -> Vec<i64> {
        let mut children: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize] += self.dur(s);
            }
        }
        let mut per_req: HashMap<u32, i64> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *per_req.entry(s.req).or_default() += self.dur(s) as i64 - children[i] as i64;
            }
        }
        let mut v: Vec<i64> = per_req.into_values().collect();
        v.sort_unstable();
        v
    }

    fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\treq\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.name, s.req, s.start, s.end
            )?;
        }
        f.flush()
    }
}

fn median_i(v: &[i64]) -> f64 {
    stats::median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Per-layer percentile: the sample count is printed with it; the rule of
/// ten samples beyond applies to the end-to-end metrics only.
fn layer_pct(
    report: &mut Report,
    name: &str,
    sorted: &[u64],
    p: f64,
    div: f64,
    unit: &'static str,
) {
    report.pct_beyond(name, sorted, p, div, unit, 1);
}

/// Checks and counts as the sweep goes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            if self.wrong <= 5 {
                self.problems.push(what());
            }
        }
    }
}

fn line_text(line: &[u8]) -> &str {
    std::str::from_utf8(line)
        .expect("request lines are ASCII")
        .trim_end()
}

fn reach_answer(b: bool) -> &'static str {
    if b {
        "ok true"
    } else {
        "ok false"
    }
}

fn batch_answer(bits: &[bool]) -> String {
    let mut s = String::from("ok");
    for &b in bits {
        s.push_str(if b { " 1" } else { " 0" });
    }
    s
}

pub fn sweep(workload: &str, seed: u64, out: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut report = Report::default();
    let mut ck = Checks::default();
    let g = streams::ledger_graph();

    // The oracle answers every stream before anything is frozen.
    let mut c = graph::oracle(&g);
    let reads = streams::pairs(&mut streams::rng(seed, 200), READS);
    let warm_pairs = streams::pairs(&mut streams::rng(seed, 100), WARM_BATCHES * BATCH);
    let batch_pairs = streams::pairs(&mut streams::rng(seed, 200), BATCHES * BATCH);
    let expect_reads: Vec<bool> = reads.iter().map(|&p| graph::reaches(&c, p)).collect();
    let expect_batch: Vec<bool> = batch_pairs.iter().map(|&p| graph::reaches(&c, p)).collect();

    // ---- resident reads ------------------------------------------------
    let daemon = Daemon::start(
        graph::build_sharded(&g, Plane::Resident),
        Dict::with_default_keys(NODES),
    );
    let mut conn = daemon.connect();
    let lines: Vec<Vec<u8>> = reads.iter().map(streams::reaches_line).collect();
    let keys: Vec<(String, String)> = reads
        .iter()
        .map(|&(a, b)| (format!("n{a}"), format!("n{b}")))
        .collect();
    // Each request goes out twice in a row, once as a span and once timed
    // plainly, alternating which goes first, so the tracing overhead is
    // measured under the same conditions as the span.
    let mut plain_passes: Vec<Vec<u64>> = Vec::new();
    let wire_ids = tr.warmed(|tr| {
        let mut plain = Vec::with_capacity(READS);
        let mut ids = Vec::with_capacity(READS);
        for (i, l) in lines.iter().enumerate() {
            let want = reach_answer(expect_reads[i]).as_bytes();
            let mut ok = true;
            for traced in [i % 2 == 0, i % 2 == 1] {
                if traced {
                    let (r, id) = tr.time("wire.reaches", i, NONE, || conn.call(l) == want);
                    ok &= r;
                    ids.push(id);
                } else {
                    let t = Instant::now();
                    ok &= conn.call(l) == want;
                    plain.push(t.elapsed().as_nanos() as u64);
                }
            }
            ck.expect(ok, || format!("wire read {i}"));
        }
        plain_passes.push(plain);
        ids
    });
    let mut untraced = plain_passes.pop().expect("the kept pass's plain timings");
    untraced.sort_unstable();
    let engine = Arc::clone(daemon.engine());
    let mut reader = engine.reader();
    let engine_ids = tr.warmed(|tr| {
        let mut ids = Vec::with_capacity(READS);
        for (i, l) in lines.iter().enumerate() {
            let (resp, id) = tr.time("engine.read", i, wire_ids[i], || {
                engine.handle(&mut reader, line_text(l))
            });
            ids.push(id);
            ck.expect(resp == reach_answer(expect_reads[i]), || {
                format!("Engine::handle read {i}: {resp}")
            });
        }
        ids
    });
    tr.warmed(|tr| {
        for (i, l) in lines.iter().enumerate() {
            let (req, _) = tr.time("proto.parse", i, engine_ids[i], || {
                tc_server::parse(line_text(l))
            });
            let (ka, kb) = (keys[i].0.as_str(), keys[i].1.as_str());
            ck.expect(
                matches!(req, Ok(Request::Reaches(a, b)) if a == ka && b == kb),
                || format!("parse of read {i}"),
            );
        }
        Vec::new()
    });
    let dict = Dict::with_default_keys(NODES);
    tr.warmed(|tr| {
        for (i, (ka, kb)) in keys.iter().enumerate() {
            let (ia, _) = tr.time("dict.resolve", i, engine_ids[i], || dict.resolve(ka));
            let (ib, _) = tr.time("dict.resolve", i, engine_ids[i], || dict.resolve(kb));
            ck.expect(
                ia == Some(NodeId(reads[i].0)) && ib == Some(NodeId(reads[i].1)),
                || format!("Dict::resolve {i}"),
            );
        }
        Vec::new()
    });
    let mut shard_reader = engine.reader();
    let shard_ids = tr.warmed(|tr| {
        let mut ids = Vec::with_capacity(READS);
        for (i, &(a, b)) in reads.iter().enumerate() {
            let (r, id) = tr.time("shard.reaches", i, engine_ids[i], || {
                shard_reader.reaches(NodeId(a), NodeId(b))
            });
            ids.push(id);
            ck.expect(r == expect_reads[i], || {
                format!("ShardedReader::reaches {i}")
            });
        }
        ids
    });
    // A closure service over the oracle's closure: its snapshot is the
    // `ServiceSnapshot` layer, and later its writer is the publish layer.
    let service = ClosureService::start(c.clone(), ServiceConfig::new());
    let snap = service.reader().snapshot();
    let snap_ids = tr.warmed(|tr| {
        let mut ids = Vec::with_capacity(READS);
        for (i, &(a, b)) in reads.iter().enumerate() {
            let (r, id) = tr.time("serve.snapshot_reaches", i, shard_ids[i], || {
                snap.reaches(NodeId(a), NodeId(b))
            });
            ids.push(id);
            ck.expect(r == expect_reads[i], || {
                format!("ServiceSnapshot::reaches {i}")
            });
        }
        ids
    });
    drop(snap);
    tr.time("plane.freeze", 0, NONE, || c.freeze());
    let plane = c
        .plane()
        .ok_or("the oracle did not freeze a resident plane")?;
    tr.warmed(|tr| {
        for (i, &(a, b)) in reads.iter().enumerate() {
            let (r, _) = tr.time("plane.reaches", i, snap_ids[i], || {
                plane.reaches(NodeId(a), NodeId(b))
            });
            ck.expect(r == expect_reads[i], || format!("QueryPlane::reaches {i}"));
        }
        Vec::new()
    });
    report.value(
        "plane.intervals",
        plane.total_intervals() as f64,
        "count",
        None,
    );
    report.value(
        "plane.bitset_rows",
        plane.bitset_rows() as f64,
        "count",
        None,
    );

    // ---- paged reads ---------------------------------------------------
    // Every pass through a layer that reaches the pool first refills it
    // with the warm-up stream, as the workload's set-up does, so each
    // replays the batches against the same pool state.
    let warm_lines: Vec<Vec<u8>> = warm_pairs.chunks(BATCH).map(streams::batch_line).collect();
    let batch_lines: Vec<Vec<u8>> = batch_pairs.chunks(BATCH).map(streams::batch_line).collect();
    let batch_expect: Vec<String> = expect_batch.chunks(BATCH).map(batch_answer).collect();
    let warm_ids: Vec<(NodeId, NodeId)> = warm_pairs
        .iter()
        .map(|&(a, b)| (NodeId(a), NodeId(b)))
        .collect();
    let batch_ids: Vec<(NodeId, NodeId)> = batch_pairs
        .iter()
        .map(|&(a, b)| (NodeId(a), NodeId(b)))
        .collect();
    let pdaemon = Daemon::start(
        graph::build_sharded(&g, Plane::Paged),
        Dict::with_default_keys(NODES),
    );
    let mut pconn = pdaemon.connect();
    let mut untraced_batch = Vec::with_capacity(BATCHES);
    for l in &warm_lines {
        pconn.call(l);
    }
    for (i, l) in batch_lines.iter().enumerate() {
        let t = Instant::now();
        let ok = pconn.call(l) == batch_expect[i].as_bytes();
        untraced_batch.push(t.elapsed().as_nanos() as u64);
        ck.expect(ok, || format!("untraced wire batch {i}"));
    }
    untraced_batch.sort_unstable();
    let bwire_ids = tr.warmed(|tr| {
        for l in &warm_lines {
            pconn.call(l);
        }
        let mut ids = Vec::with_capacity(BATCHES);
        for (i, l) in batch_lines.iter().enumerate() {
            let (ok, id) = tr.time("wire.reaches_batch", i, NONE, || {
                pconn.call(l) == batch_expect[i].as_bytes()
            });
            ids.push(id);
            ck.expect(ok, || format!("traced wire batch {i}"));
        }
        ids
    });
    let pengine = Arc::clone(pdaemon.engine());
    let mut preader = pengine.reader();
    let bengine_ids = tr.warmed(|tr| {
        for l in &warm_lines {
            pengine.handle(&mut preader, line_text(l));
        }
        let mut ids = Vec::with_capacity(BATCHES);
        for (i, l) in batch_lines.iter().enumerate() {
            let (resp, id) = tr.time("engine.read_batch", i, bwire_ids[i], || {
                pengine.handle(&mut preader, line_text(l))
            });
            ids.push(id);
            ck.expect(resp == batch_expect[i], || {
                format!("Engine::handle batch {i}")
            });
        }
        ids
    });
    tr.warmed(|tr| {
        for (i, l) in batch_lines.iter().enumerate() {
            let (req, _) = tr.time("proto.parse_batch", i, bengine_ids[i], || {
                tc_server::parse(line_text(l))
            });
            ck.expect(
                matches!(req, Ok(Request::ReachesBatch(ref k)) if k.len() == BATCH),
                || format!("parse of batch {i}"),
            );
        }
        Vec::new()
    });
    tr.warmed(|tr| {
        for (j, &(a, b)) in batch_ids.iter().enumerate() {
            let i = j / BATCH;
            let (ka, kb) = (format!("n{}", a.0), format!("n{}", b.0));
            let (ia, _) = tr.time("dict.resolve_batch", i, bengine_ids[i], || {
                dict.resolve(&ka)
            });
            let (ib, _) = tr.time("dict.resolve_batch", i, bengine_ids[i], || {
                dict.resolve(&kb)
            });
            ck.expect(ia == Some(a) && ib == Some(b), || {
                format!("resolve batch {i}")
            });
        }
        Vec::new()
    });
    let mut psreader = pengine.reader();
    let bshard_ids = tr.warmed(|tr| {
        psreader.reaches_batch(&warm_ids);
        let mut ids = Vec::with_capacity(BATCHES);
        for (i, pairs) in batch_ids.chunks(BATCH).enumerate() {
            let (bits, id) = tr.time("shard.reaches_batch", i, bengine_ids[i], || {
                psreader.reaches_batch(pairs)
            });
            ids.push(id);
            ck.expect(bits == expect_batch[i * BATCH..(i + 1) * BATCH], || {
                format!("ShardedReader::reaches_batch {i}")
            });
        }
        ids
    });
    drop((pconn, preader, psreader, pengine));
    pdaemon.stop()?;

    c.set_paged_pool(POOL_PAGES);
    c.freeze();
    let pplane = Arc::clone(
        c.paged_plane()
            .ok_or("the oracle did not freeze a paged plane")?,
    );
    let psnap = ServiceSnapshot::capture(&c);
    let bsnap_ids = tr.warmed(|tr| {
        pplane.reset_io();
        for &(a, b) in &warm_ids {
            psnap.reaches(a, b);
        }
        let mut ids = Vec::with_capacity(BATCHES * BATCH);
        for (j, &(a, b)) in batch_ids.iter().enumerate() {
            let i = j / BATCH;
            let (r, id) = tr.time("serve.snapshot_reaches_paged", i, bshard_ids[i], || {
                psnap.reaches(a, b)
            });
            ids.push(id);
            ck.expect(r == expect_batch[j], || {
                format!("paged ServiceSnapshot::reaches {j}")
            });
        }
        ids
    });
    let mut io_passes = Vec::new();
    tr.warmed(|tr| {
        pplane.reset_io();
        for &(a, b) in &warm_ids {
            pplane.reaches(a, b);
        }
        let before = pplane.io_stats();
        for (j, &(a, b)) in batch_ids.iter().enumerate() {
            let (r, _) = tr.time("paged.reaches", j / BATCH, bsnap_ids[j], || {
                pplane.reaches(a, b)
            });
            ck.expect(r == expect_batch[j], || format!("PagedPlane::reaches {j}"));
        }
        io_passes.push((before, pplane.io_stats()));
        Vec::new()
    });
    let (before, after) = *io_passes.last().expect("the kept pass's I/O counters");
    let probes = batch_ids.len() as f64;
    let hits = (after.pool.hits - before.pool.hits) as f64;
    let misses = (after.pool.misses - before.pool.misses) as f64;
    report.value(
        "plane.payload_pages",
        pplane.payload_pages() as f64,
        "pages",
        None,
    );
    report.value(
        "pager.reads_per_probe",
        (after.page_reads - before.page_reads) as f64 / probes,
        "pages/probe",
        Some(batch_ids.len()),
    );
    report.value(
        "pager.hit_ratio",
        hits / (hits + misses),
        "ratio",
        Some((hits + misses) as usize),
    );
    report.value(
        "pager.evictions_per_probe",
        (after.pool.evictions - before.pool.evictions) as f64 / probes,
        "pages/probe",
        Some(batch_ids.len()),
    );
    drop((psnap, pplane));
    c.set_paged_pool(0);
    c.thaw();

    // ---- writes --------------------------------------------------------
    let writes = streams::write_cycles(&g, &mut streams::rng(seed, 300), 2 * CYCLES);
    let probe = streams::pairs(&mut streams::rng(seed, 600), 16);
    let sharded = ShardedService::start(
        graph::build_sharded(&g, Plane::Resident),
        ServiceConfig::new(),
    );
    let extra = streams::write_cycles(&g, &mut streams::rng(seed, 700), 2 * APPLY_PAIRS);
    for (i, w) in extra.iter().enumerate() {
        let (r, _) = tr.time("updates.apply", i, NONE, || apply(&mut c, w));
        ck.expect(r.is_ok(), || format!("oracle apply {i}: {r:?}"));
    }
    for k in 0..CYCLES {
        let w = writes[2 * k];
        let (src, dst) = (NodeId(w.src), NodeId(w.dst));
        // On the daemon, the wire adds the arc and the engine removes it
        // again, so each publishes once and the graph returns to the ledger.
        let p = tr.open("wire.publish", k, NONE);
        let (a1, _) = tr.time("wire.write", k, p, || conn.call(&w.line()).to_vec());
        let (a2, _) = tr.time("wire.flush", k, p, || conn.call(b"flush\n").to_vec());
        tr.close(p);
        ck.expect(a1 == b"ok added" && a2 == b"ok flushed", || {
            format!("wire publish {k}")
        });
        let seen = conn.call(format!("reaches n{} n{}\n", w.src, w.dst).as_bytes()) == b"ok true";
        ck.expect(seen, || format!("wire read after publish {k}"));
        let undo = writes[2 * k + 1];
        let p = tr.open("engine.publish", k, NONE);
        let (e1, _) = tr.time("engine.write", k, p, || {
            engine.handle(&mut reader, line_text(&undo.line()))
        });
        let (e2, _) = tr.time("engine.flush", k, p, || engine.handle(&mut reader, "flush"));
        tr.close(p);
        ck.expect(e1 == "ok removed" && e2 == "ok flushed", || {
            format!("engine publish {k}: {e1} {e2}")
        });

        let p = tr.open("shard.publish", k, NONE);
        let (s1, _) = tr.time("shard.submit", k, p, || {
            sharded.submit_with_outcome(ServiceOp::AddEdge { src, dst })
        });
        tr.time("shard.flush", k, p, || sharded.flush());
        tr.close(p);
        ck.expect(
            matches!(s1, Ok((_, tc_core::SubmitOutcome::Routed { .. }))),
            || format!("shard submit {k}"),
        );
        let p = tr.open("serve.publish", k, NONE);
        let (s2, _) = tr.time("serve.submit", k, p, || {
            service.submit(ServiceOp::AddEdge { src, dst })
        });
        tr.time("serve.flush", k, p, || service.flush());
        tr.close(p);
        ck.expect(s2.is_ok(), || format!("service submit {k}"));
        let (r, _) = tr.time("updates.apply", 2 * APPLY_PAIRS + k, NONE, || {
            apply(&mut c, &w)
        });
        ck.expect(r.is_ok(), || format!("oracle apply cycle {k}: {r:?}"));
        let mut want: Vec<((u32, u32), bool)> =
            probe.iter().map(|&q| (q, graph::reaches(&c, q))).collect();
        want.push(((w.src, w.dst), true));
        tr.time("plane.freeze", k + 1, NONE, || c.freeze());
        let (mut sr, mut cr) = (sharded.reader(), service.reader());
        for &((a, b), r) in &want {
            ck.expect(sr.reaches(NodeId(a), NodeId(b)) == r, || {
                format!("sharded service read after cycle {k}")
            });
            ck.expect(cr.reaches(NodeId(a), NodeId(b)) == r, || {
                format!("closure service read after cycle {k}")
            });
            ck.expect(c.reaches(NodeId(a), NodeId(b)) == r, || {
                format!("refrozen plane read after cycle {k}")
            });
        }
    }
    drop((conn, reader, shard_reader, engine, service, sharded));
    daemon.stop()?;

    // ---- knowledge base ------------------------------------------------
    let (ops, start) = kb::stream(seed);
    let kengine = Engine::start(kb::empty_sharded(), Dict::new(), EngineConfig::default());
    let mut kreader = kengine.reader();
    let mut wire_answers = Vec::with_capacity(ops.len());
    let mut kengine_ids = vec![NONE; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let name = match op.kind {
            KbKind::Ask => "engine.ask",
            KbKind::Assert | KbKind::Retract => "engine.kb_write",
            KbKind::Rule => "engine.rule",
        };
        let name = if i < start && op.kind != KbKind::Rule {
            "engine.kb_write_prefix"
        } else {
            name
        };
        let (resp, id) = tr.time(name, i, NONE, || kengine.handle(&mut kreader, &op.wire));
        kengine_ids[i] = id;
        wire_answers.push(resp);
    }
    drop(kreader);
    kengine.close();
    let all: Vec<&str> = wire_answers.iter().map(String::as_str).collect();
    kb::mirror_check(&ops, &[all], &mut ck.problems);
    ck.attempted += ops.len() as u64;

    let mut base = KnowledgeBase::new();
    let boundary = ShardedService::start(kb::empty_sharded(), ServiceConfig::new());
    let mut node_of: HashMap<u32, NodeId> = HashMap::new();
    let (mut derived, mut overdeleted, mut rederived, mut mutations) = (0u64, 0u64, 0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let words: Vec<&str> = op.mirror.split_whitespace().collect();
        let parent = kengine_ids[i];
        let answer = match op.kind {
            KbKind::Rule => base
                .define_rule(&op.mirror["rule ".len()..])
                .map(|n| format!("ok rule {n}")),
            KbKind::Assert | KbKind::Retract | KbKind::Ask => {
                let pred = Pred::parse(words[1]).ok_or("stream relation")?;
                let (a, b) = (words[2], words[3]);
                let s0 = base.stats();
                // The warm prefix is replayed untimed-by-name, like the
                // workload's set-up; the metrics cover the timed part.
                let timed = i >= start;
                let name = |n: &'static str| if timed { n } else { "kb.prefix" };
                let r = match op.kind {
                    KbKind::Assert => tr
                        .time(name("kb.assert"), i, parent, || {
                            base.assert_fact(pred, a, b)
                        })
                        .0
                        .map(|o| match o {
                            AssertOutcome::Applied => "ok applied",
                            AssertOutcome::Noop => "ok noop",
                            AssertOutcome::CycleRejected => "ok rejected",
                        })
                        .map(str::to_owned),
                    KbKind::Retract => tr
                        .time(name("kb.retract"), i, parent, || {
                            base.retract_fact(pred, a, b)
                        })
                        .0
                        .map(|o| match o {
                            RetractOutcome::Removed => "ok removed",
                            RetractOutcome::KeptDerived => "ok kept-derived",
                        })
                        .map(str::to_owned),
                    _ => tr
                        .time(name("kb.ask"), i, parent, || base.ask(pred, a, b))
                        .0
                        .map(|v| format!("ok {v}")),
                };
                if op.is_mutation() && timed {
                    let s1 = base.stats();
                    derived += s1.derived - s0.derived;
                    overdeleted += s1.overdeleted - s0.overdeleted;
                    rederived += s1.rederived - s0.rederived;
                    mutations += 1;
                }
                r
            }
        };
        let answer = answer.map_err(|e| format!("KB op {i} {:?}: {e}", op.mirror))?;
        ck.expect(answer == wire_answers[i], || {
            format!("KB op {i}: {answer} vs engine {}", wire_answers[i])
        });
        forward(&mut base, &boundary, &mut node_of)?;
    }
    let (_, kb_sharded) = boundary.shutdown();

    // ---- metrics -------------------------------------------------------
    let wire = tr.durations("wire.reaches");
    layer_pct(&mut report, "server.rtt_p50_ns", &wire, 0.5, 1.0, "ns");
    report.value(
        "server.self_p50_ns",
        median_i(&tr.self_by_request("wire.reaches")),
        "ns",
        Some(READS),
    );
    layer_pct(
        &mut report,
        "engine.read_p50_ns",
        &tr.durations("engine.read"),
        0.5,
        1.0,
        "ns",
    );
    report.value(
        "engine.write_p50_ns",
        stats::median_u64(&tr.durations("engine.write")),
        "ns",
        Some(CYCLES),
    );
    layer_pct(
        &mut report,
        "engine.kb_write_p50_ns",
        &tr.durations("engine.kb_write"),
        0.5,
        1.0,
        "ns",
    );
    let asks = tr.durations("engine.ask");
    layer_pct(&mut report, "engine.ask_p50_ns", &asks, 0.5, 1.0, "ns");
    layer_pct(&mut report, "engine.ask_p99_ns", &asks, 0.99, 1.0, "ns");
    layer_pct(
        &mut report,
        "proto.parse_p50_ns",
        &tr.durations("proto.parse"),
        0.5,
        1.0,
        "ns",
    );
    layer_pct(
        &mut report,
        "dict.resolve_p50_ns",
        &tr.durations("dict.resolve"),
        0.5,
        1.0,
        "ns",
    );
    layer_pct(
        &mut report,
        "shard.reaches_p50_ns",
        &tr.durations("shard.reaches"),
        0.5,
        1.0,
        "ns",
    );
    report.value(
        "shard.submit_p50_ns",
        stats::median_u64(&tr.durations("shard.submit")),
        "ns",
        Some(CYCLES),
    );
    report.value(
        "shard.flush_p50_ms",
        stats::median_u64(&tr.durations("shard.flush")) / 1e6,
        "ms",
        Some(CYCLES),
    );
    report.value(
        "shard.boundary_nodes",
        kb_sharded.boundary_size() as f64,
        "count",
        None,
    );
    layer_pct(
        &mut report,
        "serve.snapshot_reaches_p50_ns",
        &tr.durations("serve.snapshot_reaches"),
        0.5,
        1.0,
        "ns",
    );
    report.value(
        "serve.publish_p50_ms",
        stats::median_u64(&tr.durations("serve.publish")) / 1e6,
        "ms",
        Some(CYCLES),
    );
    layer_pct(
        &mut report,
        "plane.reaches_p50_ns",
        &tr.durations("plane.reaches"),
        0.5,
        1.0,
        "ns",
    );
    let freezes = tr.durations("plane.freeze");
    report.value(
        "plane.freeze_ms",
        stats::median_u64(&freezes) / 1e6,
        "ms",
        Some(freezes.len()),
    );
    let paged = tr.durations("paged.reaches");
    layer_pct(&mut report, "paged.reaches_p50_ns", &paged, 0.5, 1.0, "ns");
    layer_pct(&mut report, "paged.reaches_p99_ns", &paged, 0.99, 1.0, "ns");
    layer_pct(
        &mut report,
        "updates.apply_p50_us",
        &tr.durations("updates.apply"),
        0.5,
        1e3,
        "us",
    );
    let asserts = tr.durations("kb.assert");
    let retracts = tr.durations("kb.retract");
    layer_pct(&mut report, "kb.assert_p50_us", &asserts, 0.5, 1e3, "us");
    layer_pct(&mut report, "kb.assert_p99_us", &asserts, 0.99, 1e3, "us");
    layer_pct(&mut report, "kb.retract_p50_us", &retracts, 0.5, 1e3, "us");
    layer_pct(&mut report, "kb.retract_p99_us", &retracts, 0.99, 1e3, "us");
    layer_pct(
        &mut report,
        "kb.ask_p50_ns",
        &tr.durations("kb.ask"),
        0.5,
        1.0,
        "ns",
    );
    let per_op = |x: u64| x as f64 / mutations.max(1) as f64;
    report.value(
        "kb.derived_per_op",
        per_op(derived),
        "facts/op",
        Some(mutations as usize),
    );
    report.value(
        "kb.overdeleted_per_op",
        per_op(overdeleted),
        "facts/op",
        Some(mutations as usize),
    );
    report.value(
        "kb.rederived_per_op",
        per_op(rederived),
        "facts/op",
        Some(mutations as usize),
    );
    report.value(
        "kb.rederive_ratio",
        rederived as f64 / overdeleted.max(1) as f64,
        "ratio",
        None,
    );

    // A probe that hits the pool costs about the median probe; the mean
    // carries the misses on top, so their average cost is the difference
    // spread over the page reads per probe.
    let reads_per_probe = report.get("pager.reads_per_probe").unwrap_or(f64::NAN);
    let mean = paged.iter().sum::<u64>() as f64 / paged.len().max(1) as f64;
    println!(
        "paged probes: mean {mean:.0} ns, p50 {:.0} ns, {reads_per_probe:.4} page reads per probe: about {:.0} us per pool miss",
        stats::median_u64(&paged),
        (mean - stats::median_u64(&paged)) / reads_per_probe / 1e3
    );
    let traced_p50 = stats::median_u64(&wire);
    let untraced_p50 = stats::median_u64(&untraced);
    println!(
        "timer cost {} ns per span (subtracted); tracing overhead on the wire p50: traced {:.0} ns - untraced {:.0} ns = {:+.0} ns",
        tr.overhead,
        traced_p50,
        untraced_p50,
        traced_p50 - untraced_p50
    );
    accounting(
        &tr,
        "read_resident: reaches",
        "wire.reaches",
        &[
            ("server", "wire.reaches"),
            ("engine", "engine.read"),
            ("proto.parse", "proto.parse"),
            ("dict.resolve x2", "dict.resolve"),
            ("shard", "shard.reaches"),
            ("serve.snapshot", "serve.snapshot_reaches"),
            ("plane.reaches", "plane.reaches"),
        ],
        1.0,
        "ns",
    );
    println!(
        "  untraced wire p50 {untraced_p50:.0} ns (n={})",
        untraced.len()
    );
    accounting(
        &tr,
        "read_paged: reaches-batch of 16",
        "wire.reaches_batch",
        &[
            ("server", "wire.reaches_batch"),
            ("engine", "engine.read_batch"),
            ("proto.parse", "proto.parse_batch"),
            ("dict.resolve x32", "dict.resolve_batch"),
            ("shard", "shard.reaches_batch"),
            ("serve.snapshot x16", "serve.snapshot_reaches_paged"),
            ("paged.reaches x16", "paged.reaches"),
        ],
        1e3,
        "us",
    );
    println!(
        "  untraced wire p50 {:.1} us (n={})",
        stats::median_u64(&untraced_batch) / 1e3,
        untraced_batch.len()
    );
    write_accounting(&tr);

    let path = out.join(format!("spans-{workload}-seed{seed}.tsv"));
    tr.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans written to {}", tr.spans.len(), path.display());
    if ck.wrong > 0 {
        ck.problems
            .push(format!("{} layer answers differ from the oracle", ck.wrong));
    }
    // Every answer is compared with the oracle, so an `err` response counts
    // as a wrong one.
    Ok(Outcome {
        report,
        attempted: ck.attempted,
        failed: 0,
        problems: ck.problems,
    })
}

fn apply(c: &mut CompressedClosure, w: &streams::Write) -> Result<(), String> {
    let (s, d) = (NodeId(w.src), NodeId(w.dst));
    let r = if w.add {
        c.add_edge(s, d).map(|_| ())
    } else {
        c.remove_edge(s, d)
    };
    r.map_err(|e| e.to_string())
}

/// Forwards the KB journal into a sharded service the way the daemon's
/// engine does: concepts become nodes, IS-A arc changes become edge ops.
fn forward(
    kb: &mut KnowledgeBase,
    svc: &ShardedService,
    node_of: &mut HashMap<u32, NodeId>,
) -> Result<(), String> {
    for change in kb.take_journal() {
        let op = match change {
            KbChange::NewConcept { id, .. } => {
                match svc.submit_with_outcome(ServiceOp::AddNode { parents: vec![] }) {
                    Ok((_, tc_core::SubmitOutcome::Routed { new_node: Some(n) })) => {
                        node_of.insert(id, n);
                    }
                    other => return Err(format!("concept node rejected: {other:?}")),
                }
                continue;
            }
            KbChange::EdgeAdded {
                pred: Pred::IsA,
                src,
                dst,
                ..
            } => (src, dst, true),
            KbChange::EdgeRemoved {
                pred: Pred::IsA,
                src,
                dst,
            } => (src, dst, false),
            KbChange::EdgeAdded { .. } | KbChange::EdgeRemoved { .. } => continue,
        };
        let (Some(&src), Some(&dst)) = (node_of.get(&op.0), node_of.get(&op.1)) else {
            continue;
        };
        let op = if op.2 {
            ServiceOp::AddEdge { src, dst }
        } else {
            ServiceOp::RemoveEdge { src, dst }
        };
        svc.submit_with_outcome(op)
            .map_err(|_| "boundary service closed".to_owned())?;
    }
    Ok(())
}

/// Prints how the self times along one blocking read path add up to its
/// wire round trip (medians per request), and the unaccounted remainder.
fn accounting(tr: &Tracer, title: &str, top: &str, layers: &[(&str, &str)], div: f64, unit: &str) {
    let total = stats::median_u64(&tr.durations(top));
    println!("accounting {title} (p50 per request, {unit}):");
    let mut sum = 0.0;
    for (label, name) in layers {
        let m = median_i(&tr.self_by_request(name));
        sum += m;
        println!(
            "  {label:<22} self {:>10.3}  ({:5.1}%)",
            m / div,
            100.0 * m / total
        );
    }
    println!(
        "  sum of self times {:.3} of wire {:.3}; unaccounted remainder {:+.3} ({:+.1}%)",
        sum / div,
        total / div,
        (total - sum) / div,
        100.0 * (total - sum) / total
    );
}

/// The publish path: the write's acknowledgement, then the flush that
/// waits while the shard writer applies the update, refreezes the plane
/// and publishes, and the sharded front end rebuilds its routing snapshot.
/// Medians over the publish cycles.
fn write_accounting(tr: &Tracer) {
    let ms = |name: &str| stats::median_u64(&tr.durations(name)) / 1e6;
    let wire = ms("wire.publish");
    let (write, shard_flush, serve) = (ms("engine.write"), ms("shard.flush"), ms("serve.publish"));
    let layers = [
        ("engine.write (acknowledgement)", write),
        ("shard self (flush minus publish)", shard_flush - serve),
        ("serve.publish (apply, refreeze, swap)", serve),
    ];
    println!("accounting write_mix: wire publish, write sent to flush acknowledged (p50, ms):");
    let mut sum = 0.0;
    for (label, v) in layers {
        sum += v;
        println!("  {label:<38} {v:>10.3}  ({:5.1}%)", 100.0 * v / wire);
    }
    println!(
        "  sum {sum:.3} of wire publish {wire:.3}; unaccounted remainder {:+.3} ({:+.1}%)",
        wire - sum,
        100.0 * (wire - sum) / wire
    );
    println!(
        "  inside serve.publish: updates.apply {:.3}; for comparison CompressedClosure::freeze {:.3} \
         (fresh buffers, where the service writer reuses its scratch) and the in-process engine publish {:.3}",
        ms("updates.apply"),
        ms("plane.freeze"),
        ms("engine.publish")
    );
}
