//! Wire benchmark for the `tc-server` daemon.
//!
//! ```text
//! tc-perfbench --workload <read_resident|read_paged|write_mix|kb_ingest>
//!              --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Run it from the repository root: span traces and the paged planes'
//! temporary files go to `perfbench/out/`.
//!
//! With `--trace 0` it runs the workload against the daemon and reports the
//! end-to-end metrics; with `--trace 1` it runs the layer sweep (see
//! `trace.rs`) and reports the per-layer metrics. The last line of standard
//! output is the JSON result; the lines before it are a human-readable
//! table with the sample count of every percentile. Any wrong answer makes
//! the exit code nonzero.

mod graph;
mod hostspeed;
mod kb;
mod rounds;
mod stats;
mod streams;
mod trace;
mod wire;

use std::path::Path;
use std::time::Instant;

use stats::Report;

/// The end-to-end metrics every workload reports in its result line
/// (`--trace 0`); the same list as `end_to_end` in `BENCHMARK.json`. The
/// table above the result line also has the read percentiles, the raw
/// figures before the host-speed correction and, where the workload
/// writes, the write and publish figures.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "read_mean_us", "peak_rss_mb"];

/// The per-layer metrics of the layer sweep (`--trace 1`); the same list as
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 35] = [
    "server.rtt_p50_ns",
    "server.self_p50_ns",
    "engine.read_p50_ns",
    "engine.write_p50_ns",
    "engine.kb_write_p50_ns",
    "engine.ask_p50_ns",
    "engine.ask_p99_ns",
    "proto.parse_p50_ns",
    "dict.resolve_p50_ns",
    "shard.reaches_p50_ns",
    "shard.submit_p50_ns",
    "shard.flush_p50_ms",
    "shard.boundary_nodes",
    "serve.snapshot_reaches_p50_ns",
    "serve.publish_p50_ms",
    "plane.reaches_p50_ns",
    "plane.freeze_ms",
    "plane.intervals",
    "plane.bitset_rows",
    "plane.payload_pages",
    "paged.reaches_p50_ns",
    "paged.reaches_p99_ns",
    "pager.reads_per_probe",
    "pager.hit_ratio",
    "pager.evictions_per_probe",
    "updates.apply_p50_us",
    "kb.assert_p50_us",
    "kb.assert_p99_us",
    "kb.retract_p50_us",
    "kb.retract_p99_us",
    "kb.ask_p50_ns",
    "kb.derived_per_op",
    "kb.overdeleted_per_op",
    "kb.rederived_per_op",
    "kb.rederive_ratio",
];

const WORKLOADS: [&str; 4] = ["read_resident", "read_paged", "write_mix", "kb_ingest"];

/// What one run measured and checked.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failed checks; any entry fails the run.
    pub problems: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("not a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Paged freezes write their plane files under the temp directory; keep
    // them inside the output directory.
    let out = Path::new("perfbench/out");
    let tmp = out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("tc-perfbench: creating {}: {e}", tmp.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    println!(
        "workload {} seed {} trace {} commit {} nproc {} pinned_cpus {} nominal_seconds {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.commit,
        stats::online_cpus(),
        stats::cpus_allowed(),
        args.seconds
    );
    let t = Instant::now();
    let run = if args.trace {
        trace::sweep(&args.workload, args.seed, out)
    } else {
        match args.workload.as_str() {
            "read_resident" => graph::run_reads(graph::Plane::Resident, args.seed),
            "read_paged" => graph::run_reads(graph::Plane::Paged, args.seed),
            "write_mix" => graph::run_write_mix(args.seed),
            _ => kb::run(args.seed),
        }
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tc-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = outcome.problems;
    problems.extend(outcome.report.missing.iter().cloned());
    for name in names {
        match outcome.report.get(name) {
            Some(v) if v.is_finite() => {}
            _ => problems.push(format!("metric {name} was not measured")),
        }
    }
    print!("{}", outcome.report.table());
    println!(
        "wall {:.1} s, {} attempted, {} failed",
        t.elapsed().as_secs_f64(),
        outcome.attempted,
        outcome.failed
    );
    for p in &problems {
        println!("FAIL: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.report.json(names)
    );
    if !correct {
        std::process::exit(1);
    }
}
