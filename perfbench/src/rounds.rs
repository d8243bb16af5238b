//! Rounds, blocks and the host-speed correction.
//!
//! A run is several rounds; each sets the daemon up from scratch and
//! replays an equal slice of the workload, cut into blocks. Between blocks,
//! while the daemon is idle, the run samples the host's speed (see
//! `hostspeed.rs`). Every time figure is reported twice: scaled to the
//! reference host speed (the result line's metrics) and raw (`raw.*`, in
//! the table). Every round does the same work, and every answer of every
//! round is checked.

use crate::hostspeed::REFERENCE_RTT_NS;
use crate::stats::{self, Report};

/// Rounds per run, each one `setup_s` sample.
pub const ROUNDS: usize = 3;

/// One block: its wall time and the latencies (ns) of its requests.
#[derive(Default)]
pub struct Block {
    pub wall_ns: u64,
    pub requests: usize,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub publishes: Vec<u64>,
}

fn gather(blocks: &[&Block], pick: impl Fn(&Block) -> &Vec<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = blocks
        .iter()
        .flat_map(|b| pick(b).iter().copied())
        .collect();
    v.sort_unstable();
    v
}

/// The end-to-end metrics of a run from each round's set-up time and
/// blocks, the peak RSS through the first round (later rounds inherit the
/// allocator's state from earlier ones) and the run's mean probe round
/// trip, plus write figures where the workload has writes.
pub fn report(setup: &[f64], peak_rss_mb: f64, rounds: &[Vec<Block>], rtt_ns: f64) -> Report {
    let mut r = Report::default();
    for (i, round) in rounds.iter().enumerate() {
        let us: Vec<String> = round
            .iter()
            .map(|b| format!("{:.1}", b.wall_ns as f64 / b.requests as f64 / 1e3))
            .collect();
        println!(
            "round {i}: set-up {:.3} s, us per request by block: {}",
            setup[i],
            us.join(" ")
        );
    }
    r.value("host.probe_rtt_us", rtt_ns / 1e3, "us", None);
    let blocks: Vec<&Block> = rounds.iter().flatten().collect();
    let requests: usize = blocks.iter().map(|b| b.requests).sum();
    let wall_s = blocks.iter().map(|b| b.wall_ns).sum::<u64>() as f64 / 1e9;
    let reads = gather(&blocks, |b| &b.reads);
    let writes = gather(&blocks, |b| &b.writes);
    let publishes = gather(&blocks, |b| &b.publishes);
    let setup_s = stats::median(setup);
    for (prefix, scale) in [("", REFERENCE_RTT_NS / rtt_ns), ("raw.", 1.0)] {
        let name = |n: &str| format!("{prefix}{n}");
        r.value(&name("setup_s"), setup_s * scale, "s", Some(setup.len()));
        r.value(
            &name("ops_per_s"),
            requests as f64 / (wall_s * scale),
            "1/s",
            Some(requests),
        );
        r.value(
            &name("read_mean_us"),
            reads.iter().sum::<u64>() as f64 / reads.len() as f64 / 1e3 * scale,
            "us",
            Some(reads.len()),
        );
        r.pct(&name("read_p50_us"), &reads, 0.50, 1e3 / scale, "us");
        r.pct(&name("read_p99_us"), &reads, 0.99, 1e3 / scale, "us");
        if !publishes.is_empty() {
            // One publish per cycle: too few for ten samples beyond the
            // median, so the count printed beside them is the caveat.
            r.value(
                &name("write_p50_us"),
                stats::median_u64(&writes) / 1e3 * scale,
                "us",
                Some(writes.len()),
            );
            r.value(
                &name("publish_p50_ms"),
                stats::median_u64(&publishes) / 1e6 * scale,
                "ms",
                Some(publishes.len()),
            );
        } else if !writes.is_empty() {
            r.pct(&name("write_p50_us"), &writes, 0.50, 1e3 / scale, "us");
            r.pct(&name("write_p99_us"), &writes, 0.99, 1e3 / scale, "us");
        }
    }
    r.value("peak_rss_mb", peak_rss_mb, "MiB", None);
    r
}
