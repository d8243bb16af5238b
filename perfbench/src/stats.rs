//! Percentiles, the metric table, and process counters.

use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (ascending), reported only when at
/// least `min_beyond` samples lie above the rank — fewer means the figure
/// is one or two outliers, not a percentile.
pub fn percentile(sorted: &[u64], p: f64, min_beyond: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < min_beyond {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a small set of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The CPUs this process may run on, as the kernel prints them.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("Cpus_allowed_list:")
                    .map(|v| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// How many CPUs the machine has online (`nproc` before any pinning).
pub fn online_cpus() -> usize {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// One reported metric: name, value, unit, and how many samples back it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Figures that could not be reported (too few samples beyond a
    /// percentile); any entry fails the run.
    pub missing: Vec<String>,
}

impl Report {
    /// A plain value (a count, a ratio, a rate over the whole phase).
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// A percentile of nanosecond samples, scaled by `div` into `unit`.
    /// The rule of at least ten samples beyond the percentile applies.
    pub fn pct(&mut self, name: &str, sorted_ns: &[u64], p: f64, div: f64, unit: &'static str) {
        self.pct_beyond(name, sorted_ns, p, div, unit, 10);
    }

    /// [`Report::pct`] with an explicit minimum of samples beyond the rank.
    pub fn pct_beyond(
        &mut self,
        name: &str,
        sorted_ns: &[u64],
        p: f64,
        div: f64,
        unit: &'static str,
        min_beyond: usize,
    ) {
        match percentile(sorted_ns, p, min_beyond) {
            Some(v) => self.value(name, v as f64 / div, unit, Some(sorted_ns.len())),
            None => self.missing.push(format!(
                "{name}: {} sample(s), fewer than {min_beyond} beyond p{}",
                sorted_ns.len(),
                p * 100.0
            )),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable table, one metric per line with its sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(out, "  {:<34} {:>16.4} {:<12}{n}", m.name, m.value, m.unit);
        }
        for miss in &self.missing {
            let _ = writeln!(out, "  MISSING {miss}");
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `names`.
    pub fn json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for m in self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values cannot be represented and become null
/// (which the result check then rejects).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
