//! `sweep.json`: the machine-readable sweep report, and the one
//! writer of its cell schema.
//!
//! Two renderings share one cell section:
//!
//! - [`SweepResults::canonical_json`] is the **deterministic
//!   artifact**: per-cell seed, sample count, mean/stddev/min/max RTT,
//!   events executed and final simulated time, in grid order. It is
//!   byte-identical across runs and across `--jobs` values, and is
//!   what the determinism property test compares.
//! - [`SweepResults::to_json`] is the canonical section plus the
//!   things that legitimately vary run to run: the worker count and
//!   per-cell host wall-clock (how long the cell took to *compute*,
//!   which is how the speedup claim in the acceptance criteria is
//!   checked). Tooling that diffs sweep reports must diff the
//!   canonical form.
//!
//! The world studies (`crates/world`) write their canonical reports
//! through the same [`canonical_report`], appending their own
//! per-cell fields after `verify_failures`, so `oracle`'s parser and
//! golden comparator read every report the same way.
//!
//! Emitted by hand, no serde: the build works with no registry access.

use std::fmt::Write as _;

use simkit::SimTime;

use crate::SweepResults;

/// Finite-number JSON rendering; NaN/inf become null (like
/// serde_json). The workspace's one number encoder.
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        // Shortest representation that round-trips.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping; the workspace's one string encoder.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One extra per-cell field: its name and its rendered JSON value.
pub type Field = (&'static str, String);

/// One cell of the schema: the numbers every report carries, then the
/// caller's extra fields.
pub struct ReportCell<'a> {
    /// The cell key.
    pub key: &'a str,
    /// The key-derived base seed.
    pub seed: u64,
    /// Repetitions pooled.
    pub reps: u64,
    /// Number of samples the statistics summarize.
    pub samples: usize,
    /// Mean sample in µs.
    pub mean_us: f64,
    /// Population standard deviation in µs.
    pub stddev_us: f64,
    /// Smallest sample in µs.
    pub min_us: f64,
    /// Largest sample in µs.
    pub max_us: f64,
    /// Events executed.
    pub events: u64,
    /// Final simulated time.
    pub sim_time: SimTime,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Fields written after `verify_failures`, in order.
    pub extras: &'a [Field],
}

/// Writes the `"cells"` object, one entry per cell in the given
/// order: the one writer of the cell schema.
pub fn write_cells<'a>(out: &mut String, cells: impl IntoIterator<Item = ReportCell<'a>>) {
    out.push_str("  \"cells\": {");
    let mut empty = true;
    for c in cells {
        if !empty {
            out.push(',');
        }
        empty = false;
        let _ = write!(out, "\n    {}: {{ ", json_string(c.key));
        let _ = write!(out, "\"seed\": {}, ", c.seed);
        let _ = write!(out, "\"reps\": {}, ", c.reps);
        let _ = write!(out, "\"samples\": {}, ", c.samples);
        let _ = write!(out, "\"mean_us\": {}, ", json_num(c.mean_us));
        let _ = write!(out, "\"stddev_us\": {}, ", json_num(c.stddev_us));
        let _ = write!(out, "\"min_us\": {}, ", json_num(c.min_us));
        let _ = write!(out, "\"max_us\": {}, ", json_num(c.max_us));
        let _ = write!(out, "\"events\": {}, ", c.events);
        let sim_us = json_num(c.sim_time.as_us_f64());
        let _ = write!(out, "\"sim_time_us\": {sim_us}, ");
        let _ = write!(out, "\"verify_failures\": {}", c.verify_failures);
        for (field, value) in c.extras {
            let _ = write!(out, ", {}: {value}", json_string(field));
        }
        out.push_str(" }");
    }
    out.push_str(if empty { "}" } else { "\n  }" });
}

/// A canonical report: the name, then [`write_cells`].
#[must_use]
pub fn canonical_report<'a>(name: &str, cells: impl IntoIterator<Item = ReportCell<'a>>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_string(name));
    write_cells(&mut out, cells);
    out.push_str("\n}\n");
    out
}

impl SweepResults {
    /// Every outcome as a schema cell, in grid order.
    fn report_cells(&self) -> impl Iterator<Item = ReportCell<'_>> {
        self.outcomes.iter().map(|c| ReportCell {
            key: &c.key,
            seed: c.seed,
            reps: c.reps,
            samples: c.result.rtts.len(),
            mean_us: c.result.mean_rtt_us(),
            stddev_us: c.result.stddev_rtt_us(),
            min_us: latency_core::stats::min_us(&c.result.rtts),
            max_us: latency_core::stats::max_us(&c.result.rtts),
            events: c.result.events,
            sim_time: c.result.sim_time,
            verify_failures: c.result.verify_failures,
            extras: &[],
        })
    }

    /// The deterministic report: byte-identical for a given grid at
    /// any `--jobs` value (and across repeated runs).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        canonical_report(&self.name, self.report_cells())
    }

    /// The full report: the canonical cells plus per-cell host
    /// wall-clock nanoseconds and the worker count — the fields that
    /// may differ between runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        write_cells(&mut out, self.report_cells());
        out.push_str(",\n  \"timing\": {");
        let mut first = true;
        let mut total = 0u64;
        for c in &self.outcomes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {}", json_string(&c.key), c.wall_ns);
            total += c.wall_ns;
        }
        if !self.outcomes.is_empty() {
            out.push_str(",\n    ");
        }
        let _ = write!(out, "\"total_cell_wall_ns\": {total}, ");
        let _ = write!(out, "\"sweep_wall_ns\": {}", self.wall_ns);
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_num_matches_serde_conventions() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
