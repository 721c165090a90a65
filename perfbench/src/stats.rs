//! Sample series, named metrics and the result digest.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One named metric and every sample taken of it in this run.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Every sample, in the order taken.
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value: the median of the samples.
    #[must_use]
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// The smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// An ordered set of metrics; samples of one name accumulate.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<Metric>,
}

impl Metrics {
    /// Adds one sample of `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite sample, or when `name` was first added
    /// with a different unit.
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "{name}: non-finite sample {value}");
        match self.entries.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "{name}: unit changed");
                m.samples.push(value);
            }
            None => self.entries.push(Metric {
                name: name.to_string(),
                unit,
                samples: vec![value],
            }),
        }
    }

    /// Adds every sample of `values`.
    pub fn add_all(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        for &v in values {
            self.add(name, unit, v);
        }
    }

    /// The metric called `name`, if any sample was added.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// Every metric, in the order first added.
    pub fn iter(&self) -> std::slice::Iter<'_, Metric> {
        self.entries.iter()
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}` over
    /// `names`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if a name has no sample: every listed metric must be
    /// measured on every workload.
    #[must_use]
    pub fn contract_json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_f64(m.value()),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The JSON object with the median, min, max and sample count of
    /// every metric.
    #[must_use]
    pub fn spread_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                m.name,
                m.unit,
                json_f64(m.value()),
                json_f64(m.min()),
                json_f64(m.max()),
                m.samples.len()
            );
        }
        out.push('}');
        out
    }
}

/// A finite float in JSON syntax, with every digit Rust prints.
#[must_use]
pub fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers are finite");
    // `{:?}` prints the shortest round-tripping form, with a `1e-7`
    // style exponent where needed; JSON accepts both forms.
    format!("{v:?}")
}

/// Minimal JSON string escaping for the environment fields.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over the simulated results a run produced. Two runs of the
/// same inputs must produce the same digest, whatever the host did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metrics_accumulate_by_name() {
        let mut m = Metrics::default();
        m.add("a", "s", 1.0);
        m.add("a", "s", 3.0);
        m.add("b", "ms", 2.0);
        assert_eq!(m.get("a").map(Metric::value), Some(2.0));
        assert_eq!(
            m.contract_json(&["b"]),
            "{\"b\": {\"value\": 2.0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
