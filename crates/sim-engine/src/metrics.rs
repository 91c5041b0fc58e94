//! Hierarchical end-of-run metrics registry with a deterministic JSON export.
//!
//! Components own their statistics as plain [`crate::stats`] values during
//! the run (no indirection on the hot path); at end-of-run the system walks
//! its components and registers everything here under dotted names
//! (`gpu0.gmmu.walk_queue.wait_cycles`). The registry flattens to a JSON
//! document whose keys are sorted and whose values are rendered identically
//! for identical inputs, so exports are byte-comparable across runs.
//!
//! # Example
//!
//! ```
//! use sim_engine::metrics::MetricsRegistry;
//! use sim_engine::stats::Accumulator;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.count("gpu0.tlb.l2.hits", 41);
//! let mut lat = Accumulator::new();
//! lat.record(100.0);
//! reg.accumulator("gpu0.gmmu.walk_latency", &lat);
//! let json = reg.to_json();
//! assert!(json.contains("\"gpu0.tlb.l2.hits\": 41"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Accumulator;
use crate::trace::escape_json;

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Count(u64),
    /// A point-in-time scalar (rates, ratios).
    Gauge(f64),
    /// Summary of an [`Accumulator`] sample stream.
    Stats {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: f64,
        /// Mean, absent when empty.
        mean: Option<f64>,
        /// Minimum, absent when empty.
        min: Option<f64>,
        /// Maximum, absent when empty.
        max: Option<f64>,
    },
}

/// Flat map from dotted metric name to value; insertion-order independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a raw count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.entries.insert(name.into(), MetricValue::Count(value));
    }

    /// Registers a scalar gauge (rates, ratios, averages).
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.insert(name.into(), MetricValue::Gauge(value));
    }

    /// Registers an [`Accumulator`] summary.
    pub fn accumulator(&mut self, name: impl Into<String>, a: &Accumulator) {
        self.entries.insert(
            name.into(),
            MetricValue::Stats {
                count: a.count(),
                sum: a.sum(),
                mean: a.mean(),
                min: a.min(),
                max: a.max(),
            },
        );
    }

    /// A borrow that prefixes every registered name with `prefix` + `.`;
    /// nests (`reg.scope("gpu0").scope("gmmu")` yields `gpu0.gmmu.*`).
    pub fn scope(&mut self, prefix: impl Into<String>) -> Scope<'_> {
        Scope {
            reg: self,
            prefix: prefix.into(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as a flat JSON object, one key per line, keys
    /// sorted; byte-identical for identical contents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.entries.len() * 64);
        out.push_str("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "  \"{}\": ", escape_json(name));
            match value {
                MetricValue::Count(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => out.push_str(&json_f64(*v)),
                MetricValue::Stats {
                    count,
                    sum,
                    mean,
                    min,
                    max,
                } => {
                    let _ = write!(
                        out,
                        "{{\"count\": {count}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
                        json_f64(*sum),
                        json_opt_f64(*mean),
                        json_opt_f64(*min),
                        json_opt_f64(*max)
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

/// Prefixing view returned by [`MetricsRegistry::scope`].
pub struct Scope<'a> {
    reg: &'a mut MetricsRegistry,
    prefix: String,
}

impl Scope<'_> {
    fn full(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Registers a raw count under the scope prefix.
    pub fn count(&mut self, name: &str, value: u64) {
        let full = self.full(name);
        self.reg.count(full, value);
    }

    /// Registers a gauge under the scope prefix.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let full = self.full(name);
        self.reg.gauge(full, value);
    }

    /// Registers an [`Accumulator`] under the scope prefix.
    pub fn accumulator(&mut self, name: &str, a: &Accumulator) {
        let full = self.full(name);
        self.reg.accumulator(full, a);
    }

    /// A deeper scope (`prefix.name.*`).
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.full(name);
        Scope {
            reg: self.reg,
            prefix,
        }
    }
}

/// Renders a float deterministically; non-finite values become `null`
/// (JSON has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is deterministic across
        // platforms for equal bit patterns.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    fn sample() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.count("sim.events_processed", 1234);
        reg.gauge("gpu0.tlb.l2.hit_rate", 0.75);
        let mut acc = Accumulator::new();
        acc.record(10.0);
        acc.record(30.0);
        let mut scope = reg.scope("gpu0");
        scope.accumulator("gmmu.walk_latency", &acc);
        let mut gmmu = scope.scope("gmmu");
        gmmu.count("walk_queue.overflows", 2);
        reg.count("driver.batch_size", 2);
        reg.accumulator("driver.empty", &Accumulator::new());
        reg
    }

    #[test]
    fn json_is_valid_sorted_and_complete() {
        let reg = sample();
        assert_eq!(reg.len(), 6);
        let json = reg.to_json();
        validate_json(&json).expect("metrics JSON must be valid");
        // Keys appear in sorted order regardless of registration order.
        let pos = |needle: &str| {
            json.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        assert!(pos("driver.batch_size") < pos("driver.empty"));
        assert!(pos("driver.empty") < pos("gpu0.gmmu.walk_latency"));
        assert!(pos("gpu0.gmmu.walk_latency") < pos("gpu0.gmmu.walk_queue.overflows"));
        assert!(pos("gpu0.gmmu.walk_queue.overflows") < pos("sim.events_processed"));
        assert!(json.contains("\"mean\": 20,"));
        // Empty accumulators render with nulls, not NaN.
        assert!(json.contains("\"gpu0.gmmu.walk_latency\": {\"count\": 2"));
        assert!(json.contains("\"driver.empty\": {\"count\": 0, \"sum\": 0, \"mean\": null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn gauge_non_finite_becomes_null() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("bad", f64::NAN);
        reg.gauge("worse", f64::INFINITY);
        let json = reg.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"bad\": null") && json.contains("\"worse\": null"));
    }
}
