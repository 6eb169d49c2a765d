//! The unified metrics registry: one insertion-ordered name → value
//! snapshot for every counter and gauge the engine exposes, one JSON
//! schema for every `BENCH_*.json`.
//!
//! Names are dotted paths (`flash.user.reads`, `commit.group.p99_us`,
//! `buffer.leaked_pids`); the producing layer owns its prefix. A
//! registry is a *snapshot*; [`MetricsRegistry::delta_since`] subtracts
//! a baseline snapshot counter-wise, which is the one delta API that
//! replaces each bench's hand-threaded `FlashStats::delta_since`
//! plumbing.

use crate::hist::LatencyHistogram;
use crate::json::escape;

/// Schema identifier stamped into every emitted metrics document.
pub const SCHEMA: &str = "pdl-metrics-v1";

/// A metric value: counters and gauges are `U64`, derived rates `F64`,
/// run labels `Str`.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    U64(u64),
    F64(f64),
    Str(String),
}

/// Insertion-ordered collection of named metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn set(&mut self, name: &str, value: MetricValue) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == name) {
            e.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    pub fn set_u64(&mut self, name: &str, v: u64) {
        self.set(name, MetricValue::U64(v));
    }

    pub fn set_f64(&mut self, name: &str, v: f64) {
        self.set(name, MetricValue::F64(if v.is_finite() { v } else { 0.0 }));
    }

    pub fn set_str(&mut self, name: &str, v: &str) {
        self.set(name, MetricValue::Str(v.to_string()));
    }

    /// Summarize a histogram under `prefix`: count, mean and the p50 /
    /// p90 / p99 / max simulated-µs quantiles.
    pub fn set_hist(&mut self, prefix: &str, h: &LatencyHistogram) {
        self.set_u64(&format!("{prefix}.count"), h.count());
        self.set_u64(&format!("{prefix}.sum_us"), h.sum_us());
        self.set_f64(&format!("{prefix}.mean_us"), h.mean_us());
        self.set_u64(&format!("{prefix}.p50_us"), h.p50_us());
        self.set_u64(&format!("{prefix}.p90_us"), h.p90_us());
        self.set_u64(&format!("{prefix}.p99_us"), h.p99_us());
        self.set_u64(&format!("{prefix}.max_us"), h.max_us());
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn get_u64(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counter-wise difference against an earlier snapshot: numeric
    /// entries subtract (saturating for `U64`), strings and entries the
    /// baseline lacks pass through unchanged.
    pub fn delta_since(&self, base: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (name, v) in &self.entries {
            let d = match (v, base.get(name)) {
                (MetricValue::U64(a), Some(MetricValue::U64(b))) => {
                    MetricValue::U64(a.saturating_sub(*b))
                }
                (MetricValue::F64(a), Some(MetricValue::F64(b))) => MetricValue::F64(a - b),
                (v, _) => v.clone(),
            };
            out.entries.push((name.clone(), d));
        }
        out
    }

    /// Render the `pdl-metrics-v1` JSON document. Deterministic:
    /// entries appear in insertion order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.entries.len() * 32);
        s.push_str("{\n  \"schema\": \"");
        s.push_str(SCHEMA);
        s.push_str("\",\n  \"metrics\": {");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    \"");
            s.push_str(&escape(name));
            s.push_str("\": ");
            match v {
                MetricValue::U64(n) => s.push_str(&n.to_string()),
                MetricValue::F64(f) => {
                    let f = if f.is_finite() { *f } else { 0.0 };
                    s.push_str(&format!("{f}"));
                    if f.fract() == 0.0 && f.abs() < 1e15 && !format!("{f}").contains('.') {
                        s.push_str(".0");
                    }
                }
                MetricValue::Str(t) => {
                    s.push('"');
                    s.push_str(&escape(t));
                    s.push('"');
                }
            }
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn json_round_trips_and_validates() {
        let mut r = MetricsRegistry::new();
        r.set_str("bench", "txn_commit");
        r.set_u64("flash.user.reads", 42);
        r.set_f64("bound_tps", 12.5);
        r.set_f64("ratio", 3.0);
        let doc = r.to_json();
        let v = json::parse(&doc).expect("valid JSON");
        json::validate_metrics(&v).expect("valid schema");
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("flash.user.reads").unwrap().as_f64(), Some(42.0));
        assert_eq!(m.get("bound_tps").unwrap().as_f64(), Some(12.5));
        assert_eq!(m.get("ratio").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("bench").unwrap().as_str(), Some("txn_commit"));
    }

    #[test]
    fn delta_subtracts_counters() {
        let mut before = MetricsRegistry::new();
        before.set_u64("reads", 10);
        before.set_f64("rate", 1.0);
        let mut after = MetricsRegistry::new();
        after.set_u64("reads", 25);
        after.set_f64("rate", 3.5);
        after.set_str("label", "x");
        after.set_u64("new_counter", 7);
        let d = after.delta_since(&before);
        assert_eq!(d.get_u64("reads"), Some(15));
        assert_eq!(d.get("rate"), Some(&MetricValue::F64(2.5)));
        assert_eq!(d.get("label"), Some(&MetricValue::Str("x".into())));
        assert_eq!(d.get_u64("new_counter"), Some(7));
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut r = MetricsRegistry::new();
        r.set_u64("a", 1);
        r.set_u64("b", 2);
        r.set_u64("a", 9);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get_u64("a"), Some(9));
        // Order preserved.
        let names: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn hist_summary_names_are_stable() {
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(110);
        }
        let mut r = MetricsRegistry::new();
        r.set_hist("commit.group", &h);
        assert_eq!(r.get_u64("commit.group.count"), Some(10));
        assert!(r.get_u64("commit.group.p50_us").unwrap() >= 110);
        assert!(r.get_u64("commit.group.p99_us").is_some());
    }
}
