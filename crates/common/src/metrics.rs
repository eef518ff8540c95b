//! A small metrics registry with JSON and Prometheus-text exporters.
//!
//! [`MetricsRegistry`] is a *document*, not a live store: the engine lowers a
//! point-in-time snapshot into named [`MetricValue`]s and both exporters
//! iterate the same entries, so the JSON and Prometheus outputs can never
//! disagree about a number. Names use `snake_case` with `_` separators
//! (Prometheus-legal as-is); labels carry dimensions such as `level` or
//! `cause`.

use std::fmt::Write as _;

/// The value of one metric entry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous measurement.
    Gauge(f64),
    /// A distribution summary: count, sum, and selected quantiles
    /// (`(quantile, value)` pairs, quantile in `0.0..=1.0`).
    Summary {
        /// Number of recorded samples.
        count: u64,
        /// Sum of recorded samples.
        sum: u64,
        /// `(quantile, value)` pairs in ascending quantile order.
        quantiles: Vec<(f64, u64)>,
    },
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Summary { .. } => "summary",
        }
    }
}

/// One named metric with optional labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`snake_case`, Prometheus-legal).
    pub name: String,
    /// Label key/value pairs (may be empty).
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// An ordered collection of metrics with two renderings of the same data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<Metric>,
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render an `f64` the way both exporters expect: finite values in plain
/// decimal (integers without a trailing `.0` would still parse, but we keep
/// Rust's default formatting), non-finite values as quoted strings in JSON
/// and Prometheus spellings (`NaN`, `+Inf`, `-Inf`) in text.
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Append a counter.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, labels, MetricValue::Counter(value));
    }

    /// Append a gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, labels, MetricValue::Gauge(value));
    }

    /// Append a distribution summary.
    pub fn summary(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        count: u64,
        sum: u64,
        quantiles: Vec<(f64, u64)>,
    ) {
        self.push(
            name,
            labels,
            MetricValue::Summary {
                count,
                sum,
                quantiles,
            },
        );
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) {
        self.entries.push(Metric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// Append every entry of `other`, in its order, with `label` added
    /// after its own labels.
    pub fn append_labelled(&mut self, other: MetricsRegistry, (key, value): (&str, &str)) {
        for mut metric in other.entries {
            metric.labels.push((key.to_string(), value.to_string()));
            self.entries.push(metric);
        }
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[Metric] {
        &self.entries
    }

    /// Look up the first entry with `name` and labels matching `labels`
    /// exactly (order-sensitive). Intended for tests and spot checks.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|m| &m.value)
    }

    /// Render the whole registry as one JSON document:
    /// `{"metrics":[{"name","type","labels","value"},...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"metrics\":[");
        for (i, m) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"type\":\"{}\",\"labels\":{{",
                json_escape(&m.name),
                m.value.type_name()
            );
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            s.push_str("},\"value\":");
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(s, "{v}");
                }
                MetricValue::Gauge(v) => {
                    if v.is_finite() {
                        let _ = write!(s, "{}", format_f64(*v));
                    } else {
                        let _ = write!(s, "\"{}\"", format_f64(*v));
                    }
                }
                MetricValue::Summary {
                    count,
                    sum,
                    quantiles,
                } => {
                    let _ = write!(s, "{{\"count\":{count},\"sum\":{sum},\"quantiles\":{{");
                    for (j, (q, v)) in quantiles.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "\"{}\":{}", format_f64(*q), v);
                    }
                    s.push_str("}}");
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Render the whole registry in the Prometheus text exposition format.
    /// `# TYPE` lines are emitted once per distinct metric name, on first
    /// occurrence.
    pub fn to_prometheus_text(&self) -> String {
        let mut s = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for m in &self.entries {
            if !typed.contains(&m.name.as_str()) {
                typed.push(&m.name);
                let _ = writeln!(s, "# TYPE {} {}", m.name, m.value.type_name());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(s, "{}{} {}", m.name, prom_labels(&m.labels, &[]), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        s,
                        "{}{} {}",
                        m.name,
                        prom_labels(&m.labels, &[]),
                        format_f64(*v)
                    );
                }
                MetricValue::Summary {
                    count,
                    sum,
                    quantiles,
                } => {
                    for (q, v) in quantiles {
                        let _ = writeln!(
                            s,
                            "{}{} {}",
                            m.name,
                            prom_labels(&m.labels, &[("quantile", &format_f64(*q))]),
                            v
                        );
                    }
                    let _ = writeln!(s, "{}_sum{} {}", m.name, prom_labels(&m.labels, &[]), sum);
                    let _ = writeln!(
                        s,
                        "{}_count{} {}",
                        m.name,
                        prom_labels(&m.labels, &[]),
                        count
                    );
                }
            }
        }
        s
    }
}

fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{}=\"{}\"", k, prom_escape(v));
    }
    s.push('}');
    s
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("bolt_flushes_total", &[], 3);
        reg.counter("bolt_barriers_total", &[("cause", "wal_commit")], 12);
        reg.counter("bolt_barriers_total", &[("cause", "flush_data")], 4);
        reg.gauge("bolt_level_bytes", &[("level", "0")], 4096.0);
        reg.summary(
            "bolt_queue_wait_nanos",
            &[],
            10,
            5000,
            vec![(0.5, 400), (0.99, 900)],
        );
        reg
    }

    #[test]
    fn json_contains_every_entry() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"name\":\"bolt_flushes_total\""));
        assert!(json.contains("\"cause\":\"wal_commit\""));
        assert!(json.contains("\"value\":12"));
        assert!(json.contains("\"count\":10,\"sum\":5000"));
        assert!(json.contains("\"0.99\":900"));
    }

    #[test]
    fn prometheus_text_shape() {
        let text = sample().to_prometheus_text();
        assert!(text.contains("# TYPE bolt_flushes_total counter\n"));
        // TYPE emitted once for the repeated name.
        assert_eq!(text.matches("# TYPE bolt_barriers_total").count(), 1);
        assert!(text.contains("bolt_barriers_total{cause=\"wal_commit\"} 12\n"));
        assert!(text.contains("bolt_level_bytes{level=\"0\"} 4096\n"));
        assert!(text.contains("bolt_queue_wait_nanos{quantile=\"0.5\"} 400\n"));
        assert!(text.contains("bolt_queue_wait_nanos_sum 5000\n"));
        assert!(text.contains("bolt_queue_wait_nanos_count 10\n"));
    }

    #[test]
    fn both_exporters_agree_on_values() {
        let reg = sample();
        let json = reg.to_json();
        let text = reg.to_prometheus_text();
        // Spot-check the same numbers appear in both renderings.
        for needle in ["12", "4096", "5000"] {
            assert!(json.contains(needle), "json missing {needle}");
            assert!(text.contains(needle), "text missing {needle}");
        }
        assert_eq!(
            reg.find("bolt_barriers_total", &[("cause", "wal_commit")]),
            Some(&MetricValue::Counter(12))
        );
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut reg = MetricsRegistry::new();
        reg.counter("m", &[("k", "x\"y")], 1);
        assert!(reg.to_prometheus_text().contains("k=\"x\\\"y\""));
        assert!(reg.to_json().contains("\"k\":\"x\\\"y\""));
    }
}
