//! The metric registry and the result line.
//!
//! Every metric the benchmark reports is declared once here, with its
//! unit and direction. `BENCHMARK.json` at the repository root lists
//! the same names and units (a test keeps the two in step), and the
//! result line is rendered by walking this registry, so a metric can
//! only be printed with its declared unit and a missing one is an
//! error rather than a silent gap.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured untraced, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("host_mib_s", "MiB/s", Higher),
    def("bytes_ratio", "ratio", Lower),
    def("peak_rss_mib", "MiB", Lower),
    def("setup_s", "s", Lower),
];

/// End-to-end metrics that exist on some workloads only. They are
/// printed in the report lines above the result line (with sample
/// counts), never in it.
pub const WORKLOAD_SPECIFIC: &[MetricDef] = &[
    def("gw_pkt_p50_us", "us", Lower),
    def("gw_pkt_p99_us", "us", Lower),
    def("fct_p50_ms", "ms", Lower),
    def("fct_p99_ms", "ms", Lower),
    def("dl_time_ratio", "ratio", Lower),
    def("failed_frac", "share", Lower),
];

/// Per-layer metrics: measured by the traced run. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("rabin.scan_mib_s", "MiB/s", Higher),
    def("core.encode_ns_per_pkt", "ns", Lower),
    def("core.decode_ns_per_pkt", "ns", Lower),
    def("core.encode_busy_s", "s", Lower),
    def("core.decode_busy_s", "s", Lower),
    def("core.matched_byte_share", "share", Higher),
    def("core.index_insertions", "count", Lower),
    def("core.store_evictions", "count", Lower),
    def("core.store_resident_mib", "MiB", Lower),
    def("packet.parse_ns_per_pkt", "ns", Lower),
    def("packet.write_ns_per_pkt", "ns", Lower),
    def("core.gateway_enc_busy_s", "s", Lower),
    def("core.gateway_dec_busy_s", "s", Lower),
    def("core.gateway_new_s", "s", Lower),
    def("core.flushes", "count", Lower),
    def("core.undecodable_share", "share", Lower),
    def("tcp.server_busy_s", "s", Lower),
    def("tcp.client_busy_s", "s", Lower),
    def("tcp.retx_share", "share", Lower),
    def("tcp.timeouts", "count", Lower),
    def("netsim.events", "count", Lower),
    def("netsim.engine_ns_per_event", "ns", Lower),
    def("netsim.replay_ns_per_event", "ns", Lower),
    def("netsim.unattributed_share", "share", Lower),
    def("netsim.pdes2_speedup", "ratio", Higher),
    def("nc.enc_busy_s", "s", Lower),
    def("nc.dec_busy_s", "s", Lower),
    def("nc.repair_useful_share", "share", Higher),
    def("campaign.busy_share", "share", Higher),
    def("trace.overhead", "ratio", Lower),
];

/// Look a metric up in every registry.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_SPECIFIC)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// A name starts with a letter or digit and is at most 64 letters,
/// digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` for the registered metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in a registry: every printed metric must
    /// be declared with its unit.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric {name} is not registered");
        self.0.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render the final result line: `{"correct", "attempted", "failed",
/// "metrics"}` with exactly the metrics of `defs`, each with its unit.
///
/// # Errors
///
/// Names the first metric of `defs` that has no value, or whose value
/// is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    ))
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s == "-0" {
        "0".to_string()
    } else {
        s
    }
}
