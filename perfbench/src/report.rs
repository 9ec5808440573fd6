//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports each one; a layer a workload does not exercise reads 0. The
/// per-task and per-state metrics of the benchmarked workloads (kv and
/// kv-ckpt) are listed; a traced run prints every task and state in its
/// notes as well.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ms", "ms"),
    ("translate.translate_ms", "ms"),
    ("runtime.deploy.start_ms", "ms"),
    ("runtime.deploy.preload_s", "s"),
    ("runtime.deploy.submit_us_p50", "us"),
    ("runtime.deploy.submit_busy_frac", "fraction"),
    ("runtime.deploy.quiesce_ms", "ms"),
    ("runtime.worker.service_us_p50.put_0", "us"),
    ("runtime.worker.service_us_p50.get_0", "us"),
    ("runtime.worker.processed.put_0", "count"),
    ("runtime.worker.processed.get_0", "count"),
    ("runtime.sched.polls", "count"),
    ("runtime.sched.steals", "count"),
    ("runtime.sched.parks", "count"),
    ("state.bytes.kv", "bytes"),
    ("state.seq_items_per_s", "1/s"),
    ("checkpoint.taken", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.snapshot_ms_p50", "ms"),
    ("checkpoint.persist_ms_p50", "ms"),
    ("checkpoint.explicit_ms", "ms"),
    ("checkpoint.buffered_bytes", "bytes"),
    ("checkpoint.recovery_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.replayed_items", "count"),
    ("checkpoint.replayed_replies", "count"),
    ("common.codec.encode_ns_per_item", "ns"),
    ("common.codec.decode_ns_per_item", "ns"),
    ("client.late_ms_p50", "ms"),
    ("client.late_ms_max", "ms"),
    ("client.p99_ms", "ms"),
    ("client.latency_samples", "count"),
    ("trace.overhead_frac", "fraction"),
    ("ledger.e2e_ns_per_item", "ns"),
    ("ledger.layers_ns_per_item", "ns"),
    ("ledger.residue_ns_per_item", "ns"),
];

/// Named metric values collected during a run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Every `(name, value)`, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result line: the listed metrics in list order, each with its unit.
/// A metric the run did not set reads 0.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    list: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = metrics.get(name).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
