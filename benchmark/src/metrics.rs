//! The metric catalogue: every name the benchmark reports, with its unit
//! and which direction is better. `BENCHMARK.json` lists the same names.

use crate::batch::slug;
use sper_core::ProgressiveMethod;

/// The methods every workload runs, in run order.
pub const METHODS: [ProgressiveMethod; 6] = ProgressiveMethod::SCHEMA_AGNOSTIC;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

fn per_method(prefix: &str, unit: &'static str, better: &'static str) -> Vec<Metric> {
    METHODS
        .iter()
        .map(|&m| metric(format!("{prefix}.{}", slug(m)), unit, better))
        .collect()
}

/// The metrics a user of the system sees, measured with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    let mut out = per_method("ttfe_ms", "ms", "lower");
    out.extend(per_method("run_ms", "ms", "lower"));
    out.extend([
        metric("epoch_ms.p50", "ms", "lower"),
        metric("epoch_ms.p90", "ms", "lower"),
        metric("peak_mib", "MiB", "lower"),
        metric("setup_s", "s", "lower"),
    ]);
    out
}

/// The per-layer metrics of the traced pass.
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        metric("model.read_csv_ms", "ms", "lower"),
        metric("model.read_matches_ms", "ms", "lower"),
        metric("blocking.token_ms", "ms", "lower"),
        metric("blocking.purge_ms", "ms", "lower"),
        metric("blocking.filter_ms", "ms", "lower"),
        metric("blocking.blocks_kept", "count", "lower"),
        metric("blocking.comparisons_kept", "count", "lower"),
        metric("blocking.neighbor_list_ms", "ms", "lower"),
        metric("blocking.neighbor_list_len", "count", "lower"),
    ];
    out.extend(per_method("core.init_ms", "ms", "lower"));
    out.extend(per_method("core.init_peak_mib", "MiB", "lower"));
    out.extend(per_method("core.first_next_ms", "ms", "lower"));
    out.extend(per_method("core.emit_ms", "ms", "lower"));
    out.extend(per_method("core.emissions", "count", "higher"));
    out.extend(per_method("core.distinct_ratio", "ratio", "higher"));
    out.extend(per_method("eval.ms", "ms", "lower"));
    out.extend(per_method("eval.auc_star", "ratio", "higher"));
    out.extend(per_method("eval.recall", "ratio", "higher"));
    for layer in ["ingest", "mutate", "emit_epoch", "reprioritize"] {
        out.push(metric(format!("stream.{layer}_ms.p50"), "ms", "lower"));
        out.push(metric(format!("stream.{layer}_ms.p90"), "ms", "lower"));
    }
    out.extend([
        metric("stream.suppressed_ratio", "ratio", "lower"),
        metric("stream.tombstones_max", "count", "lower"),
        metric("store.checkpoint_ms.p50", "ms", "lower"),
        metric("store.checkpoint_ms.max", "ms", "lower"),
        metric("store.checkpoint_mib", "MiB", "lower"),
        metric("store.checkpoint_failures", "count", "lower"),
        metric("store.resume_ms", "ms", "lower"),
        metric("obs.trace_overhead", "ratio", "lower"),
        metric("obs.unattributed_share", "ratio", "lower"),
    ]);
    out
}
