//! The metric tables and the result line.
//!
//! Every run reports every metric of its kind: the end-to-end table
//! untraced, the per-layer table traced. A per-layer metric of a layer
//! the workload bypasses reads 0; its count metric (`service.jobs`,
//! `dynamic.batches`, `net.jobs`, `core.runs`) says so.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
];

/// Per-layer metrics: (name, unit). Layers are the repository's
/// modules; README.md maps each to the end-to-end metric it moves.
pub const PER_LAYER: &[(&str, &str)] = &[
    // st_core on the st_smp executor, run standalone on the workload's
    // graphs (no service).
    ("core.engine_ms.p50", "ms"),
    ("core.engine_p1_ms.p50", "ms"),
    ("core.bfs_ms.p50", "ms"),
    ("core.speedup_vs_bfs", "x"),
    ("core.kernel_share", "ratio"),
    ("core.fallback_frac", "ratio"),
    ("core.steals_per_job", "count"),
    ("core.runs", "count"),
    // st_service::service
    ("service.submit_us.p50", "us"),
    ("service.wait_us.p50", "us"),
    ("service.queue_us.mean", "us"),
    ("service.exec_us.mean", "us"),
    ("service.overhead_x", "x"),
    ("service.jobs", "count"),
    // st_service::catalog
    ("catalog.cache_hit_frac", "ratio"),
    ("catalog.resolve_ms.p50", "ms"),
    // st_service::dynamic with st_core::dyn_forest and st_graph::delta
    ("dynamic.batches", "count"),
    ("dynamic.incremental_frac", "ratio"),
    ("dynamic.incremental_ms.p50", "ms"),
    ("dynamic.recompute_ms.p50", "ms"),
    ("dynamic.replacements_per_batch", "count"),
    ("dynamic.tree_splits_per_batch", "count"),
    ("dynamic.read_ms.p50", "ms"),
    // st_service::net
    ("net.submit_us.p50", "us"),
    ("net.wait_us.p50", "us"),
    ("net.jobs", "count"),
    ("net.cache_hit_frac", "ratio"),
    // set-up, by layer
    ("graph.gen_s", "s"),
    ("catalog.register_s", "s"),
    ("service.start_s", "s"),
    ("dynamic.seed_s", "s"),
    ("setup.warmup_s", "s"),
    // the traced run's own end-to-end figures: the difference from
    // the untraced run is the tracing overhead
    ("traced.ops_per_s", "1/s"),
    ("traced.op_ms.p50", "ms"),
    // the tail: spread too far between runs of the same code to gate
    ("traced.op_ms.p90", "ms"),
];

/// Named metric values; names must come from one of the tables.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in neither table"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of `table` as the result line's `metrics` object;
    /// unset metrics read 0.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + json.matches("\"why\": ").count(),
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("op_ms.p50", 1.25);
        let line = result_line(true, 3, 0, &m.to_json(END_TO_END));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"op_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
