//! Metric names, units and the one-line JSON result the driver reads.

use serde::Value;

/// The eight end-to-end metrics, the same on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ttft_ms_p50", "ms"),
    ("itl_ms_p50", "ms"),
    ("request_ms_p50", "ms"),
    ("output_tokens_per_s", "tok/s"),
    ("requests_per_s", "req/s"),
    ("rouge2_miss", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, grouped by layer prefix.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("kf_serve.parse_generate_us", "us"),
    ("kf_serve.content_hash_us", "us"),
    ("kf_serve.cache_get_insert_us", "us"),
    ("kf_serve.cache_hit_ratio", "ratio"),
    ("kf_serve.coalesced_share", "ratio"),
    ("kf_serve.stream_event_us", "us"),
    ("kf_serve.job_table_us", "us"),
    ("kf_serve.wire_overhead_ms", "ms"),
    ("kf_serve.jobs_failed", "count"),
    ("serve.submit_us", "us"),
    ("serve.step_prefill_ms", "ms"),
    ("serve.step_decode_ms", "ms"),
    ("serve.sched_self_share", "ratio"),
    ("serve.mean_batch_size", "count"),
    ("serve.peak_concurrency", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.preemptions", "count"),
    ("serve.prefill_stalls", "count"),
    ("serve.recompute_share", "ratio"),
    ("model.session_begin_us", "us"),
    ("model.prefill_tokens_per_s", "tok/s"),
    ("model.decode_step_us", "us"),
    ("model.prefill_share_of_ttft", "ratio"),
    ("model.decode_gflops_computed", "GFLOP/s"),
    ("model.kv_bytes_read_per_token_computed", "B"),
    ("core.append_us", "us"),
    ("core.append_seal_us", "us"),
    ("core.retain_slots_us", "us"),
    ("core.prompt_evict_ms", "ms"),
    ("core.policy_step_us", "us"),
    ("core.attn_read_us", "us"),
    ("core.attn_read_u8_us", "us"),
    ("core.rotated_sync_us", "us"),
    ("core.pool_alloc_release_ns", "ns"),
    ("core.pool_allocs_per_token", "count"),
    ("core.pool_peak_in_use_blocks", "count"),
    ("core.pool_utilization", "ratio"),
    ("core.peak_live_kv_bytes", "B"),
    ("core.prefix_match_attach_us", "us"),
    ("core.prefix_register_us", "us"),
    ("core.prefix_hit_ratio", "ratio"),
    ("core.prefix_reused_share", "ratio"),
    ("tensor.matvec_gflops", "GFLOP/s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.softmax_ns_per_elem", "ns"),
    ("tensor.topk_us", "us"),
    ("text.dataset_gen_ms", "ms"),
    ("loadgen.ttft_ms_p95", "ms"),
    ("loadgen.itl_ms_p95", "ms"),
    ("loadgen.request_ms_p95", "ms"),
    ("loadgen.lateness_ms_p95", "ms"),
    ("loadgen.open_loop_ack_ms_p95", "ms"),
    ("loadgen.requests_sent", "count"),
    ("loadgen.requests_ok", "count"),
    ("loadgen.requests_failed", "count"),
    ("loadgen.trace_overhead_share", "ratio"),
    ("loadgen.latency_samples", "count"),
];

/// A JSON object from ordered key/value pairs.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// One reported metric: `(name, unit, value)`.
pub type Row<'t> = (&'t str, &'t str, Option<f64>);

/// Measured values by metric name; `None` marks a layer the workload
/// bypasses.
#[derive(Default)]
pub struct Metrics(Vec<(String, Option<f64>)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: Option<f64>) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn extend<'a>(&mut self, values: impl IntoIterator<Item = (&'a str, Option<f64>)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    /// The measured value; `None` when bypassed *or* never measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name)?.1
    }

    fn measured(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    /// `table`'s metrics in table order as `(name, unit, value)`.
    ///
    /// # Errors
    ///
    /// Names a metric of the table that was never set: every metric is
    /// emitted on every workload, explicitly `None` where it does not apply.
    pub fn rows<'t>(&self, table: &'t [(&'t str, &'t str)]) -> Result<Vec<Row<'t>>, String> {
        table
            .iter()
            .map(|&(name, unit)| {
                if self.measured(name) {
                    Ok((name, unit, self.get(name)))
                } else {
                    Err(format!("metric `{name}` was not measured"))
                }
            })
            .collect()
    }
}

/// The driver's result line. A bypassed layer reads `0`: the line carries
/// numbers only (the `out/` report and `--all` keep the explicit `null`).
pub fn result_line(correct: bool, attempted: usize, failed: usize, rows: &[Row<'_>]) -> String {
    let metrics = rows
        .iter()
        .map(|&(name, unit, value)| {
            let measured = object(vec![
                ("value", Value::Float(value.unwrap_or(0.0))),
                ("unit", Value::Str(unit.to_string())),
            ]);
            (name, measured)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1) as u64)),
        ("failed", Value::UInt(failed as u64)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).expect("metric values are finite")
}

/// A human-readable metric table: one `name value unit` row per metric.
pub fn table(rows: &[Row<'_>]) -> String {
    rows.iter()
        .map(|&(name, unit, value)| match value {
            Some(v) => format!("  {name:<42} {v:>16.4} {unit}\n"),
            None => format!("  {name:<42} {:>16} {unit}\n", "null"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Seq(items) = doc.field(key).unwrap() else {
            panic!("`{key}` is a list");
        };
        items
            .iter()
            .map(|item| {
                let text = |k: &str| match item.field(k).unwrap() {
                    Value::Str(s) => s.clone(),
                    other => panic!("`{k}` is a string, got {other:?}"),
                };
                (
                    text("name"),
                    text(if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_of_the_harness() {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        let doc = serde_json::from_str::<Value>(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let own_workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names(&doc, "workloads"), own_workloads);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let rows = [
            ("setup_s", "s", Some(0.25)),
            ("core.append_seal_us", "us", None),
        ];
        let line = result_line(true, 12, 0, &rows);
        assert!(!line.contains('\n'));
        let doc = serde_json::from_str::<Value>(&line).unwrap();
        assert_eq!(doc.field("correct").unwrap(), &Value::Bool(true));
        assert_eq!(doc.field("attempted").unwrap(), &Value::UInt(12));
        assert_eq!(doc.field("failed").unwrap(), &Value::UInt(0));
        let metrics = doc.field("metrics").unwrap();
        assert_eq!(
            metrics.field("setup_s").unwrap().field("value").unwrap(),
            &Value::Float(0.25)
        );
        assert_eq!(
            metrics
                .field("core.append_seal_us")
                .unwrap()
                .field("value")
                .unwrap(),
            &Value::Float(0.0)
        );
    }

    #[test]
    fn an_unmeasured_metric_is_an_error_not_a_silent_gap() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", Some(1.0));
        metrics.set("ttft_ms_p50", None);
        let table = [("setup_s", "s"), ("ttft_ms_p50", "ms")];
        assert_eq!(
            metrics.rows(&table).unwrap(),
            vec![("setup_s", "s", Some(1.0)), ("ttft_ms_p50", "ms", None)]
        );
        assert!(metrics.rows(&[("itl_ms_p50", "ms")]).is_err());
    }
}
