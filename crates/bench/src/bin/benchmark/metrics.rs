//! The benchmark's metric names — the vocabulary every later performance or
//! simplicity claim in this repo is made in. `BENCHMARK.json` repeats these
//! tables; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the metric
    /// may worsen before it is a regression. Per-layer metrics explain, they
    /// do not gate.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the server sees, per workload, from the untraced run —
/// the end-to-end metrics that repeat within their bound on the 2-vCPU
/// reference box, and so can gate. `setup_s` is here because the driver
/// requires it, with the bound the driver advises for it (its largest):
/// between two half-hours its median moved by 18 %.
pub const END_TO_END: [MetricDef; 2] =
    [gated("setup_s", "s", Lower, 0.25), gated("server_rss_mib", "MiB", Lower, 0.10)];

/// The other end-to-end metrics of ISSUE 12, with the bounds it gave them.
/// On the reference box they do not repeat within those bounds (README,
/// "Resolved and unresolved"), and a bound is not widened to fit the noise:
/// they are measured in every run and reported with the per-layer metrics,
/// and `compare` calls a row beyond its bound "unresolved", which fails
/// nothing.
pub const UNRESOLVED: [(&str, f64); 5] = [
    ("ingest_mib_s", 0.05),
    ("cpu_ms_per_mib", 0.05),
    ("handshake_ms", 0.10),
    ("match_latency_p50_ms", 0.10),
    ("match_latency_p95_ms", 0.10),
];

/// One layer each (layer = module), from the traced run.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("ingest_mib_s", "MiB/s", Higher),
    layer("cpu_ms_per_mib", "core-ms/MiB", Lower),
    layer("handshake_ms", "ms", Lower),
    layer("match_latency_p50_ms", "ms", Lower),
    layer("match_latency_p95_ms", "ms", Lower),
    layer("datasets.generate_s", "s", Lower),
    layer("xmlstream.lexer.tags_only_mib_s", "MiB/s", Higher),
    layer("xmlstream.lexer.tags_only_ns_per_tag", "ns/tag", Lower),
    layer("xmlstream.lexer.full_mib_s", "MiB/s", Higher),
    layer("xmlstream.lexer.tags", "count", Lower),
    layer("xmlstream.window.split_mib_s", "MiB/s", Higher),
    layer("xmlstream.split.split_chunks_mib_s", "MiB/s", Higher),
    layer("xpath.compile_us", "us", Lower),
    layer("automaton.compile_ms", "ms", Lower),
    layer("automaton.states", "count", Lower),
    layer("automaton.symbols", "count", Lower),
    layer("automaton.table_bytes", "bytes", Lower),
    layer("automaton.classify_ns_per_tag", "ns/tag", Lower),
    layer("automaton.run_sequential_mib_s", "MiB/s", Higher),
    layer("automaton.run_sequential_ns_per_tag", "ns/tag", Lower),
    layer("core.process_chunk_mib_s", "MiB/s", Higher),
    layer("core.process_chunk_ns_per_tag", "ns/tag", Lower),
    layer("core.transitions_out_of_order", "count", Lower),
    layer("core.transitions_in_order", "count", Lower),
    layer("core.convergence_overhead", "ratio", Lower),
    layer("core.join.fold_us_per_chunk", "us/chunk", Lower),
    layer("core.engine.run_t1_mib_s", "MiB/s", Higher),
    layer("core.engine.run_tn_mib_s", "MiB/s", Higher),
    layer("core.engine.speedup_tn", "ratio", Higher),
    layer("runtime.process_reader_mib_s", "MiB/s", Higher),
    layer("runtime.process_materialized_mib_s", "MiB/s", Higher),
    layer("runtime.serve_reader_mib_s", "MiB/s", Higher),
    layer("runtime.wire.vectored_mib_s", "MiB/s", Higher),
    layer("runtime.wire.encode_ns_per_frame", "ns/frame", Lower),
    layer("runtime.wire.decode_ns_per_frame", "ns/frame", Lower),
    layer("runtime.wire.handshake_decode_us", "us", Lower),
    layer("runtime.retain.collect_ns_per_match", "ns/match", Lower),
    layer("runtime.subscribe.shared_stream_mib_s", "MiB/s", Higher),
    layer("runtime.subscribe.shed_frames", "count", Lower),
    layer("runtime.reactor.polls", "count", Lower),
    layer("runtime.reactor.wakeups", "count", Lower),
    layer("runtime.reactor.peak_outbox_bytes", "bytes", Lower),
    layer("runtime.egress.borrowed_bytes", "bytes", Higher),
    layer("runtime.egress.copied_bytes", "bytes", Lower),
    layer("runtime.retain.peak_retained_bytes", "bytes", Lower),
    layer("runtime.pool.peak_queue_depth", "count", Lower),
    layer("runtime.sessions.completed", "count", Higher),
    layer("runtime.sessions.failed", "count", Lower),
    layer("runtime.server.rss_median_mib", "MiB", Lower),
    layer("runtime.server.threads", "count", Lower),
    layer("bench.generator.lateness_p95_ms", "ms", Lower),
    layer("bench.trace.overhead_pct", "%", Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects a run's values, refusing names the tables do not know — a
/// metric renamed in one place only must fail loudly, not vanish.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<Metric>,
}

impl MetricSet {
    pub fn set(&mut self, name: &str, value: f64) -> crate::Result<()> {
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .ok_or_else(|| format!("metric {name} is not in the benchmark's tables"))?;
        self.values.push(Metric { name: def.name, value, unit: def.unit });
        Ok(())
    }

    /// The measured values of one table's metrics.
    pub fn of(&self, defs: &[MetricDef]) -> Vec<Metric> {
        self.values.iter().filter(|m| defs.iter().any(|d| d.name == m.name)).cloned().collect()
    }

    /// Names `defs` lists but the run did not produce (or produced as a
    /// non-number).
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.values.iter().any(|m| m.name == d.name && m.value.is_finite()))
            .map(|d| d.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn defs_as_json(defs: &[MetricDef]) -> Json {
        Json::Arr(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", Json::str(d.name)),
                        ("unit", Json::str(d.unit)),
                        ("better", Json::str(if d.better == Higher { "higher" } else { "lower" })),
                    ];
                    if let Some(bound) = d.bound {
                        fields.push(("bound", Json::Num(bound)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }

    /// `BENCHMARK.json` is written by hand to the driver's schema; this is
    /// what keeps it equal to the tables the binary actually reports from.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        // Relative to this file, so it holds for both packages that build it.
        let text = include_str!("../../../../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(json.get("end_to_end"), Some(&defs_as_json(&END_TO_END)));
        assert_eq!(json.get("per_layer"), Some(&defs_as_json(&PER_LAYER)));
        let workloads = Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                .collect(),
        );
        assert_eq!(json.get("workloads"), Some(&workloads));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is too long", w.name);
            assert!(w.why.contains(&format!("Paced at {} MiB/s", w.paced_mib_s)), "{}", w.name);
        }
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_schema() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            // The driver refuses a bound above a quarter.
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        // The driver gates set-up time under exactly this name.
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn a_metric_set_files_by_table_and_knows_what_is_missing() {
        let mut set = MetricSet::default();
        set.set("setup_s", 1.0).unwrap();
        set.set("datasets.generate_s", 2.0).unwrap();
        set.set(END_TO_END[1].name, f64::NAN).unwrap();
        assert!(set.set("ingest_mb_s", 1.0).is_err());
        assert_eq!(set.of(&PER_LAYER).len(), 1);
        assert_eq!(set.of(&END_TO_END).len(), 2);
        let missing = set.missing(&END_TO_END);
        assert!(!missing.contains(&"setup_s") && missing.contains(&END_TO_END[1].name));
        assert_eq!(missing.len(), END_TO_END.len() - 1);
    }
}
