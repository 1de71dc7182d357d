//! One function per table/figure of the paper's evaluation section (§5).
//!
//! Each experiment generates its workload at a configurable scale, runs the
//! PP-Transducer engine (and the relevant baselines), and returns a
//! [`Table`] whose rows mirror the series the paper plots. Absolute numbers
//! depend on the host; the *shape* (who wins, where curves flatten, where
//! crossovers fall) is what reproduces the paper's claims. `EXPERIMENTS.md`
//! records both.

use crate::report::{fmt_f64, fmt_secs, Table};
use crate::workloads;
use ppt_baselines::{
    FragmentDomEngine, FragmentSaxEngine, FragmentStreamEngine, IndexedEngine,
    SequentialStreamEngine,
};
use ppt_core::chunk::sequential_transitions;
use ppt_core::join::run_all_states;
use ppt_core::{Engine, EngineConfig, RunStats};
use ppt_datasets::{dataset_stats, random_treebank_queries, xpathmark_queries, SkewMode};

/// Unwraps a constructor `Result` over the hard-coded experiment inputs.
///
/// Every query string and dataset in this module is generated by the harness
/// itself, so a failure here is a bug in the experiment tables rather than
/// bad user input — a loud panic with context is the right response, and
/// centralising it here keeps rule L3 waivers out of every figure function.
fn must<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| panic!("{what}: {e:?}"))
}

/// Scale and parallelism knobs shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Target dataset size in bytes (the paper uses tens of GB; the default
    /// here is laptop-sized — pass `--scale-mb` to grow it).
    pub dataset_bytes: usize,
    /// Maximum number of worker threads swept by the scaling experiments.
    pub max_threads: usize,
    /// Chunk size for the PP-Transducer.
    pub chunk_size: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            dataset_bytes: 8 << 20,
            max_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            chunk_size: 1 << 20,
        }
    }
}

impl ExpConfig {
    fn engine(&self, queries: &[impl AsRef<str>], threads: usize) -> Engine {
        must(
            Engine::with_config(
                queries,
                EngineConfig {
                    chunk_size: self.chunk_size,
                    threads: Some(threads),
                    ..EngineConfig::default()
                },
            ),
            "experiment queries must compile",
        )
    }

    /// A fragment size comparable to the chunk size, used by the baselines.
    fn fragment_size(&self) -> usize {
        self.chunk_size
    }
}

/// A run's chunks as `in order/speculative`: on one thread every chunk runs
/// in order; a thread that would otherwise idle speculates only while that
/// pays.
fn chunk_modes(stats: &RunStats) -> String {
    format!("{}/{}", stats.chunks_in_order, stats.chunks_speculative)
}

/// Table 1: structural properties of the datasets.
pub fn table1(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Table 1: properties of the (synthetic) XML datasets",
        &["Dataset", "Bytes", "# XML tags", "Max depth", "Avg depth", "Avg branch"],
    );
    for (name, data) in [
        ("XMark", workloads::xmark(cfg.dataset_bytes)),
        ("Treebank", workloads::treebank(cfg.dataset_bytes)),
        ("Twitter", workloads::twitter(cfg.dataset_bytes)),
    ] {
        let s = dataset_stats(&data);
        t.row(vec![
            name.to_string(),
            s.bytes.to_string(),
            s.tags.to_string(),
            s.max_depth.to_string(),
            format!("{:.2}", s.avg_depth),
            format!("{:.2}", s.avg_branch),
        ]);
    }
    t.note("datasets are synthetic stand-ins generated to match the schema shapes of Table 1");
    t
}

/// Table 2: the XPathMark workload — sub-query counts, sub-matches, matches.
pub fn table2(cfg: &ExpConfig) -> Table {
    let data = workloads::xmark(cfg.dataset_bytes);
    let queries = xpathmark_queries();
    let engine = cfg.engine(&queries.iter().map(|(_, q)| *q).collect::<Vec<_>>(), cfg.max_threads);
    let result = engine.run(&data);
    let mut t = Table::new(
        "Table 2: XPathMark rules used for the query workload",
        &["Name", "XPath query", "# sub-queries", "# sub-matches", "# matches"],
    );
    for (i, (id, q)) in queries.iter().enumerate() {
        t.row(vec![
            id.to_string(),
            q.to_string(),
            engine.plan().queries[i].subquery_count().to_string(),
            result.submatch_counts[i].to_string(),
            result.match_count(i).to_string(),
        ]);
    }
    t
}

/// Fig 7: throughput vs. CPU cores for PPT, the DOM baseline and the SAX
/// baseline on the Treebank dataset with 5 concurrent queries.
pub fn fig7(cfg: &ExpConfig) -> Table {
    let data = workloads::treebank(cfg.dataset_bytes);
    let queries = random_treebank_queries(5, 4, 7);
    let dom = must(FragmentDomEngine::new(&queries), "DOM baseline queries")
        .fragment_size(cfg.fragment_size());
    let sax = must(FragmentSaxEngine::new(&queries), "SAX baseline queries")
        .fragment_size(cfg.fragment_size());
    let mut t = Table::new(
        "Fig 7: scalability with different XPath processors (Treebank, 5 queries, MB/s)",
        &[
            "Threads",
            "PP-Transducer",
            "PugiXML-like (DOM)",
            "Expat-like (SAX)",
            "PPT chunks in order/speculative",
        ],
    );
    for threads in workloads::thread_counts(cfg.max_threads) {
        let ppt = cfg.engine(&queries, threads).run(&data);
        let d = dom.run(&data, threads);
        let s = sax.run(&data, threads);
        t.row(vec![
            threads.to_string(),
            fmt_f64(ppt.stats.throughput_mbs()),
            fmt_f64(d.throughput_mbs()),
            fmt_f64(s.throughput_mbs()),
            chunk_modes(&ppt.stats),
        ]);
    }
    t
}

/// Fig 8: PPT throughput vs. CPU cores per dataset.
pub fn fig8(cfg: &ExpConfig) -> Table {
    let twitter = workloads::twitter(cfg.dataset_bytes);
    let xmark = workloads::xmark(cfg.dataset_bytes);
    let treebank = workloads::treebank(cfg.dataset_bytes);
    let tw_queries = vec![ppt_datasets::twitter_query().to_string()];
    let xm_queries: Vec<String> =
        xpathmark_queries().iter().take(5).map(|(_, q)| q.to_string()).collect();
    let tb_queries = random_treebank_queries(5, 4, 7);
    let mut t = Table::new(
        "Fig 8: PP-Transducer scaling behaviour under different datasets (MB/s)",
        &["Threads", "Twitter", "XMark", "Treebank"],
    );
    for threads in workloads::thread_counts(cfg.max_threads) {
        let tw = cfg.engine(&tw_queries, threads).run(&twitter);
        let xm = cfg.engine(&xm_queries, threads).run(&xmark);
        let tb = cfg.engine(&tb_queries, threads).run(&treebank);
        t.row(vec![
            threads.to_string(),
            fmt_f64(tw.stats.throughput_mbs()),
            fmt_f64(xm.stats.throughput_mbs()),
            fmt_f64(tb.stats.throughput_mbs()),
        ]);
    }
    t
}

/// Fig 9: cache-pressure proxy vs. CPU cores (the paper reports hardware IPC,
/// which is not portably measurable; we report the per-worker working set —
/// the quantity whose growth explains the DOM baseline's falling IPC).
pub fn fig9(cfg: &ExpConfig) -> Table {
    let data = workloads::treebank(cfg.dataset_bytes);
    let queries = random_treebank_queries(5, 4, 7);
    let dom = must(FragmentDomEngine::new(&queries), "DOM baseline queries")
        .fragment_size(cfg.fragment_size());
    let mut t = Table::new(
        "Fig 9 (proxy): per-worker working set vs. CPU cores (KiB; paper reports IPC)",
        &[
            "Threads",
            "PPT working set",
            "PPT shared tables",
            "DOM working set",
            "Sub-query matches",
            "Match records",
        ],
    );
    for threads in workloads::thread_counts(cfg.max_threads) {
        let ppt = cfg.engine(&queries, threads).run(&data);
        let d = dom.run(&data, threads);
        t.row(vec![
            threads.to_string(),
            format!("{}", ppt.stats.working_set_bytes / 1024),
            format!("{}", ppt.stats.shared_table_bytes / 1024),
            format!("{}", d.working_set_bytes / 1024),
            ppt.stats.subquery_matches.to_string(),
            ppt.stats.match_records.to_string(),
        ]);
    }
    t.note("match records / sub-query matches = how many execution paths' outputs the out-of-order chunks stored per real match; the PPT working set includes that log");
    t.note("substitution: hardware IPC counters are unavailable; the per-worker working set is the proxy (PPT stays cache-resident, the DOM baseline's grows with fragment size)");
    t
}

/// Fig 10: PPT throughput vs. cores with a least-squares regression over the
/// linear region (up to 16 cores in the paper).
pub fn fig10(cfg: &ExpConfig) -> Table {
    let data = workloads::treebank(cfg.dataset_bytes);
    let queries = random_treebank_queries(5, 4, 7);
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut t = Table::new(
        "Fig 10: throughput per CPU core with line of regression (Treebank, MB/s)",
        &["Threads", "Throughput", "Regression"],
    );
    let threads_list = workloads::thread_counts(cfg.max_threads);
    for &threads in &threads_list {
        let ppt = cfg.engine(&queries, threads).run(&data);
        points.push((threads as f64, ppt.stats.throughput_mbs()));
    }
    let linear_region: Vec<(f64, f64)> =
        points.iter().copied().filter(|(x, _)| *x <= 16.0).collect();
    let (slope, intercept) = linear_regression(&linear_region);
    for (x, y) in &points {
        t.row(vec![format!("{x}"), fmt_f64(*y), fmt_f64(slope * x + intercept)]);
    }
    t.note(&format!(
        "regression over the linear region (<=16 cores): throughput ~= {:.1} * cores + {:.1}",
        slope, intercept
    ));
    t
}

/// Fig 11: throughput of every approach on the Twitter dataset for 1, 10 and
/// 100 concurrent queries.
pub fn fig11(cfg: &ExpConfig) -> Table {
    let data = workloads::twitter(cfg.dataset_bytes);
    let mut t = Table::new(
        "Fig 11: throughput of querying the Twitter dataset (MB/s)",
        &["Approach", "1 query", "10 queries", "100 queries"],
    );
    let query_counts = [1usize, 10, 100];
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("PPT (1 thread)".into(), Vec::new()),
        (format!("PPT ({} threads)", cfg.max_threads), Vec::new()),
        ("PugiXML-like (not split)".into(), Vec::new()),
        ("PugiXML-like (split)".into(), Vec::new()),
        ("Expat-like (SAX)".into(), Vec::new()),
        ("MxQuery-like (sequential)".into(), Vec::new()),
        ("XMLTK-like (no split)".into(), Vec::new()),
        ("XMLTK-like (split)".into(), Vec::new()),
        ("FPGA (reported in literature)".into(), Vec::new()),
    ];
    for &count in &query_counts {
        let queries = workloads::twitter_query_set(count);
        let ppt1 = cfg.engine(&queries, 1).run(&data);
        let pptn = cfg.engine(&queries, cfg.max_threads).run(&data);
        let dom = must(FragmentDomEngine::new(&queries), "DOM baseline queries")
            .fragment_size(cfg.fragment_size());
        let dom_whole = dom.run_whole_document(&data).map(|r| r.throughput_mbs()).unwrap_or(0.0);
        let dom_split = dom.run(&data, cfg.max_threads).throughput_mbs();
        let sax = must(FragmentSaxEngine::new(&queries), "SAX baseline queries")
            .fragment_size(cfg.fragment_size())
            .run(&data, cfg.max_threads)
            .throughput_mbs();
        let seq = must(SequentialStreamEngine::new(&queries), "stream baseline queries")
            .run(&data)
            .throughput_mbs();
        let xmltk_no_split = must(FragmentStreamEngine::new(&queries), "xmltk baseline queries")
            .fragment_size(usize::MAX / 2)
            .run(&data, 1)
            .throughput_mbs();
        let xmltk_split = must(FragmentStreamEngine::new(&queries), "xmltk baseline queries")
            .fragment_size(cfg.fragment_size())
            .run(&data, cfg.max_threads)
            .throughput_mbs();
        let values = [
            ppt1.stats.throughput_mbs(),
            pptn.stats.throughput_mbs(),
            dom_whole,
            dom_split,
            sax,
            seq,
            xmltk_no_split,
            xmltk_split,
            300.0, // Moussalli et al. FPGA figure quoted in the paper.
        ];
        for (row, v) in rows.iter_mut().zip(values) {
            row.1.push(v);
        }
    }
    for (name, values) in rows {
        let mut cells = vec![name];
        cells.extend(values.iter().map(|v| fmt_f64(*v)));
        t.row(cells);
    }
    t.note("the FPGA row is the constant ~300 MB/s figure the paper cites for Moussalli et al.");
    t
}

/// Fig 12: execution time in comparison to DBMSs — load time plus per-query
/// times for the XPathMark A set.
pub fn fig12(cfg: &ExpConfig) -> Table {
    let data = workloads::xmark(cfg.dataset_bytes);
    let a_queries: Vec<(&str, &str)> =
        xpathmark_queries().into_iter().filter(|(id, _)| id.starts_with('A')).collect();
    let query_strs: Vec<&str> = a_queries.iter().map(|(_, q)| *q).collect();
    let indexed = must(IndexedEngine::new(&query_strs), "indexed baseline queries");
    let store = must(indexed.load(&data), "generated XMark is well-formed");
    let mut t = Table::new(
        "Fig 12: execution times in comparison to a DBMS-like indexed engine",
        &["Phase / query", "Indexed (MonetDB/Sedna-like)", "PP-Transducer"],
    );
    t.row(vec![
        "Loading".to_string(),
        fmt_secs(store.load_time()),
        "0 (no load phase)".to_string(),
    ]);
    for (i, (id, q)) in a_queries.iter().enumerate() {
        let (_, indexed_time) = indexed.query(&store, i);
        let ppt = cfg.engine(&[*q], cfg.max_threads).run(&data);
        t.row(vec![
            format!("Query {id}"),
            fmt_secs(indexed_time),
            fmt_secs(ppt.stats.timings.total),
        ]);
    }
    t.note(&format!(
        "indexed load throughput: {:.1} MB/s — the bound on a DBMS used in a streaming setting",
        store.load_throughput_mbs()
    ));
    t
}

/// Fig 13: breakdown of PPT execution time into parallel / join / filter per
/// XPathMark A query.
pub fn fig13(cfg: &ExpConfig) -> Table {
    let data = workloads::xmark(cfg.dataset_bytes);
    let mut t = Table::new(
        "Fig 13: breakdown of query execution time for the PP-Transducer",
        &["Query", "Parallel", "Join", "Filter", "Total", "Chunks in order/speculative"],
    );
    for (id, q) in xpathmark_queries().iter().filter(|(id, _)| id.starts_with('A')) {
        let ppt = cfg.engine(&[*q], cfg.max_threads).run(&data);
        let s = &ppt.stats.timings;
        t.row(vec![
            id.to_string(),
            fmt_secs(s.parallel),
            fmt_secs(s.join),
            fmt_secs(s.filter),
            fmt_secs(s.total),
            chunk_modes(&ppt.stats),
        ]);
    }
    t.note("the join runs beside the chunks, on a thread with no chunk to run, so Parallel includes it");
    t
}

/// Fig 14: throughput per core vs. number of rules, for rule lengths 4/5/6.
pub fn fig14(cfg: &ExpConfig) -> Table {
    let data = workloads::treebank(cfg.dataset_bytes);
    let mut t = Table::new(
        "Fig 14: throughput reduction for larger sets of queries (MB/s per core)",
        &["# rules", "length 4", "length 5", "length 6"],
    );
    for rules in [20usize, 50, 100, 150, 200] {
        let mut cells = vec![rules.to_string()];
        for length in [4usize, 5, 6] {
            let queries = random_treebank_queries(rules, length, 11);
            let ppt = cfg.engine(&queries, cfg.max_threads).run(&data);
            cells.push(fmt_f64(ppt.stats.throughput_per_core_mbs()));
        }
        t.row(cells);
    }
    t
}

/// Fig 15: throughput per core vs. tree depth for branching factors 3/4/5.
pub fn fig15(cfg: &ExpConfig) -> Table {
    let queries = random_treebank_queries(20, 4, 13);
    let mut t = Table::new(
        "Fig 15: improved throughput for deeper and wider XML trees (MB/s per core)",
        &["Tree depth", "branch 3", "branch 4", "branch 5"],
    );
    for depth in [4usize, 5, 6, 7, 8, 9, 10] {
        let mut cells = vec![depth.to_string()];
        for branch in [3usize, 4, 5] {
            let data = workloads::synth(depth, branch, cfg.dataset_bytes / 2);
            let ppt = cfg.engine(&queries, cfg.max_threads).run(&data);
            cells.push(fmt_f64(ppt.stats.throughput_per_core_mbs()));
        }
        t.row(cells);
    }
    t
}

/// Fig 16: execution time vs. chunk size.
pub fn fig16(cfg: &ExpConfig) -> Table {
    let data = workloads::treebank(cfg.dataset_bytes);
    let queries = random_treebank_queries(5, 4, 7);
    let mut t = Table::new(
        "Fig 16: execution time decrease for larger chunk sizes (Treebank)",
        &["Chunk size (kB)", "Parallel", "Join", "Total", "Chunks in order/speculative"],
    );
    for chunk_kb in [10usize, 30, 100, 300, 1000, 3000, 10000] {
        let engine = Engine::with_config(
            &queries,
            EngineConfig {
                chunk_size: chunk_kb * 1000,
                threads: Some(cfg.max_threads),
                ..EngineConfig::default()
            },
        );
        let engine = must(engine, "experiment queries must compile");
        let r = engine.run(&data);
        t.row(vec![
            chunk_kb.to_string(),
            fmt_secs(r.stats.timings.parallel),
            fmt_secs(r.stats.timings.join),
            fmt_secs(r.stats.timings.total),
            chunk_modes(&r.stats),
        ]);
    }
    t
}

/// Figs 17/18: throughput per core vs. data-skew scale factor, for tag-skew
/// and text-skew, PPT vs. the DOM baseline.
pub fn fig18(cfg: &ExpConfig) -> Table {
    let queries = random_treebank_queries(5, 4, 7);
    let items = (cfg.dataset_bytes / 200).max(100);
    let mut t = Table::new(
        "Figs 17/18: decreased throughput as data skew increases (MB/s per core)",
        &["Scale factor", "PPT (tags)", "DOM (tags)", "PPT (text)", "DOM (text)"],
    );
    for scale in [0.0f64, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
        let mut cells = vec![format!("{scale:.1}")];
        for mode in [SkewMode::Tags, SkewMode::Text] {
            let data = workloads::skew(mode, scale, items);
            let ppt = cfg.engine(&queries, cfg.max_threads).run(&data);
            let dom = must(FragmentDomEngine::new(&queries), "DOM baseline queries")
                .fragment_size(cfg.fragment_size())
                .run(&data, cfg.max_threads);
            cells.push(fmt_f64(ppt.stats.throughput_per_core_mbs()));
            cells.push(fmt_f64(dom.throughput_mbs() / cfg.max_threads as f64));
        }
        t.row(cells);
    }
    t
}

/// Fig 20: worker idle time vs. data-skew scale factor.
pub fn fig20(cfg: &ExpConfig) -> Table {
    let queries = random_treebank_queries(5, 4, 7);
    let items = (cfg.dataset_bytes / 200).max(100);
    let mut t = Table::new(
        "Fig 20: increased idle time as data skew increases (% of query phase)",
        &["Scale factor", "PPT (tags)", "DOM (tags)", "PPT (text)", "DOM (text)"],
    );
    for scale in [0.0f64, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
        let mut cells = vec![format!("{scale:.1}")];
        for mode in [SkewMode::Tags, SkewMode::Text] {
            let data = workloads::skew(mode, scale, items);
            let ppt = cfg.engine(&queries, cfg.max_threads).run(&data);
            let dom = must(FragmentDomEngine::new(&queries), "DOM baseline queries")
                .fragment_size(cfg.fragment_size())
                .run(&data, cfg.max_threads);
            cells.push(format!("{:.1}", ppt.stats.idle_fraction * 100.0));
            cells.push(format!("{:.1}", dom.idle_fraction * 100.0));
        }
        t.row(cells);
    }
    t
}

/// §3.3: the convergence overhead of out-of-order execution (out-of-order
/// transitions divided by in-order transitions) per dataset: every chunk
/// but the first run from all states ([`ppt_core::process_chunk`]) over one
/// in-order pass ([`sequential_transitions`]), as the benchmark's per-layer
/// ledger counts it, so the figure does not depend on scheduling.
pub fn overhead(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "§3.3: transition overhead of out-of-order execution (x in-order)",
        &["Dataset", "Chunk size (kB)", "Overhead factor", "Sub-query matches", "Match records"],
    );
    let cases: [(&str, Vec<u8>, Vec<String>); 3] = [
        (
            "XMark",
            workloads::xmark(cfg.dataset_bytes),
            xpathmark_queries().iter().take(3).map(|(_, q)| q.to_string()).collect(),
        ),
        ("Treebank", workloads::treebank(cfg.dataset_bytes), random_treebank_queries(5, 4, 7)),
        (
            "Twitter",
            workloads::twitter(cfg.dataset_bytes),
            vec![ppt_datasets::twitter_query().to_string()],
        ),
    ];
    for (name, data, queries) in cases {
        let engine = must(Engine::from_queries(&queries), "experiment queries must compile");
        let (transducer, spans) = (engine.transducer(), engine.config().resolve_spans);
        let in_order = sequential_transitions(transducer, &data).max(1);
        for chunk_kb in [100usize, 1000] {
            // Every chunk but the first from all states, whatever a run of
            // the engine would schedule.
            let kind = engine.config().engine;
            let (_, s) = run_all_states(transducer, &data, chunk_kb * 1000, kind, spans);
            t.row(vec![
                name.to_string(),
                chunk_kb.to_string(),
                format!("{:.2}", s.parallel_transitions as f64 / in_order as f64),
                s.subquery_matches.to_string(),
                s.match_records.to_string(),
            ]);
        }
    }
    t.note("the paper reports 1.1x-3x for 10 MB chunks (§3.3)");
    t.note("match records / sub-query matches is the output-side overhead: records stored for every execution path per match of the real one");
    t
}

/// Simple least-squares fit; returns (slope, intercept).
fn linear_regression(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, sy / n);
    }
    let slope = (n * sxy - sx * sy) / denom;
    (slope, (sy - slope * sx) / n)
}

/// An experiment implementation: config in, result table out.
pub type ExperimentFn = fn(&ExpConfig) -> Table;

/// Every experiment by identifier, in presentation order.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1", table1 as ExperimentFn),
        ("table2", table2),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig18", fig18),
        ("fig20", fig20),
        ("overhead", overhead),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration so experiment smoke tests stay fast.
    fn tiny() -> ExpConfig {
        ExpConfig { dataset_bytes: 150_000, max_threads: 2, chunk_size: 32 * 1024 }
    }

    #[test]
    fn linear_regression_fits_a_line() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|x| (x as f64, 3.0 * x as f64 + 2.0)).collect();
        let (slope, intercept) = linear_regression(&pts);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 2.0).abs() < 1e-9);
        assert_eq!(linear_regression(&[]), (0.0, 0.0));
    }

    #[test]
    fn table1_reports_three_datasets() {
        let t = table1(&tiny());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.headers.len(), 6);
    }

    #[test]
    fn table2_reports_all_ten_queries_with_expected_subquery_counts() {
        let t = table2(&tiny());
        assert_eq!(t.rows.len(), 10);
        let expected = ppt_datasets::queries::xpathmark_expected_subqueries();
        for (row, (_, subqueries)) in t.rows.iter().zip(expected) {
            assert_eq!(row[2], subqueries.to_string());
            // Every query finds at least one match on the generated data.
            assert!(row[4].parse::<usize>().unwrap() > 0, "no matches in row {row:?}");
        }
    }

    #[test]
    fn fig13_breaks_down_eight_queries() {
        let t = fig13(&tiny());
        assert_eq!(t.rows.len(), 8);
    }

    #[test]
    fn overhead_factors_are_reasonable() {
        let t = overhead(&tiny());
        for row in &t.rows {
            let factor: f64 = row[2].parse().unwrap();
            assert!((1.0..10.0).contains(&factor), "overhead {factor} out of range");
        }
    }

    #[test]
    fn experiment_registry_is_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 15);
        assert!(ids.contains(&"table1") && ids.contains(&"fig20") && ids.contains(&"overhead"));
    }
}
