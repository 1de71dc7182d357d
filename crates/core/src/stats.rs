//! Execution statistics collected by the PP-Transducer runtime.
//!
//! The evaluation section of the paper reports, besides raw throughput,
//! several internal quantities: the breakdown of execution time into the
//! parallel / join / filter phases (Fig 13, Fig 16), the transition-count
//! overhead of out-of-order execution (§3.3), worker idle time (Fig 20) and
//! cache-related working-set sizes (Fig 9). [`RunStats`] carries all of them
//! so the benchmark harness can regenerate those figures.

use std::time::Duration;

/// Wall-clock duration of each phase of a run (§3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Splitting the input into chunks (sequential).
    pub split: Duration,
    /// Out-of-order chunk processing (parallel).
    pub parallel: Duration,
    /// Unifying the per-chunk mappings (sequential).
    pub join: Duration,
    /// Predicate recombination (sequential).
    pub filter: Duration,
    /// End-to-end wall-clock time.
    pub total: Duration,
}

/// Statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Input size in bytes.
    pub bytes: usize,
    /// Number of chunks processed.
    pub chunks: usize,
    /// Number of worker threads used for the parallel phase.
    pub threads: usize,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Transducer transitions performed by the out-of-order engines (per
    /// first-level node / per entry, including `funknown` fan-out).
    pub parallel_transitions: u64,
    /// Number of tag events consumed (= transitions an in-order execution
    /// would have performed). The ratio of the two is the §3.3 overhead.
    pub tag_events: u64,
    /// Sum of per-chunk processing times across workers.
    pub worker_busy: Duration,
    /// Fraction of the parallel phase workers spent idle (0.0–1.0) — the
    /// quantity plotted in Fig 20.
    pub idle_fraction: f64,
    /// Largest number of distinct finishing states observed in any chunk.
    pub peak_finish_states: usize,
    /// Total number of basic sub-query matches that survived the join.
    pub subquery_matches: usize,
    /// Match records the chunks stored, over all execution paths; divided by
    /// `subquery_matches` it is the duplication the out-of-order engine pays.
    pub match_records: usize,
    /// Largest per-chunk double-tree footprint in bytes, match log and tape
    /// included (the thread-local working set of §5.2 / Fig 9).
    pub working_set_bytes: usize,
    /// Size of the shared transition tables in bytes.
    pub shared_table_bytes: usize,
}

impl RunStats {
    /// Processing throughput in MB/s (decimal megabytes, as in the paper's
    /// figures), measured over the total wall-clock time.
    pub fn throughput_mbs(&self) -> f64 {
        let secs = self.timings.total.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1_000_000.0 / secs
    }

    /// Throughput of the parallel phase alone in MB/s.
    pub fn parallel_throughput_mbs(&self) -> f64 {
        let secs = self.timings.parallel.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1_000_000.0 / secs
    }

    /// The §3.3 convergence overhead: out-of-order transitions divided by the
    /// transitions a purely sequential execution would perform. Values close
    /// to 1 mean the state mappings converged quickly.
    pub fn overhead_factor(&self) -> f64 {
        if self.tag_events == 0 {
            return 1.0;
        }
        self.parallel_transitions as f64 / self.tag_events as f64
    }

    /// Per-core throughput in MB/s (Figs 14, 15, 17/18).
    pub fn throughput_per_core_mbs(&self) -> f64 {
        if self.threads == 0 {
            return 0.0;
        }
        self.throughput_mbs() / self.threads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            bytes: 10_000_000,
            chunks: 10,
            threads: 4,
            timings: PhaseTimings {
                split: Duration::from_millis(1),
                parallel: Duration::from_millis(80),
                join: Duration::from_millis(5),
                filter: Duration::from_millis(4),
                total: Duration::from_millis(100),
            },
            parallel_transitions: 130,
            tag_events: 100,
            worker_busy: Duration::from_millis(200),
            idle_fraction: 0.25,
            peak_finish_states: 5,
            subquery_matches: 42,
            match_records: 84,
            working_set_bytes: 4096,
            shared_table_bytes: 1024,
        }
    }

    #[test]
    fn throughput_is_bytes_over_total_time() {
        let s = sample();
        assert!((s.throughput_mbs() - 100.0).abs() < 1e-9);
        assert!((s.throughput_per_core_mbs() - 25.0).abs() < 1e-9);
        assert!(s.parallel_throughput_mbs() > s.throughput_mbs());
    }

    #[test]
    fn overhead_factor_is_ratio_of_transitions() {
        let s = sample();
        assert!((s.overhead_factor() - 1.3).abs() < 1e-9);
        let empty = RunStats::default();
        assert_eq!(empty.overhead_factor(), 1.0);
        assert_eq!(empty.throughput_mbs(), 0.0);
        assert_eq!(empty.throughput_per_core_mbs(), 0.0);
    }
}
