//! One run of one workload: the run shape, the same for every workload.
//!
//! 0. exec and discard one server, so the binary is in page cache;
//! 1. generate the bytes and the oracle from `--seed` (generator-side, timed
//!    as `datasets.generate_s`, never part of `setup_s`);
//! 2. set up — spawn → ready, first handshake, one full cold pass — on
//!    five servers or more, of which the last is kept;
//! 3. sequential handshake probes;
//! 4. the saturating phase (closed loop), `--seconds / 2` long;
//! 5. the paced phase (open loop, frozen rate), as long again.
//!
//! The traced run adds the per-layer ledger in front, runs half of the
//! saturating phase without and half with spans (their difference is the
//! tracing overhead), and scrapes the server's own counters at the end.

use crate::client::{fail_if_most_are_behind, Client, Pace, PassOutcome};
use crate::metrics::{Metric, MetricDef, MetricSet, END_TO_END, PER_LAYER, UNRESOLVED};
use crate::server::{RssSampler, ServerProc};
use crate::stats::{median, nearest_rank, percentile, thin, MAX_LATENCY_SAMPLES};
use crate::trace::{Span, Tracer};
use crate::workloads::{Inputs, Workload};
use crate::{layers, Result, MIB};
use std::time::Instant;

/// Set-ups timed per run, the measured server's among them; the driver
/// gates their median. A cheap set-up is mostly the exec, and five of those
/// are few: while they fit in [`CHEAP_SETUP_SECS`], up to [`MAX_SETUPS`].
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 30;
const CHEAP_SETUP_SECS: f64 = 1.0;
/// Handshake probes kept. The [`WARMUP_PROBES`] before them find the
/// server's threads asleep and its caches cold (they take two to three times
/// as long) and are not kept.
const PROBES: usize = 40;
const WARMUP_PROBES: usize = 3;
/// An open-loop generator that runs this late was itself the bottleneck,
/// and its latencies say nothing about the server.
pub const MAX_LATENESS_P95_MS: f64 = 5.0;

/// What one run reports — the driver's result line, plus the spans of a
/// traced run.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Untraced run: the end-to-end metrics. Traced run: the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Untraced run: the per-layer metrics it measured in passing, for the
    /// reader; they are not part of its result.
    pub also: Vec<Metric>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

/// Passes run and failed so far, with the first few reasons.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn count(&mut self, phase: &str, passes: &[PassOutcome]) {
        for pass in passes {
            self.attempted += 1;
            if let Some(why) = &pass.failure {
                self.failed += 1;
                if self.problems.len() < 8 {
                    self.problems.push(format!("{phase} pass failed: {why}"));
                }
            }
        }
    }
}

/// Phase throughput: document bytes of the oracle-correct passes over the
/// wall time from the first pass's start to the last pass's end.
fn ingest_mib_s(passes: &[PassOutcome]) -> Option<f64> {
    let start = passes.iter().map(|p| p.start_ns).min()?;
    let end = passes.iter().map(|p| p.end_ns).max()?;
    let good: u64 = passes.iter().filter(|p| p.failure.is_none()).map(|p| p.bytes).sum();
    (good > 0).then(|| good as f64 / MIB / ((end - start) as f64 / 1e9))
}

fn sum_mib(passes: &[PassOutcome]) -> f64 {
    passes.iter().map(|p| p.bytes).sum::<u64>() as f64 / MIB
}

/// Step (2): spawn → ready, first handshake, one full cold pass. Returns
/// the server, still running, and the seconds all of that took.
fn set_up(inputs: &Inputs, epoch: Instant, tally: &mut Tally) -> Result<(ServerProc, f64)> {
    let started = Instant::now();
    let server = ServerProc::spawn()?;
    let cold = Client::new(server.addr, inputs, epoch, None).pass(0, Pace::Saturate);
    let secs = started.elapsed().as_secs_f64();
    tally.count("set-up", std::slice::from_ref(&cold));
    Ok((server, secs))
}

pub fn run(workload: &'static Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunReport> {
    let epoch = Instant::now();
    let phase_secs = seconds as f64 / 2.0;
    let tracer = Tracer::new(epoch);
    let mut measured = MetricSet::default();
    let mut tally = Tally::default();

    // (0) Warm the page cache with the server's binary.
    ServerProc::spawn()?.stop()?;

    // (1) Generate.
    let started = Instant::now();
    let inputs = workload.generate(seed)?;
    measured.set("datasets.generate_s", started.elapsed().as_secs_f64())?;
    if trace {
        layers::measure(&inputs, workload.layer_sample_bytes, &tracer, &mut measured)?;
    }

    // (2) Set up: on servers that are discarded, then on the one measured.
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() + 1 < MIN_SETUPS
        || (setups.len() + 1 < MAX_SETUPS && started.elapsed().as_secs_f64() < CHEAP_SETUP_SECS)
    {
        let (server, secs) = set_up(&inputs, epoch, &mut tally)?;
        server.stop()?;
        setups.push(secs);
    }
    let (server, secs) = set_up(&inputs, epoch, &mut tally)?;
    setups.push(secs);
    measured.set("setup_s", median(&setups).unwrap_or(f64::NAN))?;

    // (3) Handshake probes.
    let plain = Client::new(server.addr, &inputs, epoch, None);
    let probes =
        (0..WARMUP_PROBES + PROBES).map(|_| plain.probe()).collect::<Result<Vec<f64>>>()?;
    measured.set("handshake_ms", median(&probes[WARMUP_PROBES..]).unwrap_or(f64::NAN))?;

    // (4) Saturating phase.
    let sampler = RssSampler::start(server.pid());
    let traced = Client::new(server.addr, &inputs, epoch, trace.then_some(&tracer));
    let cpu_before = server.cpu_ms()?;
    let saturating = if trace {
        // Half without spans, half with: the same code on the same server,
        // so the difference in throughput is what the spans cost.
        let untraced = plain.saturating(workload.lanes, phase_secs / 2.0);
        let with_spans = traced.saturating(workload.lanes, phase_secs / 2.0);
        if let (Some(off), Some(on)) = (ingest_mib_s(&untraced), ingest_mib_s(&with_spans)) {
            measured.set("bench.trace.overhead_pct", (off - on) / off * 100.0)?;
        }
        untraced.into_iter().chain(with_spans).collect()
    } else {
        plain.saturating(workload.lanes, phase_secs)
    };
    let cpu_ms = server.cpu_ms()? - cpu_before;
    tally.count("saturating", &saturating);
    measured.set("ingest_mib_s", ingest_mib_s(&saturating).unwrap_or(f64::NAN))?;
    measured.set("cpu_ms_per_mib", cpu_ms / sum_mib(&saturating))?;

    // (5) Paced phase.
    let mut paced = traced.paced(workload, phase_secs);
    let behind = fail_if_most_are_behind(&mut paced);
    tally.count("paced", &paced);
    measured
        .set("runtime.server.rss_median_mib", median(&sampler.finish()?).unwrap_or(f64::NAN))?;
    measured.set("server_rss_mib", server.status()?.peak_rss_mib)?;
    let latencies: Vec<f64> = paced.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    let latencies = thin(latencies, MAX_LATENCY_SAMPLES);
    measured.set("match_latency_p50_ms", percentile(&latencies, 50.0).unwrap_or(f64::NAN))?;
    measured.set("match_latency_p95_ms", percentile(&latencies, 95.0).unwrap_or(f64::NAN))?;

    // A validity check, not a gated metric: taken from however many slices
    // (or sessions) there were.
    let lateness: Vec<f64> = paced.iter().flat_map(|p| p.lateness_ms.iter().copied()).collect();
    let lateness_p95 = nearest_rank(&lateness, 95.0).unwrap_or(f64::NAN);
    measured.set("bench.generator.lateness_p95_ms", lateness_p95)?;
    if lateness_p95.is_nan() || lateness_p95 > MAX_LATENESS_P95_MS {
        tally.problems.push(format!(
            "the open-loop generator ran {lateness_p95:.2} ms late at p95 (limit \
             {MAX_LATENESS_P95_MS} ms): it, not the server, was the bottleneck"
        ));
    }
    if trace {
        scrape(&server, &mut measured)?;
    }
    server.stop()?;
    println!(
        "  {} set-ups, {PROBES} handshake probes, {} passes ({behind} paced behind schedule), \
         {} latency samples, {} frames shed",
        setups.len(),
        saturating.len() + paced.len(),
        latencies.len(),
        saturating.iter().chain(&paced).map(|p| p.shed).sum::<u64>()
    );

    // The untraced run reports the end-to-end metrics and shows what it
    // measured of the per-layer ones on the way; the traced run reports those.
    let (table, also) = if trace {
        (&PER_LAYER[..], Vec::new())
    } else {
        (&END_TO_END[..], measured.of(&PER_LAYER))
    };
    let mut missing = measured.missing(table);
    if !trace {
        // Every run measures all seven end-to-end metrics, gated or not.
        let is_unresolved = |d: &&MetricDef| UNRESOLVED.iter().any(|(name, _)| *name == d.name);
        let unresolved: Vec<MetricDef> = PER_LAYER.iter().filter(is_unresolved).copied().collect();
        missing.extend(measured.missing(&unresolved));
    }
    for name in missing {
        tally.problems.push(format!("metric {name} is missing"));
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    Ok(RunReport {
        workload: workload.name,
        seed,
        trace,
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: measured.of(table),
        also,
        problems: tally.problems,
        spans: tracer.into_spans(),
    })
}

/// The server's own counters, asked for once over the in-band `STATS` verb
/// after the last phase, and what `/proc` says about its peak.
fn scrape(server: &ServerProc, measured: &mut MetricSet) -> Result<()> {
    let page = ppt_runtime::serve::scrape(server.addr)?;
    for (metric, series) in [
        ("runtime.reactor.polls", "ppt_reactor_polls_total"),
        ("runtime.reactor.wakeups", "ppt_reactor_wakeups_total"),
        ("runtime.reactor.peak_outbox_bytes", "ppt_reactor_peak_outbox_bytes"),
        ("runtime.egress.borrowed_bytes", "ppt_egress_borrowed_bytes_total"),
        ("runtime.egress.copied_bytes", "ppt_egress_copied_bytes_total"),
        ("runtime.retain.peak_retained_bytes", "ppt_shard_peak_retained_bytes"),
        ("runtime.pool.peak_queue_depth", "ppt_shard_peak_queue_depth"),
        ("runtime.sessions.completed", "ppt_sessions_completed_total"),
        ("runtime.sessions.failed", "ppt_sessions_failed_total"),
    ] {
        measured.set(metric, series_sum(&page, series).unwrap_or(f64::NAN))?;
    }
    measured.set("runtime.server.threads", server.status()?.threads as f64)?;
    Ok(())
}

/// Sum over label sets of one series of a Prometheus text page.
pub fn series_sum(page: &str, series: &str) -> Option<f64> {
    let mut sum = None;
    for line in page.lines() {
        let Some(rest) = line.strip_prefix(series) else { continue };
        // `name{labels} value` or `name value` — not a longer name.
        if !rest.starts_with(['{', ' ']) {
            continue;
        }
        let value: f64 = rest.rsplit(' ').next()?.parse().ok()?;
        sum = Some(sum.unwrap_or(0.0) + value);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_summed_over_labels_and_not_over_longer_names() {
        let page = "# HELP ppt_shard_peak_queue_depth Peak depth.\n\
                    # TYPE ppt_shard_peak_queue_depth gauge\n\
                    ppt_shard_peak_queue_depth{shard=\"0\"} 7\n\
                    ppt_shard_peak_queue_depth{shard=\"1\"} 5\n\
                    ppt_sessions_completed_total 12\n\
                    ppt_sessions_completed_total_extra 99\n";
        assert_eq!(series_sum(page, "ppt_shard_peak_queue_depth"), Some(12.0));
        assert_eq!(series_sum(page, "ppt_sessions_completed_total"), Some(12.0));
        assert_eq!(series_sum(page, "ppt_sessions_failed_total"), None);
    }

    #[test]
    fn ingest_is_correct_bytes_over_the_wall_time_of_the_sub_phase() {
        let pass = |start_ms: u64, end_ms: u64, failed: bool| PassOutcome {
            bytes: 4 << 20,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            failure: failed.then(|| "x".to_string()),
            ..PassOutcome::default()
        };
        // Two lanes, 4 s of wall time, three good passes of 4 MiB: 3 MiB/s.
        let passes = [pass(0, 2000, false), pass(0, 1000, false), pass(1000, 4000, false)];
        assert_eq!(ingest_mib_s(&passes), Some(3.0));
        // A failed pass takes time and delivers nothing.
        let passes = [pass(0, 2000, false), pass(2000, 4000, true)];
        assert_eq!(ingest_mib_s(&passes), Some(1.0));
        assert_eq!(ingest_mib_s(&passes[1..]), None);
        assert_eq!(ingest_mib_s(&[]), None);
    }
}
