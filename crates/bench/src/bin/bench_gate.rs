//! `bench_gate` — the CI benchmark-regression comparator.
//!
//! Compares a freshly-measured `BENCH_*.json` against the committed baseline
//! and fails (exit 1) when any `(mode, threads)` point regresses more than
//! the tolerance, or when match counts drift (a correctness regression the
//! throughput numbers would hide).
//!
//! ```text
//! bench_gate --baseline BENCH_wire.json --current target/bench/wire.json \
//!            [--tolerance 0.25]
//! ```
//!
//! The parser reads exactly the schema the bench binaries emit
//! (`"results": [{"mode": ..., "threads": ..., "mib_per_s": ..., "matches":
//! ...}]`); unknown top-level fields are ignored so baselines can carry
//! extra metadata. The serving bench sweeps *connections* rather than
//! worker threads and the multi-query bench sweeps registered *queries*, so
//! `"conns"` (`BENCH_serve.json`) and `"queries"` (`BENCH_multiquery.json`)
//! are accepted as aliases for the `"threads"` point key.

use std::process::ExitCode;

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    mode: String,
    threads: u64,
    mib_per_s: f64,
    matches: Option<u64>,
}

/// Extracts the `results` array entries from a bench JSON report. The format
/// is machine-written by this workspace, so a small field scanner is enough —
/// but it must fail loudly on anything it does not understand.
fn parse_points(json: &str) -> Result<Vec<Point>, String> {
    let results_at = json.find("\"results\"").ok_or_else(|| "no \"results\" array".to_string())?;
    let body = &json[results_at..];
    let open = body.find('[').ok_or_else(|| "\"results\" is not an array".to_string())?;
    // Stop at the bracket matching the array's own '[' — fields after the
    // results array (extra metadata) must not be scanned as result objects.
    let mut depth = 0i32;
    let mut close = None;
    for (i, b) in body.bytes().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close.ok_or_else(|| "unterminated \"results\" array".to_string())?;
    let mut points = Vec::new();
    let mut rest = &body[open + 1..close];
    while let Some(obj_open) = rest.find('{') {
        let obj_close = rest[obj_open..]
            .find('}')
            .map(|i| obj_open + i)
            .ok_or_else(|| "unterminated result object".to_string())?;
        let obj = &rest[obj_open + 1..obj_close];
        // "threads" is the point key for the pipeline benches; the serving
        // bench sweeps connections ("conns") and the multi-query bench
        // sweeps registered query counts ("queries").
        let key = field_num(obj, "threads")
            .or_else(|_| field_num(obj, "conns"))
            .or_else(|_| field_num(obj, "queries"))?;
        points.push(Point {
            mode: field_str(obj, "mode")?,
            threads: key.round() as u64,
            mib_per_s: field_num(obj, "mib_per_s")?,
            matches: field_num(obj, "matches").ok().map(|v| v.round() as u64),
        });
        rest = &rest[obj_close + 1..];
    }
    if points.is_empty() {
        return Err("\"results\" array holds no points".to_string());
    }
    Ok(points)
}

/// The raw text after `"key":` within one object body.
fn field_raw<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat).ok_or_else(|| format!("missing field {key:?}"))?;
    let after = &obj[at + pat.len()..];
    let colon = after.find(':').ok_or_else(|| format!("no ':' after {key:?}"))?;
    let value = after[colon + 1..].trim_start();
    let end = value.find(',').unwrap_or(value.len());
    Ok(value[..end].trim())
}

fn field_str(obj: &str, key: &str) -> Result<String, String> {
    let raw = field_raw(obj, key)?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("field {key:?} is not a string: {raw}"))?;
    Ok(inner.to_string())
}

fn field_num(obj: &str, key: &str) -> Result<f64, String> {
    let raw = field_raw(obj, key)?;
    raw.parse().map_err(|_| format!("field {key:?} is not a number: {raw}"))
}

fn load(path: &str) -> Result<Vec<Point>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_points(&text).map_err(|e| format!("{path}: {e}"))
}

fn gate(baseline: &[Point], current: &[Point], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.mode == base.mode && c.threads == base.threads)
        else {
            failures
                .push(format!("[{} @ {}t] missing from the current run", base.mode, base.threads));
            continue;
        };
        let floor = base.mib_per_s * (1.0 - tolerance);
        let delta = (cur.mib_per_s - base.mib_per_s) / base.mib_per_s * 100.0;
        let verdict = if cur.mib_per_s < floor { "FAIL" } else { "ok" };
        println!(
            "[{:>7} @ {}t] baseline {:8.2} MiB/s  current {:8.2} MiB/s  {:+6.1}%  {}",
            base.mode, base.threads, base.mib_per_s, cur.mib_per_s, delta, verdict
        );
        if cur.mib_per_s < floor {
            failures.push(format!(
                "[{} @ {}t] throughput regressed {:.1}% (tolerance {:.0}%)",
                base.mode,
                base.threads,
                -delta,
                tolerance * 100.0
            ));
        }
        match (base.matches, cur.matches) {
            (Some(b), Some(c)) if b != c => {
                failures.push(format!(
                    "[{} @ {}t] match count drifted: baseline {b}, current {c} — \
                     correctness regression",
                    base.mode, base.threads
                ));
            }
            (Some(_), Some(_)) => {}
            // Both benches emit `matches`; its absence means the drift check
            // is silently off — say so instead of quietly passing.
            _ => println!(
                "[{:>7} @ {}t] WARNING: no match count on one side, drift check skipped",
                base.mode, base.threads
            ),
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut tolerance = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned();
            }
            "--current" => {
                i += 1;
                current_path = args.get(i).cloned();
            }
            "--tolerance" => {
                i += 1;
                tolerance = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--tolerance needs a fraction (e.g. 0.25)");
                        return ExitCode::from(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_gate --baseline <committed.json> --current <fresh.json> \
                     [--tolerance 0.25]"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("both --baseline and --current are required");
        return ExitCode::from(2);
    };

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::from(2);
        }
    };

    println!(
        "bench_gate: {} baseline points ({baseline_path}) vs {} current points \
         ({current_path}), tolerance {:.0}%",
        baseline.len(),
        current.len(),
        tolerance * 100.0
    );
    let failures = gate(&baseline, &current, tolerance);
    if failures.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_gate: {f}");
        }
        eprintln!("bench_gate: FAIL ({} regressions)", failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "bench": "wire",
  "dataset": "xmark",
  "results": [
    {"mode": "offsets", "threads": 1, "mib_per_s": 30.00, "matches": 100},
    {"mode": "json", "threads": 2, "mib_per_s": 20.50, "matches": 100}
  ]
}"#;

    #[test]
    fn parses_the_bench_schema() {
        let points = parse_points(REPORT).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].mode, "offsets");
        assert_eq!(points[0].threads, 1);
        assert!((points[0].mib_per_s - 30.0).abs() < 1e-9);
        assert_eq!(points[1].matches, Some(100));
    }

    #[test]
    fn ignores_metadata_after_the_results_array() {
        let report = r#"{
  "results": [
    {"mode": "offsets", "threads": 1, "mib_per_s": 30.00, "matches": 100}
  ],
  "env": {"host": "ci", "note": "has ] and { inside", "tags": [1, 2]}
}"#;
        let points = parse_points(report).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].mode, "offsets");
    }

    #[test]
    fn accepts_conns_as_the_point_key() {
        // The serving bench sweeps connections; its points must compare
        // against "threads"-keyed baselines and vice versa.
        let report = r#"{
  "bench": "serve",
  "results": [
    {"mode": "reactor", "conns": 64, "mib_per_s": 40.00, "matches": 640}
  ]
}"#;
        let points = parse_points(report).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].threads, 64);
        assert_eq!(points[0].matches, Some(640));
        // And the gate matches conns-keyed points against each other.
        assert!(gate(&points, &points, 0.25).is_empty());
    }

    #[test]
    fn accepts_queries_as_the_point_key() {
        // The multi-query bench sweeps registered query counts; shared and
        // independent points gate against the committed baseline per count.
        let report = r#"{
  "bench": "multiquery",
  "results": [
    {"mode": "shared", "queries": 256, "mib_per_s": 1.74, "matches": 1264},
    {"mode": "independent", "queries": 256, "mib_per_s": 0.19, "matches": 1264}
  ]
}"#;
        let points = parse_points(report).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].threads, 256);
        assert_eq!(points[0].mode, "shared");
        assert_eq!(points[1].matches, Some(1264));
        assert!(gate(&points, &points, 0.25).is_empty());
    }

    #[test]
    fn rejects_reports_without_results() {
        assert!(parse_points("{}").is_err());
        assert!(parse_points("{\"results\": []}").is_err());
        assert!(parse_points("{\"results\": [{\"mode\": \"x\"}]}").is_err());
    }

    fn point(mode: &str, threads: u64, mib: f64, matches: u64) -> Point {
        Point { mode: mode.into(), threads, mib_per_s: mib, matches: Some(matches) }
    }

    #[test]
    fn tolerance_separates_noise_from_regression() {
        let base = vec![point("json", 1, 30.0, 10)];
        // 20% down: within the 25% tolerance.
        assert!(gate(&base, &[point("json", 1, 24.0, 10)], 0.25).is_empty());
        // 30% down: a regression.
        assert_eq!(gate(&base, &[point("json", 1, 21.0, 10)], 0.25).len(), 1);
        // Faster never fails.
        assert!(gate(&base, &[point("json", 1, 60.0, 10)], 0.25).is_empty());
    }

    #[test]
    fn missing_points_and_match_drift_fail() {
        let base = vec![point("json", 1, 30.0, 10), point("binary", 1, 30.0, 10)];
        let cur = vec![point("json", 1, 30.0, 11)];
        let failures = gate(&base, &cur, 0.25);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("drifted")));
        assert!(failures.iter().any(|f| f.contains("missing")));
    }
}
