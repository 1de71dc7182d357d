//! Result files, the machine descriptor they carry, and the two ways of
//! holding one set of runs against another: `compare A.json B.json` and
//! `--self-check` (the same code twice, which must agree with itself).

use crate::json::Json;
use crate::metrics::{Better, Metric, MetricDef, END_TO_END, PER_LAYER, UNRESOLVED};
use crate::run::RunReport;
use crate::stats::{median, quartiles, spread};
use crate::workloads::{RETAIN_BYTES, WORKLOADS};
use crate::{server, Result, DEFAULT_SECONDS};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs whose phases are shorter than this are for trying things out; their
/// numbers are marked and `compare` refuses them.
const MIN_COMPARABLE_PHASE_SECS: f64 = 8.0;

/// Where result files go: `<target dir>/benchmark/`, beside the build that
/// produced them and inside the checkout.
pub fn out_dir() -> Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe.parent().and_then(|p| p.parent()).ok_or("the binary has no target dir")?;
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The head of every result file: the machine, the toolchain, the commit
/// and every knob that is not a default.
pub fn descriptor(seconds: u64) -> Vec<(String, Json)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let machine = Json::obj([
        ("nproc", Json::Num(server::nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ]);
    let phase_secs = seconds as f64 / 2.0;
    let profile = Json::obj([
        ("seconds", Json::Num(seconds as f64)),
        ("phase_seconds", Json::Num(phase_secs)),
        ("server", Json::Str(server::profile())),
        ("retain_bytes", Json::Num(RETAIN_BYTES as f64)),
    ]);
    vec![
        ("benchmark".to_string(), Json::str("ppt-benchmark")),
        ("comparable".to_string(), Json::Bool(phase_secs >= MIN_COMPARABLE_PHASE_SECS)),
        ("machine".to_string(), machine),
        ("profile".to_string(), profile),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(report: &RunReport) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(&report.metrics)),
    ])
}

fn run_json(report: &RunReport) -> Json {
    let Json::Obj(mut fields) = result_line(report) else { return Json::Null };
    fields.insert(0, ("workload".to_string(), Json::str(report.workload)));
    fields.insert(1, ("seed".to_string(), Json::Num(report.seed as f64)));
    fields.insert(2, ("trace".to_string(), Json::Bool(report.trace)));
    fields.push(("also".to_string(), metrics_json(&report.also)));
    Json::Obj(fields)
}

/// A result file: the descriptor, then one entry per run.
pub fn result_set(seconds: u64, runs: Vec<Json>) -> Json {
    let mut fields = descriptor(seconds);
    fields.push(("runs".to_string(), Json::Arr(runs)));
    Json::Obj(fields)
}

pub fn write_results(name: &str, seconds: u64, reports: &[RunReport]) -> Result<PathBuf> {
    let path = out_dir()?.join(name);
    let set = result_set(seconds, reports.iter().map(run_json).collect());
    std::fs::write(&path, set.emit() + "\n")?;
    Ok(path)
}

/// The fields two result sets must share to be comparable: same machine,
/// same toolchain, same knobs. (Commit and seeds are what may differ.)
fn comparable_key(set: &Json) -> Result<String> {
    if set.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err("a result set is marked \"comparable\": false (phases too short)".into());
    }
    let machine = set.get("machine").ok_or("a result set has no machine descriptor")?;
    let field = |name: &str| machine.get(name).map(Json::emit).unwrap_or_default();
    let profile = set.get("profile").map(Json::emit).unwrap_or_default();
    Ok(format!("{} | {} | {} | {profile}", field("nproc"), field("cpu_model"), field("rustc")))
}

/// Values of one metric of one workload over a set's untraced runs: from
/// their results, or from what they measured in passing.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = set.get("runs").and_then(Json::as_arr).unwrap_or_default();
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) != Some(true))
        .filter_map(|r| {
            let found = ["metrics", "also"].iter().find_map(|list| r.get(list)?.get(metric));
            found?.get("value")?.as_f64()
        })
        .collect()
}

/// The rows of a comparison: every gated metric, then the unresolved ones
/// with the bound they were meant to have. `true` = gated.
fn rows() -> Vec<(&'static MetricDef, f64, bool)> {
    let gated = END_TO_END.iter().map(|d| (d, d.bound.unwrap_or(0.0), true));
    let unresolved = UNRESOLVED.iter().filter_map(|(name, bound)| {
        Some((PER_LAYER.iter().find(|d| d.name == *name)?, *bound, false))
    });
    gated.chain(unresolved).collect()
}

/// Prints, per workload × end-to-end metric, both medians, quartiles and
/// spreads, the relative difference in the worse direction, the bound and a
/// verdict. `true` when every gated row passes.
pub fn compare(a: &Json, b: &Json) -> Result<bool> {
    let (key_a, key_b) = (comparable_key(a)?, comparable_key(b)?);
    if key_a != key_b {
        return Err(format!(
            "descriptors differ, refusing to compare:\n  A: {key_a}\n  B: {key_b}"
        )
        .into());
    }
    println!(
        "{:<20} {:<21} {:>10} {:>21} {:>7} {:>10} {:>21} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "iqr A",
        "median B",
        "quartiles B",
        "iqr B",
        "B worse",
        "bound"
    );
    let mut all_pass = true;
    for workload in &WORKLOADS {
        for (def, bound, gated) in rows() {
            let (va, vb) = (values(a, workload.name, def.name), values(b, workload.name, def.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                println!("{:<20} {:<21} missing from a result set  FAIL", workload.name, def.name);
                all_pass = false;
                continue;
            };
            let rel = (mb - ma) / ma;
            let worse = if def.better == Better::Lower { rel } else { -rel };
            let (sa, sb) = (spread(&va), spread(&vb));
            // One run a side has no quartiles; only the medians are judged.
            // So they are for `setup_s`, as the driver judges it: a set-up
            // is short, and its spread says little about its median.
            let steady = |s: Option<f64>| def.name == "setup_s" || s.is_none_or(|s| s <= bound);
            let pass = worse <= bound && steady(sa) && steady(sb);
            all_pass &= pass || !gated;
            let quartiles_text = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |[q1, _, q3]| format!("{q1:.4}..{q3:.4}"))
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{:<20} {:<21} {:>10.4} {:>21} {:>7} {:>10.4} {:>21} {:>7} {:>+7.2}% {:>5.0}%  {}",
                workload.name,
                def.name,
                ma,
                quartiles_text(&va),
                pct(sa),
                mb,
                quartiles_text(&vb),
                pct(sb),
                worse * 100.0,
                bound * 100.0,
                match (pass, gated) {
                    (true, _) => "pass",
                    (false, true) => "FAIL",
                    (false, false) => "unresolved",
                }
            );
        }
    }
    Ok(all_pass)
}

pub fn compare_files(a: &str, b: &str) -> Result<bool> {
    let load = |path: &str| -> Result<Json> {
        Ok(Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?)
    };
    compare(&load(a)?, &load(b)?)
}

/// Runs the whole suite twice over on the same code — `runs` runs per
/// workload a set, a new seed each run, workload order alternating — and
/// compares the two sets as the driver will: every spread and the
/// difference of the medians within the metric's bound.
pub fn self_check(runs: u64, seconds: u64, first_seed: u64) -> Result<bool> {
    let exe = std::env::current_exe()?;
    let mut sets = Vec::new();
    for set in 0..2u64 {
        let mut entries = Vec::new();
        for i in 0..runs {
            let seed = first_seed + set * runs + i;
            let mut order: Vec<_> = WORKLOADS.iter().collect();
            if (set + i) % 2 == 1 {
                order.reverse();
            }
            for workload in order {
                eprintln!(
                    "self-check: set {} run {}/{runs}: {} --seed {seed}",
                    set + 1,
                    i + 1,
                    workload.name
                );
                let result_path = out_dir()?.join("result.json");
                // Never mistake an earlier run's file for this one's.
                let _ = std::fs::remove_file(&result_path);
                let status = Command::new(&exe)
                    .args(["--workload", workload.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .stdout(Stdio::null())
                    .status()?;
                // The run's own result file has what it measured in passing
                // too; the exit code only repeats its "correct".
                let result = Json::parse(&std::fs::read_to_string(&result_path)?)?;
                let run = result.get("runs").and_then(Json::as_arr).and_then(|runs| runs.first());
                let Some(run) = run.filter(|r| {
                    r.get("workload").and_then(Json::as_str) == Some(workload.name)
                        && r.get("seed").and_then(Json::as_f64) == Some(seed as f64)
                }) else {
                    return Err(format!("{}: no result ({status})", workload.name).into());
                };
                entries.push(run.clone());
            }
        }
        let json = result_set(seconds, entries);
        let path = out_dir()?.join(format!("selfcheck_{}.json", ["a", "b"][set as usize]));
        std::fs::write(&path, json.emit() + "\n")?;
        eprintln!("self-check: wrote {}", path.display());
        sets.push(json);
    }
    let all_correct = sets.iter().all(|set| {
        let runs = set.get("runs").and_then(Json::as_arr).unwrap_or_default();
        runs.iter().all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    });
    if !all_correct {
        println!("self-check: a run reported \"correct\": false");
    }
    if seconds != DEFAULT_SECONDS {
        println!("self-check: --seconds {seconds} is not the benchmark's {DEFAULT_SECONDS}");
    }
    Ok(compare(&sets[0], &sets[1])? && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result set whose runs report `rss` as the gated `server_rss_mib`
    /// (lower is better) and `ingest` as the unresolved `ingest_mib_s`,
    /// measured in passing; every other metric reads 1.
    fn set(comparable: bool, rustc: &str, rss: &[f64], ingest: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        let runs = rss
            .iter()
            .flat_map(|&v| {
                WORKLOADS.iter().map(move |w| {
                    let metrics = END_TO_END
                        .iter()
                        .map(|d| (d.name, value(if d.name == "server_rss_mib" { v } else { 1.0 })));
                    let also = UNRESOLVED.iter().map(|(name, _)| {
                        (*name, value(if *name == "ingest_mib_s" { ingest } else { 1.0 }))
                    });
                    Json::obj([
                        ("workload", Json::str(w.name)),
                        ("trace", Json::Bool(false)),
                        ("metrics", Json::obj(metrics)),
                        ("also", Json::obj(also)),
                    ])
                })
            })
            .collect();
        Json::obj([
            ("comparable", Json::Bool(comparable)),
            ("machine", Json::obj([("nproc", Json::Num(2.0)), ("rustc", Json::str(rustc))])),
            ("profile", Json::obj([("seconds", Json::Num(20.0))])),
            ("runs", Json::Arr(runs)),
        ])
    }

    #[test]
    fn compare_passes_within_the_bound_and_fails_beyond_it() {
        let base = set(true, "1.95", &[100.0, 101.0, 99.0, 100.5], 40.0);
        let other = |rss: &[f64]| set(true, "1.95", rss, 40.0);
        assert!(compare(&base, &other(&[103.0, 104.0, 102.5, 103.5])).unwrap());
        assert!(!compare(&base, &other(&[130.0, 131.0, 130.5, 129.5])).unwrap(), "+30 %");
        assert!(compare(&base, &other(&[80.0, 81.0, 80.5, 79.5])).unwrap(), "a gain");
        assert!(!compare(&base, &other(&[60.0, 140.0, 80.0, 120.0])).unwrap(), "noisy");
    }

    #[test]
    fn an_unresolved_metric_is_shown_and_fails_nothing() {
        let base = set(true, "1.95", &[100.0, 101.0], 40.0);
        assert!(rows().iter().any(|(d, _, gated)| d.name == "ingest_mib_s" && !gated));
        assert_eq!(values(&base, WORKLOADS[0].name, "ingest_mib_s"), vec![40.0, 40.0]);
        assert!(compare(&base, &set(true, "1.95", &[100.0, 101.0], 20.0)).unwrap());
    }

    #[test]
    fn compare_refuses_differing_descriptors_and_quick_runs() {
        let base = set(true, "1.95", &[100.0], 40.0);
        assert!(compare(&base, &set(true, "1.96", &[100.0], 40.0)).is_err());
        assert!(compare(&base, &set(false, "1.95", &[100.0], 40.0)).is_err());
        assert!(compare(&base, &base).unwrap());
    }

    #[test]
    fn the_descriptor_names_the_machine_and_marks_short_runs() {
        for short in [4, 15] {
            let quick = Json::Obj(descriptor(short));
            assert_eq!(quick.get("comparable"), Some(&Json::Bool(false)), "{short} s");
        }
        assert_eq!(Json::Obj(descriptor(16)).get("comparable"), Some(&Json::Bool(true)));
        let full = Json::Obj(descriptor(DEFAULT_SECONDS));
        assert_eq!(full.get("comparable"), Some(&Json::Bool(true)));
        let machine = full.get("machine").unwrap();
        assert!(machine.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        for field in ["cpu_model", "rustc", "git_commit"] {
            assert!(machine.get(field).and_then(Json::as_str).is_some(), "{field}");
        }
        assert!(full.get("profile").unwrap().get("server").is_some());
    }
}
