//! The repo's benchmark. See README.md beside this package for every
//! metric, every workload and how to run each mode.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds N | --quick] [--trace [0|1]]
//! benchmark --self-check [--runs N] [--seconds N] [--seed S]
//! benchmark compare A.json B.json
//! benchmark --serve          (the system under test; spawned by the above)
//! ```

#![forbid(unsafe_code)]

mod client;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod server;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub const MIB: f64 = 1048576.0;

/// `run_seconds` of `BENCHMARK.json`: both phases together.
pub const DEFAULT_SECONDS: u64 = 20;
/// `--quick`: 2 s phases, for trying things out; marked not comparable.
const QUICK_SECONDS: u64 = 4;

#[derive(Debug, PartialEq)]
enum Mode {
    Serve,
    Compare(String, String),
    SelfCheck { runs: u64 },
    Run { workload: Option<String>, trace: bool },
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::Run { workload: None, trace: false },
        seed: 1,
        seconds: DEFAULT_SECONDS,
    };
    let (mut workload, mut trace, mut self_check, mut runs) = (None, false, false, 10);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>().map_err(|_| format!("{arg} {text}: not a whole number"))
        };
        match arg.as_str() {
            "--serve" => parsed.mode = Mode::Serve,
            "compare" => parsed.mode = Mode::Compare(value("two files")?, value("two files")?),
            "--self-check" => self_check = true,
            "--runs" => runs = number(value("a count")?)?.max(1),
            "--workload" => workload = Some(value("a name")?),
            "--seed" => parsed.seed = number(value("a number")?)?,
            "--seconds" => parsed.seconds = number(value("a number")?)?.max(1),
            "--quick" => parsed.seconds = QUICK_SECONDS,
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => {
                trace = it.next_if(|v| matches!(v.as_str(), "0" | "1")).is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &workload {
        if workloads::find(name).is_none() {
            let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; the workloads are {}", names.join(", ")));
        }
    }
    if parsed.mode == (Mode::Run { workload: None, trace: false }) {
        parsed.mode =
            if self_check { Mode::SelfCheck { runs } } else { Mode::Run { workload, trace } };
    }
    Ok(parsed)
}

/// The plain and the traced run: one workload, or all four in turn.
fn run_workloads(workload: Option<&str>, seed: u64, seconds: u64, trace: bool) -> Result<bool> {
    let chosen: Vec<_> = workloads::WORKLOADS
        .iter()
        .filter(|w| workload.is_none_or(|name| name == w.name))
        .collect();
    let mut reports = Vec::new();
    for w in chosen {
        println!("{} (seed {seed}, {seconds} s{})", w.name, if trace { ", traced" } else { "" });
        println!("  why: {}", w.why);
        let report = run::run(w, seed, seconds, trace)?;
        for m in &report.metrics {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &report.also {
            println!("  {:<40} {:>16.4} {} (ungated)", m.name, m.value, m.unit);
        }
        println!("  failed/attempted: {}/{}", report.failed, report.attempted);
        for problem in &report.problems {
            println!("  PROBLEM: {problem}");
        }
        reports.push(report);
    }
    let correct = reports.iter().all(|r| r.correct);
    let name = if trace { "result_traced.json" } else { "result.json" };
    let path = compare::write_results(name, seconds, &reports)?;
    println!("results: {}", path.display());
    if trace {
        let spans = json::Json::Arr(
            reports
                .iter()
                .flat_map(|r| match trace::to_json(&r.spans, r.workload) {
                    json::Json::Arr(spans) => spans,
                    _ => Vec::new(),
                })
                .collect(),
        );
        let path = compare::out_dir()?.join("trace.json");
        std::fs::write(&path, spans.emit() + "\n")?;
        println!("spans: {}", path.display());
    }
    // The driver reads the last line: one workload's result, or, with every
    // workload run, an object of them by name.
    let last = match reports.as_slice() {
        [one] => compare::result_line(one),
        all => json::Json::obj(all.iter().map(|r| (r.workload, compare::result_line(r)))),
    };
    println!("{}", last.emit());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::Serve => server::serve().map(|()| true),
        Mode::Compare(a, b) => compare::compare_files(a, b),
        Mode::SelfCheck { runs } => compare::self_check(*runs, args.seconds, args.seed),
        Mode::Run { workload, trace } => {
            run_workloads(workload.as_deref(), args.seed, args.seconds, *trace)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> std::result::Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload xmark_small --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                mode: Mode::Run { workload: Some("xmark_small".to_string()), trace: true },
                seed: 7,
                seconds: 20
            }
        );
        let args = parse("--workload large_payload --seed 3 --seconds 20 --trace 0").unwrap();
        assert_eq!(args.mode, Mode::Run { workload: Some("large_payload".into()), trace: false });
    }

    #[test]
    fn the_other_modes_parse() {
        assert_eq!(parse("").unwrap().mode, Mode::Run { workload: None, trace: false });
        assert_eq!(parse("--trace").unwrap().mode, Mode::Run { workload: None, trace: true });
        assert_eq!(parse("--trace --seed 2").unwrap().seed, 2);
        assert_eq!(parse("--quick").unwrap().seconds, QUICK_SECONDS);
        assert_eq!(parse("--serve").unwrap().mode, Mode::Serve);
        assert_eq!(parse("--self-check --runs 3").unwrap().mode, Mode::SelfCheck { runs: 3 });
        assert_eq!(
            parse("compare a.json b.json").unwrap().mode,
            Mode::Compare("a.json".into(), "b.json".into())
        );
        assert!(parse("compare a.json").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
