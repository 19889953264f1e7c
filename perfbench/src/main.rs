//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a fingerprint line, human-readable metric lines, and as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 without a result line on a wrong answer or any
//! other failure, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hus_perfbench::{run, Opts, Size, Workload};

/// Scratch root, relative to the directory the benchmark runs from.
const WORK_ROOT: &str = ".perfbench_work";
/// A run that has not finished by then is stopped with an error, so a
/// hang in the program under test cannot outlive the run's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::PagerankStream,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        work_root: PathBuf::from(WORK_ROOT),
        plant_wrong_truth: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {})", names.join(", "))
                })?)
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 120"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = opts.workload.name();
    let scratch = opts.work_root.join(format!("{workload}-{}", std::process::id()));
    // Detached on purpose: it either exits the process or dies with it.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: {workload}: no result after {} s; stopping", WATCHDOG.as_secs());
        let _ = std::fs::remove_dir_all(&scratch);
        std::process::exit(3);
    });
    match run(&opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            println!("{}", report.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
