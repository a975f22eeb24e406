//! The repository's benchmark: seeded workloads driven through the
//! library's public API, end-to-end metrics with tracing off, a per-layer
//! budget from a separate traced run. See `README.md` next to this crate.

mod compare;
mod gen;
mod harness;
mod json;
mod metrics;
mod noise;
mod report;
mod shapes;
mod spans;
mod stats;
mod workloads;

use harness::Ctx;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  seaice-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]
      Runs one workload (all of them, in order, without --workload). Prints
      every metric by name with its unit; the last line of standard output
      is one JSON object: correct, attempted, failed, metrics. --out appends
      the full run record to FILE, one JSON line per run.
  seaice-benchmark compare A B
      Compares two run-sets written by --out: medians, quartiles and a
      verdict (ok / regressed / unresolved) per workload and metric.
  seaice-benchmark manifest
      Prints BENCHMARK.json as rendered from the metric tables.
";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 2024,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}`; one of {known:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// A directory for files a run must write, inside the build's own target
/// directory (next to the executable), so nothing lands outside the
/// checkout or in the source tree.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("seaice-benchmark-scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload in this process; returns whether it was correct.
fn run_one(
    name: &str,
    args: &RunArgs,
    scratch: &Path,
    (cores, pinned_cpu): (usize, Option<usize>),
) -> Result<bool, String> {
    let host = noise::Host::sample(cores, pinned_cpu);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        spans: if args.traced {
            spans::Spans::recording()
        } else {
            spans::Spans::disabled()
        },
        scratch: scratch.to_path_buf(),
    };
    let mut out = workloads::run(name, &ctx, args.traced)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;

    if args.traced {
        let trace = ctx.spans.export_chrome_json();
        let path = scratch.join(format!("trace-{name}.json"));
        match seaice_obs::trace::validate_chrome_trace(&trace) {
            Ok(stats) if stats.complete as u64 >= ctx.spans.count() => {
                std::fs::write(&path, &trace).map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "chrome trace: {} ({} events, {} complete, {} span pairs)",
                    path.display(),
                    stats.events,
                    stats.complete,
                    stats.span_pairs
                );
            }
            Ok(stats) => out.fail(format!(
                "the chrome trace holds {} complete events for {} recorded spans",
                stats.complete,
                ctx.spans.count()
            )),
            Err(e) => out.fail(format!("the chrome trace does not validate: {e}")),
        }
    }

    let rollup = ctx.spans.rollup();
    let meta = report::RunMeta {
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        host: &host,
        spans: ctx.spans.count(),
        rollup: &rollup,
    };
    let reported = report::reported(&mut out, &meta);
    print!("{}", report::human(&out, &meta, &reported));
    if let Some(path) = &args.out {
        report::append_run(path, &report::run_record(&out, &meta, &reported))?;
    }
    println!("{}", report::result_line(&out, &reported));
    Ok(out.failed == 0)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let scratch = scratch_dir()?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    if args.traced && names.len() > 1 {
        // Tracing is switched on once per process and never off again.
        return Err("--traced needs --workload: one traced workload per process".into());
    }
    // Before the first thread is spawned: see `noise::pin_to_one_cpu`.
    let cpus = (noise::nproc(), noise::pin_to_one_cpu());
    let mut correct = true;
    for name in names {
        correct &= run_one(name, &args, &scratch, cpus)?;
    }
    Ok(correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two run-set files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::load_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, failed) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed same-work proof, a missed floor or a regression: the
        // result has been printed, the exit code says it must not be used.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
