//! `arv-benchmark`: one command for the read path and the propagation
//! path. See the crate documentation of `arv_benchmark` for what it
//! measures and why; `--help` for how to run it.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use arv_benchmark::harness::{clean_run_dir, run_path, Scale};
use arv_benchmark::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use arv_benchmark::report::{compare, result_line, Report, WorkloadResult};
use arv_benchmark::sysinfo::{pin_to_one_cpu, Fingerprint};
use arv_benchmark::{run_workload, traced_run, untraced};

const USAGE: &str = "\
arv-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
              [--json <file>] [--spans <file>]
arv-benchmark compare <base.json> <new.json>

--workload <name>   that workload, untraced, in this process; the last line
                    printed is one JSON object with the end-to-end metrics.
--trace 1           the traced run, in this process; the last line is one
                    JSON object with every per-layer metric. Each of them
                    has one home, so a traced run visits all four workloads
                    and then the probes; it needs no --workload and reads
                    the same whichever one it is given.
neither             every workload and then the traced run, each in a fresh
                    child process.
--seconds <n>       whole segments (a fixed number of operations each) are
                    measured until n seconds have passed.
--json writes the full report; --spans writes the traced run's spans.
compare applies the bounds of BENCHMARK.json to two reports.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        json: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--json" => out.json = Some(PathBuf::from(value()?)),
            "--spans" => out.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// One workload untraced, or (`workload` none) the traced run, in this
/// process.
fn run_here(args: &Args, workload: Option<&str>) -> Result<bool, String> {
    let fingerprint = args.json.as_ref().map(|_| Fingerprint::gather());
    match pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to CPU {cpu}"),
        None => println!("# could not pin to one CPU; timings will be noisier"),
    }
    let mut report = Report {
        fingerprint,
        seed: args.seed,
        seconds: args.seconds,
        ..Report::default()
    };
    let (attempted, failed, failures, line) = if let Some(workload) = workload {
        let outcome = run_workload(workload, &untraced(args.seed, args.seconds))
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let result = WorkloadResult::of(&outcome);
        let mut metrics = Vec::with_capacity(END_TO_END.len());
        for (name, _, _, _) in END_TO_END {
            let (_, s) = result
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .expect("declared");
            // The contract wants none to read 0; a timing that is not
            // finite means a clock or the reference load failed.
            if !(s.median.is_finite() && s.median > 0.0) {
                return Err(format!("{workload}.{name}: measured {}", s.median));
            }
            metrics.push((name, s.median));
        }
        let line = result_line(outcome.attempted, outcome.failed, &metrics);
        report.workloads.push((workload.to_string(), result));
        (outcome.attempted, outcome.failed, outcome.failures, line)
    } else {
        let run = traced_run(args.seed, args.seconds, Scale::FULL);
        if let Some(path) = &args.spans {
            let file =
                std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            for (name, outcome) in &run.outcomes {
                use std::io::Write;
                writeln!(out, "# {name}").map_err(|e| e.to_string())?;
                outcome
                    .spans
                    .write_tsv(&mut out)
                    .map_err(|e| e.to_string())?;
            }
            std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
        }
        for (name, outcome) in &run.outcomes {
            if outcome.spans.dropped() > 0 {
                println!(
                    "# {name}: {} spans did not fit in the log",
                    outcome.spans.dropped()
                );
            }
        }
        // In the order BENCHMARK.json declares them, each exactly once.
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for (name, _, _) in PER_LAYER {
            let mut values = run.layers.iter().filter(|(n, _)| n == name);
            match (values.next(), values.next()) {
                (Some((_, v)), None) if v.is_finite() => metrics.push((*name, *v)),
                other => return Err(format!("per-layer metric {name}: measured {other:?}")),
            }
        }
        report.layers = metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let line = result_line(run.attempted, run.failed, &metrics);
        (run.attempted, run.failed, run.failures, line)
    };
    print!("{}", report.lines());
    for f in &failures {
        println!("# FAILED {f}");
    }
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    clean_run_dir();
    println!("# {attempted} operations checked, {failed} failed");
    println!("{line}");
    Ok(failed == 0)
}

/// Every workload, then the traced run, each in a fresh child process, so
/// memory, CPU time and allocator state do not leak from one to the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report = Report {
        fingerprint: Some(Fingerprint::gather()),
        seed: args.seed,
        seconds: args.seconds,
        ..Report::default()
    };
    let mut ok = true;
    for workload in WORKLOADS.iter().map(|(w, _)| Some(*w)).chain([None]) {
        let part = run_path("report.json");
        let mut child = Command::new(&exe);
        child
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--json")
            .arg(&part);
        match (workload, &args.spans) {
            (Some(workload), _) => child.args(["--workload", workload]),
            (None, Some(spans)) => child.args(["--trace", "1", "--spans"]).arg(spans),
            (None, None) => child.args(["--trace", "1"]),
        };
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()));
        let _ = std::fs::remove_file(&part);
        let child_report = Report::from_json(&text?)?;
        report.workloads.extend(child_report.workloads);
        report.layers.extend(child_report.layers);
    }
    clean_run_dir();
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        let read = |path: &String| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|t| Report::from_json(&t).map_err(|e| format!("{path}: {e}")))
        };
        match argv.as_slice() {
            [_, base, new] => read(base).and_then(|b| Ok((b, read(new)?))).map(|(b, n)| {
                let (table, ok) = compare(&b, &n);
                print!("{table}");
                ok
            }),
            _ => Err("compare takes two report files".to_string()),
        }
    } else if cfg!(debug_assertions) {
        Err(
            "this is a debug build; timings from it mean nothing. Build with --release."
                .to_string(),
        )
    } else {
        parse(&argv).and_then(|args| match (args.trace, &args.workload) {
            (true, _) => run_here(&args, None),
            (false, Some(workload)) => run_here(&args, Some(workload)),
            (false, None) => run_all(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("arv-benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
