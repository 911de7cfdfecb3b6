//! Experiment CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments --all [--quick] [--out DIR]   # every figure
//! experiments --fig 6 [--scale 0.2]         # one figure
//! experiments --fig host                    # seeded campaign, base seeds
//! experiments --fig fleet --seed-offset 1   # seeded campaign, fresh seeds
//! experiments --list
//! ```

use arv_experiments::{run_figure_seeded, ALL_FIGURES};
use std::process::ExitCode;

struct Args {
    figures: Vec<String>,
    scale: f64,
    seed_offset: u64,
    out: Option<std::path::PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut scale = 1.0;
    let mut seed_offset = 0u64;
    let mut out = None;
    let mut json = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--all" => figures = ALL_FIGURES.iter().map(|s| s.to_string()).collect(),
            "--fig" => {
                let id = argv.next().ok_or("--fig needs an id (e.g. 2a)")?;
                figures.push(id);
            }
            "--seed-offset" => {
                seed_offset = argv
                    .next()
                    .ok_or("--seed-offset needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed offset: {e}"))?;
            }
            "--scale" => {
                scale = argv
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
                if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
                    return Err("scale must be in (0, 1]".into());
                }
            }
            "--quick" => scale = 0.1,
            "--out" => {
                out = Some(std::path::PathBuf::from(
                    argv.next().ok_or("--out needs a directory")?,
                ));
            }
            "--json" => json = true,
            "--list" => {
                println!("available figures: {}", ALL_FIGURES.join(", "));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments (--all | --fig ID)... [--quick | --scale S] \
                     [--seed-offset N] [--out DIR] [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if figures.is_empty() {
        return Err("nothing to run: pass --all or --fig ID (try --list)".into());
    }
    if json && out.is_none() {
        return Err("--json requires --out DIR".into());
    }
    Ok(Args {
        figures,
        scale,
        seed_offset,
        out,
        json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for id in &args.figures {
        let started = std::time::Instant::now();
        let Some(report) = run_figure_seeded(id, args.scale, args.seed_offset) else {
            eprintln!("error: unknown figure {id:?} (try --list)");
            return ExitCode::FAILURE;
        };
        println!("{}", report.render_text());
        println!(
            "[figure {id} regenerated in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &args.out {
            if let Err(e) = report.write_csv(dir) {
                eprintln!("error writing CSVs for figure {id}: {e}");
                return ExitCode::FAILURE;
            }
            if args.json {
                let file = dir.join(format!("fig{id}.json"));
                if let Err(e) = std::fs::write(&file, report.to_json()) {
                    eprintln!("error writing {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
