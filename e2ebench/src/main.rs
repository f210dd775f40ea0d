//! `e2ebench`: see the library documentation.
//!
//! ```text
//! e2ebench --workload serve-mix --seed 1 --seconds 10 --trace 0
//! e2ebench --workload qec-stabilizer --seed 7 --seconds 10 --trace 1
//! e2ebench --workload all --seed 1 --seconds 10 --trace 0   # one after another
//! e2ebench --smoke          # every workload once, briefly, both modes
//! ```

use e2ebench::{gen::WORKLOADS, report, run, Opts};
use std::process::ExitCode;

/// `--seconds` of one smoke run.
const SMOKE_SECONDS: f64 = 0.2;

fn parse_args() -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: 0 or 1")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !smoke && opts.workload.is_empty() {
        return Err(format!(
            "usage: e2ebench --workload NAME|all --seed N --seconds S --trace 0|1 (or --smoke); workloads: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((opts, smoke))
}

fn main() -> ExitCode {
    let (opts, smoke) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<Opts> = if smoke {
        WORKLOADS
            .iter()
            .flat_map(|w| {
                [false, true].map(|trace| Opts {
                    workload: (*w).to_string(),
                    seed: opts.seed,
                    seconds: SMOKE_SECONDS,
                    trace,
                })
            })
            .collect()
    } else if opts.workload == "all" {
        WORKLOADS
            .iter()
            .map(|w| Opts {
                workload: (*w).to_string(),
                ..opts.clone()
            })
            .collect()
    } else {
        vec![opts]
    };
    let mut all_correct = true;
    for opts in &runs {
        let r = match run(opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("e2ebench: {}: {e}", opts.workload);
                return ExitCode::from(2);
            }
        };
        for line in &r.lines {
            println!("{line}");
        }
        for m in &r.metrics {
            println!(
                "{:<28} {:>16.3} {:<5} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        all_correct &= r.correct;
        println!(
            "{}",
            report::result_json(r.correct, r.attempted, r.failed, &r.declared())
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
