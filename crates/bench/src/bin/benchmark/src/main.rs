//! `benchmark`: one command for the repository's performance numbers —
//! seven workloads, end-to-end and per-layer metrics for AION and
//! CHRONOS. `README.md` beside this package explains what each
//! workload and metric is for; `BENCHMARK.json` at the repository root
//! is the contract the pipeline runs it under.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! benchmark [--seed N] [--seconds S] [--smoke]              every workload, traced and untraced
//! benchmark --aa K [--seed N] [--seconds S]                 K untraced suites, spreads to aa.json
//! ```

mod emit;
mod layers;
mod probe;
mod reps;
mod run;
mod stats;
mod suite;
mod sys;
mod trace;
mod workload;

use run::RunArgs;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`; the pipeline passes it explicitly.
const DEFAULT_SECONDS: f64 = 8.0;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workload: None, seed: 42, seconds: None, trace: false, smoke: false, aa: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                cli.workload = Some(w);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed wants a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--smoke" => cli.smoke = true,
            "--aa" => {
                let k: usize = value()?.parse().map_err(|_| "--aa wants a count")?;
                if !(2..=100).contains(&k) {
                    return Err("--aa wants 2..=100 runs".into());
                }
                cli.aa = Some(k);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    // A smoke run takes the minimum number of repetitions and no more.
    let seconds = cli.seconds.unwrap_or(if cli.smoke { 0.0 } else { DEFAULT_SECONDS });
    let ok = match (cli.workload, cli.aa) {
        (Some(workload), _) => {
            let args =
                RunArgs { workload, seed: cli.seed, seconds, trace: cli.trace, smoke: cli.smoke };
            let result = run::run(&args);
            let defs = if cli.trace { emit::PER_LAYER } else { emit::END_TO_END };
            print!("{}", emit::metric_lines(&result, defs));
            println!("{}", emit::result_json(&result, defs));
            result.correct
        }
        (None, Some(k)) => suite::aa(k, cli.seed, seconds, cli.smoke),
        (None, None) => suite::suite(cli.seed, seconds, cli.smoke),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_pipeline_invocation() {
        let c = cli(&["--workload", "ser-gc", "--seed", "7", "--seconds", "8", "--trace", "1"]);
        assert_eq!(
            c.unwrap(),
            Cli {
                workload: Some(Workload::SerGc),
                seed: 7,
                seconds: Some(8.0),
                trace: true,
                smoke: false,
                aa: None
            }
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--aa", "1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert_eq!(cli(&[]).unwrap().seed, 42);
    }
}
