//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the per-layer ones.

use std::process::ExitCode;

use perfbench::{run, Config, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => match val.parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match val.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => cfg.seconds = s,
                _ => return usage("--seconds takes a number in (0, 120]"),
            },
            "--trace" => match val.as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    eprintln!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}, {} cores",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let Some(outcome) = run(&workload, &cfg) else {
        return usage(&format!("unknown workload {workload}"));
    };
    eprint!("{}", outcome.table());
    eprintln!("correct: {}", outcome.correct);
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
