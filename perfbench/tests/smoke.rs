//! Smoke test of the benchmark: a short run of every workload, in both
//! modes, verifies every reply, emits exactly the metrics `BENCHMARK.json`
//! names, and passes its measurement checks (the layer sum among them);
//! the same seed gives the same command stream.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mini_redis::WorkloadSpec;
use perfbench::deploy::Arch;
use perfbench::model::Stream;
use perfbench::{checkpoint, closed, run, Config, WORKLOADS};

/// The metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, which sits next to this crate's directory.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|chunk| {
            chunk
                .trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn names(outcome: &perfbench::report::Outcome) -> Vec<String> {
    let mut v: Vec<String> = outcome
        .metrics
        .items()
        .iter()
        .map(|(n, ..)| n.to_string())
        .collect();
    v.sort();
    v
}

#[test]
fn every_workload_runs_clean_and_emits_every_metric() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let cfg = Config {
                seed: 7,
                seconds: 1.0,
                trace,
            };
            let out = run(workload, &cfg).expect("known workload");
            assert!(out.correct, "{workload} trace={trace}: incorrect");
            assert!(
                out.attempted > 0,
                "{workload} trace={trace}: nothing attempted"
            );
            assert_eq!(out.failed, 0, "{workload} trace={trace}: fail_ratio > 0");
            assert_eq!(&names(&out), want, "{workload} trace={trace}: metric names");
            for (what, passed) in &out.checks {
                assert!(passed, "{workload} trace={trace}: check failed: {what}");
            }
            if trace && workload == "sharded_mixed" {
                let sum_checked = out
                    .checks
                    .iter()
                    .any(|(what, _)| what.contains("within 10%"));
                assert!(sum_checked, "the traced sharded run checks the layer sum");
            }
            if trace {
                assert_eq!(out.metrics.get("trace.dropped"), Some(0.0), "{workload}");
            } else {
                for (name, value, _) in out.metrics.items() {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn same_seed_same_command_stream() {
    let specs = [
        closed::spec(Arch::Sharded, 11),
        closed::spec(Arch::Cached, 11),
        checkpoint::spec(11),
    ];
    for spec in specs {
        let stream = |seed| {
            let mut s = Stream::new(WorkloadSpec {
                seed,
                ..spec.clone()
            });
            let mut v = s.preload();
            v.extend((0..2000).map(|_| s.next()));
            v
        };
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run(
        "nope",
        &Config {
            seed: 1,
            seconds: 1.0,
            trace: false
        }
    )
    .is_none());
}
