//! Tests of the benchmark itself, on tiny workloads: every workload
//! reports every contract metric with its unit in both modes, a seed
//! reproduces its simulated results, and the seed reaches the
//! two-host workloads.

use perfbench::{run, Config, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.001,
        trace,
        scale: Scale::Tiny,
    };
    let outcome = run(&cfg);
    assert!(
        outcome.correct,
        "{workload} trace {trace}: {:?}",
        outcome.error
    );
    outcome
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = tiny(workload, 1, trace);
            let line = outcome.result_json(trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(outcome.attempted >= 1 && outcome.failed == 0, "{line}");
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in expected {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let rest = &line[at + entry.len()..];
                let close = rest.find('}').expect("entry closes");
                let (value, unit_field) = rest[..close].split_once(", ").expect("value, then unit");
                let value: f64 = value.parse().expect("value is a number");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(
                    unit_field,
                    format!("\"unit\": \"{unit}\""),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let outcome = tiny(workload, 3, false);
        for (name, _) in END_TO_END {
            let m = outcome.metrics.get(name).expect("measured");
            assert!(m.value() > 0.0, "{workload}: {name} = {}", m.value());
        }
    }
}

#[test]
fn same_seed_gives_same_digest() {
    for workload in WORKLOADS {
        let a = tiny(workload, 7, false);
        let b = tiny(workload, 7, false);
        assert_eq!(a.digest, b.digest, "{workload}");
    }
}

#[test]
fn traced_run_simulates_what_the_untraced_run_does() {
    for workload in WORKLOADS {
        let plain = tiny(workload, 5, false);
        let traced = tiny(workload, 5, true);
        assert_eq!(plain.digest, traced.digest, "{workload}");
    }
}

#[test]
fn a_different_seed_changes_the_rpc_digest() {
    let a = tiny("rpc-atm-4b-long", 1, false);
    let b = tiny("rpc-atm-4b-long", 2, false);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn usage_errors_are_reported() {
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(Config::parse(&args(&["--workload", "nope"])).is_err());
    assert!(Config::parse(&args(&["--workload", "dc-incast-1024pcb", "--trace", "2"])).is_err());
    assert!(Config::parse(&args(&["--workload", "dc-incast-1024pcb", "--seed"])).is_err());
    assert!(Config::parse(&args(&["--bogus", "1"])).is_err());
    let cfg = Config::parse(&args(&[
        "--workload",
        "dc-incast-1024pcb",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]))
    .expect("a full command line parses");
    assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
}
