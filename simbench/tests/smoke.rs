//! The benchmark's own tests, at smoke length.

use std::process::Command;

use simbench::fingerprint::{Fingerprint, OutputCheck};
use simbench::measure::{measure, trace, trace_and_replay, Metric};
use simbench::spec::{Length, RunSpec, Workload, DEFAULT_SEED};
use simbench::timed::CallLog;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(name: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark's directory");
    let start = text.find(&format!("\"{name}\":")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let rest = &obj[obj.find(&pat).expect("field present") + pat.len()..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

fn names(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric printed")
        .value
}

#[test]
fn every_workload_passes_its_output_check_and_prints_the_end_to_end_metrics() {
    let expected = section("end_to_end");
    for w in Workload::ALL {
        assert!(
            Fingerprint::pinned(w, Length::Smoke, DEFAULT_SEED).is_some(),
            "{} has no pinned smoke fingerprint",
            w.name()
        );
        let out = measure(w, Length::Smoke, DEFAULT_SEED, 0.0);
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(names(&out.metrics), expected, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_mode_passes_and_prints_every_per_layer_metric() {
    let expected = section("per_layer");
    for w in Workload::ALL {
        let out = trace(w, Length::Smoke, DEFAULT_SEED, 0.0);
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(names(&out.metrics), expected, "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        // `cpu_read_scatter` is not in the memtrace, so only the X-Mem run
        // replays inexactly.
        let exact = value(&out.metrics, "sim.hierarchy.replay_exact");
        assert_eq!(
            exact,
            if w == Workload::ColoXmem { 0.0 } else { 1.0 },
            "{}",
            w.name()
        );
    }
    let swept = trace(Workload::KvsSweeper, Length::Smoke, DEFAULT_SEED, 0.0);
    assert!(value(&swept.metrics, "sim.hierarchy.sweep_range.calls") > 0.0);
}

#[test]
fn traced_run_reproduces_the_untraced_fingerprint_and_kvs_replays_exactly() {
    for w in [Workload::KvsLeak, Workload::KvsSweeper, Workload::ColoXmem] {
        let spec = RunSpec::of(w, Length::Smoke, DEFAULT_SEED).expect("single-run workload");
        let untraced = spec.build(None).run(spec.options);
        let traced = trace_and_replay(&spec, Some(&CallLog::new()));
        assert_eq!(
            Fingerprint::of_run(&traced.report),
            Fingerprint::of_run(&untraced),
            "{}",
            w.name()
        );
        assert!(!traced.overflowed);
        assert_eq!(
            traced.replay.exact(&traced.report.mem),
            w != Workload::ColoXmem,
            "{}",
            w.name()
        );
    }
}

#[test]
fn output_check_names_the_workload_and_field_that_differ() {
    let w = Workload::KvsLeak;
    let pinned = Fingerprint::pinned(w, Length::Smoke, DEFAULT_SEED).expect("pinned");
    let mut wrong = pinned.clone();
    wrong
        .0
        .iter_mut()
        .find(|(k, _)| k == "p99")
        .expect("p99 pinned")
        .1 = "1".to_string();

    let mut check = OutputCheck::new(w, Length::Smoke, DEFAULT_SEED);
    check.record(&pinned, Vec::new());
    check.record(&wrong, Vec::new());
    assert_eq!((check.attempted, check.failed), (2, 1));
    assert!(
        check.problems[0].starts_with("kvs_leak: field p99: expected"),
        "{:?}",
        check.problems
    );

    // Without a pin, every repetition must reproduce the first.
    let mut check = OutputCheck::new(w, Length::Smoke, DEFAULT_SEED + 1);
    check.record(&pinned, Vec::new());
    check.record(&wrong, Vec::new());
    assert_eq!((check.attempted, check.failed), (2, 1));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "nope"],
        &["--workload", "kvs_leak", "--trace", "2"],
        &["--workload", "kvs_leak", "--seconds", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
