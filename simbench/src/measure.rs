//! The two kinds of benchmark run.
//!
//! [`measure`] times the end-to-end metrics with every observability hook
//! off and bare workloads. [`trace`] is the separate traced run: it times
//! calls into each layer from this package's side of the layer's public
//! interface, replays the memtrace through the memory hierarchy, and makes
//! one checked run (shadow-memory oracle and rare invariant walks).

use std::sync::Arc;
use std::time::Instant;

use sweeper_core::experiment::seed_for_point;
use sweeper_core::fleet::{Fleet, PointOutcome};
use sweeper_core::server::{RunReport, Server};
use sweeper_sim::check::CheckConfig;
use sweeper_sim::stats::{MemStats, TrafficClass};

use crate::fingerprint::{run_problems, Fingerprint, OutputCheck};
use crate::replay::{replay, Replay};
use crate::spec::{
    peak_points, peak_replay_spec, peak_setup_spec, Length, RunSpec, Workload, PEAK_LABELS,
};
use crate::timed::{ratio, CallLog};

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics and their units, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("sim.hierarchy.cpu_read.calls", "count"),
    ("sim.hierarchy.cpu_read.ns_per_call", "ns"),
    ("sim.hierarchy.cpu_write.calls", "count"),
    ("sim.hierarchy.cpu_write.ns_per_call", "ns"),
    ("sim.hierarchy.nic_write.calls", "count"),
    ("sim.hierarchy.nic_write.ns_per_call", "ns"),
    ("sim.hierarchy.nic_read.calls", "count"),
    ("sim.hierarchy.nic_read.ns_per_call", "ns"),
    ("sim.hierarchy.sweep_range.calls", "count"),
    ("sim.hierarchy.sweep_range.ns_per_call", "ns"),
    ("sim.hierarchy.ns_per_block", "ns"),
    ("sim.hierarchy.replay_exact", "bool"),
    ("sim.dram.accesses_per_req", "count/req"),
    ("sim.dram.writebacks_per_req", "count/req"),
    ("sim.llc.hit_ratio", "ratio"),
    ("nic.delivered_ratio", "ratio"),
    ("workloads.handle_packet.calls", "count"),
    ("workloads.handle_packet.ns_per_call", "ns"),
    ("workloads.handle_packet.ops_per_call", "ops/call"),
    ("workloads.step.calls", "count"),
    ("workloads.step.ns_per_call", "ns"),
    ("workloads.step.ops_per_call", "ops/call"),
    ("core.server.other_s", "s"),
    ("core.experiment.runs", "count"),
    ("core.experiment.setup_share", "ratio"),
    ("core.fleet.parallel_efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Memtrace ring capacity of a traced run, in events: almost twice the
/// 4.5 M that `colo_xmem`, the longest, records, so the ring never wraps.
const TRACE_CAPACITY: usize = 1 << 23;

/// Dedicated `setup_s` builds per run, before the timed repetitions.
const SETUP_BUILDS: usize = 5;

/// `peak_search` runs its fleet on this many worker threads.
const PEAK_WORKERS: usize = 2;

/// The checked run's invariant walks: rare, besides the walks at the start
/// and end of the run.
const CHECK: CheckConfig = CheckConfig {
    walk_every_requests: 16_384,
    max_details: 16,
};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Simulation runs (or fleets) whose outputs were checked.
    pub attempted: u64,
    /// Checked runs that failed.
    pub failed: u64,
    /// What failed, one line each, naming the workload and field.
    pub problems: Vec<String>,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn new(check: OutputCheck, table: &[(&'static str, &'static str)], values: &[f64]) -> Self {
        assert_eq!(table.len(), values.len(), "one value per metric");
        Self {
            attempted: check.attempted,
            failed: check.failed,
            problems: check.problems,
            metrics: table
                .iter()
                .zip(values)
                .map(|(&(name, unit), &value)| Metric { name, unit, value })
                .collect(),
        }
    }

    /// Whether every checked run passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Repeats `rep` at least once, and then while another repetition as long
/// as the last one still fits in `budget` seconds.
fn repeat(budget: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        rep();
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
}

/// Builds `spec`'s server, timing the build as one `setup_s` sample.
fn build_timed(spec: &RunSpec, setup: &mut Vec<f64>) -> Server {
    let t = Instant::now();
    let server = spec.build(None);
    setup.push(t.elapsed().as_secs_f64());
    server
}

/// One timed repetition of a single-run workload: returns the host seconds
/// from the first simulated cycle until the report returned.
fn run_rep(w: Workload, spec: &RunSpec, check: &mut OutputCheck, setup: &mut Vec<f64>) -> f64 {
    let mut server = build_timed(spec, setup);
    let t = Instant::now();
    let report = server.run(spec.options);
    let run = t.elapsed().as_secs_f64();
    drop(server);
    check.record(
        &Fingerprint::of_run(&report),
        run_problems(w, &report, spec.options.measure_requests),
    );
    run
}

/// One `peak_search` fleet: its wall seconds and outcomes.
fn peak_fleet(length: Length, seed: u64, log: Option<&Arc<CallLog>>) -> (f64, Vec<PointOutcome>) {
    let points = peak_points(length, seed, log);
    let t = Instant::now();
    let outcomes = Fleet::new(PEAK_WORKERS).quiet().run(points);
    (t.elapsed().as_secs_f64(), outcomes)
}

/// The peak rates of a `peak_search` fleet, and a problem per point that
/// found none.
fn peaks(outcomes: &[PointOutcome]) -> (Fingerprint, Vec<String>) {
    let mut problems = Vec::new();
    let mut peaks = Vec::new();
    for (o, label) in outcomes.iter().zip(PEAK_LABELS) {
        match o.peak_rate {
            Some(rate) if rate > 0.0 && !o.report.timed_out => peaks.push((label, rate)),
            _ => problems.push(format!("peak_search: point {label} found no peak")),
        }
    }
    (Fingerprint::of_peaks(&peaks), problems)
}

fn record_peaks(check: &mut OutputCheck, outcomes: &[PointOutcome]) {
    let (fingerprint, problems) = peaks(outcomes);
    check.record(&fingerprint, problems);
}

/// The simulated outputs of one untraced run (one fleet for
/// `peak_search`), for `fingerprints.txt`.
pub fn fingerprint(w: Workload, length: Length, seed: u64) -> Fingerprint {
    match RunSpec::of(w, length, seed) {
        Some(spec) => Fingerprint::of_run(&spec.build(None).run(spec.options)),
        None => peaks(&peak_fleet(length, seed, None).1).0,
    }
}

/// Sum of the points' walls over workers × the fleet's wall.
fn parallel_efficiency(wall: f64, outcomes: &[PointOutcome]) -> f64 {
    let busy: f64 = outcomes.iter().map(|o| o.wall.as_secs_f64()).sum();
    ratio(busy, PEAK_WORKERS as f64 * wall)
}

/// Samples of `run_s` and `setup_s`, and the fleet efficiency of each
/// `peak_search` repetition.
struct Timings {
    run: Vec<f64>,
    setup: Vec<f64>,
    efficiency: Vec<f64>,
}

/// `SETUP_BUILDS` dedicated set-up builds, then timed repetitions of the workload
/// for `budget` seconds (at least one).
fn timings(
    w: Workload,
    length: Length,
    seed: u64,
    budget: f64,
    check: &mut OutputCheck,
) -> Timings {
    let mut t = Timings {
        run: Vec::new(),
        setup: Vec::new(),
        efficiency: Vec::new(),
    };
    let spec = RunSpec::of(w, length, seed);
    let setup_spec = spec.clone().unwrap_or_else(|| peak_setup_spec(seed));
    for _ in 0..SETUP_BUILDS {
        drop(build_timed(&setup_spec, &mut t.setup));
    }
    repeat(budget, || match &spec {
        Some(spec) => t.run.push(run_rep(w, spec, check, &mut t.setup)),
        None => {
            let (wall, outcomes) = peak_fleet(length, seed, None);
            record_peaks(check, &outcomes);
            t.run.push(wall);
            t.efficiency.push(parallel_efficiency(wall, &outcomes));
        }
    });
    t
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end run: `run_s`, `setup_s` and `peak_rss_mb`.
pub fn measure(w: Workload, length: Length, seed: u64, seconds: f64) -> Outcome {
    let mut check = OutputCheck::new(w, length, seed);
    let t = timings(w, length, seed, seconds, &mut check);
    let rss = peak_rss_mb().unwrap_or_else(|| {
        check.note(vec![
            "peak_rss_mb: /proc/self/status has no VmHWM".to_string()
        ]);
        0.0
    });
    Outcome::new(check, &END_TO_END, &[median(&t.run), median(&t.setup), rss])
}

/// A traced run of `spec` and the replay of its memtrace on a fresh
/// server of the same configuration.
pub struct TracedRun {
    /// The traced run's report (its memtrace taken out).
    pub report: RunReport,
    /// Host seconds of the traced run.
    pub wall: f64,
    /// The replay of its memtrace.
    pub replay: Replay,
    /// Whether the memtrace ring filled up (the replay then misses calls).
    pub overflowed: bool,
}

/// Runs `spec` with the memtrace on (and, with a `log`, timed workload
/// calls), then replays the trace.
pub fn trace_and_replay(spec: &RunSpec, log: Option<&Arc<CallLog>>) -> TracedRun {
    let mut traced = spec.clone();
    traced.server.memtrace = Some(TRACE_CAPACITY);
    let mut server = traced.build(log);
    let t = Instant::now();
    let mut report = server.run(traced.options);
    let wall = t.elapsed().as_secs_f64();
    drop(server);
    let events = report
        .memtrace
        .take()
        .expect("memtrace was enabled")
        .events();
    let overflowed = events.len() >= TRACE_CAPACITY;
    let mut fresh = spec.build(None);
    let replay = replay(&events, fresh.memory_mut());
    TracedRun {
        report,
        wall,
        replay,
        overflowed,
    }
}

fn checked_run(w: Workload, spec: &RunSpec, check: &mut OutputCheck) {
    let mut checked = spec.clone();
    checked.server.check = Some(CHECK);
    let report = checked.build(None).run(checked.options);
    let mut problems = run_problems(w, &report, spec.options.measure_requests);
    problems.extend(check_problems(w, &report));
    check.record(&Fingerprint::of_run(&report), problems);
}

fn check_problems(w: Workload, report: &RunReport) -> Vec<String> {
    match &report.check {
        Some(c) if c.passed() => Vec::new(),
        Some(c) => vec![format!(
            "{}: checked run: {} oracle or invariant violations: {}",
            w.name(),
            c.total_violations(),
            c.details.join("; ")
        )],
        None => vec![format!("{}: checked run has no check report", w.name())],
    }
}

/// Simulated counts summed over the reports a workload produced.
#[derive(Default)]
struct SimCounts {
    completed: u64,
    offered: u64,
    dropped: u64,
    mem: MemStats,
}

impl SimCounts {
    fn add(&mut self, r: &RunReport) {
        self.completed += r.completed;
        self.offered += r.offered;
        self.dropped += r.dropped;
        for class in TrafficClass::ALL {
            self.mem.dram_reads[class] += r.mem.dram_reads[class];
            self.mem.dram_writes[class] += r.mem.dram_writes[class];
        }
        self.mem.llc_hits += r.mem.llc_hits;
        self.mem.llc_misses += r.mem.llc_misses;
    }

    /// `accesses_per_req`, `writebacks_per_req`, LLC hit ratio and NIC
    /// delivered ratio. Every DRAM write but the NIC's own DMA writes is a
    /// writeback.
    fn metrics(&self) -> [f64; 4] {
        let req = self.completed as f64;
        let writebacks = self.mem.dram_writes.total() - self.mem.dram_writes[TrafficClass::NicRxWr];
        [
            ratio(self.mem.dram_accesses() as f64, req),
            ratio(writebacks as f64, req),
            ratio(
                self.mem.llc_hits as f64,
                (self.mem.llc_hits + self.mem.llc_misses) as f64,
            ),
            ratio((self.offered - self.dropped) as f64, self.offered as f64),
        ]
    }
}

/// The traced run: every per-layer metric.
///
/// Untraced repetitions fill the first half of `seconds` and give the
/// `run_s` the layers are compared with; then come the traced run, the
/// replay and the checked run.
pub fn trace(w: Workload, length: Length, seed: u64, seconds: f64) -> Outcome {
    let mut check = OutputCheck::new(w, length, seed);
    let t = timings(w, length, seed, seconds / 2.0, &mut check);
    let (run_s, setup_s) = (median(&t.run), median(&t.setup));
    let log = CallLog::new();
    let mut sim = SimCounts::default();

    let (traced, other_s, runs, efficiency, overhead) = match RunSpec::of(w, length, seed) {
        Some(spec) => {
            let traced = trace_and_replay(&spec, Some(&log));
            check.record(
                &Fingerprint::of_run(&traced.report),
                run_problems(w, &traced.report, spec.options.measure_requests),
            );
            sim.add(&traced.report);
            checked_run(w, &spec, &mut check);
            let calls = log.calls();
            let workload_s = (calls.handle_packet.ns + calls.step.ns) as f64 / 1e9;
            let other_s = run_s - workload_s - traced.replay.seconds();
            let overhead = traced.wall / run_s - 1.0;
            // One server per run, and no fleet: a single worker.
            (traced, other_s, 1.0, 1.0, overhead)
        }
        None => {
            let (wall, outcomes) = peak_fleet(length, seed, Some(&log));
            record_peaks(&mut check, &outcomes);
            for o in &outcomes {
                sim.add(&o.report);
            }
            let rate = outcomes[0]
                .peak_rate
                .expect("peak points report their rate");
            let spec = peak_replay_spec(length, seed_for_point(seed, 0), rate);
            let traced = trace_and_replay(&spec, None);
            for o in Fleet::new(PEAK_WORKERS)
                .quiet()
                .run_validation(peak_points(length, seed, None), CHECK)
            {
                let mut problems = Vec::new();
                if o.report.timed_out {
                    problems.push(format!("peak_search: checked run of {} timed out", o.label));
                }
                problems.extend(check_problems(w, &o.report));
                check.note(problems);
            }
            let runs = log.servers() as f64 / outcomes.len() as f64;
            // The search's hierarchy time is not replayed in full, so the
            // remainder is not measured here.
            (traced, 0.0, runs, median(&t.efficiency), wall / run_s - 1.0)
        }
    };
    if traced.overflowed {
        check.note(vec![format!(
            "{}: memtrace overflowed; replay incomplete",
            w.name()
        )]);
    }
    let r = &traced.replay;
    let exact = !traced.overflowed && r.exact(&traced.report.mem);
    let calls = log.calls();
    let mut values = Vec::with_capacity(PER_LAYER.len());
    for c in &r.calls {
        values.extend([c.calls as f64, c.ns_per_call()]);
    }
    values.extend([r.ns_per_block(), if exact { 1.0 } else { 0.0 }]);
    values.extend(sim.metrics());
    for c in [calls.handle_packet, calls.step] {
        values.extend([c.calls as f64, c.ns_per_call(), c.ops_per_call()]);
    }
    values.extend([
        other_s,
        runs,
        ratio(runs * setup_s, run_s),
        efficiency,
        overhead,
    ]);
    Outcome::new(check, &PER_LAYER, &values)
}
