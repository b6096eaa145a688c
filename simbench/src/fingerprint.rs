//! The benchmark's output check: fingerprints of the simulated outputs.
//!
//! The simulator is deterministic, so a change that only makes it faster
//! must leave every simulated output identical. `fingerprints.txt` pins
//! them for [`DEFAULT_SEED`](crate::spec::DEFAULT_SEED) at both lengths.
//! At other seeds every repetition within a run must reproduce the first
//! one.

use sweeper_core::server::RunReport;
use sweeper_sim::stats::{ClassCounts, TrafficClass};

use crate::spec::{Length, Workload};

/// Field names of the per-class DRAM counts, in `TrafficClass::ALL` order.
const CLASS_KEYS: [&str; 8] = [
    "nic_rx_wr",
    "nic_tx_rd",
    "cpu_rx_rd",
    "cpu_tx_rdwr",
    "cpu_other_rd",
    "rx_evct",
    "tx_evct",
    "other_evct",
];

const PINNED: &str = include_str!("../fingerprints.txt");

/// Named simulated outputs, in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(pub Vec<(String, String)>);

impl Fingerprint {
    /// Completed requests, elapsed cycles, block accesses, per-class DRAM
    /// reads and writes, and p50/p99 request latency of one run.
    pub fn of_run(report: &RunReport) -> Self {
        let mut fields = vec![
            ("completed".to_string(), report.completed.to_string()),
            (
                "elapsed_cycles".to_string(),
                report.elapsed_cycles.to_string(),
            ),
            (
                "block_accesses".to_string(),
                report.mem.block_accesses.to_string(),
            ),
        ];
        push_classes(&mut fields, "dram_rd", &report.mem.dram_reads);
        push_classes(&mut fields, "dram_wr", &report.mem.dram_writes);
        for (key, q) in [("p50", 0.5), ("p99", 0.99)] {
            fields.push((
                key.to_string(),
                report.request_latency.percentile(q).to_string(),
            ));
        }
        Self(fields)
    }

    /// The peak rates of `peak_search`, by point label.
    pub fn of_peaks(peaks: &[(&str, f64)]) -> Self {
        Self(
            peaks
                .iter()
                .map(|(label, rate)| (format!("peak.{label}"), rate.to_string()))
                .collect(),
        )
    }

    /// The pinned fingerprint of `workload` at `length`, if `seed` is the
    /// seed it was pinned at.
    pub fn pinned(workload: Workload, length: Length, seed: u64) -> Option<Self> {
        PINNED.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            let head = (words.next()?, words.next()?, words.next()?);
            if head != (workload.name(), length.name(), seed.to_string().as_str()) {
                return None;
            }
            Some(Self(
                words
                    .map(|w| {
                        let (k, v) = w.split_once('=').expect("fingerprints.txt: field=value");
                        (k.to_string(), v.to_string())
                    })
                    .collect(),
            ))
        })
    }

    /// The `fingerprints.txt` line of this fingerprint.
    pub fn line(&self, workload: Workload, length: Length, seed: u64) -> String {
        let mut line = format!("{} {} {}", workload.name(), length.name(), seed);
        for (k, v) in &self.0 {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }

    /// One message per field that differs from `expected`, naming the
    /// workload and the field.
    pub fn mismatches(&self, expected: &Fingerprint, workload: Workload) -> Vec<String> {
        let mut out = Vec::new();
        for (key, want) in &expected.0 {
            let got = self
                .0
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str());
            if got != Some(want.as_str()) {
                out.push(format!(
                    "{}: field {key}: expected {want}, got {}",
                    workload.name(),
                    got.unwrap_or("nothing")
                ));
            }
        }
        if self.0.len() != expected.0.len() {
            out.push(format!(
                "{}: {} fields, expected {}",
                workload.name(),
                self.0.len(),
                expected.0.len()
            ));
        }
        out
    }
}

fn push_classes(fields: &mut Vec<(String, String)>, prefix: &str, counts: &ClassCounts) {
    for (class, key) in TrafficClass::ALL.into_iter().zip(CLASS_KEYS) {
        fields.push((format!("{prefix}.{key}"), counts[class].to_string()));
    }
}

/// Checks every repetition of a run against the pinned fingerprint or,
/// without one, against the run's first repetition.
#[derive(Debug)]
pub struct OutputCheck {
    workload: Workload,
    expected: Option<Fingerprint>,
    /// Repetitions checked.
    pub attempted: u64,
    /// Repetitions that failed.
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl OutputCheck {
    /// A check for `workload` at `length` and `seed`.
    pub fn new(workload: Workload, length: Length, seed: u64) -> Self {
        Self {
            workload,
            expected: Fingerprint::pinned(workload, length, seed),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one repetition: its fingerprint plus any problems found
    /// before fingerprinting (timeouts, missed quotas, violations).
    pub fn record(&mut self, got: &Fingerprint, mut problems: Vec<String>) {
        match &self.expected {
            Some(expected) => problems.extend(got.mismatches(expected, self.workload)),
            None => self.expected = Some(got.clone()),
        }
        self.note(problems);
    }

    /// Records a run that has no fingerprint, failed if it has problems.
    pub fn note(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// Problems of one run report: a timeout or a missed quota.
pub fn run_problems(workload: Workload, report: &RunReport, quota: u64) -> Vec<String> {
    let mut out = Vec::new();
    if report.timed_out {
        out.push(format!("{}: timed out", workload.name()));
    }
    if report.completed < quota {
        out.push(format!(
            "{}: missed its quota: {} of {quota} requests",
            workload.name(),
            report.completed
        ));
    }
    out
}
