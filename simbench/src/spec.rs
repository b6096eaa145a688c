//! The benchmark's workloads: each is a fixed amount of simulated work,
//! built from the seed alone.
//!
//! Every single-run workload is measured from its first simulated cycle
//! (warmup 0). The warm-up traffic is part of the fixed work, of the
//! timed wall time and of the pinned fingerprint, so the traced run can
//! record the whole run in its memtrace and the replay can reproduce it
//! from a freshly built server.

use std::sync::Arc;

use sweeper_bench::{figure_run_options, wrapped_run_options, SystemPoint};
use sweeper_core::experiment::{Experiment, ExperimentConfig};
use sweeper_core::fleet::ExperimentPoint;
use sweeper_core::profile::RunProfile;
use sweeper_core::server::{RunOptions, Server, ServerConfig};
use sweeper_core::workload::{BackgroundTenant, Workload as App};
use sweeper_nic::traffic::ArrivalProcess;
use sweeper_sim::cache::WayMask;
use sweeper_workloads::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use sweeper_workloads::l3fwd::{L3Forwarder, L3fwdConfig};
use sweeper_workloads::xmem::{Xmem, XmemConfig};

use crate::timed::{CallLog, Timed};

/// The seed whose simulated outputs are pinned in `fingerprints.txt`.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Open-loop rate of the KVS workloads: below the DDIO-2, 1024-buffer
/// configuration's ~26 Mrps peak, so queues stay bounded.
const KVS_RATE: f64 = 15.0e6;

/// Collocation study (Fig 9a, A = 2): L3fwd on the first `NET_CORES` cores
/// with DDIO in LLC ways 0–1, X-Mem on the rest in ways 2–11.
const NET_CORES: u16 = 12;
const DDIO_WAYS: u32 = 2;
const LLC_WAYS: u32 = 12;
const COLO_DEPTH: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 1 leak point: MICA KVS, DDIO 2 ways, Sweeper off.
    KvsLeak,
    /// The same configuration with Sweeper on.
    KvsSweeper,
    /// Fig 9a, A = 2: L3fwd collocated with X-Mem.
    ColoXmem,
    /// Two peak searches (DDIO 2 ways with and without Sweeper) on a
    /// 2-worker fleet.
    PeakSearch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KvsLeak,
        Workload::KvsSweeper,
        Workload::ColoXmem,
        Workload::PeakSearch,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvsLeak => "kvs_leak",
            Workload::KvsSweeper => "kvs_sweeper",
            Workload::ColoXmem => "colo_xmem",
            Workload::PeakSearch => "peak_search",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much simulated work a workload does: the benchmark's length, or a
/// short one for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// The measured length.
    Bench,
    /// A few seconds in total, for tests.
    Smoke,
}

impl Length {
    /// The name used on the command line and in `fingerprints.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Length::Bench => "bench",
            Length::Smoke => "smoke",
        }
    }

    /// Parses a length name.
    pub fn parse(name: &str) -> Option<Self> {
        [Length::Bench, Length::Smoke]
            .into_iter()
            .find(|l| l.name() == name)
    }
}

/// Which application a [`RunSpec`] builds.
#[derive(Debug, Clone, Copy)]
enum Apps {
    Kvs,
    Colo,
}

/// One simulation run: a server configuration, its run lengths, and the
/// applications it hosts.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Server configuration, including the arrival process and seed.
    pub server: ServerConfig,
    /// Run lengths.
    pub options: RunOptions,
    apps: Apps,
}

impl RunSpec {
    /// The single-run spec of `workload`; `None` for `peak_search`.
    pub fn of(workload: Workload, length: Length, seed: u64) -> Option<Self> {
        let kvs_requests = match length {
            Length::Bench => 54_000,
            Length::Smoke => 6_000,
        };
        match workload {
            Workload::KvsLeak => Some(Self::kvs(SystemPoint::ddio(DDIO_WAYS), seed, kvs_requests)),
            Workload::KvsSweeper => Some(Self::kvs(
                SystemPoint::ddio_sweeper(DDIO_WAYS),
                seed,
                kvs_requests,
            )),
            Workload::ColoXmem => Some(Self::colo(seed, length)),
            Workload::PeakSearch => None,
        }
    }

    fn kvs(point: SystemPoint, seed: u64, requests: u64) -> Self {
        let mut server = kvs_config(point, seed).server_config().clone();
        server.arrivals = ArrivalProcess::Poisson { rate: KVS_RATE };
        Self {
            server,
            options: RunOptions {
                warmup_requests: 0,
                measure_requests: requests,
                max_cycles: 120_000_000_000,
                min_warmup_cycles: 0,
                min_measure_cycles: 0,
            },
            apps: Apps::Kvs,
        }
    }

    /// The run window is simulated time, as in Fig 9: X-Mem makes progress
    /// per cycle, not per request. It covers X-Mem's cold pass over its
    /// 2 MB datasets (about 15 M cycles) and several wraps of the 12 × 2048
    /// RX rings.
    fn colo(seed: u64, length: Length) -> Self {
        let cycles = match length {
            Length::Bench => 16_000_000,
            Length::Smoke => 1_000_000,
        };
        let cfg = SystemPoint::ddio(DDIO_WAYS).apply(
            ExperimentConfig::paper_default()
                .active_cores(NET_CORES)
                .rx_buffers_per_core(2048)
                .packet_bytes(1024)
                .seed(seed),
        );
        let mut server = cfg.server_config().clone();
        server.arrivals = ArrivalProcess::KeepQueued { depth: COLO_DEPTH };
        Self {
            server,
            options: RunOptions {
                warmup_requests: 0,
                measure_requests: 1,
                max_cycles: 60_000_000_000,
                min_warmup_cycles: 0,
                min_measure_cycles: cycles,
            },
            apps: Apps::Colo,
        }
    }

    /// Builds the server: `Server::new`, the background tenant and the LLC
    /// partition where the workload has them. With a `log`, every
    /// application call is timed into it.
    pub fn build(&self, log: Option<&Arc<CallLog>>) -> Server {
        match self.apps {
            Apps::Kvs => Server::new(self.server.clone(), app(kvs_app(), log)),
            Apps::Colo => {
                let net = L3Forwarder::new(L3fwdConfig::l1_resident());
                let tenant = Xmem::new(XmemConfig::paper_default());
                let tenant: Box<dyn BackgroundTenant> = match log {
                    None => Box::new(tenant),
                    Some(log) => Box::new(Timed::new(tenant, log)),
                };
                let mut server =
                    Server::new(self.server.clone(), app(net, log)).with_background(tenant);
                let mem = server.memory_mut();
                let total = self.server.machine.cores as u16;
                for core in 0..NET_CORES {
                    mem.set_cpu_llc_mask(core, WayMask::first(DDIO_WAYS));
                }
                for core in NET_CORES..total {
                    mem.set_cpu_llc_mask(core, WayMask::range(DDIO_WAYS, LLC_WAYS));
                }
                server
            }
        }
    }
}

fn app<W: App + 'static>(inner: W, log: Option<&Arc<CallLog>>) -> Box<dyn App> {
    match log {
        None => Box::new(inner),
        Some(log) => Box::new(Timed::new(inner, log)),
    }
}

fn kvs_app() -> MicaKvs {
    MicaKvs::new(KvsConfig::paper_default().with_item_bytes(1024))
}

/// MICA KVS with 1 KB items, 1024 RX buffers per core, 24 cores and 4
/// DRAM channels under `point`.
fn kvs_config(point: SystemPoint, seed: u64) -> ExperimentConfig {
    point.apply(
        ExperimentConfig::paper_default()
            .rx_buffers_per_core(1024)
            .packet_bytes(1024 + HEADER_BYTES)
            .channels(4)
            .seed(seed),
    )
}

/// Run lengths of each search step of `peak_search`: the figure suite's
/// fast profile (with its RX-ring-wrap warmup) at the benchmark's length,
/// the smoke profile without the ring-wrap floor for tests.
fn peak_options(length: Length) -> RunOptions {
    match length {
        Length::Bench => wrapped_run_options(RunProfile::Fast, 24, 1024),
        Length::Smoke => figure_run_options(RunProfile::Smoke),
    }
}

/// Labels of the two `peak_search` points, in fleet order.
pub const PEAK_LABELS: [&str; 2] = ["ddio2", "ddio2_sweeper"];

/// The two `peak_search` points. With a `log`, the workload factory counts
/// every server it builds and every application call is timed.
pub fn peak_points(length: Length, seed: u64, log: Option<&Arc<CallLog>>) -> Vec<ExperimentPoint> {
    [
        SystemPoint::ddio(DDIO_WAYS),
        SystemPoint::ddio_sweeper(DDIO_WAYS),
    ]
    .into_iter()
    .zip(PEAK_LABELS)
    .map(|(point, label)| {
        let cfg = kvs_config(point, seed).run_options(peak_options(length));
        let exp: Experiment = match log {
            None => cfg.experiment(kvs_app),
            Some(log) => {
                let log = Arc::clone(log);
                cfg.experiment(move || {
                    log.note_server();
                    Timed::new(kvs_app(), &log)
                })
            }
        };
        ExperimentPoint::peak(label, exp)
    })
    .collect()
}

/// The single run `peak_search` replays for its hierarchy numbers: the
/// first point's configuration and seed at its peak rate, measured from
/// its first cycle over the search's whole per-step quota.
pub fn peak_replay_spec(length: Length, point_seed: u64, rate: f64) -> RunSpec {
    let opts = peak_options(length);
    let mut spec = RunSpec::kvs(
        SystemPoint::ddio(DDIO_WAYS),
        point_seed,
        opts.warmup_requests + opts.measure_requests,
    );
    spec.server.arrivals = ArrivalProcess::Poisson { rate };
    spec.options.max_cycles = opts.max_cycles;
    spec
}

/// Builds one `peak_search` server (the DDIO 2-way KVS machine): what its
/// `setup_s` times.
pub fn peak_setup_spec(seed: u64) -> RunSpec {
    RunSpec::kvs(SystemPoint::ddio(DDIO_WAYS), seed, 1)
}
