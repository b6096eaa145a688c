//! Timing wrappers around the workload layer.
//!
//! [`Timed`] implements [`Workload`] and [`BackgroundTenant`] by delegating
//! to the wrapped application and timing every call from the benchmark's
//! side of the interface. Each wrapper keeps its own tallies and merges
//! them into the shared [`CallLog`] when it is dropped, so the two fleet
//! workers of `peak_search` never contend on the log while simulating.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sweeper_core::workload::{BackgroundTenant, CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::hierarchy::MemorySystem;

/// Tallies of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
    /// Ops the calls recorded.
    pub ops: u64,
}

impl Calls {
    fn add(&mut self, other: Calls) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.ops += other.ops;
    }

    /// Mean host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    /// Mean ops recorded per call (0 without calls).
    pub fn ops_per_call(&self) -> f64 {
        ratio(self.ops as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calls into the workload layer, by entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadCalls {
    /// `Workload::handle_packet`.
    pub handle_packet: Calls,
    /// `BackgroundTenant::step`.
    pub step: Calls,
}

/// Shared sink of every [`Timed`] wrapper of one measurement.
#[derive(Debug, Default)]
pub struct CallLog {
    calls: Mutex<WorkloadCalls>,
    servers: AtomicU64,
}

impl CallLog {
    /// An empty log.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Counts one server built through a workload factory.
    pub fn note_server(&self) {
        self.servers.fetch_add(1, Ordering::Relaxed);
    }

    /// Servers counted by [`CallLog::note_server`].
    pub fn servers(&self) -> u64 {
        self.servers.load(Ordering::Relaxed)
    }

    /// Totals merged so far (wrappers merge when dropped).
    pub fn calls(&self) -> WorkloadCalls {
        *self.calls.lock().expect("a wrapper panicked while merging")
    }
}

/// A workload or background tenant whose calls are timed.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    local: WorkloadCalls,
    log: Arc<CallLog>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, merging into `log` on drop.
    pub fn new(inner: T, log: &Arc<CallLog>) -> Self {
        Self {
            inner,
            local: WorkloadCalls::default(),
            log: Arc::clone(log),
        }
    }
}

impl<T> Drop for Timed<T> {
    fn drop(&mut self) {
        // A poisoned log only loses this wrapper's tallies; never panic in
        // drop.
        if let Ok(mut total) = self.log.calls.lock() {
            total.handle_packet.add(self.local.handle_packet);
            total.step.add(self.local.step);
        }
    }
}

fn timed<R>(
    slot: &mut Calls,
    env: &mut CoreEnv<'_>,
    call: impl FnOnce(&mut CoreEnv<'_>) -> R,
) -> R {
    let before = env.ops().len();
    let start = Instant::now();
    let out = call(env);
    slot.ns += start.elapsed().as_nanos() as u64;
    slot.calls += 1;
    slot.ops += (env.ops().len() - before) as u64;
    out
}

impl<T: Workload> Workload for Timed<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.inner.setup(mem);
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        let inner = &mut self.inner;
        timed(&mut self.local.handle_packet, env, |env| {
            inner.handle_packet(packet, env)
        })
    }
}

impl<T: BackgroundTenant> BackgroundTenant for Timed<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, core: u16, mem: &mut MemorySystem) {
        self.inner.setup(core, mem);
    }

    fn step(&mut self, core: u16, env: &mut CoreEnv<'_>) {
        let inner = &mut self.inner;
        timed(&mut self.local.step, env, |env| inner.step(core, env));
    }
}
