//! Memtrace replay: host time of the memory hierarchy, per public call.
//!
//! A traced run records every `MemorySystem` call the server makes (except
//! `cpu_read_scatter`, which the memtrace does not record) with its cycle.
//! Replaying those calls in order, at the same cycles, on a freshly built
//! server of the same configuration drives the hierarchy through the same
//! states. The replay times each call; its statistics, compared with the
//! traced run's, tell whether the replay was exact.

use std::time::Instant;

use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::stats::MemStats;
use sweeper_sim::trace::{TraceEvent, TraceKind};
use sweeper_sim::BLOCK_BYTES;

use crate::timed::Calls;

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Tallies of `cpu_read`, `cpu_write`, `nic_write`, `nic_read` and
    /// `sweep_range`, in that order (`ops` unused).
    pub calls: [Calls; 5],
    /// Statistics of the replayed memory system.
    pub stats: MemStats,
}

impl Replay {
    /// Host seconds spent in replayed calls.
    pub fn seconds(&self) -> f64 {
        self.calls.iter().map(|c| c.ns).sum::<u64>() as f64 / 1e9
    }

    /// Host nanoseconds per block the replay touched.
    pub fn ns_per_block(&self) -> f64 {
        crate::timed::ratio(self.seconds() * 1e9, self.stats.block_accesses as f64)
    }

    /// Whether the replay reproduced the traced run's block accesses and
    /// per-class DRAM reads and writes exactly.
    pub fn exact(&self, traced: &MemStats) -> bool {
        self.stats.block_accesses == traced.block_accesses
            && self.stats.dram_reads == traced.dram_reads
            && self.stats.dram_writes == traced.dram_writes
    }
}

/// Replays `events` into `mem`, whose statistics are reset first.
pub fn replay(events: &[TraceEvent], mem: &mut MemorySystem) -> Replay {
    mem.reset_stats();
    let mut calls = [Calls::default(); 5];
    for e in events {
        let addr = e.block.base();
        let len = e.blocks as u64 * BLOCK_BYTES;
        let start = Instant::now();
        let slot = match e.kind {
            TraceKind::CpuRead => {
                mem.cpu_read(e.core, addr, len, e.at);
                0
            }
            TraceKind::CpuWrite => {
                mem.cpu_write(e.core, addr, len, e.at);
                1
            }
            TraceKind::NicWrite => {
                mem.nic_write(addr, len, e.at);
                2
            }
            TraceKind::NicRead => {
                mem.nic_read(addr, len, e.at);
                3
            }
            TraceKind::Sweep => {
                mem.sweep_range(addr, len, e.at);
                4
            }
            // Writebacks are effects of the calls above, not calls.
            TraceKind::Writeback => continue,
        };
        calls[slot].ns += start.elapsed().as_nanos() as u64;
        calls[slot].calls += 1;
    }
    Replay {
        calls,
        stats: mem.stats().clone(),
    }
}
