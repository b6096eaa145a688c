//! Criterion micro-benchmarks of the simulator's hot paths: cache probes,
//! DDIO injections, sweep propagation, DRAM timing, zipf sampling, and
//! histogram recording. These guard the simulator's own performance (host
//! wall-time per simulated event), which determines how much of the paper's
//! evaluation fits in a CI budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use sweeper_sim::addr::{Addr, BlockAddr, RegionKind};
use sweeper_sim::cache::{CacheGeometry, LineOrigin, SetAssocCache, WayMask};
use sweeper_sim::dram::{Dram, DramConfig, DramOp};
use sweeper_sim::engine::SimRng;
use sweeper_sim::hierarchy::{MachineConfig, MemorySystem};
use sweeper_sim::stats::Histogram;
use sweeper_workloads::dist::Zipf;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));

    let mut llc = SetAssocCache::new(CacheGeometry {
        size_bytes: 36 * 1024 * 1024,
        ways: 12,
        latency: 35,
    });
    for b in 0..600_000u64 {
        llc.insert(BlockAddr(b), b % 2 == 0, LineOrigin::Cpu, WayMask::ALL);
    }
    let mut i = 0u64;
    group.bench_function("llc_lookup_hit", |bench| {
        bench.iter(|| {
            i = (i + 12_345) % 600_000;
            black_box(llc.lookup(BlockAddr(i)))
        })
    });
    group.bench_function("llc_insert_evict", |bench| {
        bench.iter(|| {
            i += 1;
            black_box(llc.insert(
                BlockAddr(1_000_000 + i),
                true,
                LineOrigin::Nic,
                WayMask::first(2),
            ))
        })
    });
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");
    group.throughput(Throughput::Elements(16));

    let mut mem = MemorySystem::new(MachineConfig::paper_default());
    let rx = mem
        .address_map_mut()
        .alloc(64 << 20, RegionKind::Rx { core: 0 });
    let mut offset = 0u64;
    group.bench_function("ddio_inject_1kb_packet", |bench| {
        bench.iter(|| {
            offset = (offset + 1024) % (64 << 20);
            black_box(mem.nic_write(rx.offset(offset), 1024, offset))
        })
    });

    let mut mem2 = MemorySystem::new(MachineConfig::paper_default());
    let rx2 = mem2
        .address_map_mut()
        .alloc(64 << 20, RegionKind::Rx { core: 0 });
    let mut t = 0u64;
    group.bench_function("rx_lifecycle_with_sweep", |bench| {
        bench.iter(|| {
            t += 1_000;
            let a = rx2.offset((t * 1024) % (64 << 20));
            mem2.nic_write(a, 1024, t);
            mem2.cpu_read(0, a, 1024, t + 100);
            black_box(mem2.sweep_range(a, 1024, t + 200))
        })
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.throughput(Throughput::Elements(1));
    let mut dram = Dram::new(DramConfig::paper_default());
    let mut rng = SimRng::seeded(7);
    let mut now = 0u64;
    group.bench_function("random_read", |bench| {
        bench.iter(|| {
            now += 13;
            let b = BlockAddr(rng.next_u64_in(4_000_000));
            black_box(dram.access(b, now, DramOp::Read))
        })
    });
    group.finish();
}

fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributions");
    group.throughput(Throughput::Elements(1));
    let zipf = Zipf::new(2_400_000, 0.99);
    let mut rng = SimRng::seeded(9);
    group.bench_function("zipf_sample_2_4m", |bench| {
        bench.iter(|| black_box(zipf.sample(&mut rng)))
    });

    let mut hist = Histogram::new();
    let mut v = 0u64;
    group.bench_function("histogram_record", |bench| {
        bench.iter(|| {
            v = (v * 6364136223846793005).wrapping_add(1442695040888963407) % 100_000;
            hist.record(black_box(v));
        })
    });
    group.finish();
}

fn bench_sweep_api(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements(16));
    let mut mem = MemorySystem::new(MachineConfig::paper_default());
    let rx = mem
        .address_map_mut()
        .alloc(1 << 20, RegionKind::Rx { core: 0 });
    let mut t = 0u64;
    group.bench_function("relinquish_1kb_resident", |bench| {
        bench.iter(|| {
            t += 1_000;
            let a = rx.offset((t * 1024) % (1 << 20));
            mem.nic_write(a, 1024, t);
            black_box(sweeper_core::sweep::relinquish(&mut mem, a, 1024, t + 10))
        })
    });
    group.bench_function("relinquish_1kb_absent", |bench| {
        bench.iter(|| {
            t += 1_000;
            // Never allocated, but below the simulated address ceiling.
            black_box(sweeper_core::sweep::relinquish(
                &mut mem,
                Addr((16 << 30) + (t % 4096) * 1024),
                1024,
                t,
            ))
        })
    });
    group.finish();
}

fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.throughput(Throughput::Elements(16));

    // The same RX lifecycle as `hierarchy/rx_lifecycle_with_sweep`, but with
    // the correctness harness mirroring every event — the difference between
    // the two is the oracle's per-event cost.
    let mut mem = MemorySystem::new(MachineConfig::paper_default());
    mem.enable_check(sweeper_sim::check::CheckConfig::default());
    let rx = mem
        .address_map_mut()
        .alloc(64 << 20, RegionKind::Rx { core: 0 });
    let mut t = 0u64;
    group.bench_function("rx_lifecycle_checked", |bench| {
        bench.iter(|| {
            t += 1_000;
            let a = rx.offset((t * 1024) % (64 << 20));
            mem.nic_write(a, 1024, t);
            mem.cpu_read(0, a, 1024, t + 100);
            mem.mark_consumed(a, 1024);
            black_box(mem.sweep_range(a, 1024, t + 200))
        })
    });

    // The on-demand invariant walk over a populated hierarchy — the cost
    // `walk_every_requests` amortises.
    group.throughput(Throughput::Elements(1));
    group.bench_function("invariant_walk", |bench| {
        bench.iter(|| {
            mem.check_walk();
            black_box(())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_hierarchy,
    bench_dram,
    bench_distributions,
    bench_sweep_api,
    bench_check
);
criterion_main!(benches);
