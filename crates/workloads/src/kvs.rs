//! MICA-style key-value store.
//!
//! Reimplements the memory behaviour of the MICA KVS as ported to the
//! Scale-Out NUMA transport (Appendix A): a lossy hash index of 1 M
//! cache-line-sized buckets, a 256 MB circular log partitioned per core, and
//! a write-heavy 5/95 GET/SET mix over 2.4 M items with zipf-0.99 key
//! popularity.
//!
//! Per request the store issues the same reference pattern as MICA:
//!
//! * **SET**: read the request packet (header + key + value) from the RX
//!   buffer, probe the key's bucket, append the value at the owning core's
//!   log head, update the bucket pointer, reply with a small ack.
//! * **GET**: read the request header + key, probe the bucket, read the
//!   item's current log entry, reply with the value.
//!
//! SETs move an item's location to the log head (the live-address table),
//! so hot items exhibit MICA's real locality: their latest value is the most
//! recently written log block.

use sweeper_core::workload::{CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::zeroed::ZeroedTable;
use sweeper_sim::Cycle;
use sweeper_sim::BLOCK_BYTES;

use crate::dist::Zipf;

/// Request header size (transport + KVS opcode + key).
pub const HEADER_BYTES: u64 = 64;

/// KVS configuration.
#[derive(Debug, Clone, Copy)]
pub struct KvsConfig {
    /// Number of key-value pairs (Appendix A: 2.4 M).
    pub items: u64,
    /// Number of cache-line-sized index buckets (Appendix A: 1 M).
    pub buckets: u64,
    /// Circular log capacity in bytes (Appendix A: 256 MB).
    pub log_bytes: u64,
    /// Value size in bytes (512 B or 1 KB in the evaluation).
    pub item_bytes: u64,
    /// Fraction of GET requests (Appendix A: 5/95 GET/SET ⇒ 0.05).
    pub get_ratio: f64,
    /// Zipf exponent of key popularity (Appendix A: 0.99).
    pub zipf_exponent: f64,
    /// Fixed per-request compute (hashing, parsing, dispatch), cycles.
    pub compute_cycles: Cycle,
    /// Cores the log is partitioned across (one append head each).
    pub cores: u16,
}

impl KvsConfig {
    /// Appendix A's configuration with 1 KB items on 24 cores.
    pub fn paper_default() -> Self {
        Self {
            items: 2_400_000,
            buckets: 1 << 20,
            log_bytes: 256 << 20,
            item_bytes: 1024,
            get_ratio: 0.05,
            zipf_exponent: 0.99,
            compute_cycles: 150,
            cores: 24,
        }
    }

    /// Same configuration with a different item size (512 B in §VI-A).
    pub fn with_item_bytes(mut self, bytes: u64) -> Self {
        self.item_bytes = bytes;
        self
    }

    /// Scaled-down store for fast unit tests (same structure).
    pub fn small_for_tests() -> Self {
        Self {
            items: 4_096,
            buckets: 1_024,
            log_bytes: 1 << 20,
            item_bytes: 1024,
            get_ratio: 0.05,
            zipf_exponent: 0.99,
            compute_cycles: 200,
            cores: 2,
        }
    }

    /// The request packet size this configuration implies (SETs carry the
    /// value).
    pub fn request_bytes(&self) -> u64 {
        HEADER_BYTES + self.item_bytes
    }
}

/// The MICA-style store.
#[derive(Debug)]
pub struct MicaKvs {
    cfg: KvsConfig,
    buckets_base: Addr,
    log_base: Addr,
    /// Per-core log partition size in bytes (block-aligned).
    partition_bytes: u64,
    /// Per-core append offsets within their partitions.
    log_heads: Vec<u64>,
    /// Log slot + 1 of each item's current entry, or 0 while the item is
    /// still where populate put it (index 0 unused; ranks are 1-based).
    /// Zero-filled, so untouched items cost no host memory.
    item_slot: ZeroedTable<u32>,
    zipf: Zipf,
    stats: KvsStats,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvsStats {
    /// GET requests served.
    pub gets: u64,
    /// SET requests served.
    pub sets: u64,
}

impl MicaKvs {
    /// Creates the store; regions are allocated lazily in
    /// [`Workload::setup`].
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero, the log is smaller than one
    /// item per core, or it has 2^32 slots or more.
    pub fn new(cfg: KvsConfig) -> Self {
        assert!(cfg.items > 0 && cfg.buckets > 0, "empty store");
        assert!(cfg.cores > 0, "store needs at least one core");
        let slot = Self::slot_bytes(&cfg);
        let partition_bytes = (cfg.log_bytes / cfg.cores as u64) / slot * slot;
        assert!(
            partition_bytes >= slot,
            "log too small for one item per core"
        );
        assert!(
            cfg.cores as u64 * (partition_bytes / slot) < 1 << 32,
            "log has too many slots for a 32-bit item index"
        );
        Self {
            zipf: Zipf::new(cfg.items, cfg.zipf_exponent),
            buckets_base: Addr(0),
            log_base: Addr(0),
            partition_bytes,
            log_heads: vec![0; cfg.cores as usize],
            item_slot: ZeroedTable::default(),
            stats: KvsStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KvsConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &KvsStats {
        &self.stats
    }

    /// Log slot size: item rounded up to whole blocks (MICA log entries are
    /// 8-byte aligned; block alignment keeps entries from straddling
    /// unrelated lines in the model).
    fn slot_bytes(cfg: &KvsConfig) -> u64 {
        cfg.item_bytes.div_ceil(BLOCK_BYTES) * BLOCK_BYTES
    }

    fn bucket_addr(&self, key: u64) -> Addr {
        // Multiplicative hash to a bucket line.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        self.buckets_base.offset((h % self.cfg.buckets) * BLOCK_BYTES)
    }

    /// The first key populate assigns to `core`'s partition.
    fn first_key(&self, core: u64) -> u64 {
        if core == 0 {
            self.cfg.cores as u64
        } else {
            core
        }
    }

    /// Where populate put `key`. Populate appends keys `1..=items` in order,
    /// each to partition `key % cores`, so the key is that partition's
    /// `(key - first) / cores`-th append, wrapped to the partition.
    fn initial_addr(&self, key: u64) -> Addr {
        let cores = self.cfg.cores as u64;
        let core = key % cores;
        let appends = (key - self.first_key(core)) / cores;
        let slot = Self::slot_bytes(&self.cfg);
        self.log_base
            .offset(self.partition_bytes * core + appends * slot % self.partition_bytes)
    }

    /// Current log address of `key`.
    fn item_addr(&self, key: u64) -> Addr {
        match self.item_slot[key as usize] {
            0 => self.initial_addr(key),
            s => self
                .log_base
                .offset((u64::from(s) - 1) * Self::slot_bytes(&self.cfg)),
        }
    }

    /// Gives every item its initial log location, spread over the
    /// partitions round-robin, as if loaded before the measurement; leaves
    /// each log head after its partition's last populated item.
    fn populate(&mut self) {
        let cores = self.cfg.cores as u64;
        let slot = Self::slot_bytes(&self.cfg);
        self.item_slot = ZeroedTable::new(self.cfg.items as usize + 1);
        self.log_heads = (0..cores)
            .map(|core| {
                let first = self.first_key(core);
                let appends = if first > self.cfg.items {
                    0
                } else {
                    (self.cfg.items - first) / cores + 1
                };
                appends * slot % self.partition_bytes
            })
            .collect();
    }

    /// Appends an item at `core`'s log head and returns its new address.
    fn append(&mut self, core: u16, key: u64) -> Addr {
        let slot = Self::slot_bytes(&self.cfg);
        let part_base = self.partition_bytes * core as u64;
        let head = &mut self.log_heads[core as usize];
        let offset = part_base + *head;
        *head = (*head + slot) % self.partition_bytes;
        // `new` bounds the slot count below 2^32.
        self.item_slot[key as usize] = (offset / slot + 1) as u32;
        self.log_base.offset(offset)
    }
}

impl Workload for MicaKvs {
    fn name(&self) -> &str {
        "mica-kvs"
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.buckets_base = mem
            .address_map_mut()
            .alloc(self.cfg.buckets * BLOCK_BYTES, RegionKind::App);
        self.log_base = mem
            .address_map_mut()
            .alloc(self.cfg.cores as u64 * self.partition_bytes, RegionKind::App);
        self.populate();
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        let key = self.zipf.sample(env.rng());
        let is_get = env.rng().chance(self.cfg.get_ratio);
        env.compute(self.cfg.compute_cycles);
        let bucket = self.bucket_addr(key);
        if is_get {
            self.stats.gets += 1;
            // Parse header + key from the RX buffer.
            env.read(packet.addr, HEADER_BYTES.min(packet.bytes));
            env.read(bucket, BLOCK_BYTES);
            let item = self.item_addr(key);
            env.read(item, self.cfg.item_bytes);
            TxAction::Reply {
                bytes: HEADER_BYTES + self.cfg.item_bytes,
            }
        } else {
            self.stats.sets += 1;
            // SETs carry the value: consume the whole request packet.
            env.read(packet.addr, packet.bytes);
            env.read(bucket, BLOCK_BYTES);
            let dest = self.append(env.core(), key);
            env.write(dest, self.cfg.item_bytes);
            env.write(bucket, BLOCK_BYTES);
            TxAction::Reply {
                bytes: HEADER_BYTES,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn setup() -> (MicaKvs, MemorySystem, SimRng) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut kvs = MicaKvs::new(KvsConfig::small_for_tests());
        kvs.setup(&mut mem);
        (kvs, mem, SimRng::seeded(1))
    }

    fn drive(
        kvs: &mut MicaKvs,
        pkt: &Packet,
        mem: &mut MemorySystem,
        rng: &mut sweeper_sim::engine::SimRng,
        t: u64,
    ) -> (TxAction, u64) {
        sweeper_core::workload::drive_packet(kvs, pkt, mem, rng, t)
    }

    fn rx_packet(mem: &mut MemorySystem, bytes: u64) -> Packet {
        let addr = mem.address_map_mut().alloc(bytes, RegionKind::Rx { core: 0 });
        mem.nic_write(addr, bytes, 0);
        Packet {
            id: PacketId(0),
            core: 0,
            bytes,
            arrival: 0,
            delivered: 0,
            addr,
        }
    }

    #[test]
    fn config_defaults_match_appendix_a() {
        let cfg = KvsConfig::paper_default();
        assert_eq!(cfg.items, 2_400_000);
        assert_eq!(cfg.buckets, 1 << 20);
        assert_eq!(cfg.log_bytes, 256 << 20);
        assert!((cfg.get_ratio - 0.05).abs() < 1e-12);
        assert!((cfg.zipf_exponent - 0.99).abs() < 1e-12);
        assert_eq!(cfg.request_bytes(), 1024 + 64);
        assert_eq!(cfg.with_item_bytes(512).item_bytes, 512);
    }

    #[test]
    fn setup_allocates_index_and_log() {
        let (kvs, mem, _) = setup();
        let cfg = kvs.config();
        let expected_min = cfg.buckets * BLOCK_BYTES + kvs.partition_bytes * cfg.cores as u64;
        assert!(mem.address_map().allocated_bytes() >= expected_min);
        // Every item has a live address inside the log region.
        for key in 1..=cfg.items {
            let a = kvs.item_addr(key);
            assert!(a.0 >= kvs.log_base.0);
            assert!(a.0 < kvs.log_base.0 + cfg.cores as u64 * kvs.partition_bytes);
        }
    }

    #[test]
    fn requests_mix_is_write_heavy() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        for i in 0..2_000u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let s = *kvs.stats();
        assert_eq!(s.gets + s.sets, 2_000);
        let get_frac = s.gets as f64 / 2_000.0;
        assert!(
            (get_frac - 0.05).abs() < 0.03,
            "GET fraction {get_frac} should be ~0.05"
        );
    }

    #[test]
    fn get_replies_with_item_and_set_with_ack() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        let mut saw_get = false;
        let mut saw_set = false;
        for i in 0..500u64 {
            let gets_before = kvs.stats().gets;
            match drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000).0 {
                TxAction::Reply { bytes } => {
                    if kvs.stats().gets > gets_before {
                        assert_eq!(bytes, HEADER_BYTES + 1024);
                        saw_get = true;
                    } else {
                        assert_eq!(bytes, HEADER_BYTES);
                        saw_set = true;
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(saw_get && saw_set);
    }

    #[test]
    fn sets_advance_the_log_head_circularly() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        let slot = MicaKvs::slot_bytes(kvs.config());
        let part = kvs.partition_bytes;
        let before = kvs.log_heads[0];
        let sets_before = kvs.stats().sets;
        // Run until we see a SET on core 0.
        for i in 0..100u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
            if kvs.stats().sets > sets_before {
                break;
            }
        }
        let advanced = (kvs.log_heads[0] + part - before) % part;
        assert_eq!(advanced % slot, 0);
        assert!(kvs.log_heads[0] < part);
    }

    #[test]
    fn set_relocates_item_to_core_partition() {
        let (mut kvs, _mem, _) = setup();
        let old = kvs.item_addr(5);
        let new = kvs.append(1, 5);
        assert_ne!(old, new);
        assert_eq!(kvs.item_addr(5), new);
        let part_base = kvs.log_base.0 + kvs.partition_bytes;
        assert!(new.0 >= part_base && new.0 < part_base + kvs.partition_bytes);
    }

    #[test]
    fn bucket_addresses_stay_in_index_region() {
        let (kvs, _mem, _) = setup();
        for key in 1..=kvs.config().items {
            let b = kvs.bucket_addr(key);
            assert!(b.0 >= kvs.buckets_base.0);
            assert!(b.0 < kvs.buckets_base.0 + kvs.config().buckets * BLOCK_BYTES);
            assert_eq!((b.0 - kvs.buckets_base.0) % BLOCK_BYTES, 0);
        }
    }

    #[test]
    fn hot_keys_are_cache_friendly() {
        // With zipf 0.99, repeated requests touch few distinct buckets, so
        // service should mostly hit caches: the second half of a run must
        // not fetch dramatically more than the first from DRAM.
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        for i in 0..200u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let mid = mem.stats().dram_reads.total();
        for i in 200..400u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let second_half = mem.stats().dram_reads.total() - mid;
        assert!(second_half <= mid * 2, "no pathological growth");
    }

    /// The populate loop the closed form replaced: append every key in
    /// order to partition `key % cores`. Returns each key's address and the
    /// final log heads.
    fn reference_populate(kvs: &MicaKvs) -> (Vec<Addr>, Vec<u64>) {
        let cfg = kvs.config();
        let slot = MicaKvs::slot_bytes(cfg);
        let mut heads = vec![0; cfg.cores as usize];
        let mut addrs = vec![Addr(0); cfg.items as usize + 1];
        for key in 1..=cfg.items {
            let core = key % cfg.cores as u64;
            let head = &mut heads[core as usize];
            addrs[key as usize] = kvs.log_base.offset(kvs.partition_bytes * core + *head);
            *head = (*head + slot) % kvs.partition_bytes;
        }
        (addrs, heads)
    }

    #[test]
    fn closed_form_placement_matches_the_populate_loop() {
        let small = KvsConfig::small_for_tests();
        let configs = [
            (small, 1),
            // Odd core count, items not a multiple of it, and a log that
            // wraps inside every partition.
            (
                KvsConfig {
                    items: 1_001,
                    cores: 5,
                    log_bytes: 40 * 1024,
                    ..small
                },
                1,
            ),
            // More cores than items: some partitions stay empty.
            (
                KvsConfig {
                    items: 3,
                    cores: 7,
                    ..small
                },
                1,
            ),
            (KvsConfig::paper_default(), 997),
        ];
        for (cfg, stride) in configs {
            let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
            let mut kvs = MicaKvs::new(cfg);
            kvs.setup(&mut mem);
            let (addrs, heads) = reference_populate(&kvs);
            for key in (1..=cfg.items).step_by(stride).chain([cfg.items]) {
                assert_eq!(kvs.item_addr(key), addrs[key as usize], "{cfg:?} key {key}");
            }
            assert_eq!(kvs.log_heads, heads, "{cfg:?}");
        }
    }

    #[test]
    fn a_store_built_after_a_mutated_one_starts_at_populate() {
        let cfg = KvsConfig::paper_default();
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut first = MicaKvs::new(cfg);
        first.setup(&mut mem);
        // Relocate every 7th item, so its index entry is nonzero.
        for key in (1..=cfg.items).step_by(7) {
            first.append((key % 24) as u16, key);
        }
        assert_ne!(first.item_slot[1], 0);
        drop(first);

        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut second = MicaKvs::new(cfg);
        second.setup(&mut mem);
        let (addrs, _) = reference_populate(&second);
        for key in (1..=cfg.items).step_by(499).chain([cfg.items]) {
            assert_eq!(second.item_addr(key), addrs[key as usize], "key {key}");
        }
        assert!(second.item_slot.iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "too many slots")]
    fn rejects_logs_with_2_pow_32_slots() {
        MicaKvs::new(KvsConfig {
            item_bytes: 64,
            log_bytes: 64 << 32,
            cores: 1,
            ..KvsConfig::small_for_tests()
        });
    }

    #[test]
    fn largest_32_bit_log_is_accepted() {
        let kvs = MicaKvs::new(KvsConfig {
            item_bytes: 64,
            log_bytes: (64 << 32) - 64,
            cores: 1,
            ..KvsConfig::small_for_tests()
        });
        assert_eq!(kvs.partition_bytes / 64, (1 << 32) - 1);
    }

    #[test]
    #[should_panic(expected = "log too small")]
    fn rejects_undersized_log() {
        let cfg = KvsConfig {
            log_bytes: 64,
            ..KvsConfig::small_for_tests()
        };
        MicaKvs::new(cfg);
    }
}
