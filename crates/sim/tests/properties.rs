//! Property-based tests over the substrate's core data structures:
//! set-associative cache invariants and replacement order against a naive
//! model, coherence-directory bookkeeping,
//! histogram correctness against a naive model, address-map classification,
//! and DRAM timing monotonicity.

use proptest::collection::vec;
use proptest::prelude::*;

use sweeper_sim::addr::{blocks_of, Addr, AddressMap, BlockAddr, RegionKind};
use sweeper_sim::cache::{
    CacheGeometry, Evicted, Line, LineOrigin, ReplacementPolicy, SetAssocCache, WayMask,
};
use sweeper_sim::coherence::{Directory, ReferenceDirectory};
use sweeper_sim::dram::{Dram, DramConfig, DramOp};
use sweeper_sim::stats::Histogram;

fn small_cache() -> SetAssocCache {
    SetAssocCache::new(CacheGeometry {
        size_bytes: 32 * 64,
        ways: 4,
        latency: 4,
    })
}

/// Operations the cache model is exercised with.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, bool),
    Lookup(u64),
    Invalidate(u64),
    MarkDirty(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let block = 0u64..64;
    prop_oneof![
        (block.clone(), any::<bool>()).prop_map(|(b, d)| CacheOp::Insert(b, d)),
        block.clone().prop_map(CacheOp::Lookup),
        block.clone().prop_map(CacheOp::Invalidate),
        block.prop_map(CacheOp::MarkDirty),
    ]
}

/// One way of the naive replacement model.
#[derive(Debug, Clone, Copy)]
struct ModelWay {
    line: Line,
    last_touch: u64,
    rrpv: u8,
}

/// A naive set-associative cache: per set, a `Vec` of ways, each with the
/// global time of its last touch (LRU) or its rrpv (SRRIP).
struct ModelCache {
    sets: Vec<Vec<Option<ModelWay>>>,
    policy: ReplacementPolicy,
    time: u64,
}

impl ModelCache {
    fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        Self {
            sets: vec![vec![None; ways]; sets],
            policy,
            time: 0,
        }
    }

    /// The cache's set index: the high bits of a Fibonacci hash.
    fn set(&mut self, block: u64) -> &mut Vec<Option<ModelWay>> {
        let n = self.sets.len() as u64;
        &mut self.sets[((block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n) as usize]
    }

    fn find(&mut self, block: u64) -> Option<&mut ModelWay> {
        self.set(block)
            .iter_mut()
            .flatten()
            .find(|w| w.line.block.0 == block)
    }

    fn peek(&mut self, block: u64) -> Option<Line> {
        self.find(block).map(|w| w.line)
    }

    fn lookup(&mut self, block: u64) -> Option<Line> {
        self.time += 1;
        let time = self.time;
        self.find(block).map(|w| {
            w.last_touch = time;
            w.rrpv = 0;
            w.line
        })
    }

    fn mark_dirty(&mut self, block: u64) -> bool {
        self.find(block).map(|w| w.line.dirty = true).is_some()
    }

    fn invalidate(&mut self, block: u64) -> Option<Line> {
        let set = self.set(block);
        let way = set
            .iter()
            .position(|w| w.is_some_and(|w| w.line.block.0 == block))?;
        set[way].take().map(|w| w.line)
    }

    fn insert(
        &mut self,
        block: u64,
        dirty: bool,
        origin: LineOrigin,
        mask: WayMask,
    ) -> Option<Evicted> {
        self.time += 1;
        let time = self.time;
        if let Some(w) = self.find(block) {
            w.line.dirty |= dirty;
            w.line.origin = origin;
            w.last_touch = time;
            w.rrpv = 0;
            return None;
        }
        let policy = self.policy;
        let set = self.set(block);
        let allowed: Vec<usize> = (0..set.len()).filter(|&w| mask.allows(w)).collect();
        let new = ModelWay {
            line: Line {
                block: BlockAddr(block),
                dirty,
                origin,
            },
            last_touch: time,
            rrpv: if policy == ReplacementPolicy::Srrip {
                2
            } else {
                0
            },
        };
        if let Some(&free) = allowed.iter().find(|&&w| set[w].is_none()) {
            set[free] = Some(new);
            return None;
        }
        let victim = match policy {
            ReplacementPolicy::Lru => *allowed
                .iter()
                .min_by_key(|&&w| set[w].unwrap().last_touch)
                .unwrap(),
            ReplacementPolicy::Srrip => loop {
                if let Some(&w) = allowed.iter().find(|&&w| set[w].unwrap().rrpv >= 3) {
                    break w;
                }
                for &w in &allowed {
                    set[w].as_mut().unwrap().rrpv += 1;
                }
            },
        };
        set[victim].replace(new).map(|w| Evicted { line: w.line })
    }

    fn lines(&self) -> Vec<Line> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|w| w.line)
            .collect()
    }
}

/// Raw replacement-order operation: `(kind, block, flags, mask bits)`.
type RawOp = (u8, u64, u8, u64);

/// Replays `ops` on a `sets` x `ways` cache and on [`ModelCache`], and
/// checks every hit, every evicted line and the final contents agree.
fn cache_matches_model(
    sets: usize,
    ways: usize,
    policy: ReplacementPolicy,
    ops: &[RawOp],
) -> Result<(), TestCaseError> {
    let geometry = CacheGeometry {
        size_bytes: (sets * ways) as u64 * 64,
        ways,
        latency: 1,
    };
    let mut cache = SetAssocCache::with_policy(geometry, policy);
    let mut model = ModelCache::new(sets, ways, policy);
    for (n, &(kind, block, flags, bits)) in ops.iter().enumerate() {
        let b = BlockAddr(block);
        match kind {
            0 | 1 => {
                // Inserts are the most frequent operation so sets stay full.
                let origin = if flags & 2 != 0 {
                    LineOrigin::Nic
                } else {
                    LineOrigin::Cpu
                };
                let mut mask = WayMask(bits & WayMask::first(ways as u32).0);
                if flags & 4 != 0 || mask.0 == 0 {
                    mask = WayMask::ALL;
                }
                prop_assert_eq!(
                    cache.insert(b, flags & 1 != 0, origin, mask),
                    model.insert(block, flags & 1 != 0, origin, mask),
                    "op {} insert {} under {}",
                    n,
                    block,
                    mask
                );
            }
            2 => prop_assert_eq!(cache.lookup(b), model.lookup(block), "op {} lookup", n),
            3 => prop_assert_eq!(cache.peek(b), model.peek(block), "op {} peek", n),
            4 => prop_assert_eq!(
                cache.invalidate(b),
                model.invalidate(block),
                "op {} invalidate",
                n
            ),
            _ => prop_assert_eq!(
                cache.mark_dirty(b),
                model.mark_dirty(block),
                "op {} mark_dirty",
                n
            ),
        }
    }
    let mut got: Vec<_> = cache
        .iter_lines()
        .map(|l| (l.block.0, l.dirty, l.origin == LineOrigin::Nic))
        .collect();
    let mut want: Vec<_> = model
        .lines()
        .iter()
        .map(|l| (l.block.0, l.dirty, l.origin == LineOrigin::Nic))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    prop_assert_eq!(cache.resident_lines() as usize, want.len());
    prop_assert_eq!(got, want);
    Ok(())
}

fn raw_ops(blocks: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
    vec((0u8..6, 0..blocks, any::<u8>(), any::<u64>()), len)
}

/// Drives `dir` and a [`ReferenceDirectory`] through `ops` and checks they
/// agree after every step.
fn directory_matches_hashmap_reference(
    mut dir: Directory,
    ops: &[(u64, u16, u8)],
) -> Result<(), TestCaseError> {
    let mut reference = ReferenceDirectory::new();
    for &(block, core, op) in ops {
        // Spread keys so several share a home slot under the Fibonacci
        // hash (stride collisions) while others land far apart.
        let b = BlockAddr(block << (block % 7));
        match op {
            0 => {
                dir.add_sharer(b, core);
                reference.add_sharer(b, core);
            }
            1 => {
                dir.remove_sharer(b, core);
                reference.remove_sharer(b, core);
            }
            2 => {
                dir.set_dirty_owner(b, core);
                reference.set_dirty_owner(b, core);
            }
            3 => {
                dir.clear_dirty(b);
                reference.clear_dirty(b);
            }
            _ => {
                prop_assert_eq!(dir.drop_block(b).to_vec(), reference.drop_block(b).to_vec());
            }
        }
        prop_assert_eq!(dir.sharers(b).to_vec(), reference.sharers(b).to_vec());
        prop_assert_eq!(dir.dirty_owner(b), reference.dirty_owner(b));
        prop_assert_eq!(dir.any_sharer(b), reference.any_sharer(b));
        prop_assert_eq!(dir.tracked_blocks(), reference.tracked_blocks());
        for ex in 0..64 {
            prop_assert_eq!(dir.others(b, ex).to_vec(), reference.others(b, ex).to_vec());
            prop_assert_eq!(
                dir.shared_elsewhere(b, ex),
                reference.shared_elsewhere(b, ex)
            );
        }
    }
    Ok(())
}

proptest! {
    /// One 4-way set driven long enough that the per-set LRU clock
    /// renumbers many times: hits and victims match the naive model.
    #[test]
    fn one_set_replacement_order_matches_naive_model(ops in raw_ops(12, 2_000..2_500)) {
        cache_matches_model(1, 4, ReplacementPolicy::Lru, &ops)?;
        cache_matches_model(1, 4, ReplacementPolicy::Srrip, &ops)?;
    }

    /// Several sets at the L2's associativity (a three-line record) and at
    /// the LLC's (a two-line record), under both policies.
    #[test]
    fn multi_set_replacement_order_matches_naive_model(ops in raw_ops(160, 1_000..1_500)) {
        for ways in [20, 12] {
            cache_matches_model(3, ways, ReplacementPolicy::Lru, &ops)?;
            cache_matches_model(3, ways, ReplacementPolicy::Srrip, &ops)?;
        }
    }

    /// Whatever sequence of operations runs, the cache never exceeds its
    /// capacity, and a block that was just inserted is immediately findable.
    #[test]
    fn cache_capacity_and_presence_invariants(ops in vec(cache_op(), 1..300)) {
        let mut cache = small_cache();
        let mut model = std::collections::HashSet::new();
        for op in ops {
            match op {
                CacheOp::Insert(b, d) => {
                    if let Some(ev) = cache.insert(BlockAddr(b), d, LineOrigin::Cpu, WayMask::ALL) {
                        model.remove(&ev.line.block.0);
                    }
                    model.insert(b);
                    prop_assert!(cache.peek(BlockAddr(b)).is_some());
                }
                CacheOp::Lookup(b) => {
                    prop_assert_eq!(cache.lookup(BlockAddr(b)).is_some(), model.contains(&b));
                }
                CacheOp::Invalidate(b) => {
                    let was = cache.invalidate(BlockAddr(b)).is_some();
                    prop_assert_eq!(was, model.remove(&b));
                }
                CacheOp::MarkDirty(b) => {
                    let found = cache.mark_dirty(BlockAddr(b));
                    prop_assert_eq!(found, model.contains(&b));
                    if found {
                        prop_assert!(cache.peek(BlockAddr(b)).unwrap().dirty);
                    }
                }
            }
            prop_assert!(cache.resident_lines() <= 32);
            prop_assert_eq!(cache.resident_lines() as usize, model.len());
            prop_assert_eq!(cache.iter_lines().count(), model.len());
        }
    }

    /// Way-masked insertion never evicts a line outside the mask's ways (we
    /// observe this indirectly: lines inserted under a disjoint mask are
    /// never displaced by masked insertions).
    #[test]
    fn masked_insertions_do_not_displace_other_partitions(
        protected in vec(0u64..512, 1..8),
        churn in vec(512u64..4096, 1..200),
    ) {
        let mut cache = small_cache();
        let low = WayMask::first(2);
        let high = WayMask::range(2, 4);
        let mut kept = std::collections::HashSet::new();
        for b in protected {
            if let Some(ev) = cache.insert(BlockAddr(b), true, LineOrigin::Cpu, high) {
                kept.remove(&ev.line.block.0);
            }
            kept.insert(b);
        }
        for b in churn {
            if kept.contains(&b) {
                continue;
            }
            cache.insert(BlockAddr(b), true, LineOrigin::Nic, low);
        }
        for b in kept {
            prop_assert!(
                cache.peek(BlockAddr(b)).is_some(),
                "block {b} in the protected partition was displaced"
            );
        }
    }

    /// The directory's sharer sets behave like a map of sets, and dirty
    /// ownership is always one of the sharers.
    #[test]
    fn directory_matches_reference_model(
        ops in vec((0u64..32, 0u16..64, 0u8..3), 1..300)
    ) {
        let mut dir = Directory::new();
        let mut model: std::collections::HashMap<u64, std::collections::BTreeSet<u16>> =
            std::collections::HashMap::new();
        for (block, core, op) in ops {
            let b = BlockAddr(block);
            match op {
                0 => {
                    dir.add_sharer(b, core);
                    model.entry(block).or_default().insert(core);
                }
                1 => {
                    dir.remove_sharer(b, core);
                    if let Some(s) = model.get_mut(&block) {
                        s.remove(&core);
                        if s.is_empty() {
                            model.remove(&block);
                        }
                    }
                }
                _ => {
                    dir.set_dirty_owner(b, core);
                    let s = model.entry(block).or_default();
                    s.clear();
                    s.insert(core);
                }
            }
            let expect: Vec<u16> = model.get(&block).map(|s| s.iter().copied().collect()).unwrap_or_default();
            prop_assert_eq!(dir.sharers(b).to_vec(), expect);
            if let Some(owner) = dir.dirty_owner(b) {
                prop_assert!(dir.sharers(b).contains(owner));
            }
        }
    }

    /// Differential test: the open-addressed [`Directory`] must behave exactly
    /// like the straightforward `HashMap`-backed [`ReferenceDirectory`] under
    /// arbitrary interleavings of every mutating operation, including bulk
    /// `drop_block` (which exercises backward-shift deletion chains), both
    /// for a growing table and for a pre-sized one, with every core id.
    #[test]
    fn open_addressed_directory_matches_hashmap_reference(
        ops in vec((0u64..96, 0u16..64, 0u8..5), 1..400)
    ) {
        for dir in [Directory::new(), Directory::with_capacity(5_000)] {
            directory_matches_hashmap_reference(dir, &ops)?;
        }
    }

    /// Histogram mean/percentiles agree with a naive sorted-vector model
    /// (within the geometric buckets' documented precision).
    #[test]
    fn histogram_agrees_with_naive_model(samples in vec(0u64..2_000_000, 1..400)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        let naive_mean = sorted.iter().map(|&v| v as f64).sum::<f64>() / sorted.len() as f64;
        prop_assert!((h.mean() - naive_mean).abs() < 1e-6);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
            let naive = sorted[idx];
            let est = h.percentile(q);
            // Exact below 1024; ≤ ~3.2% under-estimate above (geometric buckets).
            prop_assert!(est <= naive, "estimate {est} above exact {naive}");
            prop_assert!(
                est as f64 >= naive as f64 * 0.96 - 1.0,
                "estimate {est} too far below exact {naive} at q={q}"
            );
        }
    }

    /// Address-map classification: every byte of an allocated region
    /// classifies as that region; bytes outside classify as Other.
    #[test]
    fn address_map_classification_is_total(sizes in vec(1u64..10_000, 1..20)) {
        let mut map = AddressMap::new();
        let mut regions = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let kind = match i % 3 {
                0 => RegionKind::Rx { core: (i % 7) as u16 },
                1 => RegionKind::Tx { core: (i % 7) as u16 },
                _ => RegionKind::App,
            };
            regions.push((map.alloc(*len, kind), *len, kind));
        }
        for (base, len, kind) in regions {
            prop_assert_eq!(map.classify(base), kind);
            prop_assert_eq!(map.classify(base.offset(len - 1)), kind);
            for block in blocks_of(base, len) {
                prop_assert_eq!(map.classify_block(block), kind);
            }
        }
        prop_assert_eq!(map.classify(Addr(0)), RegionKind::Other);
    }

    /// DRAM: completion latency is always at least the burst length, reads
    /// from a monotone clock never complete out of proportion, and the
    /// latency histogram records every read.
    #[test]
    fn dram_timing_sanity(blocks in vec((0u64..100_000, any::<bool>()), 1..300)) {
        let mut dram = Dram::new(DramConfig::paper_default());
        let mut now = 0;
        let mut reads = 0u64;
        for (b, is_write) in blocks {
            let op = if is_write { DramOp::Write } else { DramOp::Read };
            let acc = dram.access(BlockAddr(b), now, op);
            prop_assert!(acc.latency >= dram.config().t_bl);
            prop_assert!(acc.channel < dram.config().channels);
            if !is_write {
                reads += 1;
            }
            now += 13; // monotone issue clock
        }
        prop_assert_eq!(dram.read_latency().count(), reads);
        let totals: u64 = dram.channel_counts().iter().map(|(r, w)| r + w).sum();
        prop_assert_eq!(totals, dram.read_latency().count()
            + dram.channel_counts().iter().map(|(_, w)| w).sum::<u64>());
    }

    /// `percentile(q)` is monotone non-decreasing in q — the flight
    /// recorder's online outlier threshold depends on this: raising the
    /// quantile must never lower the threshold.
    #[test]
    fn histogram_percentile_is_monotone_in_q(
        samples in vec(0u64..2_000_000, 1..400),
        raw_qs in vec(0u32..1_000_001, 2..32),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut qs: Vec<f64> = raw_qs.iter().map(|&r| r as f64 / 1e6).collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = h.percentile(qs[0]);
        for &q in &qs[1..] {
            let cur = h.percentile(q);
            prop_assert!(
                cur >= prev,
                "percentile({q}) = {cur} dropped below previous {prev}"
            );
            prev = cur;
        }
        // The extremes bracket everything.
        prop_assert!(h.percentile(0.0) <= h.percentile(1.0));
        prop_assert!(h.percentile(1.0) <= h.max());
    }

    /// The CDF is monotone in both coordinates, ends at fraction 1.0, and
    /// its total mass equals the sample count.
    #[test]
    fn histogram_cdf_is_monotone_and_complete(samples in vec(0u64..2_000_000, 1..400)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let cdf = h.cdf();
        prop_assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            prop_assert!(w[1].0 > w[0].0, "cdf values not strictly increasing");
            prop_assert!(w[1].1 >= w[0].1, "cdf fractions not monotone");
        }
        let last = cdf.last().unwrap();
        prop_assert!((last.1 - 1.0).abs() < 1e-12, "cdf must end at 1.0");
    }

    /// blocks_of covers exactly the bytes of the range: union of block byte
    /// ranges ⊇ [addr, addr+len) and every block intersects the range.
    #[test]
    fn blocks_of_covers_range(start in 0u64..100_000, len in 0u64..5_000) {
        let blocks: Vec<BlockAddr> = blocks_of(Addr(start), len).collect();
        if len == 0 {
            prop_assert!(blocks.is_empty());
        } else {
            let first = blocks.first().unwrap();
            let last = blocks.last().unwrap();
            prop_assert!(first.base().0 <= start);
            prop_assert!(last.base().0 + 64 >= start + len);
            // Contiguous, no duplicates.
            for w in blocks.windows(2) {
                prop_assert_eq!(w[1].0, w[0].0 + 1);
            }
            // Every block intersects the byte range.
            for b in &blocks {
                let lo = b.base().0;
                prop_assert!(lo < start + len && lo + 64 > start);
            }
        }
    }
}

/// Deterministic edge cases the flight recorder's online threshold relies on.
mod histogram_edges {
    use sweeper_sim::stats::Histogram;

    #[test]
    fn empty_histogram_percentile_is_zero_and_cdf_empty() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 0, "empty histogram at q={q}");
        }
        assert!(h.cdf().is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_bucket_dominates_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..17 {
            h.record(42);
        }
        for q in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 42, "single-value histogram at q={q}");
        }
        assert_eq!(h.cdf(), vec![(42, 1.0)]);
    }

    #[test]
    fn single_geometric_bucket_reports_its_lower_bound() {
        let mut h = Histogram::new();
        // Value above LINEAR_MAX lands in a geometric bucket; the estimate
        // is the bucket's lower bound, never above the recorded value.
        h.record(100_000);
        let est = h.percentile(0.5);
        assert!(est <= 100_000);
        assert!(est as f64 >= 100_000.0 * 0.96);
        assert_eq!(h.percentile(1.0), est);
    }

    #[test]
    fn q_zero_returns_minimum_and_q_one_returns_maximum_bucket() {
        let mut h = Histogram::new();
        for v in [3, 7, 500, 900] {
            h.record(v);
        }
        // q=0 clamps to the first sample; q=1 walks to the last. All values
        // are below LINEAR_MAX so both are exact.
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(1.0), 900);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_out_of_range_quantiles() {
        Histogram::new().percentile(1.5);
    }
}
