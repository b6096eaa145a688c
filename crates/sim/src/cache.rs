//! Set-associative cache with LRU replacement and way-partitioning.
//!
//! One [`SetAssocCache`] models a single cache level. The DDIO mechanism
//! (§II-A) restricts NIC write-allocations to a subset of LLC ways, and the
//! collocation experiments (§VI-E) partition LLC ways between tenants; both
//! are expressed with a [`WayMask`] passed at insertion time. Lookups always
//! search *all* ways — a block installed under one mask remains visible (and
//! replaceable) regardless of the mask of later operations, which is exactly
//! how Intel CAT/DDIO way masking behaves.

use std::fmt;

use crate::addr::{BlockAddr, ADDR_CEILING};
use crate::zeroed::ZeroedTable;

/// A bitmask over cache ways; bit `i` set means way `i` may be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// Mask allowing every way.
    pub const ALL: WayMask = WayMask(u64::MAX);

    /// Mask of the first `n` ways (`0..n`), e.g. the DDIO ways.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first(n: u32) -> WayMask {
        assert!(n <= 64, "way masks support at most 64 ways");
        if n == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << n) - 1)
        }
    }

    /// Mask of ways `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > 64`.
    pub fn range(lo: u32, hi: u32) -> WayMask {
        assert!(lo <= hi && hi <= 64, "invalid way range {lo}..{hi}");
        WayMask(WayMask::first(hi).0 & !WayMask::first(lo).0)
    }

    /// Whether way `i` is allowed.
    pub fn allows(self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Number of allowed ways (among the first `total` ways).
    pub fn count_in(self, total: usize) -> u32 {
        let cap = if total >= 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        (self.0 & cap).count_ones()
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways:{:#b}", self.0)
    }
}

/// Replacement policy of a cache level.
///
/// LRU is the paper's (and zSim's) default. SRRIP (static re-reference
/// interval prediction, Jaleel et al.) inserts lines with a *distant*
/// re-reference prediction so scan-like streams — e.g. dead network buffers
/// spilling through the LLC — evict each other instead of displacing
/// frequently-reused data. Exposed as an ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the default).
    #[default]
    Lru,
    /// 2-bit static RRIP: insert at RRPV 2, promote to 0 on hit, victimize
    /// at RRPV 3 (aging on demand).
    Srrip,
}

/// Who installed a cache line. Used by the LLC to distinguish NIC-allocated
/// network buffers from CPU-installed lines in occupancy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineOrigin {
    /// Installed by a CPU demand access or a private-cache eviction.
    Cpu,
    /// Write-allocated by the NIC (DDIO).
    Nic,
}

/// Metadata of one resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// The block this line holds.
    pub block: BlockAddr,
    /// Whether the line differs from memory and needs a writeback on
    /// eviction.
    pub dirty: bool,
    /// Who installed the line.
    pub origin: LineOrigin,
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line's metadata.
    pub line: Line,
}

/// Geometry of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole power-of-two-free
    /// set count (sets need not be a power of two in this model, but must be
    /// at least 1).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::BLOCK_BYTES;
        let sets = lines as usize / self.ways;
        assert!(sets >= 1, "cache too small for its associativity");
        sets
    }
}

/// Packed per-way tag word. Layout (LSB first):
///
/// ```text
/// bit 0      present (0 = empty way; an all-zero word is an empty way)
/// bit 1      dirty
/// bit 2      origin (0 = Cpu, 1 = Nic)
/// bits 3..32 block address (below `BLOCK_LIMIT`)
/// ```
///
/// Packing the residency scan's entire decision state into one `u32` per way
/// keeps a set probe inside one host cache line for a 12-way cache and two
/// for a 20-way one; the 32-byte `Option<Line>`-plus-LRU slots this replaces
/// spread a 12-way probe across six.
const TAG_PRESENT: u32 = 1;
const TAG_DIRTY: u32 = 1 << 1;
const TAG_NIC: u32 = 1 << 2;
const TAG_FLAG_BITS: u32 = 3;

/// Blocks a tag word can hold: those below the simulated address ceiling.
pub const BLOCK_LIMIT: u64 = ADDR_CEILING / crate::BLOCK_BYTES;
const _: () = assert!(BLOCK_LIMIT == 1 << (u32::BITS - TAG_FLAG_BITS));

/// # Panics
///
/// Panics if `block` is not below [`BLOCK_LIMIT`].
fn encode_tag(block: BlockAddr, dirty: bool, origin: LineOrigin) -> u32 {
    assert!(
        block.0 < BLOCK_LIMIT,
        "block address too large to pack into a cache tag"
    );
    ((block.0 as u32) << TAG_FLAG_BITS)
        | (if origin == LineOrigin::Nic {
            TAG_NIC
        } else {
            0
        })
        | (if dirty { TAG_DIRTY } else { 0 })
        | TAG_PRESENT
}

fn decode_tag(tag: u32) -> Line {
    Line {
        block: BlockAddr(u64::from(tag >> TAG_FLAG_BITS)),
        dirty: tag & TAG_DIRTY != 0,
        origin: if tag & TAG_NIC != 0 {
            LineOrigin::Nic
        } else {
            LineOrigin::Cpu
        },
    }
}

/// Whether `tag` holds `block`. Compared in 64 bits, so a block at or above
/// [`BLOCK_LIMIT`] (which no tag can hold) never matches.
fn tag_matches(tag: u32, block: BlockAddr) -> bool {
    tag & TAG_PRESENT != 0 && u64::from(tag >> TAG_FLAG_BITS) == block.0
}

/// `u32` words per host cache line; set records are whole lines.
const LINE_WORDS: usize = 16;
/// Replacement bytes per `u32` word.
const WORD_BYTES: usize = 4;

/// SRRIP re-reference predictions: inserted lines start at `SRRIP_INSERT`,
/// hits promote to 0, and `SRRIP_DISTANT` marks a victim.
const SRRIP_INSERT: u8 = 2;
const SRRIP_DISTANT: u8 = 3;

/// A single set-associative cache level with LRU replacement.
///
/// Each set is one record of whole host cache lines, 64-byte aligned, so a
/// probe touches only that set's lines (one for the 12-way LLC and L1, two
/// for the 20-way L2):
///
/// ```text
/// words 0..ways     packed `u32` tag words (see `encode_tag`)
/// next ways bytes   one replacement byte per way
/// next byte         the set's LRU clock
/// ```
///
/// Under LRU a way's byte is the set clock at the way's last touch. Before
/// the clock would pass 255 the set's bytes are renumbered `1..=ways` in
/// their current order, so victim selection — which only compares occupied
/// ways, each stamped at its last touch — picks the way a global tick
/// would. Under SRRIP the byte is the way's rrpv. An all-zero record is an
/// empty set, so the table is a [`ZeroedTable`] whose pages the OS maps
/// only when a set is first touched.
///
/// Blocks must be below [`BLOCK_LIMIT`] (byte addresses below
/// [`ADDR_CEILING`]); inserting a larger one panics.
///
/// ```
/// use sweeper_sim::cache::{CacheGeometry, LineOrigin, SetAssocCache, WayMask};
/// use sweeper_sim::addr::BlockAddr;
///
/// let mut c = SetAssocCache::new(CacheGeometry { size_bytes: 8 * 64, ways: 2, latency: 4 });
/// assert!(c.lookup(BlockAddr(1)).is_none());
/// c.insert(BlockAddr(1), true, LineOrigin::Cpu, WayMask::ALL);
/// assert!(c.lookup(BlockAddr(1)).unwrap().dirty);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    record_words: usize,
    words: ZeroedTable<u32>, // `sets` records, set 0 at index 0
    resident: u64,
    policy: ReplacementPolicy,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64, or if the capacity is smaller
    /// than one set.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self::with_policy(geometry, ReplacementPolicy::Lru)
    }

    /// Builds an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SetAssocCache::new`].
    pub fn with_policy(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        assert!(
            geometry.ways >= 1 && geometry.ways <= 64,
            "associativity must be in 1..=64"
        );
        let sets = geometry.sets();
        let ways = geometry.ways;
        let record_words = (ways + (ways + 1).div_ceil(WORD_BYTES)).next_multiple_of(LINE_WORDS);
        Self {
            geometry,
            sets,
            record_words,
            words: ZeroedTable::new(sets * record_words),
            resident: 0,
            policy,
        }
    }

    /// The replacement policy in effect.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        // Fibonacci hashing with the *high* product bits: the low bits of a
        // multiplicative hash are merely a permutation of the low input
        // bits, so power-of-two-strided structures (per-core rings spaced
        // 2^15 blocks apart) would alias onto a handful of set phases and
        // thrash each other. The high bits mix all input bits; zSim
        // similarly hashes LLC set indices.
        let h = block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.sets as u64) as usize
    }

    /// Index of the first word of `block`'s set record.
    #[inline]
    fn record_of(&self, block: BlockAddr) -> usize {
        self.set_of(block) * self.record_words
    }

    fn tags(&self, rec: usize) -> &[u32] {
        &self.words[rec..rec + self.geometry.ways]
    }

    /// Replacement byte `k` of the record at `rec`; `k == ways` is the clock.
    #[inline]
    fn byte(&self, rec: usize, k: usize) -> u8 {
        (self.words[rec + self.geometry.ways + k / WORD_BYTES] >> (k % WORD_BYTES * 8)) as u8
    }

    #[inline]
    fn set_byte(&mut self, rec: usize, k: usize, v: u8) {
        let shift = k % WORD_BYTES * 8;
        let w = &mut self.words[rec + self.geometry.ways + k / WORD_BYTES];
        *w = *w & !(0xFF << shift) | u32::from(v) << shift;
    }

    /// Makes `way` the set's most recently used way.
    fn touch(&mut self, rec: usize, way: usize) {
        let ways = self.geometry.ways;
        let mut clock = self.byte(rec, ways);
        if clock == u8::MAX {
            self.renumber(rec);
            clock = ways as u8;
        }
        clock += 1;
        self.set_byte(rec, ways, clock);
        self.set_byte(rec, way, clock);
    }

    /// Rewrites the set's LRU bytes as `1..=ways` in their current order
    /// (ties, which only stale bytes of empty ways can have, by way index).
    fn renumber(&mut self, rec: usize) {
        let ways = self.geometry.ways;
        let mut old = [0u8; 64];
        for (w, b) in old.iter_mut().enumerate().take(ways) {
            *b = self.byte(rec, w);
        }
        for w in 0..ways {
            let rank = (0..ways).filter(|&v| (old[v], v) < (old[w], w)).count();
            self.set_byte(rec, w, rank as u8 + 1);
        }
    }

    /// Replacement update for a hit on `way`.
    fn promote(&mut self, rec: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => self.touch(rec, way),
            ReplacementPolicy::Srrip => self.set_byte(rec, way, 0),
        }
    }

    /// Replacement update for a line just placed in `way`.
    fn place(&mut self, rec: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => self.touch(rec, way),
            ReplacementPolicy::Srrip => self.set_byte(rec, way, SRRIP_INSERT),
        }
    }

    /// Hints the host CPU to pull the block's set record into cache.
    ///
    /// The simulator's tag tables are tens of megabytes probed at
    /// hash-randomized indices, so nearly every set probe is a host
    /// last-level-cache miss. Callers that know the next few blocks they
    /// will touch (range accesses, packet delivery) can issue prefetches up
    /// front and let the host overlap what would otherwise be a serial chain
    /// of misses. Purely a performance hint: no simulated state changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        let rec = self.record_of(block);
        #[cfg(target_arch = "x86_64")]
        for line in self.words[rec..rec + self.record_words].chunks(LINE_WORDS) {
            // SAFETY: `_mm_prefetch` is a hint that never faults, and the
            // pointer comes from a live slice of this table.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(line.as_ptr().cast::<i8>(), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = rec;
    }

    /// Looks a block up without updating recency.
    pub fn peek(&self, block: BlockAddr) -> Option<Line> {
        self.tags(self.record_of(block))
            .iter()
            .find(|&&t| tag_matches(t, block))
            .map(|&t| decode_tag(t))
    }

    /// Looks a block up and updates LRU recency; returns the line metadata.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<Line> {
        let rec = self.record_of(block);
        let way = self.tags(rec).iter().position(|&t| tag_matches(t, block))?;
        self.promote(rec, way);
        Some(decode_tag(self.words[rec + way]))
    }

    /// Marks a resident block dirty; returns `true` if the block was found.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let rec = self.record_of(block);
        match self.tags(rec).iter().position(|&t| tag_matches(t, block)) {
            Some(way) => {
                self.words[rec + way] |= TAG_DIRTY;
                true
            }
            None => false,
        }
    }

    /// Inserts (or updates in place) a block, allocating only within `mask`.
    ///
    /// Returns the line evicted to make room, if any. If the block is already
    /// resident — in *any* way — its metadata is updated in place (dirty is
    /// OR-ed, origin overwritten) and nothing is evicted.
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of this cache's ways, or if `block` is
    /// not below [`BLOCK_LIMIT`].
    pub fn insert(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        origin: LineOrigin,
        mask: WayMask,
    ) -> Option<Evicted> {
        let ways = self.geometry.ways;
        assert!(mask.count_in(ways) > 0, "insertion mask allows no ways");
        let rec = self.record_of(block);

        // First pass over the packed tags only: a residency hit (checked in
        // *every* way, masked or not) and the first free allowed way. The
        // replacement bytes are not read unless the set turns out to be full.
        let mut free_way = None;
        for (w, &tag) in self.tags(rec).iter().enumerate() {
            if tag_matches(tag, block) {
                // Hit: update in place regardless of mask (dirty OR-ed,
                // origin overwritten).
                self.words[rec + w] = encode_tag(block, dirty || tag & TAG_DIRTY != 0, origin);
                self.promote(rec, w);
                return None;
            }
            if tag & TAG_PRESENT == 0 && free_way.is_none() && mask.allows(w) {
                free_way = Some(w);
            }
        }

        if let Some(w) = free_way {
            self.words[rec + w] = encode_tag(block, dirty, origin);
            self.place(rec, w);
            self.resident += 1;
            return None;
        }

        // Set full within the mask: evict per the replacement policy. Every
        // allowed way is occupied here (the free scan covered them all).
        let victim = match self.policy {
            // Occupied ways carry distinct LRU bytes, so the first minimum
            // is the only one.
            ReplacementPolicy::Lru => (0..ways)
                .filter(|&w| mask.allows(w))
                .min_by_key(|&w| self.byte(rec, w))
                .expect("mask allows at least one way"),
            ReplacementPolicy::Srrip => loop {
                let distant = (0..ways)
                    .filter(|&w| mask.allows(w))
                    .find(|&w| self.byte(rec, w) >= SRRIP_DISTANT);
                if let Some(w) = distant {
                    break w;
                }
                // No distant line yet: age every allowed way and rescan.
                // Aging only runs when every allowed rrpv is below distant,
                // so the rrpv never exceeds it.
                for w in (0..ways).filter(|&w| mask.allows(w)) {
                    let rrpv = self.byte(rec, w);
                    self.set_byte(rec, w, rrpv + 1);
                }
            },
        };
        let old = self.words[rec + victim];
        debug_assert!(old & TAG_PRESENT != 0, "victim way was occupied");
        self.words[rec + victim] = encode_tag(block, dirty, origin);
        self.place(rec, victim);
        Some(Evicted {
            line: decode_tag(old),
        })
    }

    /// Removes a block; returns its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line> {
        let rec = self.record_of(block);
        let way = self.tags(rec).iter().position(|&t| tag_matches(t, block))?;
        let tag = std::mem::take(&mut self.words[rec + way]);
        self.resident -= 1;
        Some(decode_tag(tag))
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Number of resident lines with the given origin (O(capacity); intended
    /// for tests and periodic occupancy sampling, not hot paths).
    pub fn resident_by_origin(&self, origin: LineOrigin) -> u64 {
        self.iter_lines().filter(|l| l.origin == origin).count() as u64
    }

    /// Iterates over all resident lines (test/diagnostic helper).
    pub fn iter_lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.iter_located_lines().map(|(_, _, line)| line)
    }

    /// Iterates over all resident lines together with their `(set, way)`
    /// location — lets the correctness harness verify way-mask confinement
    /// (e.g. NIC-origin lines stay inside the DDIO ways).
    pub fn iter_located_lines(&self) -> impl Iterator<Item = (usize, usize, Line)> + '_ {
        (0..self.sets).flat_map(move |set| {
            let rec = set * self.record_words;
            self.tags(rec)
                .iter()
                .enumerate()
                .filter(|(_, &t)| t & TAG_PRESENT != 0)
                .map(move |(way, &t)| (set, way, decode_tag(t)))
        })
    }

    /// Drops every resident line without any writeback bookkeeping.
    pub fn flush_all(&mut self) {
        self.words = ZeroedTable::new(self.words.len());
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 4 ways.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 16 * crate::BLOCK_BYTES,
            ways: 4,
            latency: 4,
        })
    }

    /// Blocks guaranteed to map to the same set.
    fn same_set_blocks(c: &SetAssocCache, n: usize) -> Vec<BlockAddr> {
        let target = c.set_of(BlockAddr(0));
        (0u64..)
            .map(BlockAddr)
            .filter(|b| c.set_of(*b) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn way_mask_first_and_range() {
        assert_eq!(WayMask::first(0).0, 0);
        assert_eq!(WayMask::first(2).0, 0b11);
        assert_eq!(WayMask::first(64), WayMask::ALL);
        assert_eq!(WayMask::range(2, 4).0, 0b1100);
        assert!(WayMask::range(2, 4).allows(3));
        assert!(!WayMask::range(2, 4).allows(1));
        assert_eq!(WayMask::first(6).count_in(12), 6);
        assert_eq!(WayMask::ALL.count_in(12), 12);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn way_mask_first_overflow() {
        WayMask::first(65);
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry {
            size_bytes: 36 * 1024 * 1024,
            ways: 12,
            latency: 35,
        };
        // 36MB / 64B / 12 ways = 49152 sets (Table I LLC).
        assert_eq!(g.sets(), 49_152);
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut c = small();
        let b = BlockAddr(42);
        assert!(c.lookup(b).is_none());
        assert!(c.insert(b, false, LineOrigin::Cpu, WayMask::ALL).is_none());
        let l = c.lookup(b).unwrap();
        assert!(!l.dirty);
        assert_eq!(l.origin, LineOrigin::Cpu);
        assert!(c.mark_dirty(b));
        assert!(c.lookup(b).unwrap().dirty);
        let inv = c.invalidate(b).unwrap();
        assert!(inv.dirty);
        assert!(c.lookup(b).is_none());
        assert!(!c.mark_dirty(b));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn insert_updates_in_place_on_hit() {
        let mut c = small();
        let b = BlockAddr(7);
        c.insert(b, false, LineOrigin::Cpu, WayMask::ALL);
        // Re-insert dirty via NIC: dirty OR-ed, origin replaced, no eviction.
        assert!(c.insert(b, true, LineOrigin::Nic, WayMask::first(1)).is_none());
        let l = c.peek(b).unwrap();
        assert!(l.dirty);
        assert_eq!(l.origin, LineOrigin::Nic);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let blocks = same_set_blocks(&c, 5);
        for &b in &blocks[..4] {
            c.insert(b, false, LineOrigin::Cpu, WayMask::ALL);
        }
        // Touch blocks[0] so blocks[1] becomes LRU.
        c.lookup(blocks[0]);
        let ev = c
            .insert(blocks[4], false, LineOrigin::Cpu, WayMask::ALL)
            .expect("set was full");
        assert_eq!(ev.line.block, blocks[1]);
    }

    #[test]
    fn way_mask_restricts_victim_choice() {
        let mut c = small();
        let blocks = same_set_blocks(&c, 6);
        // Fill ways 0..4 in order: blocks[0..4] land in ways 0,1,2,3.
        for &b in &blocks[..4] {
            c.insert(b, true, LineOrigin::Nic, WayMask::ALL);
        }
        // Insert with mask = way 0 only: must evict whatever is in way 0,
        // even though blocks[0] is the overall LRU *and* in way 0 here.
        let ev = c
            .insert(blocks[4], true, LineOrigin::Nic, WayMask::first(1))
            .expect("way 0 occupied");
        assert_eq!(ev.line.block, blocks[0]);
        // blocks[1..4] (ways 1..3) must be untouched.
        for &b in &blocks[1..4] {
            assert!(c.peek(b).is_some(), "{b} should still be resident");
        }
        // A second masked insert evicts the block just placed in way 0.
        let ev2 = c
            .insert(blocks[5], true, LineOrigin::Nic, WayMask::first(1))
            .expect("way 0 occupied");
        assert_eq!(ev2.line.block, blocks[4]);
    }

    #[test]
    fn masked_insert_still_found_by_unmasked_lookup() {
        let mut c = small();
        let b = BlockAddr(99);
        c.insert(b, true, LineOrigin::Nic, WayMask::range(2, 3));
        assert!(c.lookup(b).is_some());
    }

    #[test]
    fn resident_by_origin_counts() {
        let mut c = small();
        c.insert(BlockAddr(1), false, LineOrigin::Cpu, WayMask::ALL);
        c.insert(BlockAddr(2), true, LineOrigin::Nic, WayMask::ALL);
        c.insert(BlockAddr(3), true, LineOrigin::Nic, WayMask::ALL);
        assert_eq!(c.resident_by_origin(LineOrigin::Cpu), 1);
        assert_eq!(c.resident_by_origin(LineOrigin::Nic), 2);
        assert_eq!(c.iter_lines().count(), 3);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.iter_lines().count(), 0);
    }

    #[test]
    #[should_panic(expected = "allows no ways")]
    fn empty_mask_panics() {
        let mut c = small();
        c.insert(BlockAddr(0), false, LineOrigin::Cpu, WayMask(0));
    }

    #[test]
    fn srrip_protects_reused_lines_from_scans() {
        // A hot line that is re-referenced survives a scan of never-reused
        // lines under SRRIP, but is evicted under LRU once the scan exceeds
        // associativity.
        let geometry = CacheGeometry {
            size_bytes: 4 * crate::BLOCK_BYTES,
            ways: 4,
            latency: 1,
        };
        let run = |policy: ReplacementPolicy| {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let hot = BlockAddr(0);
            c.insert(hot, false, LineOrigin::Cpu, WayMask::ALL);
            c.lookup(hot); // mark as reused (RRPV 0)
            for i in 1..=12u64 {
                c.insert(BlockAddr(i), false, LineOrigin::Cpu, WayMask::ALL);
                c.lookup(hot); // keep re-referencing between scan lines
            }
            c.peek(hot).is_some()
        };
        assert!(run(ReplacementPolicy::Srrip), "SRRIP keeps the hot line");
        assert!(run(ReplacementPolicy::Lru), "LRU also keeps it when touched");
        // Without re-references during the scan, SRRIP still protects the
        // recently-promoted line while LRU evicts it.
        let run_no_touch = |policy: ReplacementPolicy| {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let hot = BlockAddr(0);
            c.insert(hot, false, LineOrigin::Cpu, WayMask::ALL);
            c.lookup(hot);
            for i in 1..=4u64 {
                c.insert(BlockAddr(i), false, LineOrigin::Cpu, WayMask::ALL);
            }
            c.peek(hot).is_some()
        };
        assert!(run_no_touch(ReplacementPolicy::Srrip));
        assert!(!run_no_touch(ReplacementPolicy::Lru));
    }

    #[test]
    fn srrip_capacity_and_progress() {
        let mut c = SetAssocCache::with_policy(
            CacheGeometry {
                size_bytes: 16 * crate::BLOCK_BYTES,
                ways: 4,
                latency: 1,
            },
            ReplacementPolicy::Srrip,
        );
        for i in 0..10_000u64 {
            c.insert(BlockAddr(i), i % 3 == 0, LineOrigin::Cpu, WayMask::ALL);
            assert!(c.resident_lines() <= 16);
        }
        assert_eq!(c.policy(), ReplacementPolicy::Srrip);
    }

    #[test]
    fn records_are_whole_lines() {
        let record_bytes = |ways| {
            let c = SetAssocCache::new(CacheGeometry {
                size_bytes: 8 * ways as u64 * crate::BLOCK_BYTES,
                ways,
                latency: 1,
            });
            c.record_words * 4
        };
        // 12 tags + 13 bytes = 61 B; 20 tags + 21 bytes = 101 B;
        // 64 tags + 65 bytes = 321 B.
        assert_eq!(record_bytes(12), 64);
        assert_eq!(record_bytes(20), 128);
        assert_eq!(record_bytes(4), 64);
        assert_eq!(record_bytes(64), 384);
    }

    /// The `n` largest packable blocks that share a set with the largest.
    fn full_set_at_the_limit(c: &SetAssocCache, n: usize) -> Vec<BlockAddr> {
        let target = c.set_of(BlockAddr(BLOCK_LIMIT - 1));
        let blocks: Vec<BlockAddr> = (0..BLOCK_LIMIT)
            .rev()
            .map(BlockAddr)
            .filter(|b| c.set_of(*b) == target)
            .take(n)
            .collect();
        assert_eq!(blocks[0], BlockAddr(BLOCK_LIMIT - 1));
        blocks
    }

    #[test]
    fn largest_packable_block_round_trips() {
        let mut c = small();
        let blocks = full_set_at_the_limit(&c, 5);
        let top = blocks[0];
        let line = Line {
            block: top,
            dirty: true,
            origin: LineOrigin::Nic,
        };
        assert!(c.insert(top, true, LineOrigin::Nic, WayMask::ALL).is_none());
        assert_eq!(c.peek(top), Some(line));
        assert_eq!(c.iter_lines().collect::<Vec<_>>(), vec![line]);
        for &b in &blocks[1..4] {
            assert!(c.insert(b, false, LineOrigin::Cpu, WayMask::ALL).is_none());
        }
        // The set is full and `top` is its least recently used line.
        let ev = c.insert(blocks[4], false, LineOrigin::Cpu, WayMask::ALL);
        assert_eq!(ev, Some(Evicted { line }));
        assert_eq!(c.peek(top), None);
    }

    #[test]
    fn blocks_past_the_limit_are_never_found() {
        let mut c = small();
        c.insert(BlockAddr(5), true, LineOrigin::Cpu, WayMask::ALL);
        // Same low 29 bits as block 5: must not alias it.
        let alias = BlockAddr(BLOCK_LIMIT + 5);
        assert!(c.peek(alias).is_none());
        assert!(c.invalidate(alias).is_none());
        assert!(!c.mark_dirty(alias));
    }

    #[test]
    #[should_panic(expected = "too large to pack")]
    fn block_past_the_limit_panics_on_insert() {
        small().insert(BlockAddr(BLOCK_LIMIT), false, LineOrigin::Cpu, WayMask::ALL);
    }

    #[test]
    fn flush_all_leaves_an_empty_cache() {
        let mut c = small();
        for i in 0..64u64 {
            c.insert(BlockAddr(i), true, LineOrigin::Nic, WayMask::ALL);
        }
        c.flush_all();
        assert_eq!(c.iter_lines().count(), 0);
        let blocks = same_set_blocks(&c, 5);
        for &b in &blocks[..4] {
            assert!(c.insert(b, false, LineOrigin::Cpu, WayMask::ALL).is_none());
        }
        let ev = c.insert(blocks[4], false, LineOrigin::Cpu, WayMask::ALL);
        assert_eq!(ev.map(|e| e.line.block), Some(blocks[0]));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small();
        for i in 0..10_000u64 {
            c.insert(BlockAddr(i), i % 2 == 0, LineOrigin::Cpu, WayMask::ALL);
            assert!(c.resident_lines() <= 16);
        }
        assert_eq!(c.resident_lines(), 16);
    }
}
