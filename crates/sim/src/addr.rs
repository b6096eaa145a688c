//! Physical address space and region classification.
//!
//! The simulator attributes every memory-system event to its source the same
//! way the paper's figures do (RX buffers, TX buffers, application data). To
//! do so, the physical address space is carved into *regions*, each tagged
//! with a [`RegionKind`]. The [`AddressMap`] allocates regions sequentially
//! and answers point queries with a binary search.

use std::fmt;

use crate::BLOCK_BYTES;

/// A physical byte address.
///
/// A newtype so byte addresses and [block addresses](BlockAddr) cannot be
/// confused — mixing the two is the classic off-by-shift bug in cache
/// simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache block containing this address.
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES)
    }

    /// Byte offset within the containing cache block.
    pub fn block_offset(self) -> u64 {
        self.0 % BLOCK_BYTES
    }

    /// Address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-block address (byte address divided by the 64 B block size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address of this block.
    pub fn base(self) -> Addr {
        Addr(self.0 * BLOCK_BYTES)
    }

    /// The block `n` blocks after this one.
    pub fn step(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// Iterates over the cache blocks that a `[addr, addr+len)` byte range
/// touches.
///
/// ```
/// use sweeper_sim::addr::{blocks_of, Addr};
/// // 100 bytes starting at byte 60 straddle blocks 0 and 1 and block 2.
/// let blocks: Vec<_> = blocks_of(Addr(60), 100).collect();
/// assert_eq!(blocks.len(), 3);
/// ```
pub fn blocks_of(addr: Addr, len: u64) -> impl Iterator<Item = BlockAddr> {
    let first = addr.block().0;
    let last = if len == 0 {
        first
    } else {
        Addr(addr.0 + len - 1).block().0 + 1
    };
    (first..last.max(first)).map(BlockAddr)
}

/// Number of whole cache blocks needed to hold `len` bytes starting at a
/// block boundary.
pub fn blocks_for_len(len: u64) -> u64 {
    len.div_ceil(BLOCK_BYTES)
}

/// Classification of an address-space region.
///
/// Matches the attribution categories of the paper's memory-access breakdowns
/// (Figures 1c, 2c, 5c, 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A receive ring buffer owned by one core.
    Rx {
        /// Owning core id.
        core: u16,
    },
    /// A transmit ring buffer owned by one core.
    Tx {
        /// Owning core id.
        core: u16,
    },
    /// Application data (key-value log, hash buckets, forwarding tables,
    /// X-Mem datasets, ...).
    App,
    /// Anything not explicitly allocated (stack, code, kernel, ...).
    Other,
}

impl RegionKind {
    /// Whether this region holds network RX buffers.
    pub fn is_rx(self) -> bool {
        matches!(self, RegionKind::Rx { .. })
    }

    /// Whether this region holds network TX buffers.
    pub fn is_tx(self) -> bool {
        matches!(self, RegionKind::Tx { .. })
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::Rx { core } => write!(f, "rx[core {core}]"),
            RegionKind::Tx { core } => write!(f, "tx[core {core}]"),
            RegionKind::App => write!(f, "app"),
            RegionKind::Other => write!(f, "other"),
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    start: u64,
    end: u64, // exclusive
    kind: RegionKind,
}

/// Sequential region allocator plus point-query classifier.
///
/// Regions are allocated upward from a base address, each aligned to the
/// cache-block size, so distinct regions never share a cache block.
///
/// ```
/// use sweeper_sim::addr::{AddressMap, RegionKind};
/// let mut map = AddressMap::new();
/// let rx = map.alloc(1 << 20, RegionKind::Rx { core: 3 });
/// let app = map.alloc(4096, RegionKind::App);
/// assert_eq!(map.classify(rx), RegionKind::Rx { core: 3 });
/// assert_eq!(map.classify(app), RegionKind::App);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMap {
    regions: Vec<Region>,
    next: u64,
}

/// Base of the allocatable address range. Nonzero so address 0 stays in
/// [`RegionKind::Other`], which catches uninitialized-address bugs in tests.
const ALLOC_BASE: u64 = 1 << 30;

/// Simulated byte addresses stay below this ceiling (32 GiB): cache tag
/// words pack the block address into 29 bits, and
/// [`AddressMap::alloc`] refuses regions that would end above it.
pub const ADDR_CEILING: u64 = 1 << 35;

impl AddressMap {
    /// Creates an empty map; every address classifies as
    /// [`RegionKind::Other`].
    pub fn new() -> Self {
        Self {
            regions: Vec::new(),
            next: ALLOC_BASE,
        }
    }

    /// Allocates a fresh block-aligned region of at least `bytes` bytes and
    /// returns its base address.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or the region would end above
    /// [`ADDR_CEILING`].
    pub fn alloc(&mut self, bytes: u64, kind: RegionKind) -> Addr {
        assert!(bytes > 0, "cannot allocate an empty region");
        let start = self.next;
        let end = bytes
            .div_ceil(BLOCK_BYTES)
            .checked_mul(BLOCK_BYTES)
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= ADDR_CEILING)
            .unwrap_or_else(|| {
                panic!(
                    "a {bytes}-byte region at {start:#x} would end above the {} GiB simulated address ceiling",
                    ADDR_CEILING >> 30
                )
            });
        self.next = end;
        self.regions.push(Region { start, end, kind });
        Addr(start)
    }

    /// Classifies an address; unallocated addresses are
    /// [`RegionKind::Other`].
    pub fn classify(&self, addr: Addr) -> RegionKind {
        let a = addr.0;
        // Regions are sorted by construction; binary search on start.
        match self.regions.binary_search_by(|r| {
            if a < r.start {
                std::cmp::Ordering::Greater
            } else if a >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.regions[i].kind,
            Err(_) => RegionKind::Other,
        }
    }

    /// Classifies a block address (blocks never straddle regions).
    pub fn classify_block(&self, block: BlockAddr) -> RegionKind {
        self.classify(block.base())
    }

    /// Total bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - ALLOC_BASE
    }

    /// Number of allocated regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

impl Default for AddressMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_math() {
        assert_eq!(Addr(0).block(), BlockAddr(0));
        assert_eq!(Addr(63).block(), BlockAddr(0));
        assert_eq!(Addr(64).block(), BlockAddr(1));
        assert_eq!(Addr(130).block_offset(), 2);
        assert_eq!(BlockAddr(5).base(), Addr(320));
        assert_eq!(BlockAddr(5).step(3), BlockAddr(8));
    }

    #[test]
    fn blocks_of_exact_and_straddling() {
        assert_eq!(blocks_of(Addr(0), 64).count(), 1);
        assert_eq!(blocks_of(Addr(0), 65).count(), 2);
        assert_eq!(blocks_of(Addr(0), 128).count(), 2);
        assert_eq!(blocks_of(Addr(32), 64).count(), 2);
        assert_eq!(blocks_of(Addr(0), 0).count(), 0);
        // 1 KB packet at a block boundary = 16 blocks, as in the paper.
        assert_eq!(blocks_of(Addr(1 << 30), 1024).count(), 16);
    }

    #[test]
    fn blocks_for_len_rounds_up() {
        assert_eq!(blocks_for_len(1), 1);
        assert_eq!(blocks_for_len(64), 1);
        assert_eq!(blocks_for_len(65), 2);
        assert_eq!(blocks_for_len(1024), 16);
        assert_eq!(blocks_for_len(512), 8);
    }

    #[test]
    fn address_map_classifies() {
        let mut map = AddressMap::new();
        let a = map.alloc(100, RegionKind::Rx { core: 1 });
        let b = map.alloc(64, RegionKind::Tx { core: 1 });
        let c = map.alloc(1 << 16, RegionKind::App);
        assert_eq!(map.classify(a), RegionKind::Rx { core: 1 });
        // Allocation is block-aligned: 100 bytes occupy two blocks.
        assert_eq!(map.classify(a.offset(127)), RegionKind::Rx { core: 1 });
        assert_eq!(map.classify(b), RegionKind::Tx { core: 1 });
        assert_eq!(map.classify(c.offset((1 << 16) - 1)), RegionKind::App);
        assert_eq!(map.classify(Addr(0)), RegionKind::Other);
        assert_eq!(map.classify(Addr(u64::MAX)), RegionKind::Other);
        assert_eq!(map.region_count(), 3);
    }

    #[test]
    fn address_map_alloc_is_disjoint_and_aligned() {
        let mut map = AddressMap::new();
        let mut prev_end = 0;
        for i in 0..50 {
            let a = map.alloc(i * 7 + 1, RegionKind::App);
            assert_eq!(a.0 % BLOCK_BYTES, 0, "region base must be block aligned");
            assert!(a.0 >= prev_end, "regions must not overlap");
            prev_end = a.0 + (i * 7 + 1);
        }
    }

    #[test]
    fn allocated_bytes_tracks_rounding() {
        let mut map = AddressMap::new();
        map.alloc(1, RegionKind::App);
        assert_eq!(map.allocated_bytes(), BLOCK_BYTES);
        map.alloc(64, RegionKind::App);
        assert_eq!(map.allocated_bytes(), 2 * BLOCK_BYTES);
    }

    #[test]
    fn region_kind_predicates() {
        assert!(RegionKind::Rx { core: 0 }.is_rx());
        assert!(!RegionKind::Rx { core: 0 }.is_tx());
        assert!(RegionKind::Tx { core: 9 }.is_tx());
        assert!(!RegionKind::App.is_rx());
        assert!(!RegionKind::Other.is_tx());
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn alloc_zero_panics() {
        AddressMap::new().alloc(0, RegionKind::App);
    }

    #[test]
    fn alloc_may_end_exactly_at_the_ceiling() {
        let mut map = AddressMap::new();
        let a = map.alloc(ADDR_CEILING - ALLOC_BASE, RegionKind::App);
        assert_eq!(a, Addr(ALLOC_BASE));
        let last = Addr(ADDR_CEILING - 1);
        assert_eq!(map.classify(last), RegionKind::App);
        assert_eq!(map.allocated_bytes(), ADDR_CEILING - ALLOC_BASE);
    }

    #[test]
    #[should_panic(expected = "above the 32 GiB simulated address ceiling")]
    fn alloc_crossing_the_ceiling_panics() {
        let mut map = AddressMap::new();
        map.alloc(ADDR_CEILING - ALLOC_BASE - BLOCK_BYTES, RegionKind::App);
        // One block fits; a partial second block rounds up past the ceiling.
        map.alloc(BLOCK_BYTES + 1, RegionKind::App);
    }

    #[test]
    #[should_panic(expected = "simulated address ceiling")]
    fn alloc_of_u64_max_bytes_panics_without_overflow() {
        AddressMap::new().alloc(u64::MAX, RegionKind::App);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", Addr(0x40)), "0x40");
        assert_eq!(format!("{}", BlockAddr(1)), "blk:0x1");
        assert_eq!(format!("{}", RegionKind::Rx { core: 2 }), "rx[core 2]");
        assert_eq!(format!("{}", RegionKind::App), "app");
    }
}
