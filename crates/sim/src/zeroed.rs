//! Zero-filled tables on fresh, lazily faulted pages.
//!
//! The simulator's largest structures — cache set records, directory slots,
//! the KVS item index — are tens of megabytes, start all zero, and are
//! touched sparsely at first. A [`ZeroedTable`] gives each one memory the
//! operating system maps only when a page is first touched, on every build.
//! A zeroed heap allocation does so only while the allocator hands out
//! fresh pages: once a multi-megabyte block is freed, glibc raises its
//! mmap threshold, and later zeroed allocations of the same size come from
//! recycled heap memory that must be cleared page by page. A process that
//! builds one simulated machine after another (a peak search, a figure
//! fleet) would pay that clearing, and keep the memory, for every machine
//! after the first.
//!
//! On Linux each non-empty table is its own anonymous private mapping,
//! returned to the system when the table drops. Elsewhere it comes from the
//! global allocator's zeroed allocation.
//!
//! ```
//! use sweeper_sim::zeroed::ZeroedTable;
//!
//! let mut t = ZeroedTable::<u64>::new(1 << 20);
//! assert!(t.iter().all(|&w| w == 0));
//! t[7] = 3;
//! assert_eq!(t[7], 3);
//! ```

use std::alloc::{handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for [u64; 2] {}
}

/// Element types of a [`ZeroedTable`]: plain integers, for which all-zero
/// bytes are a valid value. Sealed: implemented only for `u32`, `u64` and
/// `[u64; 2]`.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid value of the type, and the
/// type must have no drop glue and no interior mutability.
pub unsafe trait Zeroable: Copy + sealed::Sealed {}

// SAFETY: every bit pattern, zero included, is a valid integer, and
// integers own nothing and have no interior mutability.
unsafe impl Zeroable for u32 {}
// SAFETY: as for `u32`.
unsafe impl Zeroable for u64 {}
// SAFETY: an array of `u64` is valid whenever each element is.
unsafe impl Zeroable for [u64; 2] {}

/// Every table starts on a host cache-line boundary, so fixed-size records
/// at line-multiple offsets never straddle a line.
const ALIGN: usize = 64;

/// A fixed-length, zero-initialized table of `T` whose pages cost host
/// memory only once touched. Dereferences to `[T]`.
pub struct ZeroedTable<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
}

impl<T: Zeroable> ZeroedTable<T> {
    /// A table of `len` zeros.
    ///
    /// # Panics
    ///
    /// Panics if the table's size overflows `isize`; aborts, like `Vec`,
    /// if the memory cannot be mapped.
    pub fn new(len: usize) -> Self {
        if len == 0 {
            return Self::default();
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has a nonzero size, since `len > 0` and every
        // `Zeroable` type is a nonzero-sized integer or array of them.
        let raw = unsafe { sys::alloc_zeroed(layout) };
        let ptr = NonNull::new(raw.cast::<T>()).unwrap_or_else(|| handle_alloc_error(layout));
        Self { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len)
            .and_then(|l| l.align_to(ALIGN))
            .expect("table size overflows isize")
    }
}

impl<T: Zeroable> Drop for ZeroedTable<T> {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: `ptr` came from `sys::alloc_zeroed` with this same
            // layout (`len` never changes) and is released only here.
            unsafe { sys::dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) }
        }
    }
}

impl<T: Zeroable> Deref for ZeroedTable<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is non-null and aligned for `T`, and either `len`
        // is 0 or it points at `len` initialized elements (zero is a valid
        // `T`) that this table owns and that live until it drops.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroedTable<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Clone for ZeroedTable<T> {
    fn clone(&self) -> Self {
        let mut table = Self::new(self.len);
        table.copy_from_slice(self);
        table
    }
}

impl<T: Zeroable> Default for ZeroedTable<T> {
    /// An empty table; it owns no memory.
    fn default() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
        }
    }
}

impl<T: Zeroable> fmt::Debug for ZeroedTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZeroedTable")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

// SAFETY: the table owns its memory exclusively, like a `Box<[T]>`; its
// only fields are the pointer to that memory and the length. `Zeroable`
// types are plain integers, which are `Send` and `Sync`.
unsafe impl<T: Zeroable> Send for ZeroedTable<T> {}
// SAFETY: as for `Send`; `&ZeroedTable` gives only `&[T]`.
unsafe impl<T: Zeroable> Sync for ZeroedTable<T> {}

/// Anonymous private mappings, declared directly: `std` already links the C
/// library. The flag values and the 64-bit `off_t` hold on these targets.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
mod sys {
    use std::alloc::Layout;
    use std::ffi::{c_int, c_long, c_void};

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    // Mappings are page aligned, which covers every table's alignment.
    const _: () = assert!(super::ALIGN <= 4096);

    /// Maps `layout.size()` fresh zero bytes; null on failure.
    ///
    /// # Safety
    ///
    /// `layout` must have a nonzero size.
    pub unsafe fn alloc_zeroed(layout: Layout) -> *mut u8 {
        // SAFETY: an anonymous mapping at a kernel-chosen address touches
        // no existing memory; the caller guarantees a nonzero length.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                layout.size(),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == MAP_FAILED {
            std::ptr::null_mut()
        } else {
            p.cast()
        }
    }

    /// Unmaps a table. An error leaves the mapping in place (a leak, not
    /// unsoundness) and is ignored, since this runs in `Drop`.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`alloc_zeroed`] with the same `layout`, and
    /// nothing may use the memory afterwards.
    pub unsafe fn dealloc(ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a live mapping of exactly this length.
        unsafe { munmap(ptr.cast(), layout.size()) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
mod sys {
    pub use std::alloc::{alloc_zeroed, dealloc};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_zero_even_after_a_written_table_of_the_same_size_dropped() {
        // 4 MB: above glibc's initial mmap threshold, so a heap allocator
        // would recycle the first table's memory for the second.
        const LEN: usize = 1 << 19;
        for _ in 0..3 {
            let mut t = ZeroedTable::<u64>::new(LEN);
            assert!(t.iter().all(|&w| w == 0));
            t.fill(u64::MAX);
        }
        let mut pairs = ZeroedTable::<[u64; 2]>::new(LEN / 2);
        pairs.fill([1, 2]);
        drop(pairs);
        assert!(ZeroedTable::<[u64; 2]>::new(LEN / 2)
            .iter()
            .all(|&s| s == [0, 0]));
    }

    #[test]
    fn tables_are_line_aligned() {
        for len in [1, 3, 1000, 1 << 16] {
            assert_eq!(ZeroedTable::<u32>::new(len).as_ptr() as usize % ALIGN, 0);
        }
    }

    #[test]
    fn clone_is_a_deep_copy() {
        let mut a = ZeroedTable::<u32>::new(5000);
        a[0] = 1;
        a[4999] = 2;
        let mut b = a.clone();
        assert_eq!(&a[..], &b[..]);
        b[0] = 9;
        a[4999] = 7;
        assert_eq!((a[0], a[4999]), (1, 7));
        assert_eq!((b[0], b[4999]), (9, 2));
    }

    #[test]
    fn zero_length_tables_work() {
        let t = ZeroedTable::<u64>::new(0);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        let c = t.clone();
        assert!(c.is_empty());
        assert!(ZeroedTable::<[u64; 2]>::default().is_empty());
        assert_eq!(format!("{t:?}"), "ZeroedTable { len: 0, .. }");
    }

    #[test]
    fn tables_move_between_threads() {
        let mut t = ZeroedTable::<u64>::new(100);
        t[99] = 5;
        let t = std::thread::spawn(move || t).join().unwrap();
        assert_eq!(t[99], 5);
    }

    #[test]
    #[should_panic(expected = "overflows isize")]
    fn oversized_tables_are_rejected() {
        ZeroedTable::<u64>::new(usize::MAX / 4);
    }
}
