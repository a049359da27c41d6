//! Offline stand-in for the `stats_alloc` crate: a [`GlobalAlloc`] wrapper
//! that counts the calls passing through it, and a [`Region`] that reports
//! the counts accumulated since it was opened.
//!
//! ```
//! use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
//! use std::alloc::System;
//!
//! #[global_allocator]
//! static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;
//!
//! let region = Region::new(GLOBAL);
//! let v = vec![1u8; 64];
//! assert!(region.change().allocations >= 1);
//! drop(v);
//! ```
//!
//! This is the workspace's only `unsafe` outside its two audited blocks
//! (the kernel dispatch and the timer-slack `prctl`): the `GlobalAlloc` trait cannot be implemented without it. Every method
//! forwards its arguments unchanged to the wrapped allocator.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counters of allocator calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Calls to `alloc` / `alloc_zeroed`.
    pub allocations: usize,
    /// Calls to `dealloc`.
    pub deallocations: usize,
    /// Calls to `realloc`.
    pub reallocations: usize,
    /// Bytes requested by `alloc` / `alloc_zeroed` and by growing `realloc`s.
    pub bytes_allocated: usize,
    /// Bytes released by `dealloc` and by shrinking `realloc`s, so
    /// `bytes_allocated - bytes_deallocated` is the change in live bytes.
    pub bytes_deallocated: usize,
}

/// An allocator that counts the calls it forwards to `T`.
#[derive(Debug, Default)]
pub struct StatsAlloc<T: GlobalAlloc> {
    allocations: AtomicUsize,
    deallocations: AtomicUsize,
    reallocations: AtomicUsize,
    bytes_allocated: AtomicUsize,
    bytes_deallocated: AtomicUsize,
    inner: T,
}

/// The system allocator, instrumented.
pub static INSTRUMENTED_SYSTEM: StatsAlloc<System> = StatsAlloc {
    allocations: AtomicUsize::new(0),
    deallocations: AtomicUsize::new(0),
    reallocations: AtomicUsize::new(0),
    bytes_allocated: AtomicUsize::new(0),
    bytes_deallocated: AtomicUsize::new(0),
    inner: System,
};

impl<T: GlobalAlloc> StatsAlloc<T> {
    /// The counts since the process started.
    pub fn stats(&self) -> Stats {
        Stats {
            allocations: self.allocations.load(Ordering::SeqCst),
            deallocations: self.deallocations.load(Ordering::SeqCst),
            reallocations: self.reallocations.load(Ordering::SeqCst),
            bytes_allocated: self.bytes_allocated.load(Ordering::SeqCst),
            bytes_deallocated: self.bytes_deallocated.load(Ordering::SeqCst),
        }
    }
}

/// The allocator calls made (by any thread) since the region was opened.
#[derive(Debug)]
pub struct Region<'a, T: GlobalAlloc + 'a> {
    alloc: &'a StatsAlloc<T>,
    initial: Stats,
}

impl<'a, T: GlobalAlloc + 'a> Region<'a, T> {
    /// Opens a region at the allocator's current counts.
    pub fn new(alloc: &'a StatsAlloc<T>) -> Self {
        Self {
            alloc,
            initial: alloc.stats(),
        }
    }

    /// Counts accumulated since the region was opened.
    pub fn change(&self) -> Stats {
        let now = self.alloc.stats();
        Stats {
            allocations: now.allocations - self.initial.allocations,
            deallocations: now.deallocations - self.initial.deallocations,
            reallocations: now.reallocations - self.initial.reallocations,
            bytes_allocated: now.bytes_allocated - self.initial.bytes_allocated,
            bytes_deallocated: now.bytes_deallocated - self.initial.bytes_deallocated,
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `T`'s
// implementation of the same method and returns its result unchanged, so
// `T`'s upholding of the `GlobalAlloc` contract is this type's; the counters
// are atomics and never influence what is allocated.
unsafe impl<T: GlobalAlloc> GlobalAlloc for StatsAlloc<T> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_allocated
            .fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { self.inner.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_deallocated
            .fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's obligations for `dealloc` are passed through.
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_allocated
            .fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { self.inner.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.reallocations.fetch_add(1, Ordering::SeqCst);
        self.bytes_allocated
            .fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        self.bytes_deallocated
            .fetch_add(layout.size().saturating_sub(new_size), Ordering::SeqCst);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { self.inner.realloc(ptr, layout, new_size) }
    }
}

// SAFETY: `&StatsAlloc<T>` only forwards to `StatsAlloc<T>`, whose
// implementation is justified above. This is what lets the allocator be
// installed as `static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM`.
unsafe impl<T: GlobalAlloc> GlobalAlloc for &StatsAlloc<T> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        unsafe { (**self).alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through.
        unsafe { (**self).dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        unsafe { (**self).alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through.
        unsafe { (**self).realloc(ptr, layout, new_size) }
    }
}
