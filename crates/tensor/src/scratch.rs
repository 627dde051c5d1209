//! Thread-local scratch-buffer pool for hot-path `Vec<f32>` allocations.
//!
//! Every [`Tensor`](crate::Tensor) owns a `Vec<f32>`; in the training,
//! attack, and serving inner loops those vectors are allocated and freed at
//! enormous rates with a small set of recurring sizes (one per tensor shape
//! in the model). This module recycles them: [`take`]/[`take_raw`] check a
//! buffer out of the current thread's pool, and `Tensor`'s `Drop` impl
//! returns the backing vector via [`recycle`] so the next op of the same
//! size reuses the allocation instead of hitting the system allocator.
//!
//! # Invisibility contract
//!
//! The pool changes *where bytes live*, never *what they hold*: [`take`]
//! returns a zeroed vector indistinguishable from `vec![0.0; len]`, and
//! [`take_raw`] returns an empty vector indistinguishable from
//! `Vec::with_capacity(len)` (modulo a possibly larger capacity, which no
//! tensor op observes). Results are therefore bitwise identical with the
//! pool enabled, disabled, or freshly cleared — property-tested in
//! `crates/tensor/tests/scratch_prop.rs`.
//!
//! # Lifecycle and bounds
//!
//! Buffers are binned by power-of-two size class. A checkout takes from the
//! exact class `ceil(log2(len))` (any buffer stored there has capacity
//! ≥ `2^class` ≥ `len`); a return files the buffer under
//! `floor(log2(capacity))`. Per thread the pool retains at most
//! [`MAX_PER_CLASS`] buffers per class and [`MAX_RETAINED`] total `f32`
//! elements; buffers over `2^`[`MAX_CLASS`] elements are never retained.
//! Overflow simply drops the returned buffer — the pool is a cache, not an
//! obligation.
//!
//! # Controls and telemetry
//!
//! Pooling is on. [`with_enabled`]`(false)` turns it off for the current
//! thread (RAII, nests) — the pool-off reference the invisibility tests
//! compare against — and [`clear`] empties the current thread's pool.
//! Checkouts count `alloc.pool.hit` / `alloc.pool.miss` telemetry counters
//! and the always-on thread-local totals returned by [`stats`].

use std::cell::{Cell, RefCell};

use ibrar_telemetry as tel;

/// Largest size class (log2 of elements) the pool will retain: buffers above
/// `2^MAX_CLASS` elements (256 Mi elements = 1 GiB) bypass the pool.
pub const MAX_CLASS: usize = 28;

/// Maximum buffers retained per size class per thread.
pub const MAX_PER_CLASS: usize = 64;

/// Maximum total `f32` elements retained per thread (64 Mi = 256 MiB).
pub const MAX_RETAINED: usize = 1 << 26;

struct Pool {
    classes: Vec<Vec<Vec<f32>>>,
    retained: usize,
}

impl Pool {
    fn new() -> Self {
        Pool {
            classes: (0..=MAX_CLASS).map(|_| Vec::new()).collect(),
            retained: 0,
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Whether checkouts on the current thread go through the pool: the
/// innermost [`with_enabled`] override if one is active, else on.
pub fn enabled() -> bool {
    OVERRIDE.with(Cell::get).unwrap_or(true)
}

/// RAII guard restoring the previous enable override on drop.
#[derive(Debug)]
pub struct ScratchScope {
    prev: Option<bool>,
}

impl Drop for ScratchScope {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Overrides [`enabled`] for the current thread until the returned guard is
/// dropped. Nests like [`crate::parallel::with_threads`].
#[must_use = "the override ends when the guard drops"]
pub fn with_enabled(on: bool) -> ScratchScope {
    let prev = OVERRIDE.with(|o| o.replace(Some(on)));
    ScratchScope { prev }
}

/// `ceil(log2(len.max(1)))` — the class a checkout of `len` draws from.
fn class_for_len(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// `floor(log2(cap))` — the class a buffer of capacity `cap` files under,
/// chosen so every stored buffer satisfies `capacity ≥ 2^class`.
fn class_for_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

fn checkout(len: usize) -> Option<Vec<f32>> {
    let class = class_for_len(len);
    if class > MAX_CLASS {
        return None;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let buf = pool.classes[class].pop()?;
        pool.retained -= buf.capacity();
        Some(buf)
    })
}

fn note(hit: bool) {
    if hit {
        HITS.with(|c| c.set(c.get() + 1));
        tel::counter("alloc.pool.hit", 1);
    } else {
        MISSES.with(|c| c.set(c.get() + 1));
        tel::counter("alloc.pool.miss", 1);
    }
}

/// Checks out a zeroed vector of exactly `len` elements — behaviorally
/// identical to `vec![0.0; len]`, but backed by a pooled allocation when one
/// of sufficient capacity is available.
pub fn take(len: usize) -> Vec<f32> {
    if !enabled() {
        return vec![0.0; len];
    }
    match checkout(len) {
        Some(mut buf) => {
            note(true);
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => {
            note(false);
            let mut buf = Vec::with_capacity(1usize << class_for_len(len).min(MAX_CLASS + 1));
            buf.resize(len, 0.0);
            buf
        }
    }
}

/// Checks out an **empty** vector with capacity ≥ `len` — behaviorally
/// identical to `Vec::with_capacity(len)` for callers that fill by pushing
/// or extending.
pub fn take_raw(len: usize) -> Vec<f32> {
    if !enabled() {
        return Vec::with_capacity(len);
    }
    match checkout(len) {
        Some(mut buf) => {
            note(true);
            buf.clear();
            buf
        }
        None => {
            note(false);
            Vec::with_capacity(1usize << class_for_len(len).min(MAX_CLASS + 1))
        }
    }
}

/// A pooled copy of `src` — behaviorally identical to `src.to_vec()`.
pub fn vec_from_slice(src: &[f32]) -> Vec<f32> {
    let mut buf = take_raw(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the current thread's pool (called by `Tensor::drop`).
/// Buffers that would exceed the per-class or total retention bounds are
/// simply freed.
pub fn recycle(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 || !enabled() {
        return;
    }
    let class = class_for_cap(cap);
    if class > MAX_CLASS {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.classes[class].len() >= MAX_PER_CLASS || pool.retained + cap > MAX_RETAINED {
            return;
        }
        pool.retained += cap;
        pool.classes[class].push(buf);
    });
}

/// Frees every buffer retained by the current thread's pool.
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = Pool::new());
}

/// Lifetime `(hits, misses)` checkout totals for the current thread
/// (counted whether or not telemetry is enabled).
pub fn stats() -> (u64, u64) {
    (HITS.with(Cell::get), MISSES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_sized() {
        let _g = with_enabled(true);
        clear();
        for len in [0, 1, 7, 64, 100] {
            let buf = take(len);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&v| v == 0.0));
            recycle(buf);
        }
    }

    #[test]
    fn recycled_buffer_is_reused_and_rezeroed() {
        let _g = with_enabled(true);
        clear();
        let (h0, _) = stats();
        let mut buf = take(100);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(80); // same class (64 < len ≤ 128)
        assert_eq!(again.as_ptr(), ptr, "pooled allocation should be reused");
        assert!(again.iter().all(|&v| v == 0.0), "must come back zeroed");
        let (h1, _) = stats();
        assert_eq!(h1 - h0, 1);
    }

    #[test]
    fn class_bounds_hold() {
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(64), 6);
        assert_eq!(class_for_len(65), 7);
        assert_eq!(class_for_cap(64), 6);
        assert_eq!(class_for_cap(127), 6);
        // Every stored buffer must satisfy the take-side capacity guarantee.
        for len in 1..200usize {
            let cap = len.next_power_of_two();
            assert!(cap >= len && class_for_cap(cap) == class_for_len(len));
        }
    }

    #[test]
    fn disabled_pool_never_retains() {
        let _g = with_enabled(false);
        clear();
        let buf = take(64);
        let ptr = buf.as_ptr();
        recycle(buf);
        // recycle under disabled drops the buffer; a fresh take may or may
        // not land on the same address, but the pool itself must be empty.
        POOL.with(|p| assert_eq!(p.borrow().retained, 0));
        let _ = ptr;
    }

    #[test]
    fn retention_limits_are_enforced() {
        let _g = with_enabled(true);
        clear();
        for _ in 0..(MAX_PER_CLASS + 10) {
            recycle(Vec::with_capacity(64));
        }
        POOL.with(|p| {
            let pool = p.borrow();
            assert!(pool.classes[6].len() <= MAX_PER_CLASS);
            assert!(pool.retained <= MAX_RETAINED);
        });
        clear();
        POOL.with(|p| assert_eq!(p.borrow().retained, 0));
    }

    #[test]
    fn take_raw_is_empty_with_capacity() {
        let _g = with_enabled(true);
        clear();
        let buf = take_raw(33);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 33);
        let copy = vec_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(copy, vec![1.0, 2.0, 3.0]);
    }
}
