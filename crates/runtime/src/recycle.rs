//! Cross-run buffer recycling for resident engines.
//!
//! The per-worker [`node`](crate::node) buffer pool already makes
//! steady-state tile execution allocation-free *within* one run, but the
//! pools die with their worker threads, so a resident engine executing the
//! same compiled plan thousands of times re-pays the first-tile
//! allocations on every job. A [`BufferRecycler`] is the cross-run seam:
//! workers seed their pools from it on startup and park their cleared
//! buffers back into it on shutdown, so consecutive executions of the same
//! plan reuse each other's tile buffers and edge payload vectors.
//!
//! The stash is type-erased (`Box<dyn Any>`) because the runtime's
//! configuration plumbing is untyped while buffers are `Vec<T>` for the
//! run's cell type; a checkout only hands back vectors whose element type
//! matches, so a recycler accidentally shared across differently-typed
//! plans degrades to a miss, never to corruption. Buffers are parked
//! *cleared* (the pool releases them all-default), which is what keeps a
//! cancelled or failed job from poisoning the next one: whatever a dead
//! run left mid-flight stays owned by its stack frames and is dropped,
//! never parked.

use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default cap on stashed buffers; enough for every worker of a large run
/// to park one tile buffer plus its payload free list.
pub const DEFAULT_RECYCLER_CAPACITY: usize = 256;

/// A bounded, type-erased stash of cleared `Vec<T>` buffers shared across
/// runs (see the module docs).
pub struct BufferRecycler {
    stash: Mutex<Vec<Box<dyn Any + Send>>>,
    capacity: usize,
    reused: AtomicU64,
    parked: AtomicU64,
}

impl Default for BufferRecycler {
    fn default() -> BufferRecycler {
        BufferRecycler::new(DEFAULT_RECYCLER_CAPACITY)
    }
}

impl std::fmt::Debug for BufferRecycler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferRecycler")
            .field("stashed", &self.stashed())
            .field("capacity", &self.capacity)
            .field("reused", &self.reused.load(Ordering::Relaxed))
            .field("parked", &self.parked.load(Ordering::Relaxed))
            .finish()
    }
}

impl BufferRecycler {
    /// An empty recycler holding at most `capacity` buffers.
    pub fn new(capacity: usize) -> BufferRecycler {
        BufferRecycler {
            stash: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            reused: AtomicU64::new(0),
            parked: AtomicU64::new(0),
        }
    }

    /// Take up to `max` stashed `Vec<T>` buffers that satisfy `keep`.
    /// Entries of a different element type, or that `keep` rejects, are
    /// left in place.
    pub fn checkout<T: Send + 'static>(
        &self,
        max: usize,
        keep: impl Fn(&Vec<T>) -> bool,
    ) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        if max == 0 {
            return out;
        }
        let mut stash = self.stash.lock();
        let mut i = 0;
        while i < stash.len() && out.len() < max {
            if stash[i].downcast_ref::<Vec<T>>().is_some_and(&keep) {
                let boxed = stash.swap_remove(i);
                match boxed.downcast::<Vec<T>>() {
                    Ok(v) => out.push(*v),
                    Err(_) => unreachable!("checked by downcast_ref"),
                }
            } else {
                i += 1;
            }
        }
        self.reused.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Park cleared buffers for later checkout; silently drops whatever
    /// exceeds the capacity bound.
    pub fn park<T: Send + 'static>(&self, bufs: impl IntoIterator<Item = Vec<T>>) {
        let mut stash = self.stash.lock();
        let mut stored = 0u64;
        for b in bufs {
            if stash.len() >= self.capacity {
                break;
            }
            if b.capacity() == 0 {
                continue;
            }
            stash.push(Box::new(b));
            stored += 1;
        }
        drop(stash);
        self.parked.fetch_add(stored, Ordering::Relaxed);
    }

    /// Buffers currently stashed.
    pub fn stashed(&self) -> usize {
        self.stash.lock().len()
    }

    /// Buffers handed back out since creation (cross-run reuse events).
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Buffers parked since creation.
    pub fn parked(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_matching_types_only() {
        let r = BufferRecycler::new(8);
        r.park(vec![vec![1u64; 4], vec![2u64; 8]]);
        r.park(vec![vec![1.5f64; 4]]);
        assert_eq!(r.stashed(), 3);
        // A u64 checkout skips the f64 entry.
        let got = r.checkout::<u64>(10, |_| true);
        assert_eq!(got.len(), 2);
        assert_eq!(r.stashed(), 1);
        let floats = r.checkout::<f64>(10, |_| true);
        assert_eq!(floats.len(), 1);
        assert_eq!(floats[0].len(), 4);
        assert_eq!(r.reused(), 3);
        assert_eq!(r.parked(), 3);
    }

    #[test]
    fn checkout_filters_by_predicate() {
        let r = BufferRecycler::new(8);
        r.park(vec![
            Vec::<u64>::with_capacity(4),
            vec![0u64; 16],
            Vec::with_capacity(4),
        ]);
        // The full-length buffer is found behind the empty ones.
        let big = r.checkout::<u64>(1, |b| b.len() == 16);
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 16);
        assert!(r.checkout::<u64>(1, |b| b.len() == 16).is_empty());
        assert_eq!(r.checkout::<u64>(8, |b| b.is_empty()).len(), 2);
        assert_eq!(r.stashed(), 0);
    }

    #[test]
    fn capacity_bounds_the_stash() {
        let r = BufferRecycler::new(2);
        r.park((0..5).map(|_| vec![0u8; 16]));
        assert_eq!(r.stashed(), 2);
        // Zero-capacity vectors are not worth stashing.
        r.park(vec![Vec::<u8>::new()]);
        assert_eq!(r.stashed(), 2);
    }
}
