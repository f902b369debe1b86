//! Per-thread reuse of derived-graph buffers.
//!
//! Decoding, verifying, encoding and optimizing a module derive, for
//! each function in turn, a control-flow graph, a dominator tree and
//! other tables, rebuilding them in place in one set of buffers. A
//! thread keeps that set between calls in a slot of its own, one slot
//! per kind of set, so a stream of modules on one thread allocates
//! graph buffers only when a function outgrows every earlier one.
//!
//! A set that grew past [`CEILING`] bytes is dropped instead of kept:
//! one huge module must not pin its memory in a long-lived worker
//! thread. The ceiling is far above what the largest corpus function
//! needs (about 20 KB for the decoder's set).

use std::cell::Cell;
use std::thread::LocalKey;

/// The most heap bytes a thread keeps in one set of buffers between
/// calls.
pub const CEILING: usize = 1 << 20;

/// A set of reusable buffers.
pub trait Buffers: Default {
    /// Heap bytes the buffers hold (their capacity, not their length).
    fn heap_bytes(&mut self) -> usize;
}

/// Runs `f` with the buffer set kept in `slot`, or a fresh one if the
/// slot is empty (first use on this thread, or a nested call), and
/// puts the set back afterwards unless it holds more than [`CEILING`]
/// bytes.
pub fn with_thread_buffers<T: Buffers + 'static, R>(
    slot: &'static LocalKey<Cell<Option<T>>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    // `try_with`: a thread being torn down may still decode.
    let mut bufs = slot.try_with(Cell::take).ok().flatten().unwrap_or_default();
    let out = f(&mut bufs);
    if bufs.heap_bytes() <= CEILING {
        let _ = slot.try_with(|s| s.set(Some(bufs)));
    }
    out
}

/// Heap bytes held by `v`'s buffer.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Bufs(Vec<u64>);

    impl Buffers for Bufs {
        fn heap_bytes(&mut self) -> usize {
            vec_bytes(&self.0)
        }
    }

    thread_local! {
        static SLOT: Cell<Option<Bufs>> = const { Cell::new(None) };
    }

    #[test]
    fn a_set_is_kept_up_to_the_ceiling_and_dropped_past_it() {
        with_thread_buffers(&SLOT, |b| b.0.reserve_exact(16));
        let kept = with_thread_buffers(&SLOT, |b| b.0.capacity());
        assert_eq!(kept, 16, "the second call gets the first one's buffer");
        // A nested call finds the slot empty and works in a fresh set.
        let nested = with_thread_buffers(&SLOT, |_| with_thread_buffers(&SLOT, |b| b.0.capacity()));
        assert_eq!(nested, 0);
        with_thread_buffers(&SLOT, |b| b.0.reserve_exact(CEILING / 8 + 1));
        let after = with_thread_buffers(&SLOT, |b| b.0.capacity());
        assert_eq!(after, 0, "a set past the ceiling is dropped");
    }
}
