//! The decoder must not reserve memory on the strength of a count it
//! has not yet seen the input for. Each stream below is a few bytes long
//! and forges one count (a string length, or a class, field or method
//! count) near the wire format's cap; the decoder has to fail with
//! `unexpected end of stream` without any single allocation above
//! 64 KiB. The streams reach `decode_module` exactly as a client's bytes
//! do through the serve daemon's `verify` op.
//!
//! A counting global allocator records the largest single request, so
//! this file holds one test: tests running in parallel would share it.

use safetsa_codec::bits::BitWriter;
use safetsa_codec::layout::{MAGIC, VERSION};
use safetsa_codec::{decode_module, DecodeError, HostEnv};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, recording the largest single request.
struct Largest;

/// Largest allocation or reallocation size requested so far (a
/// statistic: it publishes no other data).
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; the size bookkeeping touches no allocated memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest count the wire format accepts for classes, fields and
/// methods.
const MAX_COUNT: u64 = 1 << 22;

/// Magic, version and an empty module name.
fn header() -> BitWriter {
    let mut w = BitWriter::new();
    w.bits(u64::from(MAGIC), 32);
    w.bits(u64::from(VERSION), 8);
    w.string("");
    w
}

/// A header declaring one transmitted class after the host classes,
/// followed by that class's empty name and its superclass.
fn one_class(host_classes: u64) -> BitWriter {
    let mut w = header();
    w.gamma(host_classes + 1);
    w.gamma(host_classes);
    w.string("");
    w.symbol(0, host_classes as u32 + 1);
    w
}

#[test]
fn forged_counts_reserve_no_more_than_the_input_holds() {
    let host = HostEnv::standard();
    let n_host = host.types.class_count() as u64;

    // A 1 MiB module name.
    let mut name = BitWriter::new();
    name.bits(u64::from(MAGIC), 32);
    name.bits(u64::from(VERSION), 8);
    name.gamma(1 << 20);
    // 2^22 classes.
    let mut classes = header();
    classes.gamma(MAX_COUNT);
    classes.gamma(n_host);
    // 2^22 fields in the one class.
    let mut fields = one_class(n_host);
    fields.gamma(MAX_COUNT);
    // No fields and 2^22 methods in the one class.
    let mut methods = one_class(n_host);
    methods.gamma(0);
    methods.gamma(MAX_COUNT);

    for (what, w) in [
        ("string length", name),
        ("class count", classes),
        ("field count", fields),
        ("method count", methods),
    ] {
        let bytes = w.into_bytes();
        LARGEST.store(0, Relaxed);
        let got = decode_module(&bytes, &host);
        let largest = LARGEST.load(Relaxed);
        assert!(
            matches!(got, Err(DecodeError::UnexpectedEof)),
            "{what}: a {}-byte stream should end early, got {:?}",
            bytes.len(),
            got.map(|m| m.functions.len())
        );
        assert!(
            largest <= 64 << 10,
            "{what}: a {}-byte stream made the decoder allocate {largest} bytes at once",
            bytes.len()
        );
    }
}
