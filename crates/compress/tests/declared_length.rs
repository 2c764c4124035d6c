//! A frame's declared length sizes the LZ decoder's output, but it is
//! untrusted: a frame claiming `u32::MAX` bytes must be refused without the
//! decoder ever asking for that much memory, while an honest frame decodes
//! into one allocation of exactly its declared size.
//!
//! The test binary counts allocations through its global allocator, so it
//! holds a single test: nothing else allocates concurrently.

use rssd_compress::{compress, decompress, Codec, DecompressError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request and the
/// number of reallocations.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn reset() {
    LARGEST.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
}

#[test]
fn declared_length_presizes_but_never_over_allocates() {
    // Runs dominate: a 4 KiB page that LZ shrinks to a few dozen bytes.
    let page: Vec<u8> = (0..4096u32).map(|i| (i / 700) as u8).collect();
    let honest = compress(Codec::Lz77, &page);
    assert_eq!(honest[0], 2, "the page must take the LZ77 codec");
    assert!(honest.len() < 200, "payload is {} bytes", honest.len());

    reset();
    assert_eq!(decompress(&honest).unwrap(), page);
    assert_eq!(LARGEST.load(Ordering::Relaxed), page.len());
    assert_eq!(
        REALLOCS.load(Ordering::Relaxed),
        0,
        "honest frame reallocated"
    );

    let mut lying = honest.clone();
    lying[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    reset();
    assert_eq!(
        decompress(&lying),
        Err(DecompressError::LengthMismatch {
            expected: u32::MAX as usize,
            actual: page.len(),
        })
    );
    // Capped by what the payload can expand to (under 69 bytes per byte).
    let payload_len = honest.len() - 5;
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 69 * payload_len,
        "a u32::MAX declaration reserved {largest} bytes for a {payload_len}-byte payload"
    );
}
