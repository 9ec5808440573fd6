//! Allocation counts of the record hot path, measured with a counting
//! global allocator: field names are interned, so a record is one block
//! (its field vector) and decoding one allocates no name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdg_common::codec::{decode_from_slice, encode_to_vec};
use sdg_common::record;
use sdg_common::value::{Record, Value};

struct Counting;

thread_local! {
    // Per thread, so allocations of concurrently running tests don't count.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` comes from our caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (all our blocks are) for
        // this `layout`, per `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` obeys `realloc`'s
        // contract because our caller's does.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Number of allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn kv(k: i64, v: i64) -> Record {
    record! {"k" => Value::Int(k), "v" => Value::Int(v)}
}

#[test]
fn a_record_literal_is_one_allocation_after_warm_up() {
    drop(kv(0, 0)); // Interns "k" and "v" on this thread.
    let (n, r) = allocs(|| kv(1, 2));
    assert_eq!(n, 1, "record! must allocate only its field vector");
    assert_eq!(r.get("v"), Some(&Value::Int(2)));
    let (n, copy) = allocs(|| r.clone());
    assert_eq!(n, 1, "cloning a record must not copy its names");
    assert_eq!(copy, r);
}

#[test]
fn decoding_a_record_allocates_no_name() {
    let bytes = encode_to_vec(&kv(3, 4));
    let _: Record = decode_from_slice(&bytes).unwrap(); // Warm-up.
    let (n, back) = allocs(|| decode_from_slice::<Record>(&bytes).unwrap());
    assert_eq!(n, 1, "decode must allocate only the field vector");
    assert_eq!(back, kv(3, 4));
}
