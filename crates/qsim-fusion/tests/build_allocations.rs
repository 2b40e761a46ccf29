//! Heap allocations of the planning path's host work on the paper's
//! 30-qubit circuit (622 source gates), counted by this test binary's own
//! global allocator, per thread.
//!
//! - `qsim_fusion::fuse` allocates per fused product and per distinct
//!   source gate, never per source gate: the source table builds each
//!   distinct gate once, a merge runs on stack arrays, and a slot's qubit
//!   list and factor list are sized for its last merge when it opens.
//!   Before that, `fuse` allocated 2 275 (`-f 1`) … 3 697 (`-f 4`) …
//!   3 784 (`-f 6`) times, ≈ 3.6 to 6 a source gate; 1 749 … 361 … 305
//!   for 546 … 74 … 56 products while `build` composed every product;
//!   2 212 … 324 … 252 since products compose on first read (a slot's
//!   two qubit lists, its factor list and its shared product).
//! - `parse_circuit` allocates each gate's qubit list and little else:
//!   tokens are read from the line's iterator and parameters into an
//!   array. Before that it allocated 1 430 times (≈ 2.3 a gate); now 628.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qsim_circuit::parser::parse_circuit;
use qsim_fusion::{fuse, FusedOp};

const PAPER_Q30: &str = include_str!("../../../circuits/circuit_q30");

/// The distinct source gates of the paper circuit: `x_1_2`, `y_1_2`,
/// `hz_1_2` and one `fs`, always on ascending pairs.
const DISTINCT_GATES: usize = 4;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees are the caller's; the counter allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn fuse_allocations_are_linear_in_products_not_source_gates() {
    let circuit = parse_circuit(PAPER_Q30).expect("the paper circuit parses");
    assert_eq!(circuit.ops.len(), 622);
    for f in 1..=6 {
        let (fused, count) = allocations(|| fuse(&circuit, f));
        let products = fused.ops.iter().filter(|op| matches!(op, FusedOp::Unitary(_))).count();
        // Each product: its qubit list from the scan and from `build`, its
        // factor list and its shared product. Each distinct gate: its
        // matrix and qubits once, and room in the table.
        let bound = 4 * products + 4 * DISTINCT_GATES + 96;
        assert!(
            count <= bound,
            "fuse(q30, {f}): {count} allocations for {products} products (bound {bound})"
        );
    }
}

#[test]
fn parse_allocations_are_one_a_gate() {
    let (circuit, count) = allocations(|| parse_circuit(PAPER_Q30));
    let gates = circuit.expect("the paper circuit parses").ops.len();
    assert!(count <= gates + 32, "parse_circuit(q30): {count} allocations for {gates} gates");
}
