//! Heap-allocation accounting for program generation and mutation.
//!
//! Installs a counting global allocator and measures the allocation
//! events of a steady-state dm generate + mutate + drop loop. A flat
//! program is one node vector, and the generator writes into a reused
//! scratch arena before emitting it at exact capacity, so each
//! generated or mutated program costs one allocation. The figures are
//! recorded in EXPERIMENTS.md — rerun this test with `--nocapture` to
//! refresh them.
//!
//! Keep this file to a single test: a second test running on a
//! parallel thread would pollute the counters.

use kernelgpt::csrc::KernelCorpus;
use kernelgpt::fuzzer::{Generator, Program};
use kernelgpt::syzlang::SpecDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation events (alloc + realloc); frees are not counted.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates everything to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// One round of the campaign's program traffic: a fresh program, and
/// a mutant of a corpus entry that replaces it; both old programs are
/// dropped.
fn round(g: &mut Generator, ring: &mut [Program], i: usize) {
    let fresh = g.gen_program(8);
    let slot = i % ring.len();
    ring[slot] = g.mutate(&ring[slot], 8);
    drop(fresh);
}

#[test]
fn steady_state_gen_and_mutate_allocate_at_most_four_events_per_program() {
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let mut g = Generator::new(&db, kc.consts(), 17);
    let mut ring: Vec<Program> = (0..64).map(|_| g.gen_program(8)).collect();
    // Warm-up: let the scratch arenas reach their high-water marks.
    for i in 0..2048 {
        round(&mut g, &mut ring, i);
    }

    let rounds = 1024;
    let before = events();
    for i in 0..rounds {
        round(&mut g, &mut ring, i);
    }
    let programs = 2 * rounds as u64;
    let per_program = (events() - before) as f64 / programs as f64;
    println!(
        "alloc events over {programs} dm programs (gen + mutate + drop): {per_program:.2}/program"
    );
    assert!(
        per_program <= 4.0,
        "generation must allocate only the programs it returns: {per_program:.2} events/program"
    );
}
