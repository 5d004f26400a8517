//! A `Pipeline` keeps a design's report, not its flow artifacts: after a
//! (64, 23) run, the heap the pipeline still holds is a few hundred
//! bytes of memoized report, not the mapped netlist, packing, placement
//! and timing report of the run, nor the mapper's scratch.
//!
//! A counting global allocator measures the live heap, so this file
//! holds a single test: another test running alongside would allocate
//! into the same count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::Pipeline;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// [`System`], counting the live bytes it hands out.
struct Counting;

// SAFETY: every call delegates to `System` with the caller's own
// arguments; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most live heap one memoized (64, 23) design may keep.
const BUDGET: isize = 256 * 1024;

#[test]
fn a_pipeline_retains_reports_not_artifacts() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
    let net = generate(&field, Method::ProposedFlat);
    // Warm-up: whatever the flow allocates once per process is not
    // charged to the pipeline below.
    Pipeline::new().run_report(&net).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let pipeline = Pipeline::new();
    let report = pipeline.run_report(&net).unwrap();
    drop(report);
    let retained = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(pipeline.cache_stats().entries, 1);
    assert!(
        retained < BUDGET,
        "the pipeline retains {retained} bytes after one (64, 23) design"
    );
}
