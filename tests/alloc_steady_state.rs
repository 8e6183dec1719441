//! Zero-allocation steady state of the workspace-resident refinement
//! paths: once a [`RefineWorkspace`] is warm, a second sequential
//! `refine_kway_with` + `balance_kway_with` + `fm_refine_with` round over
//! identical inputs must not touch the allocator at all.
//!
//! This file holds exactly one test: the counter below sees every
//! allocation of the process, so a second test running beside it on the
//! harness's other threads would be counted too.

mod common;

use cip::partition::fm::BisectTargets;
use cip::partition::{
    balance_kway_with, fm_refine_with, refine_kway_with, PartitionerConfig, RefineWorkspace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting wrapper around the system allocator: every `alloc`/`realloc`
/// bumps a global counter the steady-state check snapshots.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_workspace_serves_refine_balance_and_fm_without_allocating() {
    let (side, k) = (128, 8);
    let g = common::grid(side, side, 2);
    // Diagonal stripes: balanced but with a terrible cut, so refinement has
    // a full boundary of strictly improving moves to chew through.
    let start: Vec<u32> =
        (0..side * side).map(|v| (((v % side) + (v / side)) % k) as u32).collect();
    let cfg =
        PartitionerConfig { parallel_threshold: usize::MAX, ..PartitionerConfig::with_seed(3) };
    let targets = BisectTargets::new(&g, 0.5, &[0.05, 0.05]);
    let bis_start: Vec<u32> = (0..side * side).map(|v| ((v % side) % 2) as u32).collect();

    let mut ws = RefineWorkspace::new();
    let (mut asg, mut bis) = (start.clone(), bis_start.clone());
    let mut round = |asg: &mut Vec<u32>, bis: &mut Vec<u32>| {
        asg.copy_from_slice(&start);
        bis.copy_from_slice(&bis_start);
        let before = ALLOC_COUNT.load(Ordering::Relaxed);
        refine_kway_with(&g, k, asg, &cfg, &mut ws);
        balance_kway_with(&g, k, asg, &cfg, &mut ws);
        fm_refine_with(&g, bis, &targets, &mut ws);
        ALLOC_COUNT.load(Ordering::Relaxed) - before
    };
    // Warm-up round: buffers grow to their high-water marks here.
    assert!(round(&mut asg, &mut bis) > 0, "the counter counts");
    assert_eq!(round(&mut asg, &mut bis), 0, "a warmed round must not allocate");
}
