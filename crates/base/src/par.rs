//! Fork-join parallelism over `std::thread::scope`: no pool, no queue, no
//! work stealing. A loop is cut into contiguous parts, one per thread, and
//! every part but the first asks for a **permit** before it forks; with no
//! permit free it runs on the caller. The permits are one process-wide
//! counter (`available_parallelism − 1`), so k rank threads, two server
//! workers and a boundary planner that all reach a parallel loop at
//! once share the machine's spare cores instead of each claiming them.
//!
//! Results never depend on any of this: [`parts`] hands every part its
//! offset and returns the part results in offset order, and [`join`]
//! returns `(a, b)` whichever thread ran `b`. How many parts there are
//! (the machine's parallelism, [`GRAIN`], [`with_threads`]) and which of
//! them got a thread (the permits) only decide who computes what.

use std::cell::RefCell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{available_parallelism, scope};

/// A loop shorter than two grains runs inline, and no part is shorter than
/// one: forking costs a thread spawn, tens of microseconds, which a part of
/// a few thousand items at tens of nanoseconds each does not repay (at
/// 2048 the saturated `serve_mixed` benchmark workload ran ~12 % slower
/// than with no forks at all; at 8192 it does not move and the large
/// decompositions keep their gain — EXPERIMENTS.md, "Ladder rows — PR 20").
pub const GRAIN: usize = 8192;

/// How far loops fan out, and the helper threads left to do it with.
struct Budget {
    threads: usize,
    spare: AtomicUsize,
    /// Set by [`with_threads`]: cut every loop `threads` ways, [`GRAIN`] or not.
    forced: bool,
}

thread_local! {
    /// The [`with_threads`] budget this thread runs under, if any.
    static FORCED: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// The process-wide budget: one part per core, one permit per spare core.
fn process() -> &'static Arc<Budget> {
    static PROCESS: OnceLock<Arc<Budget>> = OnceLock::new();
    PROCESS.get_or_init(|| {
        let threads = available_parallelism().map_or(1, |n| n.get());
        Arc::new(Budget { threads, spare: AtomicUsize::new(threads - 1), forced: false })
    })
}

/// The budget this thread forks under.
fn budget() -> Arc<Budget> {
    FORCED.with_borrow(Clone::clone).unwrap_or_else(|| Arc::clone(process()))
}

/// One helper thread's claim on a [`Budget`], handed back on drop.
struct Permit(Arc<Budget>);

impl Permit {
    fn try_acquire(budget: &Arc<Budget>) -> Option<Permit> {
        // Relaxed: the counter publishes nothing; the scope's spawn and
        // join order the data the helper touches.
        budget
            .spare
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spare| spare.checked_sub(1))
            .ok()
            .map(|_| Permit(Arc::clone(budget)))
    }

    /// Runs `f` on the helper thread this permit paid for, under the
    /// budget it came from, so nested loops draw from the same counter.
    fn run<R>(self, f: impl FnOnce() -> R) -> R {
        FORCED.set(self.0.forced.then(|| Arc::clone(&self.0)));
        f()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.spare.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with every loop it reaches — on this thread or on the helpers
/// it forks — cut `n` ways regardless of [`GRAIN`], on at most `n − 1`
/// helper threads of its own (not the process's permits). For tests that
/// must show a result does not depend on the split, and for callers that
/// need a loop to run on exactly one thread (`n = 1` never spawns).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Budget>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0.take());
        }
    }
    let n = n.max(1);
    let forced = Budget { threads: n, spare: AtomicUsize::new(n - 1), forced: true };
    let _restore = Restore(FORCED.replace(Some(Arc::new(forced))));
    f()
}

/// Runs `a` and `b`, `b` on a helper thread when a permit is free, and
/// returns both results. A panic in either propagates to the caller.
pub fn join<RA, RB: Send>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB) {
    match Permit::try_acquire(&budget()) {
        None => {
            let ra = a();
            (ra, b())
        }
        Some(permit) => scope(|s| {
            let helper = s.spawn(move || permit.run(b));
            let ra = a();
            (ra, helper.join().unwrap_or_else(|panic| resume_unwind(panic)))
        }),
    }
}

/// Something [`parts`] can cut into contiguous pieces: a slice, a range,
/// or a pair of those advancing in lockstep.
pub trait Split: Send + Sized {
    /// The number of items.
    fn items(&self) -> usize;
    /// The first `mid` items and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Sync> Split for &[T] {
    fn items(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at(self, mid)
    }
}

impl<T: Send> Split for &mut [T] {
    fn items(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl Split for Range<usize> {
    fn items(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        (self.start..self.start + mid, self.start + mid..self.end)
    }
}

/// Two sequences of one length, cut at the same places.
impl<A: Split, B: Split> Split for (A, B) {
    fn items(&self) -> usize {
        debug_assert_eq!(self.0.items(), self.1.items());
        self.0.items()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a, a_rest), (b, b_rest)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a, b), (a_rest, b_rest))
    }
}

/// The number of parts [`parts`] cuts a loop of `len` items into when
/// called from this thread: 1 — the loop runs inline — below two
/// [`GRAIN`]s, unless [`with_threads`] forces the cut. For callers that
/// pick a cheaper single-pass algorithm when the loop would not fork.
pub fn ways(len: usize) -> usize {
    FORCED
        .with_borrow(|forced| match forced {
            Some(budget) => budget.threads.min(len),
            None => process().threads.min(len / GRAIN),
        })
        .max(1)
}

/// Cuts `data` into contiguous parts of near-equal length — as many as
/// the machine has threads, each at least [`GRAIN`] items — calls
/// `f(offset, part)` on each, the first on the caller and the others on
/// helper threads as permits allow, and returns the results in offset
/// order. `f` loops over its part itself, so per-worker scratch is
/// whatever it builds first. A panic in any part propagates to the caller.
pub fn parts<D: Split, R: Send>(data: D, f: impl Fn(usize, D) -> R + Sync) -> Vec<R> {
    let len = data.items();
    let n = ways(len);
    if n <= 1 {
        return vec![f(0, data)];
    }
    let (budget, f) = (budget(), &f);
    scope(|s| {
        let (first, mut rest) = data.split_at(len / n);
        let mut offset = len / n;
        // Fork first, so the helpers run while the caller works. The last
        // part takes all that is left.
        let mut forked = Vec::with_capacity(n - 1);
        for i in 1..n {
            let take = (len - offset) / (n - i);
            let (part, tail) = rest.split_at(take);
            forked.push(match Permit::try_acquire(&budget) {
                Some(permit) => Ok(s.spawn(move || permit.run(|| f(offset, part)))),
                None => Err((offset, part)),
            });
            (rest, offset) = (tail, offset + take);
        }
        let mut results = Vec::with_capacity(n);
        results.push(f(0, first));
        for part in forked {
            results.push(match part {
                Ok(helper) => helper.join().unwrap_or_else(|panic| resume_unwind(panic)),
                Err((at, part)) => f(at, part),
            });
        }
        results
    })
}

/// [`parts`] for a loop that collects: each part returns the items it
/// produced, and the parts are appended in offset order (the first part's
/// buffer is the result, so a loop that never forked copies nothing).
pub fn flat_parts<D: Split, T: Send>(data: D, f: impl Fn(usize, D) -> Vec<T> + Sync) -> Vec<T> {
    let mut parts = parts(data, f).into_iter();
    let mut all = parts.next().unwrap_or_default();
    for mut part in parts {
        all.append(&mut part);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{current, ThreadId};

    #[test]
    fn parts_cover_the_input_once_in_offset_order() {
        for len in [0, 1, 2, 7, GRAIN - 1, 2 * GRAIN, 5 * GRAIN + 3] {
            for n in [1, 2, 3, 8] {
                let seen = with_threads(n, || parts(0..len, |at, part| (at, part)));
                assert_eq!(seen.len(), n.min(len).max(1), "len {len}, {n} threads");
                let mut next = 0;
                for (at, part) in seen {
                    assert_eq!((at, part.start), (next, next));
                    next = part.end;
                }
                assert_eq!(next, len);
            }
            // Unforced, the grain decides: one part below two grains.
            let unforced = parts(0..len, |at, part| (at, part.count()));
            assert_eq!(unforced.iter().map(|&(_, n)| n).sum::<usize>(), len);
            assert!(unforced.len() <= (len / GRAIN).max(1));
        }
    }

    #[test]
    fn paired_slices_split_in_lockstep() {
        let mut squares = vec![0usize; 1000];
        let labels: Vec<usize> = (0..1000).collect();
        with_threads(4, || {
            parts((&mut squares[..], &labels[..]), |at, (squares, labels)| {
                for (i, (sq, &label)) in squares.iter_mut().zip(labels).enumerate() {
                    assert_eq!(label, at + i);
                    *sq = label * label;
                }
            });
        });
        assert!(squares.iter().enumerate().all(|(i, &sq)| sq == i * i));
        let odd = with_threads(4, || {
            flat_parts(&labels[..], |_, part| part.iter().filter(|&&l| l % 2 == 1).collect())
        });
        assert!(odd.iter().copied().eq(labels.iter().filter(|&&l| l % 2 == 1)), "order kept");
    }

    #[test]
    fn a_panic_in_any_arm_reaches_the_caller_and_returns_its_permit() {
        for n in [1, 2] {
            with_threads(n, || {
                assert_eq!(join(|| 1, || "b"), (1, "b"));
                let caught = std::panic::catch_unwind(|| join(|| 1, || panic!("arm b")));
                assert_eq!(caught.expect_err("crosses join").downcast_ref(), Some(&"arm b"));
                let caught = std::panic::catch_unwind(|| {
                    parts(0..8, |_, mut part| assert!(part.all(|i| i != 5), "item 5"))
                });
                assert!(caught.is_err());
                let (a, b) = join(|| current().id(), || current().id());
                assert_eq!(a != b, n == 2, "the one permit of two threads is free again");
            });
        }
    }

    /// Counts the helper threads alive at once: a closure that finds itself
    /// on another thread than the one that forked it is a live helper.
    struct Census {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Census {
        fn visit<R>(&self, forker: ThreadId, f: impl FnOnce() -> R) -> R {
            let helper = current().id() != forker;
            if helper {
                let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(live, Ordering::SeqCst);
            }
            let out = f();
            if helper {
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
            out
        }

        /// A loop whose every item forks a tree of joins `depth` deep.
        fn nest(&self, depth: usize) -> usize {
            let me = current().id();
            let leaves = parts(0..16, |_, part| {
                self.visit(me, || part.map(|_| self.tree(depth)).sum::<usize>())
            });
            leaves.into_iter().sum()
        }

        fn tree(&self, depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let me = current().id();
            let (a, b) = join(|| self.tree(depth - 1), || self.visit(me, || self.tree(depth - 1)));
            a + b
        }
    }

    #[test]
    fn nested_forks_never_hold_more_helpers_than_permits() {
        for n in [1, 2, 4, 8] {
            let census = Census { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) };
            assert_eq!(with_threads(n, || census.nest(5)), 16 << 5);
            let peak = census.peak.into_inner();
            assert!(peak < n, "{peak} live helpers under with_threads({n})");
            assert!(n == 1 || peak > 0, "with_threads({n}) forked nothing");
        }
        // Unforced: joins draw on the process's permits, whoever else holds some.
        let census = Census { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) };
        assert_eq!(census.tree(8), 1 << 8);
        assert!(census.peak.into_inner() < available_parallelism().map_or(1, |n| n.get()));
    }

    #[test]
    fn with_threads_nests_restores_and_reaches_the_helpers() {
        let cuts = || parts(0..64, |_, _| ()).len();
        assert_eq!(cuts(), 1, "64 items are below the grain");
        assert_eq!((ways(64), ways(0)), (1, 1));
        with_threads(3, || {
            assert_eq!(cuts(), 3);
            assert_eq!((ways(64), ways(2), ways(0)), (3, 2, 1), "ways is what parts cuts");
            assert_eq!(with_threads(0, cuts), 1);
            assert_eq!(join(cuts, cuts), (3, 3), "helpers inherit the budget");
            assert_eq!(cuts(), 3);
        });
        assert_eq!(cuts(), 1);
    }
}
