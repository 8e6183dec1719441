//! Offline stand-in for the slice of `rayon` the workspace uses. Every
//! "parallel" iterator is the matching `std` iterator, so all work runs on
//! the calling thread, in order. The workspace's algorithms are written to
//! give the same result at any pool size, so counts do not depend on this;
//! timings are single-threaded timings and are reported as such
//! ([`current_num_threads`] is 1).

/// Runs both closures on the calling thread, `a` first.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    let ra = a();
    (ra, b())
}

/// The pool size: always 1.
pub fn current_num_threads() -> usize {
    1
}

/// The traits call sites import with `use rayon::prelude::*`.
pub mod prelude {
    /// `into_par_iter()` for anything iterable (ranges, vectors).
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// The sequential iterator.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` on slices (and, through deref, vectors).
    pub trait ParallelSlice<T> {
        /// The sequential shared iterator.
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
    }

    /// `par_iter_mut()` / `par_chunks_mut()` on slices.
    pub trait ParallelSliceMut<T> {
        /// The sequential mutable iterator.
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        /// Sequential mutable chunks of `size` elements.
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }

        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }

    /// The adaptors `rayon` has and `std::iter::Iterator` lacks.
    pub trait ParallelIterator: Iterator + Sized {
        /// A splitting hint; nothing splits here.
        fn with_min_len(self, _min: usize) -> Self {
            self
        }

        /// `map` with per-worker scratch state: one state, one worker.
        fn map_init<S, R>(
            self,
            init: impl FnOnce() -> S,
            mut f: impl FnMut(&mut S, Self::Item) -> R,
        ) -> impl Iterator<Item = R> {
            let mut state = init();
            self.map(move |item| f(&mut state, item))
        }

        /// `for_each` with per-worker scratch state.
        fn for_each_init<S>(self, init: impl FnOnce() -> S, mut f: impl FnMut(&mut S, Self::Item)) {
            let mut state = init();
            self.for_each(|item| f(&mut state, item));
        }
    }

    impl<I: Iterator> ParallelIterator for I {}
}
