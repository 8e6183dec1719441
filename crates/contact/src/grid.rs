//! Uniform-grid broad phase.
//!
//! A spatial hash over axis-aligned boxes: each box is registered in every
//! cell it overlaps; box-vs-set queries gather the candidates from the
//! query's cells. This is the serial "volume partitioning / spatial
//! indexing" acceleration the paper mentions for on-processor global
//! search, and the test suite's ground-truth oracle for filter
//! completeness.
//!
//! The cell table is a flat CSR built in one pass — sorted cell keys, an
//! offset array, and one contiguous entry array — instead of a
//! `HashMap<[i64; D], Vec<u32>>` (one heap allocation per occupied cell
//! and pointer-chasing per probe). Queries deduplicate the candidates with
//! a visited stamp in a caller-held [`GridScratch`] rather than
//! sort+dedup, so a query is `O(cells touched + candidates)` with no
//! allocation in steady state.

use cip_geom::Aabb;

/// A uniform spatial-hash grid over `D`-dimensional boxes.
#[derive(Debug, Clone)]
pub struct UniformGrid<const D: usize> {
    cell: f64,
    /// Sorted keys of the occupied cells (lexicographic `[i64; D]` order).
    keys: Vec<[i64; D]>,
    /// CSR offsets into `entries`, one slot per key plus the end sentinel.
    offsets: Vec<u32>,
    /// Box indices per occupied cell, concatenated in key order.
    entries: Vec<u32>,
    boxes: Vec<Aabb<D>>,
}

/// Reusable per-thread query scratch: a visited stamp per box plus the
/// current epoch. Obtain with [`UniformGrid::scratch`]; queries only read
/// the grid, so each worker thread holds its own scratch.
#[derive(Debug, Clone)]
pub struct GridScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl GridScratch {
    /// Starts a new dedup epoch, refilling only on epoch wrap-around.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl<const D: usize> UniformGrid<D> {
    /// Builds a grid over `boxes` with the given cell size.
    ///
    /// # Panics
    /// Panics if `cell_size` is not finite and positive.
    pub fn build(boxes: &[Aabb<D>], cell_size: f64) -> Self {
        assert!(cell_size.is_finite() && cell_size > 0.0, "cell size must be positive");
        // Sorted `(cell key, box)` pairs, run-length encoded into the CSR
        // table.
        let mut pairs: Vec<([i64; D], u32)> = Vec::new();
        for (i, b) in boxes.iter().enumerate() {
            if !b.is_empty() {
                for_each_cell(cell_size, b, |key| pairs.push((key, i as u32)));
            }
        }
        pairs.sort_unstable();
        let mut keys: Vec<[i64; D]> = Vec::new();
        let mut offsets = vec![0u32];
        let mut entries = Vec::with_capacity(pairs.len());
        for (key, idx) in pairs {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(entries.len() as u32);
            }
            entries.push(idx);
            if let Some(end) = offsets.last_mut() {
                *end = entries.len() as u32;
            }
        }
        debug_assert_eq!(offsets.len(), keys.len() + 1);
        Self { cell: cell_size, keys, offsets, entries, boxes: boxes.to_vec() }
    }

    /// Builds a grid with a cell size derived from the average *positive*
    /// box extent (a reasonable default for roughly uniform surface
    /// elements). Degenerate inputs — point boxes, or boxes flat in every
    /// dimension — fall back to a cell size derived from the overall
    /// domain extent, so they can no longer produce a near-zero cell size
    /// (and with it an astronomic cell count per query).
    pub fn build_auto(boxes: &[Aabb<D>]) -> Self {
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut domain = Aabb::empty();
        for b in boxes {
            if b.is_empty() {
                continue;
            }
            domain = domain.union(b);
            for d in 0..D {
                let e = b.extent(d);
                if e > 0.0 {
                    sum += e;
                    count += 1;
                }
            }
        }
        let cell = if count > 0 {
            2.0 * (sum / count as f64)
        } else if !domain.is_empty() {
            // Point-like boxes only: aim for ~one box per cell by volume.
            let ext = (0..D).map(|d| domain.extent(d)).fold(0.0f64, f64::max);
            let per_axis = (boxes.len() as f64).powf(1.0 / D as f64).max(1.0);
            if ext > 0.0 {
                ext / per_axis
            } else {
                1.0 // all boxes coincide in a single point
            }
        } else {
            1.0 // no non-empty boxes at all
        };
        Self::build(boxes, cell.max(1e-12))
    }

    /// A query scratch sized for this grid.
    pub fn scratch(&self) -> GridScratch {
        GridScratch { stamp: vec![0; self.boxes.len()], epoch: 0 }
    }

    /// Collects the indices of boxes whose cells overlap the query's cells
    /// and which actually intersect the (inflated) query box.
    ///
    /// The output order is the grid's visit order, not sorted; callers
    /// needing a canonical order sort afterwards. `scratch` must come from
    /// [`Self::scratch`] on this grid (or a grid with at least as many
    /// boxes).
    pub fn query(&self, query: &Aabb<D>, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        self.query_where(query, scratch, out, |_| true);
    }

    /// [`Self::query`] over the boxes `keep` accepts only. `keep` runs
    /// ahead of the dedup stamp and the box test, so a cheap predicate on
    /// the index (other body, higher index) spares a rejected box both.
    pub fn query_where(
        &self,
        query: &Aabb<D>,
        scratch: &mut GridScratch,
        out: &mut Vec<u32>,
        keep: impl Fn(u32) -> bool,
    ) {
        out.clear();
        if query.is_empty() || self.keys.is_empty() {
            return;
        }
        debug_assert!(scratch.stamp.len() >= self.boxes.len(), "scratch from a smaller grid");
        let epoch = scratch.next_epoch();
        for_each_cell(self.cell, query, |key| {
            if let Ok(c) = self.keys.binary_search(&key) {
                let (lo, hi) = (self.offsets[c] as usize, self.offsets[c + 1] as usize);
                for &i in &self.entries[lo..hi] {
                    if keep(i) && scratch.stamp[i as usize] != epoch {
                        scratch.stamp[i as usize] = epoch;
                        if self.boxes[i as usize].intersects(query) {
                            out.push(i);
                        }
                    }
                }
            }
        });
    }

    /// Number of boxes registered.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the grid holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }
}

/// Visits every grid cell key overlapped by box `b` (odometer iteration
/// over its inclusive D-dimensional cell range).
fn for_each_cell<const D: usize>(cell: f64, b: &Aabb<D>, mut f: impl FnMut([i64; D])) {
    let key_of = |coord: f64| (coord / cell).floor() as i64;
    let mut lo = [0i64; D];
    let mut hi = [0i64; D];
    for d in 0..D {
        lo[d] = key_of(b.min[d]);
        hi[d] = key_of(b.max[d]);
    }
    let mut key = lo;
    loop {
        f(key);
        let mut d = 0;
        loop {
            if d == D {
                return;
            }
            key[d] += 1;
            if key[d] <= hi[d] {
                break;
            }
            key[d] = lo[d];
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_geom::Point;

    fn unit_box(x: f64, y: f64) -> Aabb<2> {
        Aabb::new(Point::new([x, y]), Point::new([x + 1.0, y + 1.0]))
    }

    fn query_sorted<const D: usize>(g: &UniformGrid<D>, q: &Aabb<D>, out: &mut Vec<u32>) {
        let mut scratch = g.scratch();
        g.query(q, &mut scratch, out);
        out.sort_unstable();
    }

    #[test]
    fn finds_intersecting_boxes_only() {
        let boxes = vec![unit_box(0.0, 0.0), unit_box(5.0, 5.0), unit_box(0.5, 0.5)];
        let g = UniformGrid::build(&boxes, 1.0);
        let mut out = Vec::new();
        query_sorted(&g, &unit_box(0.2, 0.2), &mut out);
        assert_eq!(out, vec![0, 2]);
        query_sorted(&g, &unit_box(100.0, 100.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_bruteforce_on_random_layout() {
        // Deterministic pseudo-random boxes.
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        let boxes: Vec<Aabb<2>> = (0..200)
            .map(|_| {
                let x = next();
                let y = next();
                Aabb::new(Point::new([x, y]), Point::new([x + 1.0 + next() * 0.05, y + 1.0]))
            })
            .collect();
        let g = UniformGrid::build_auto(&boxes);
        let mut scratch = g.scratch();
        let mut out = Vec::new();
        for q in boxes.iter().step_by(7) {
            g.query(q, &mut scratch, &mut out);
            out.sort_unstable();
            let brute: Vec<u32> = boxes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.intersects(q))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(out, brute);
        }
    }

    #[test]
    fn query_yields_no_duplicates_without_sorting() {
        // A big box spanning many cells, queried by a box that also spans
        // many cells: the stamp dedup must suppress the repeats.
        let boxes =
            vec![Aabb::new(Point::new([0.0, 0.0]), Point::new([10.0, 10.0])), unit_box(2.0, 2.0)];
        let g = UniformGrid::build(&boxes, 1.0);
        let mut scratch = g.scratch();
        let mut out = Vec::new();
        g.query(&Aabb::new(Point::new([1.0, 1.0]), Point::new([9.0, 9.0])), &mut scratch, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(out.len(), sorted.len(), "duplicates in {out:?}");
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn scratch_reuse_across_queries_matches_fresh_scratch() {
        let boxes: Vec<Aabb<2>> =
            (0..50).map(|i| unit_box((i % 10) as f64, (i / 10) as f64)).collect();
        let g = UniformGrid::build_auto(&boxes);
        let mut reused = g.scratch();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for q in boxes.iter().step_by(3) {
            g.query(q, &mut reused, &mut a);
            g.query(q, &mut g.scratch(), &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_grid_and_empty_query() {
        let g = UniformGrid::<2>::build(&[], 1.0);
        assert!(g.is_empty());
        let mut out = vec![1, 2, 3];
        g.query(&Aabb::empty(), &mut g.scratch(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn build_auto_handles_degenerate_point_boxes() {
        // All-degenerate boxes used to drive the mean extent to ~0 and the
        // cell size with it; a query then had to walk billions of cells.
        // Now the cell size comes from the domain extent.
        let boxes: Vec<Aabb<2>> = (0..64)
            .map(|i| Aabb::from_point(Point::new([(i % 8) as f64 * 100.0, (i / 8) as f64 * 100.0])))
            .collect();
        let g = UniformGrid::build_auto(&boxes);
        let mut out = Vec::new();
        let q = Aabb::new(Point::new([-1.0, -1.0]), Point::new([101.0, 101.0]));
        query_sorted(&g, &q, &mut out);
        let brute: Vec<u32> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&q))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(out, brute);

        // All boxes on one single point is fine too.
        let same: Vec<Aabb<2>> = (0..4).map(|_| Aabb::from_point(Point::new([3.0, 3.0]))).collect();
        let g2 = UniformGrid::build_auto(&same);
        query_sorted(&g2, &Aabb::from_point(Point::new([3.0, 3.0])).inflate(0.1), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn three_dimensional_grid() {
        let boxes: Vec<Aabb<3>> = (0..10)
            .map(|i| {
                let x = i as f64 * 2.0;
                Aabb::new(Point::new([x, 0.0, 0.0]), Point::new([x + 1.0, 1.0, 1.0]))
            })
            .collect();
        let g = UniformGrid::build(&boxes, 1.5);
        let mut out = Vec::new();
        query_sorted(
            &g,
            &Aabb::new(Point::new([3.5, 0.0, 0.0]), Point::new([6.5, 1.0, 1.0])),
            &mut out,
        );
        assert_eq!(out, vec![2, 3]);
    }
}
