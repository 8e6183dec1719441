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
    /// Sorted `(cell key, box)` pairs, retained so [`Self::update`] can
    /// patch and re-sort them instead of regenerating from scratch.
    pairs: Vec<([i64; D], u32)>,
    /// Cell range `[lo, hi]` per box at the last (re)build; empty boxes
    /// hold `EMPTY_RANGE`.
    ranges: Vec<([i64; D], [i64; D])>,
    /// Epoch stamp per box: `stamp[i] == epoch` marks a box whose cells
    /// changed in the current update (see `state`).
    stamp: Vec<u32>,
    /// Valid when stamped: how the box's cell set changed this update.
    state: Vec<BoxChange>,
    /// Valid when stamped `Translated`: key delta to apply.
    delta: Vec<[i64; D]>,
    /// Update epoch (bumped per `update`, stamps cleared on wrap).
    epoch: u32,
}

/// How one box's cell set changed in an [`UniformGrid::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoxChange {
    /// Same cell-range shape, shifted by a constant key delta: existing
    /// pairs are translated in place.
    Translated,
    /// Shape changed (or the box appeared/vanished): stale pairs are
    /// tombstoned and fresh ones appended.
    Refreshed,
}

/// Outcome of an [`UniformGrid::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridUpdate {
    /// The previous step's sorted pairs were patched in place:
    /// `translated` boxes had their keys shifted, `refreshed` boxes were
    /// tombstoned and re-inserted, and the mostly-sorted array was fixed
    /// up by an adaptive insertion sort.
    Incremental {
        /// Boxes whose cell range kept its shape and merely shifted.
        translated: usize,
        /// Boxes whose cell range changed shape (tombstone + re-insert).
        refreshed: usize,
    },
    /// The grid was rebuilt from scratch — the box count changed, some
    /// box moved by more than one cell, or too many boxes changed shape
    /// for patching to beat regeneration.
    FullRebuild,
}

/// Tombstone key for stale pairs: sorts after every real key, so dead
/// pairs cluster at the tail and are truncated after the re-sort.
const fn tombstone<const D: usize>() -> [i64; D] {
    [i64::MAX; D]
}

/// Sentinel range of an empty (skipped) box.
const fn empty_range<const D: usize>() -> ([i64; D], [i64; D]) {
    ([i64::MAX; D], [i64::MIN; D])
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
        let mut g = Self {
            cell: cell_size,
            keys: Vec::new(),
            offsets: Vec::new(),
            entries: Vec::new(),
            boxes: boxes.to_vec(),
            pairs: Vec::new(),
            ranges: Vec::new(),
            stamp: Vec::new(),
            state: Vec::new(),
            delta: Vec::new(),
            epoch: 0,
        };
        g.full_rebuild();
        g
    }

    /// Regenerates pairs, ranges and the CSR table from `self.boxes`.
    fn full_rebuild(&mut self) {
        let (boxes, pairs, ranges) = (&self.boxes, &mut self.pairs, &mut self.ranges);
        pairs.clear();
        ranges.clear();
        for (i, b) in boxes.iter().enumerate() {
            if b.is_empty() {
                ranges.push(empty_range::<D>());
                continue;
            }
            let r = cell_range(self.cell, b);
            ranges.push(r);
            for_each_key(r.0, r.1, |key| pairs.push((key, i as u32)));
        }
        pairs.sort_unstable();
        self.rebuild_csr();
    }

    /// Run-length encodes the sorted `pairs` into the CSR table, reusing
    /// the existing vectors.
    fn rebuild_csr(&mut self) {
        self.keys.clear();
        self.entries.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for &(key, idx) in &self.pairs {
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
                self.offsets.push(self.entries.len() as u32);
            }
            self.entries.push(idx);
            if let Some(end) = self.offsets.last_mut() {
                *end = self.entries.len() as u32;
            }
        }
        debug_assert_eq!(self.offsets.len(), self.keys.len() + 1);
    }

    /// Moves the grid to `boxes` — the same element set one time step
    /// later — patching the previous build instead of regenerating it
    /// when the motion is small (DESIGN.md §6b; ROADMAP carried debt).
    ///
    /// Incremental path: boxes whose cell range kept its shape get their
    /// keys translated in place; boxes whose range changed shape are
    /// tombstoned and re-inserted; the mostly-sorted pair array is fixed
    /// by an adaptive insertion sort (bailing to `sort_unstable` if the
    /// disorder explodes) and the CSR table re-encoded. Falls back to a
    /// full rebuild when the box count changes, when any box moved more
    /// than one cell on any axis, or when more than 1/8 of the boxes
    /// changed shape. The cell size is retained either way; queries are
    /// exact for any cell size, so results never depend on which path
    /// ran.
    pub fn update(&mut self, boxes: &[Aabb<D>]) -> GridUpdate {
        if boxes.len() != self.boxes.len() {
            self.boxes.clear();
            self.boxes.extend_from_slice(boxes);
            self.full_rebuild();
            return GridUpdate::FullRebuild;
        }
        let n = boxes.len();
        if self.epoch == u32::MAX {
            self.stamp.clear();
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamp.resize(n, 0);
        self.state.resize(n, BoxChange::Refreshed);
        self.delta.resize(n, [0; D]);

        // Classify every box against its previous cell range.
        let mut translated = 0usize;
        let mut refreshed = 0usize;
        for (i, b) in boxes.iter().enumerate() {
            let old = self.ranges[i];
            let new = if b.is_empty() { empty_range::<D>() } else { cell_range(self.cell, b) };
            if old == new {
                continue;
            }
            let (old_empty, new_empty) = (old == empty_range::<D>(), new == empty_range::<D>());
            if !old_empty && !new_empty {
                // Displacement gate: more than one cell of motion on any
                // axis and patching loses to regeneration (the insertion
                // sort would degenerate into long-distance shuffles).
                let far = (0..D)
                    .any(|d| (new.0[d] - old.0[d]).abs() > 1 || (new.1[d] - old.1[d]).abs() > 1);
                if far {
                    self.boxes.clear();
                    self.boxes.extend_from_slice(boxes);
                    self.full_rebuild();
                    return GridUpdate::FullRebuild;
                }
            }
            let same_shape = !old_empty
                && !new_empty
                && (0..D).all(|d| new.1[d] - new.0[d] == old.1[d] - old.0[d]);
            self.stamp[i] = epoch;
            if same_shape {
                self.state[i] = BoxChange::Translated;
                let mut dl = [0i64; D];
                for (slot, (n0, o0)) in dl.iter_mut().zip(new.0.iter().zip(old.0.iter())) {
                    *slot = n0 - o0;
                }
                self.delta[i] = dl;
                translated += 1;
            } else {
                self.state[i] = BoxChange::Refreshed;
                refreshed += 1;
            }
            self.ranges[i] = new;
        }
        // Too many shape changes: tombstone + append would churn most of
        // the array anyway.
        if refreshed * 8 > n.max(8) {
            self.boxes.clear();
            self.boxes.extend_from_slice(boxes);
            self.full_rebuild();
            return GridUpdate::FullRebuild;
        }
        self.boxes.clear();
        self.boxes.extend_from_slice(boxes);
        if translated == 0 && refreshed == 0 {
            return GridUpdate::Incremental { translated: 0, refreshed: 0 };
        }

        // Patch pass: translate surviving keys, tombstone stale ones.
        for (key, idx) in self.pairs.iter_mut() {
            let i = *idx as usize;
            if self.stamp[i] != epoch {
                continue;
            }
            match self.state[i] {
                BoxChange::Translated => {
                    for (slot, d) in key.iter_mut().zip(self.delta[i].iter()) {
                        *slot += d;
                    }
                }
                BoxChange::Refreshed => *key = tombstone::<D>(),
            }
        }
        // Fresh pairs for the refreshed boxes.
        {
            let (ranges, stamp, state, pairs) =
                (&self.ranges, &self.stamp, &self.state, &mut self.pairs);
            for i in 0..n {
                if stamp[i] == epoch
                    && state[i] == BoxChange::Refreshed
                    && ranges[i] != empty_range::<D>()
                {
                    for_each_key(ranges[i].0, ranges[i].1, |key| pairs.push((key, i as u32)));
                }
            }
        }
        // Mostly-sorted fix-up; bail to a full sort if the shift budget
        // explodes (heavily sheared motion).
        let budget = self.pairs.len() * 8 + 64;
        if !nearly_sorted_insertion(&mut self.pairs, budget) {
            self.pairs.sort_unstable();
        }
        // Tombstones sorted to the tail; cut them off.
        let live = self.pairs.partition_point(|&(k, _)| k != tombstone::<D>());
        self.pairs.truncate(live);
        self.rebuild_csr();
        GridUpdate::Incremental { translated, refreshed }
    }

    /// The grid's cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell
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
                    if scratch.stamp[i as usize] != epoch {
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

/// The inclusive cell-key range `[lo, hi]` covered by box `b`.
fn cell_range<const D: usize>(cell: f64, b: &Aabb<D>) -> ([i64; D], [i64; D]) {
    let key_of = |coord: f64| (coord / cell).floor() as i64;
    let mut lo = [0i64; D];
    let mut hi = [0i64; D];
    for d in 0..D {
        lo[d] = key_of(b.min[d]);
        hi[d] = key_of(b.max[d]);
    }
    (lo, hi)
}

/// Visits every key in the inclusive range `[lo, hi]` (odometer iteration
/// over the D-dimensional cell range).
fn for_each_key<const D: usize>(lo: [i64; D], hi: [i64; D], mut f: impl FnMut([i64; D])) {
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

/// Visits every grid cell key overlapped by box `b`.
fn for_each_cell<const D: usize>(cell: f64, b: &Aabb<D>, f: impl FnMut([i64; D])) {
    let (lo, hi) = cell_range(cell, b);
    for_each_key(lo, hi, f);
}

/// Insertion sort for nearly-sorted pair arrays: `O(n + inversions)`.
/// Gives up (returning `false`, with the array left as a valid
/// permutation for the caller's `sort_unstable` fallback) once `budget`
/// element shifts are spent — the signature of motion too sheared for
/// incremental patching to pay off.
fn nearly_sorted_insertion<const D: usize>(pairs: &mut [([i64; D], u32)], budget: usize) -> bool {
    let mut shifts = 0usize;
    for i in 1..pairs.len() {
        let x = pairs[i];
        let mut j = i;
        while j > 0 && pairs[j - 1] > x {
            pairs[j] = pairs[j - 1];
            j -= 1;
            shifts += 1;
            if shifts > budget {
                pairs[j] = x;
                return false;
            }
        }
        pairs[j] = x;
    }
    true
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

    /// Queries every box against both grids; they must agree exactly.
    fn assert_same_answers<const D: usize>(
        a: &UniformGrid<D>,
        b: &UniformGrid<D>,
        boxes: &[Aabb<D>],
    ) {
        let (mut sa, mut sb) = (a.scratch(), b.scratch());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for q in boxes {
            let q = q.inflate(0.3);
            a.query(&q, &mut sa, &mut oa);
            b.query(&q, &mut sb, &mut ob);
            oa.sort_unstable();
            ob.sort_unstable();
            assert_eq!(oa, ob);
        }
    }

    fn shifted(boxes: &[Aabb<2>], dx: f64, dy: f64) -> Vec<Aabb<2>> {
        boxes
            .iter()
            .map(|b| {
                Aabb::new(
                    Point::new([b.min[0] + dx, b.min[1] + dy]),
                    Point::new([b.max[0] + dx, b.max[1] + dy]),
                )
            })
            .collect()
    }

    #[test]
    fn incremental_translation_matches_fresh_build() {
        let boxes: Vec<Aabb<2>> =
            (0..40).map(|i| unit_box((i % 8) as f64 * 1.5, (i / 8) as f64 * 1.5)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        // Sub-cell drift per step; each step stays within one cell.
        let mut cur = boxes;
        for step in 1..=5 {
            cur = shifted(&cur, 0.4, 0.3);
            let outcome = g.update(&cur);
            assert!(
                matches!(outcome, GridUpdate::Incremental { .. }),
                "step {step}: drift under a cell must stay incremental, got {outcome:?}"
            );
            let fresh = UniformGrid::build(&cur, 1.0);
            assert_same_answers(&g, &fresh, &cur);
        }
    }

    #[test]
    fn unchanged_boxes_are_a_noop_update() {
        let boxes: Vec<Aabb<2>> = (0..10).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        assert_eq!(g.update(&boxes), GridUpdate::Incremental { translated: 0, refreshed: 0 });
        assert_same_answers(&g, &UniformGrid::build(&boxes, 1.0), &boxes);
    }

    #[test]
    fn shape_change_is_refreshed_not_translated() {
        let mut boxes: Vec<Aabb<2>> =
            (0..32).map(|i| unit_box((i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        // Stretch one box so it spans one more cell column.
        boxes[5] = Aabb::new(boxes[5].min, Point::new([boxes[5].max[0] + 1.0, boxes[5].max[1]]));
        match g.update(&boxes) {
            GridUpdate::Incremental { refreshed, .. } => assert_eq!(refreshed, 1),
            other => panic!("one shape change among 32 boxes must patch, got {other:?}"),
        }
        assert_same_answers(&g, &UniformGrid::build(&boxes, 1.0), &boxes);
    }

    #[test]
    fn far_displacement_falls_back_to_full_rebuild() {
        let boxes: Vec<Aabb<2>> = (0..16).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        let moved = shifted(&boxes, 7.0, 0.0);
        assert_eq!(g.update(&moved), GridUpdate::FullRebuild);
        assert_same_answers(&g, &UniformGrid::build(&moved, 1.0), &moved);
    }

    #[test]
    fn box_count_change_falls_back_to_full_rebuild() {
        let boxes: Vec<Aabb<2>> = (0..8).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        let mut more = boxes.clone();
        more.push(unit_box(100.0, 100.0));
        assert_eq!(g.update(&more), GridUpdate::FullRebuild);
        assert_eq!(g.len(), 9);
        assert_same_answers(&g, &UniformGrid::build(&more, 1.0), &more);
    }

    #[test]
    fn boxes_may_appear_and_vanish_between_updates() {
        let mut boxes: Vec<Aabb<2>> = (0..16).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        let mut g = UniformGrid::build(&boxes, 1.0);
        boxes[3] = Aabb::empty();
        let out = g.update(&boxes);
        assert!(matches!(out, GridUpdate::Incremental { .. }), "got {out:?}");
        assert_same_answers(&g, &UniformGrid::build(&boxes, 1.0), &boxes);
        boxes[3] = unit_box(6.0, 0.0);
        let out = g.update(&boxes);
        assert!(matches!(out, GridUpdate::Incremental { .. }), "got {out:?}");
        assert_same_answers(&g, &UniformGrid::build(&boxes, 1.0), &boxes);
    }

    #[test]
    fn random_walk_updates_stay_exact_against_bruteforce() {
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f64 / 1000.0) - 0.5
        };
        let mut boxes: Vec<Aabb<2>> =
            (0..60).map(|i| unit_box((i % 10) as f64 * 1.3, (i / 10) as f64 * 1.3)).collect();
        let mut g = UniformGrid::build(&boxes, 1.2);
        for _ in 0..8 {
            boxes = boxes
                .iter()
                .map(|b| {
                    let (dx, dy) = (next() * 0.8, next() * 0.8);
                    Aabb::new(
                        Point::new([b.min[0] + dx, b.min[1] + dy]),
                        Point::new([b.max[0] + dx, b.max[1] + dy]),
                    )
                })
                .collect();
            g.update(&boxes);
            let mut scratch = g.scratch();
            let mut out = Vec::new();
            for q in boxes.iter().step_by(5) {
                let q = q.inflate(0.2);
                g.query(&q, &mut scratch, &mut out);
                out.sort_unstable();
                let brute: Vec<u32> = boxes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.intersects(&q))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(out, brute);
            }
        }
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
