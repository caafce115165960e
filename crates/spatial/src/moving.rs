//! A keyed, incrementally-updatable grid index for moving objects.
//!
//! [`MovingIndex`] is a uniform grid of cells whose entries are addressed by
//! a caller-chosen key and can be inserted, moved and removed in O(cells per
//! entry) — the operation the location service performs on every ingested
//! position update. A static entry set (the link segments of a map) is the
//! special case that is inserted once and never moved.
//!
//! ## Storage layout
//!
//! The index is built for the million-object regime, where the former
//! `HashMap<(i64, i64), Vec<K>>` layout (one heap-allocated `Vec` per occupied
//! cell, SipHash per cell probe, and a `sort_unstable + dedup` pass per query)
//! dominated the query profile. Instead:
//!
//! * entries live in a dense arena (`entries[dense_id]`), addressed by a
//!   small integer id; the key → id map is hashed only on mutation;
//! * cell membership lives in one flat slab of dense-id slots,
//!   carved into power-of-two-capacity segments — one contiguous segment per
//!   occupied cell, found through an open-addressed `CellTable`;
//! * every entry records the rectangle of cells its box overlaps and a
//!   *position run* — one `u32` per cell of that rectangle, in walk order,
//!   holding the entry's position *within* the cell's segment — carved from
//!   a second size-class slab of its own. Removal is a swap-remove plus one
//!   run patch for the entry moved into the hole, at the rank its rectangle
//!   gives the cell: O(cells per entry), independent of how crowded the
//!   cells are, and no heap block per entry;
//! * queries walk contiguous segments and deduplicate with a
//!   generation-stamped [`SeenScratch`] in O(candidates), instead of sorting
//!   the candidate list on every query; the walk gathers each segment's
//!   first visits without a branch per slot.
//!
//! All mutation paths reuse freed segments, dense ids and position runs,
//! so the steady state (objects moving within a warm cell population) touches
//! the allocator zero times — the property the `hotpath` benchmark gate pins.
//!
//! A whole entry set known up front (a map's link segments, a shard's
//! recovered objects) is built by [`MovingIndex::bulk`] instead: it leaves
//! the index inserting the entries one by one would, but sorts all cell
//! registrations by cell in one stable counting sort and sizes every
//! structure once, where inserts probe, grow and copy as they go.
//!
//! Two queries serve every caller: [`MovingIndex::query_keys_into`] (sorted,
//! deduplicated keys of the cells a box overlaps) and
//! [`MovingIndex::for_each_in_rect_unordered`] (entries whose box intersects
//! the query, in walk order). Both run on caller-owned scratch buffers.

use crate::cells::CellTable;
use crate::{Entry, SeenScratch};
use mbdr_geo::{Aabb, Point};
use std::collections::HashMap;
use std::hash::Hash;

/// Capacity of the smallest segment size class (class `c` holds
/// `MIN_SEG_CAP << c` slots).
const MIN_SEG_CAP: u32 = 4;

/// Number of segment size classes: `4 << 27` slots (half a billion) in the
/// largest — far beyond any single cell this index will see.
const NUM_CLASSES: usize = 28;

/// A cell's slice of the slab: `cap = MIN_SEG_CAP << class` slots starting at
/// `start`, the first `len` of them live.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    class: u8,
}

#[inline]
fn seg_cap(class: u8) -> u32 {
    MIN_SEG_CAP << class
}

/// The size class of the smallest segment holding `slots` slots.
#[inline]
fn class_for(slots: u32) -> u8 {
    (slots.max(MIN_SEG_CAP) - 1).ilog2() as u8 + 1 - MIN_SEG_CAP.ilog2() as u8
}

/// The cells an entry's box overlaps — `cols × rows` cells from `(x0, y0)`
/// — and the start of its position run in `MovingIndex::runs`. Run slot
/// `rank(cell)` holds the entry's position *relative to* that cell's segment
/// start, which stays valid across table rehashes (cells are found by
/// coordinate) and segment grows (relative, not absolute).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    x0: i64,
    y0: i64,
    cols: u32,
    rows: u32,
    start: u32,
}

impl Span {
    /// The cell rectangle of `bbox`, with no run yet. A box whose corners
    /// are out of order overlaps no cell.
    fn of(bbox: &Aabb, cell_size: f64) -> Span {
        let (x0, y0) = cell_of(&bbox.min, cell_size);
        let (x1, y1) = cell_of(&bbox.max, cell_size);
        let axis = |lo: i64, hi: i64| {
            if hi < lo {
                return 0;
            }
            let cells = u32::try_from(hi.abs_diff(lo)).ok().and_then(|d| d.checked_add(1));
            cells.expect("a box spans fewer than 2^32 cells per axis")
        };
        Span { x0, y0, cols: axis(x0, x1), rows: axis(y0, y1), start: 0 }
    }

    /// The cells of the rectangle in run order — column by column, the
    /// order [`cell_range`] walks them.
    fn cells(&self) -> impl Iterator<Item = (i64, i64)> {
        let (x0, y0, rows) = (self.x0, self.y0, self.rows);
        (0..self.cols)
            .flat_map(move |dx| (0..rows).map(move |dy| (x0 + i64::from(dx), y0 + i64::from(dy))))
    }

    /// The size class of this span's run.
    fn class(&self) -> u8 {
        class_for(self.cols.checked_mul(self.rows).expect("a box spans fewer than 2^32 cells"))
    }

    /// The index in the run of `cell`, which must lie in the rectangle:
    /// [`cell_range`] order, column by column.
    #[inline]
    fn rank(&self, cell: (i64, i64)) -> u32 {
        (cell.0 - self.x0) as u32 * self.rows + (cell.1 - self.y0) as u32
    }

    /// The cell at index `rank` of the run — the inverse of [`Span::rank`].
    fn cell(&self, rank: u32) -> (i64, i64) {
        (self.x0 + i64::from(rank / self.rows), self.y0 + i64::from(rank % self.rows))
    }
}

/// The rectangle of cells a bulk build's entries cover, from its lowest
/// corner `lo`, `rows` cells high: a cell's key is its column-major position
/// in it. A key needs 128 bits: the rectangle may span 2^64 cells per axis.
struct CellGrid {
    lo: (i64, i64),
    rows: u128,
}

impl CellGrid {
    fn key(&self, cell: (i64, i64)) -> u128 {
        u128::from(cell.0.abs_diff(self.lo.0)) * self.rows + u128::from(cell.1.abs_diff(self.lo.1))
    }

    /// Calls `f(cell key, dense id, run slot)` for every registration of
    /// the entries of `spans`: entries in dense order, each one's cells in
    /// run order.
    fn for_each_registration(&self, spans: &[Span], mut f: impl FnMut(u128, u32, usize)) {
        for (dense, span) in (0u32..).zip(spans) {
            let mut slot = span.start as usize;
            for dx in 0..span.cols {
                let column = self.key((span.x0 + i64::from(dx), span.y0));
                for dy in 0..span.rows {
                    f(column + u128::from(dy), dense, slot);
                    slot += 1;
                }
            }
        }
    }
}

/// One cell registration of a sparse bulk build: the cell key (split in two
/// halves to keep the record at 24 bytes), the entry, and the slot of its
/// run that records where in the cell's segment the entry lands.
#[derive(Debug, Clone, Copy)]
struct Registration {
    key_lo: u64,
    key_hi: u64,
    dense: u32,
    slot: u32,
}

impl Registration {
    fn key(&self) -> u128 {
        u128::from(self.key_hi) << 64 | u128::from(self.key_lo)
    }

    fn same_cell(&self, other: &Registration) -> bool {
        (self.key_lo, self.key_hi) == (other.key_lo, other.key_hi)
    }
}

/// The widest digit of [`sort_by_cell`]: 2 048 buckets, whose write streams
/// stay in cache as a pass scatters the records.
const MAX_DIGIT_BITS: u32 = 11;

/// Groups `regs` by cell, keeping their order within a cell: a least
/// significant digit radix sort over the key bits in which the
/// registrations differ, each pass a stable counting sort into a second
/// buffer. The digits are no wider than the
/// registration count's bit length (nor than [`MAX_DIGIT_BITS`]), so a pass
/// costs O(registrations) however sparse the cells are.
#[expect(
    clippy::indexing_slicing,
    reason = "digits are masked below the bucket count; the buckets partition `0..regs.len()`"
)]
fn sort_by_cell(regs: &mut Vec<Registration>) {
    let Some(&first) = regs.first() else {
        return;
    };
    // A digit in which every key equals the first key's is already sorted.
    let differ = regs.iter().fold(0u128, |acc, r| acc | (r.key() ^ first.key()));
    let bits = u128::BITS - differ.leading_zeros();
    if bits == 0 {
        return;
    }
    let widest = (usize::BITS - regs.len().leading_zeros()).clamp(4, MAX_DIGIT_BITS);
    let width = bits.div_ceil(bits.div_ceil(widest));
    let mask = (1u128 << width) - 1;
    let mut offsets = vec![0u32; 1 << width];
    // Every pass overwrites all of `spare`, so stale contents may stay.
    let mut spare = vec![first; regs.len()];
    for shift in (0..bits).step_by(width as usize) {
        if (differ >> shift) & mask == 0 {
            continue;
        }
        let digit = |r: &Registration| ((r.key() >> shift) & mask) as usize;
        offsets.fill(0);
        for r in regs.iter() {
            offsets[digit(r)] += 1;
        }
        let mut start = 0;
        for offset in &mut offsets {
            let count = *offset;
            *offset = start;
            start += count;
        }
        for r in regs.iter() {
            let at = &mut offsets[digit(r)];
            spare[*at as usize] = *r;
            *at += 1;
        }
        std::mem::swap(regs, &mut spare);
    }
}

/// A flat `u32` slab carved into power-of-two-capacity segments, with one
/// free list per size class so emptied and outgrown segments are recycled
/// instead of leaking or reallocating. The index keeps two: one for the
/// cell segments (one dense id per slot, what the seen mask and the entry
/// arena are indexed by) and one for the entries' position runs.
#[derive(Debug, Clone)]
struct Slab {
    data: Vec<u32>,
    free: [Vec<u32>; NUM_CLASSES],
}

impl Slab {
    fn new() -> Self {
        Slab { data: Vec::new(), free: std::array::from_fn(|_| Vec::new()) }
    }

    /// A segment of the given class: a recycled one if available, else fresh
    /// slab tail (filled with `filler` — callers overwrite the live prefix).
    fn alloc(&mut self, class: u8, filler: u32) -> u32 {
        if let Some(start) = self.free[class as usize].pop() {
            return start;
        }
        let start = self.data.len() as u32;
        self.data.resize(self.data.len() + seg_cap(class) as usize, filler);
        start
    }

    fn release(&mut self, start: u32, class: u8) {
        self.free[class as usize].push(start);
    }
}

/// A uniform-grid spatial index whose entries are addressed by key and may be
/// moved or removed after insertion, stored cache-consciously (dense entry
/// arena, flat per-cell segments, open-addressed cell table — see the module
/// docs).
///
/// Keys must be `Ord` so query results can be returned in a deterministic
/// order regardless of hash order.
#[derive(Debug, Clone)]
pub struct MovingIndex<K> {
    cell_size: f64,
    /// Key → dense id. Hashed on mutation and point lookup only; queries
    /// never touch it.
    items: HashMap<K, u32>,
    /// Dense id → entry. Freed ids keep their stale slot (unreachable: no
    /// cell references it) and are recycled through `free_ids`.
    entries: Vec<Entry<K>>,
    /// Dense id → the cells the entry is registered in and its run in
    /// `runs` (stale for freed ids, like their entries).
    spans: Vec<Span>,
    free_ids: Vec<u32>,
    /// Cell coordinate → its segment of `slab`.
    table: CellTable<Segment>,
    slab: Slab,
    /// The entries' position runs, apart from the cell segments so a query's
    /// walk over `slab` stays dense.
    runs: Slab,
    /// Union of every bbox ever inserted (never shrinks on removal); clamps
    /// oversized query boxes and bounds the service's nearest-ring search.
    bounds: Option<Aabb>,
}

impl<K: Copy + Eq + Hash + Ord> MovingIndex<K> {
    /// Creates an empty index with the given cell size in metres.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "grid cell size must be positive");
        MovingIndex {
            cell_size,
            items: HashMap::new(),
            entries: Vec::new(),
            spans: Vec::new(),
            free_ids: Vec::new(),
            table: CellTable::new(),
            slab: Slab::new(),
            runs: Slab::new(),
            bounds: None,
        }
    }

    /// Builds the index that inserting `items` one by one into an empty
    /// [`MovingIndex::new`] leaves: dense ids in the given order, every cell
    /// segment holding its entries in that order at the size class the
    /// inserts grow it to, the same position runs — so the same query
    /// walks, answers and statistics.
    ///
    /// Each entry's cells are computed once and every `(cell, entry, run
    /// slot)` registration is visited in entry order; a stable counting sort
    /// by cell places them, and the cell table, the segment slab and the
    /// run slab are each sized once. No cell is probed before it is inserted
    /// and no segment is copied to a larger class, which is what per-entry
    /// inserts spend their time on. The counting sort runs over the cell
    /// rectangle the entries cover when it holds no more cells than there
    /// are registrations; a sparser set (corridors, far-apart clumps) is
    /// radix-sorted as registration records instead, in time and memory
    /// proportional to the registrations, not to the rectangle.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive, if a key repeats, or
    /// if a box spans 2^32 cells or more per axis.
    pub fn bulk(cell_size: f64, items: impl IntoIterator<Item = (K, Aabb)>) -> Self {
        let mut idx = MovingIndex::new(cell_size);
        let items = items.into_iter();
        let expected = items.size_hint().0;
        idx.items.reserve(expected);
        idx.entries.reserve(expected);
        idx.spans.reserve(expected);
        // Spans and run slots in dense order; the cell rectangle they cover.
        let (mut run_slots, mut registrations) = (0u32, 0usize);
        let (mut lo, mut hi) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
        for (key, bbox) in items {
            let dense = idx.entries.len() as u32;
            assert!(idx.items.insert(key, dense).is_none(), "a bulk build takes each key once");
            idx.entries.push(Entry::new(bbox, key));
            let mut span = Span::of(&bbox, cell_size);
            span.start = run_slots;
            run_slots += seg_cap(span.class());
            if span.cols > 0 && span.rows > 0 {
                registrations += span.cols as usize * span.rows as usize;
                let last = span.cell(span.cols * span.rows - 1);
                lo = (lo.0.min(span.x0), lo.1.min(span.y0));
                hi = (hi.0.max(last.0), hi.1.max(last.1));
            }
            idx.spans.push(span);
            idx.grow_bounds(&bbox);
        }
        idx.runs.data = vec![0; run_slots as usize];
        if registrations > 0 {
            let grid = CellGrid { lo, rows: u128::from(hi.1.abs_diff(lo.1)) + 1 };
            let cells = (u128::from(hi.0.abs_diff(lo.0)) + 1).checked_mul(grid.rows);
            match cells.filter(|&cells| cells <= registrations as u128) {
                Some(cells) => idx.fill_counted(&grid, cells as usize),
                None => idx.fill_sorted(&grid, registrations),
            }
        }
        idx
    }

    /// Lays out every cell segment of a bulk build whose rectangle holds
    /// `cells` cells, no more than there are registrations: one count per
    /// cell, then one segment per occupied cell, then the registrations
    /// written in entry order — each cell's segment fills in that order.
    #[expect(
        clippy::indexing_slicing,
        reason = "cell keys lie below `cells`; segment slots below each segment's length"
    )]
    fn fill_counted(&mut self, grid: &CellGrid, cells: usize) {
        // Per cell: where its segment starts in the slab, and how many of
        // its slots are (to be) filled.
        let mut segments = vec![(0u32, 0u32); cells];
        grid.for_each_registration(&self.spans, |key, _, _| segments[key as usize].1 += 1);
        let occupied = segments.iter().filter(|&&(_, len)| len > 0).count();
        self.table = CellTable::with_capacity(occupied);
        let mut slab_len = 0;
        // Keys run column by column, `grid.rows` cells each; every cell of
        // the rectangle exists, so no offset overflows.
        let columns = segments.chunks_mut(grid.rows as usize);
        for (dx, column) in (0..).zip(columns) {
            for (dy, segment) in (0..).zip(column) {
                let len = segment.1;
                if len > 0 {
                    let class = class_for(len);
                    let cell = (grid.lo.0 + dx, grid.lo.1 + dy);
                    self.table.insert(cell, Segment { start: slab_len, len, class });
                    *segment = (slab_len, 0);
                    slab_len += seg_cap(class);
                }
            }
        }
        self.slab.data = vec![0; slab_len as usize];
        let (slab, runs) = (&mut self.slab.data, &mut self.runs.data);
        grid.for_each_registration(&self.spans, |key, dense, slot| {
            let (start, filled) = &mut segments[key as usize];
            slab[(*start + *filled) as usize] = dense;
            runs[slot] = *filled;
            *filled += 1;
        });
    }

    /// Lays out every cell segment of a bulk build from its registration
    /// records ordered by cell (see `sort_by_cell`): each run of equal keys
    /// is one cell's segment, in entry order.
    #[expect(
        clippy::indexing_slicing,
        reason = "records hold run slots of this build; groups are non-empty"
    )]
    fn fill_sorted(&mut self, grid: &CellGrid, registrations: usize) {
        let mut regs = Vec::with_capacity(registrations);
        grid.for_each_registration(&self.spans, |key, dense, slot| {
            let (key_lo, key_hi) = (key as u64, (key >> 64) as u64);
            regs.push(Registration { key_lo, key_hi, dense, slot: slot as u32 });
        });
        sort_by_cell(&mut regs);
        let groups = || regs.chunk_by(Registration::same_cell);
        let slab_len: usize = groups().map(|g| seg_cap(class_for(g.len() as u32)) as usize).sum();
        self.slab.data.reserve_exact(slab_len);
        self.table = CellTable::with_capacity(groups().count());
        for group in groups() {
            let start = self.slab.data.len() as u32;
            let len = group.len() as u32;
            let segment = Segment { start, len, class: class_for(len) };
            for (pos, r) in (0u32..).zip(group) {
                self.slab.data.push(r.dense);
                self.runs.data[r.slot as usize] = pos;
            }
            self.slab.data.resize((start + seg_cap(segment.class)) as usize, 0);
            let span = &self.spans[group[0].dense as usize];
            self.table.insert(span.cell(group[0].slot - span.start), segment);
        }
    }

    /// Number of entries in the index.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if `key` currently has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.items.contains_key(key)
    }

    /// The bounding box currently stored for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&Aabb> {
        self.items.get(key).map(|&dense| &self.entries[dense as usize].bbox)
    }

    /// Number of occupied grid cells (diagnostic; useful in benchmarks).
    pub fn occupied_cells(&self) -> usize {
        self.table.len()
    }

    /// Highest number of entries registered in any single cell — the direct
    /// observable of placement skew (a hotspot cell holds a large fraction of
    /// the shard). O(occupied cells); diagnostic, not a hot path.
    pub fn max_cell_occupancy(&self) -> usize {
        self.table.iter().map(|(_, seg)| seg.len as usize).max().unwrap_or(0)
    }

    /// Number of entries registered in the cell containing `p` (0 for an
    /// empty cell) — one table probe, the local density a nearest search
    /// sizes its first ring from (see [`first_ring_radius`]).
    pub fn occupancy_at(&self, p: &Point) -> usize {
        self.table.get(cell_of(p, self.cell_size)).map_or(0, |seg| seg.len as usize)
    }

    /// Inserts `key` with `bbox`, replacing (and unregistering) any previous
    /// placement of the same key. Returns `true` if the key was already
    /// present.
    pub fn insert(&mut self, key: K, bbox: Aabb) -> bool {
        let (dense, moved) = match self.items.get(&key).copied() {
            Some(dense) => {
                // A move: detach the old placement but keep the dense id —
                // no hashing beyond the lookup, no allocation.
                self.detach(dense);
                self.entries[dense as usize].bbox = bbox;
                (dense, true)
            }
            None => {
                let dense = match self.free_ids.pop() {
                    Some(id) => {
                        self.entries[id as usize] = Entry::new(bbox, key);
                        id
                    }
                    None => {
                        let id = self.entries.len() as u32;
                        self.entries.push(Entry::new(bbox, key));
                        self.spans.push(Span::default());
                        id
                    }
                };
                self.items.insert(key, dense);
                (dense, false)
            }
        };
        self.attach(dense, Span::of(&bbox, self.cell_size));
        self.grow_bounds(&bbox);
        moved
    }

    /// Widens `bounds` to cover `bbox`.
    fn grow_bounds(&mut self, bbox: &Aabb) {
        self.bounds = Some(match self.bounds {
            Some(b) => b.union(bbox),
            None => *bbox,
        });
    }

    /// Removes `key` from the index. Returns `true` if it was present.
    ///
    /// O(cells the entry spans), independent of cell crowding: each cell is
    /// a swap-remove at the position the entry's run records, not a scan of
    /// the cell.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(dense) = self.items.remove(key) else {
            return false;
        };
        self.detach(dense);
        self.free_ids.push(dense);
        true
    }

    /// Registers `dense` in every cell of `span` (a fresh rectangle), taking
    /// a run of the matching class from `runs` and recording there the
    /// position each cell's segment gave it.
    fn attach(&mut self, dense: u32, mut span: Span) {
        span.start = self.runs.alloc(span.class(), 0);
        self.spans[dense as usize] = span;
        for (slot, cell) in (span.start as usize..).zip(span.cells()) {
            self.runs.data[slot] = self.register(dense, cell);
        }
    }

    /// Unregisters `dense` from every cell its span covers and returns its
    /// run to `runs`' free list.
    fn detach(&mut self, dense: u32) {
        let span = self.spans[dense as usize];
        for (slot, cell) in (span.start as usize..).zip(span.cells()) {
            self.unregister(cell, self.runs.data[slot]);
        }
        self.runs.release(span.start, span.class());
    }

    /// Appends a slot for `dense` to `cell`'s segment, growing the segment a
    /// size class (copy + recycle) when full. Returns the slot's position in
    /// the segment.
    fn register(&mut self, dense: u32, cell: (i64, i64)) -> u32 {
        match self.table.get(cell).copied() {
            Some(seg) if seg.len < seg_cap(seg.class) => {
                self.slab.data[(seg.start + seg.len) as usize] = dense;
                self.table.get_mut(cell).expect("cell just probed").len += 1;
                seg.len
            }
            Some(seg) => {
                // Segment full: move the cell to the next size class. Runs
                // store segment-relative positions, so the copy invalidates
                // nothing.
                let new_start = self.slab.alloc(seg.class + 1, dense);
                self.slab.data.copy_within(
                    seg.start as usize..(seg.start + seg.len) as usize,
                    new_start as usize,
                );
                self.slab.data[(new_start + seg.len) as usize] = dense;
                self.slab.release(seg.start, seg.class);
                *self.table.get_mut(cell).expect("cell just probed") =
                    Segment { start: new_start, len: seg.len + 1, class: seg.class + 1 };
                seg.len
            }
            None => {
                let start = self.slab.alloc(0, dense);
                self.slab.data[start as usize] = dense;
                self.table.insert(cell, Segment { start, len: 1, class: 0 });
                0
            }
        }
    }

    /// Swap-removes the slot at `pos` of `cell`'s segment, patching the run
    /// of whichever entry's slot was swapped into the hole.
    fn unregister(&mut self, cell: (i64, i64), pos: u32) {
        let seg = *self.table.get(cell).expect("a run refers to an occupied cell");
        let last = seg.len - 1;
        if pos != last {
            let tail = self.slab.data[(seg.start + last) as usize];
            self.slab.data[(seg.start + pos) as usize] = tail;
            // An entry appears at most once per cell, so the swapped slot
            // always belongs to a *different* entry, whose span covers
            // `cell` and whose run is in place (not the one being detached).
            let span = &self.spans[tail as usize];
            self.runs.data[(span.start + span.rank(cell)) as usize] = pos;
        }
        if last == 0 {
            self.table.remove(cell);
            self.slab.release(seg.start, seg.class);
        } else {
            self.table.get_mut(cell).expect("cell just probed").len = last;
        }
    }

    /// The query box clamped to the occupied bounds, so an oversized query
    /// box (e.g. a nearest-neighbour ring that grew to the whole extent)
    /// costs cells-in-use, not cells-in-query. `None` if nothing can match.
    fn clamp(&self, query: &Aabb) -> Option<Aabb> {
        let bounds = self.bounds?;
        if !bounds.intersects(query) {
            return None;
        }
        Some(Aabb {
            min: Point::new(query.min.x.max(bounds.min.x), query.min.y.max(bounds.min.y)),
            max: Point::new(query.max.x.min(bounds.max.x), query.max.y.min(bounds.max.y)),
        })
    }

    /// Walks the cells overlapping `query` and leaves the dense ids of the
    /// entries registered there in `seen.first_visits()`, each once, in walk
    /// order. Returns `false` (and walks nothing) when no entry can match.
    fn gather_in(&self, query: &Aabb, seen: &mut SeenScratch) -> bool {
        let Some(clamped) = self.clamp(query) else {
            return false;
        };
        seen.begin(self.entries.len());
        for cell in cell_range(&clamped, self.cell_size) {
            if let Some(seg) = self.table.get(cell) {
                let slots = &self.slab.data[seg.start as usize..(seg.start + seg.len) as usize];
                seen.gather(slots.iter().copied());
            }
        }
        true
    }

    /// Writes the keys of entries registered in cells overlapping `query`
    /// into `out` (cleared first), deduplicated and in ascending order.
    ///
    /// Dedup is O(candidates) via the generation-stamped seen mask — an
    /// entry spanning many visited cells is gathered once and skipped on
    /// every later visit — and only the *unique* keys are sorted. Both
    /// buffers are the caller's scratch: a reader that reuses them across
    /// queries performs zero heap allocations per query in steady state.
    pub fn query_keys_into(&self, query: &Aabb, seen: &mut SeenScratch, out: &mut Vec<K>) {
        out.clear();
        if self.gather_in(query, seen) {
            out.extend(seen.first_visits().iter().map(|&dense| self.entries[dense as usize].item));
            out.sort_unstable();
        }
    }

    /// Calls `f` for every entry whose bounding box intersects `query`, in
    /// **unspecified order**, allocation-free — the form the location
    /// service's batch query kernels are built on (they impose their own
    /// deterministic order on the final results, so paying for an ordered
    /// candidate walk here would be waste).
    ///
    /// Two passes: the cell walk gathers every segment's first visits into
    /// `seen` without a branch per slot, then one pass over those entries
    /// runs the bbox test and `f`. The entries reach `f` in the order the
    /// walk first met them.
    pub fn for_each_in_rect_unordered<'a>(
        &'a self,
        query: &Aabb,
        seen: &mut SeenScratch,
        mut f: impl FnMut(&'a Entry<K>),
    ) {
        if self.gather_in(query, seen) {
            for &dense in seen.first_visits() {
                let entry = &self.entries[dense as usize];
                if entry.bbox.intersects(query) {
                    f(entry);
                }
            }
        }
    }

    /// A radius from `p` guaranteed to cover every entry (derived from the
    /// monotone `bounds` box, so O(1) rather than a scan). Terminates the
    /// location service's cross-shard expanding-ring nearest search.
    pub fn extent_radius(&self, p: &Point) -> f64 {
        match self.bounds {
            Some(b) => {
                let dx = (p.x - b.min.x).abs().max((p.x - b.max.x).abs());
                let dy = (p.y - b.min.y).abs().max((p.y - b.max.y).abs());
                dx.hypot(dy) + self.cell_size
            }
            None => self.cell_size,
        }
    }
}

/// The grid cell containing `p`.
fn cell_of(p: &Point, cell_size: f64) -> (i64, i64) {
    ((p.x / cell_size).floor() as i64, (p.y / cell_size).floor() as i64)
}

/// The inclusive range of grid cells a box overlaps, as an iterator.
fn cell_range(bbox: &Aabb, cell_size: f64) -> impl Iterator<Item = (i64, i64)> {
    let (cx0, cy0) = cell_of(&bbox.min, cell_size);
    let (cx1, cy1) = cell_of(&bbox.max, cell_size);
    (cx0..=cx1).flat_map(move |cx| (cy0..=cy1).map(move |cy| (cx, cy)))
}

/// The half-width of the first ring of an expanding-ring k-nearest search
/// from a point whose grid cell (side `cell_size`) holds `occupancy`
/// entries.
///
/// Below `k` entries (an empty cell included) the ring is one cell, as if
/// the density were unknown. Otherwise it is `2·cell·√(k / (π·occupancy))`:
/// at the cell's density a disc of that radius holds about `4k` entries,
/// so a crowded cell starts with a ring that is a small fraction of it and
/// rarely needs a second round. The result lies in `(0, cell_size]` and
/// never decreases as `k` grows. It only decides where the search starts:
/// the search doubles the ring until the k-th distance fits inside it, so
/// answers do not depend on it.
pub fn first_ring_radius(cell_size: f64, occupancy: usize, k: usize) -> f64 {
    // `k ≥ 1` keeps the radius strictly positive.
    let k = k.max(1);
    if occupancy < k {
        return cell_size;
    }
    let radius = 2.0 * cell_size * (k as f64 / (std::f64::consts::PI * occupancy as f64)).sqrt();
    radius.min(cell_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::rng::SplitMix64;

    /// Keys of the entries whose box intersects `query`, ascending — the
    /// unordered walk the service's kernels run, put in order for a test.
    fn rect(idx: &MovingIndex<u32>, query: &Aabb) -> Vec<u32> {
        let mut keys = Vec::new();
        idx.for_each_in_rect_unordered(query, &mut SeenScratch::new(), |e| keys.push(e.item));
        keys.sort_unstable();
        keys
    }

    fn populated() -> MovingIndex<u32> {
        let mut idx = MovingIndex::new(10.0);
        idx.insert(1, Aabb::around(Point::new(5.0, 5.0), 1.0));
        idx.insert(2, Aabb::around(Point::new(25.0, 5.0), 1.0));
        idx.insert(3, Aabb::around(Point::new(105.0, 105.0), 1.0));
        idx
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_rejected() {
        let _ = MovingIndex::<u32>::new(0.0);
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut idx = populated();
        assert_eq!(idx.len(), 3);
        assert!(idx.contains_key(&2));
        assert_eq!(rect(&idx, &Aabb::around(Point::new(5.0, 5.0), 3.0)), [1]);
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1), "double remove is a no-op");
        assert!(rect(&idx, &Aabb::around(Point::new(5.0, 5.0), 3.0)).is_empty());
        assert_eq!(idx.len(), 2);
        assert!(MovingIndex::<u32>::new(10.0).is_empty());
    }

    #[test]
    fn reinsert_moves_the_entry() {
        let mut idx = populated();
        assert!(idx.insert(1, Aabb::around(Point::new(205.0, 5.0), 1.0)), "key existed");
        assert_eq!(idx.len(), 3, "a move does not grow the index");
        assert!(rect(&idx, &Aabb::around(Point::new(5.0, 5.0), 3.0)).is_empty());
        assert_eq!(rect(&idx, &Aabb::around(Point::new(205.0, 5.0), 3.0)), [1]);
        assert_eq!(idx.get(&1).unwrap().center(), Point::new(205.0, 5.0));
    }

    #[test]
    fn large_entry_spans_multiple_cells_and_is_cleaned_up() {
        let mut idx = MovingIndex::new(10.0);
        idx.insert(9, Aabb::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)));
        assert!(idx.occupied_cells() >= 25);
        assert_eq!(rect(&idx, &Aabb::around(Point::new(49.0, 49.0), 1.0)), [9]);
        idx.remove(&9);
        assert_eq!(idx.occupied_cells(), 0, "emptied cells are released");
        assert_eq!(idx.max_cell_occupancy(), 0);
    }

    #[test]
    fn crowded_cell_grows_segments_and_removal_patches_placements() {
        let mut idx = MovingIndex::new(100.0);
        // 64 entries in the same cell: the segment grows through several
        // size classes.
        for key in 0..64u32 {
            idx.insert(key, Aabb::around(Point::new(50.0, 50.0), 1.0));
        }
        assert_eq!(idx.occupied_cells(), 1);
        assert_eq!(idx.max_cell_occupancy(), 64);
        // Remove from the middle: each removal swap-removes a slot, which
        // must patch the swapped entry's position run — verified because
        // later removals (and queries) still find everything.
        for key in (0..64u32).step_by(3) {
            assert!(idx.remove(&key));
        }
        let query = Aabb::around(Point::new(50.0, 50.0), 5.0);
        let expect: Vec<u32> = (0..64).filter(|k| k % 3 != 0).collect();
        assert_eq!(rect(&idx, &query), expect);
        for key in expect {
            assert!(idx.remove(&key));
        }
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.occupied_cells(), 0);
    }

    #[test]
    fn steady_state_churn_reuses_segments_ids_and_placements() {
        let mut idx = MovingIndex::new(10.0);
        for key in 0..32u32 {
            idx.insert(key, Aabb::around(Point::new(key as f64 * 7.0, 0.0), 3.0));
        }
        // Warm up full move cycles (both transition directions) so every
        // size class / free list / run reaches its high-water mark…
        for round in 0..4 {
            let phase = round % 2;
            for key in 0..32u32 {
                let x = key as f64 * 7.0 + phase as f64 * 11.0;
                idx.insert(key, Aabb::around(Point::new(x, phase as f64 * 11.0), 3.0));
            }
        }
        let slab_len = idx.slab.data.len();
        let runs_len = idx.runs.data.len();
        let entries_len = idx.entries.len();
        // …then keep cycling through the same positions: the arenas must not
        // grow (segments, ids and runs are all recycled).
        for round in 0..50 {
            let phase = round % 2;
            for key in 0..32u32 {
                let x = key as f64 * 7.0 + phase as f64 * 11.0;
                idx.insert(key, Aabb::around(Point::new(x, phase as f64 * 11.0), 3.0));
            }
        }
        assert_eq!(idx.slab.data.len(), slab_len, "steady churn must not grow the slab");
        assert_eq!(idx.runs.data.len(), runs_len, "runs are recycled");
        assert_eq!(idx.entries.len(), entries_len, "dense ids are recycled");
        assert_eq!(idx.len(), 32);
    }

    /// Checks every live entry's run against the cell segments: for each
    /// cell of its box, in `cell_range` order, the run records the position
    /// at which that cell's segment holds the entry's dense id; and the
    /// segments hold no other slots.
    fn assert_runs_match_segments(idx: &MovingIndex<u32>) {
        let mut registered = 0usize;
        for (&key, &dense) in &idx.items {
            let span = idx.spans[dense as usize];
            let bbox = idx.entries[dense as usize].bbox;
            for (rank, cell) in cell_range(&bbox, idx.cell_size).enumerate() {
                let pos = idx.runs.data[span.start as usize + rank];
                let seg = idx.table.get(cell).expect("a registered cell is occupied");
                assert!(pos < seg.len, "key {key}, cell {cell:?}: position {pos} past the segment");
                let slot = idx.slab.data[(seg.start + pos) as usize];
                assert_eq!(
                    slot, dense,
                    "key {key}, cell {cell:?}: the run points at another entry"
                );
                registered += 1;
            }
        }
        let slots: usize = idx.table.iter().map(|(_, seg)| seg.len as usize).sum();
        assert_eq!(slots, registered, "segment lengths add up to the entries' cell counts");
    }

    /// Holds both queries to a brute-force scan of `model` (key → box) for
    /// `query`; `bounds` is the union of every box ever inserted.
    fn assert_queries_match_model(
        idx: &MovingIndex<u32>,
        model: &std::collections::BTreeMap<u32, Aabb>,
        bounds: Option<Aabb>,
        query: &Aabb,
    ) {
        let expect: Vec<u32> =
            model.iter().filter(|(_, b)| b.intersects(query)).map(|(&k, _)| k).collect();
        assert_eq!(rect(idx, query), expect, "rect walk for {query:?}");
        // The key query answers by cell: every entry registered in a cell
        // the query (clamped to the bounds) overlaps.
        let cells = |b: &Aabb| (cell_of(&b.min, idx.cell_size), cell_of(&b.max, idx.cell_size));
        let expect: Vec<u32> = match bounds.filter(|b| b.intersects(query)) {
            None => Vec::new(),
            Some(bounds) => {
                let clamped = Aabb::new(
                    Point::new(query.min.x.max(bounds.min.x), query.min.y.max(bounds.min.y)),
                    Point::new(query.max.x.min(bounds.max.x), query.max.y.min(bounds.max.y)),
                );
                let (qlo, qhi) = cells(&clamped);
                model
                    .iter()
                    .filter(|(_, b)| {
                        let (lo, hi) = cells(b);
                        lo.0 <= qhi.0 && qlo.0 <= hi.0 && lo.1 <= qhi.1 && qlo.1 <= hi.1
                    })
                    .map(|(&k, _)| k)
                    .collect()
            }
        };
        let mut keys = Vec::new();
        idx.query_keys_into(query, &mut SeenScratch::new(), &mut keys);
        assert_eq!(keys, expect, "key query for {query:?}");
    }

    #[test]
    fn position_runs_follow_churn_against_a_model() {
        // Boxes from one cell to 7 × 6 cells (runs of class 0 to 4), never
        // square but for the point boxes, centred in a 6 × 6-cell block so
        // cells are crowded; keys are removed and re-inserted, so dense ids
        // are recycled.
        let mut idx = MovingIndex::new(10.0);
        let mut model = std::collections::BTreeMap::new();
        let mut bounds: Option<Aabb> = None;
        let mut rng = SplitMix64::new(0x9E37);
        let mut next = |n| rng.below(n);
        const HALVES: [(f64, f64); 5] =
            [(0.0, 0.0), (4.0, 9.0), (14.0, 6.0), (19.0, 24.0), (28.0, 21.0)];
        let place = |idx: &mut MovingIndex<u32>,
                     model: &mut std::collections::BTreeMap<u32, Aabb>,
                     bounds: &mut Option<Aabb>,
                     key: u32,
                     bbox: Aabb| {
            idx.insert(key, bbox);
            model.insert(key, bbox);
            *bounds = Some(bounds.map_or(bbox, |b| b.union(&bbox)));
        };
        let mut classes = [0u32; NUM_CLASSES];
        for step in 0..3_000 {
            let key = next(64) as u32;
            if model.contains_key(&key) && next(4) == 0 {
                assert!(idx.remove(&key));
                model.remove(&key);
            } else {
                let c = Point::new(next(60) as f64 + 0.5, next(60) as f64 + 0.5);
                let (hx, hy) = HALVES[next(5) as usize];
                let bbox =
                    Aabb::new(Point::new(c.x - hx, c.y - hy), Point::new(c.x + hx, c.y + hy));
                place(&mut idx, &mut model, &mut bounds, key, bbox);
                classes[idx.spans[idx.items[&key] as usize].class() as usize] += 1;
            }
            assert_eq!(idx.len(), model.len(), "step {step}");
            assert_runs_match_segments(&idx);
            let c = Point::new(next(120) as f64 - 30.0, next(120) as f64 - 30.0);
            let query = Aabb::around(c, [0.5, 7.0, 30.0][next(3) as usize]);
            assert_queries_match_model(&idx, &model, bounds, &query);
        }
        assert!(classes[..5].iter().all(|&n| n > 50), "runs of every class: {classes:?}");
        assert!(idx.max_cell_occupancy() > 16, "cells outgrow three segment classes");

        // Steady churn: every key flips between a one-cell box and a
        // 30-cell one each round (class 0 ↔ class 3), and every fifth key is
        // removed and re-inserted. After warm-up neither slab grows.
        let shape = |key: u32, round: u32| {
            let c = Point::new(f64::from(key % 8) * 13.0 + 5.0, f64::from(key / 8) * 17.0 + 5.0);
            let (hx, hy) = if (key + round).is_multiple_of(2) { (0.0, 0.0) } else { (28.0, 21.0) };
            Aabb::new(Point::new(c.x - hx, c.y - hy), Point::new(c.x + hx, c.y + hy))
        };
        let mut lengths = None;
        for round in 0..24 {
            for key in 0..64u32 {
                if key % 5 == 0 {
                    idx.remove(&key);
                    model.remove(&key);
                }
                place(&mut idx, &mut model, &mut bounds, key, shape(key, round));
            }
            assert_runs_match_segments(&idx);
            if round == 4 {
                lengths = Some((idx.slab.data.len(), idx.runs.data.len()));
            }
            if let Some(lengths) = lengths {
                assert_eq!(
                    (idx.slab.data.len(), idx.runs.data.len()),
                    lengths,
                    "round {round}: steady churn must not grow either slab"
                );
            }
        }
        let query = Aabb::new(Point::new(-50.0, -50.0), Point::new(200.0, 200.0));
        assert_queries_match_model(&idx, &model, bounds, &query);
    }

    /// `got` holds what `want` holds, down to the layout queries see: the
    /// same dense id per key, the same boxes, spans and position runs, and
    /// for every occupied cell a segment of the same size class holding the
    /// same dense ids in the same order. Only where in the slab a segment
    /// sits may differ (inserts leave outgrown segments on free lists).
    fn assert_same_index(got: &MovingIndex<u32>, want: &MovingIndex<u32>, what: &str) {
        assert_eq!(got.items, want.items, "{what}: dense ids");
        assert_eq!(got.free_ids, want.free_ids, "{what}: free ids");
        assert_eq!(got.entries.len(), want.entries.len(), "{what}: entry arena");
        for &dense in want.items.values() {
            let d = dense as usize;
            assert_eq!(got.entries[d], want.entries[d], "{what}: entry {dense}");
            let (g, w) = (got.spans[d], want.spans[d]);
            assert_eq!(
                (g.x0, g.y0, g.cols, g.rows, g.start),
                (w.x0, w.y0, w.cols, w.rows, w.start),
                "{what}: span of entry {dense}"
            );
        }
        assert_eq!(got.runs.data, want.runs.data, "{what}: position runs");
        assert_eq!(got.runs.free, want.runs.free, "{what}: free runs");
        assert_eq!(got.occupied_cells(), want.occupied_cells(), "{what}");
        assert_eq!(got.max_cell_occupancy(), want.max_cell_occupancy(), "{what}");
        for (cell, w) in want.table.iter() {
            let g = got.table.get(cell).unwrap_or_else(|| panic!("{what}: {cell:?} missing"));
            assert_eq!((g.len, g.class), (w.len, w.class), "{what}: segment of {cell:?}");
            let slots = |idx: &MovingIndex<u32>, seg: &Segment| {
                idx.slab.data[seg.start as usize..(seg.start + seg.len) as usize].to_vec()
            };
            assert_eq!(slots(got, g), slots(want, w), "{what}: slots of {cell:?}");
        }
        assert_eq!(got.bounds, want.bounds, "{what}: bounds");
    }

    /// Both queries walk `got` as they walk `want`: the same entries in the
    /// same order, the same dedup counts, the same keys, the same extent.
    fn assert_same_walks(got: &MovingIndex<u32>, want: &MovingIndex<u32>, queries: &[Aabb]) {
        let walk = |idx: &MovingIndex<u32>, query: &Aabb| {
            let (mut seen, mut walked, mut keys) = (SeenScratch::new(), Vec::new(), Vec::new());
            idx.for_each_in_rect_unordered(query, &mut seen, |e| walked.push(e.item));
            idx.query_keys_into(query, &mut seen, &mut keys);
            (walked, keys, seen.dedup_counters(), idx.extent_radius(&query.center()).to_bits())
        };
        for query in queries {
            assert_eq!(walk(got, query), walk(want, query), "walk of {query:?}");
        }
    }

    /// A box of exactly `cols × rows` cells of side 10 from cell `(x, y)`.
    fn cells_box(x: i64, y: i64, cols: u64, rows: u64) -> Aabb {
        let corner = Point::new(x as f64 * 10.0 + 0.5, y as f64 * 10.0 + 0.5);
        let far =
            Point::new(corner.x + (cols - 1) as f64 * 10.0, corner.y + (rows - 1) as f64 * 10.0);
        Aabb::new(corner, far)
    }

    #[test]
    fn bulk_build_equals_one_by_one_inserts_and_stays_equal_under_churn() {
        let mut rng = SplitMix64::new(0xB01C);
        let mut next = |n| rng.below(n);
        // Entry sets by kind; each draws the boxes of its initial set and of
        // its churn.
        fn draw(next: &mut dyn FnMut(u64) -> u64, kind: usize) -> Aabb {
            let at = |next: &mut dyn FnMut(u64) -> u64, span: u64| {
                Point::new(
                    next(span) as f64 - (span / 2) as f64,
                    next(span) as f64 - (span / 2) as f64,
                )
            };
            match kind {
                // Uniform over 200 × 200 cells, up to 11 cells per axis.
                0 => Aabb::around(at(next, 2_000), next(50) as f64),
                // Clustered: a 4 × 4-cell block, crowded past six size classes.
                1 => Aabb::around(at(next, 40), next(8) as f64),
                // Far apart, negative and sparse: three clumps up to 10^12
                // cells apart, and the two cells coordinates saturate at.
                2 => {
                    let clump = [(-1e13, -3e12), (-5e9, -20.0), (-40.0, -1e9)][next(3) as usize];
                    match next(40) {
                        0 => Aabb::around(Point::new(-1e300, -1e300), 0.0),
                        1 => Aabb::around(Point::new(1e300, 1e300), 0.0),
                        _ => {
                            let c = at(next, 300);
                            Aabb::around(Point::new(clump.0 + c.x, clump.1 + c.y), next(25) as f64)
                        }
                    }
                }
                // Crowded into the cell where coordinates saturate.
                4 => Aabb::around(Point::new(1e300, 1e300), next(3) as f64),
                // Wide: from one cell to 64 cells per axis, axes independent.
                _ => {
                    let (x, y) = (next(200) as i64 - 100, next(200) as i64 - 100);
                    cells_box(x, y, 1 + next(64), 1 + next(64))
                }
            }
        }
        let mut queries = vec![
            Aabb::around(Point::ORIGIN, 5.0),
            Aabb::around(Point::ORIGIN, 400.0),
            Aabb::around(Point::new(-1e13, -3e12), 200.0),
            Aabb::around(Point::new(-5e9, -20.0), 60.0),
            Aabb::around(Point::new(1e300, 1e300), 1.0),
        ];
        for _ in 0..24 {
            let c = Point::new(next(2_400) as f64 - 1_200.0, next(2_400) as f64 - 1_200.0);
            queries.push(Aabb::around(c, [3.0, 40.0, 300.0][next(3) as usize]));
        }
        let mut grown_classes = 0;
        let mut layouts = [0; 2];
        for (case, (kind, n)) in
            [(0, 0), (0, 1), (0, 400), (1, 400), (2, 200), (4, 3), (5, 1), (5, 60)]
                .into_iter()
                .enumerate()
        {
            let items: Vec<(u32, Aabb)> =
                (0..n).map(|key| (key * 3, draw(&mut next, kind))).collect();
            let mut want = MovingIndex::new(10.0);
            for &(key, bbox) in &items {
                want.insert(key, bbox);
            }
            let mut got = MovingIndex::bulk(10.0, items.iter().copied());
            let what = format!("case {case} (kind {kind}, {n} entries)");
            // Which layout the build took: counted when the cell rectangle
            // holds no more cells than there are registrations.
            let registrations: u128 = got.spans.iter().map(|s| u128::from(s.cols * s.rows)).sum();
            let corners: Vec<(i64, i64)> = got.table.iter().map(|(cell, _)| cell).collect();
            let side = |axis: fn(&(i64, i64)) -> i64| {
                let (lo, hi) = (corners.iter().map(axis).min()?, corners.iter().map(axis).max()?);
                Some(u128::from(hi.abs_diff(lo)) + 1)
            };
            if let (Some(cols), Some(rows)) = (side(|c| c.0), side(|c| c.1)) {
                let cells = cols.checked_mul(rows);
                layouts[usize::from(cells.is_some_and(|c| c <= registrations))] += 1;
            }
            assert_same_index(&got, &want, &what);
            assert_runs_match_segments(&got);
            assert_same_walks(&got, &want, &queries);
            grown_classes =
                grown_classes.max(got.table.iter().map(|(_, s)| s.class).max().unwrap_or(0));

            // One seeded churn of inserts, moves and removes on both.
            let keys = 3 * n.max(20) + 30;
            for step in 0..300 {
                let key = next(u64::from(keys)) as u32;
                if want.contains_key(&key) && next(3) == 0 {
                    assert!(got.remove(&key) && want.remove(&key));
                } else {
                    let bbox = draw(&mut next, kind);
                    assert_eq!(got.insert(key, bbox), want.insert(key, bbox));
                }
                if step % 60 == 59 {
                    let what = format!("{what}, churn step {step}");
                    assert_same_index(&got, &want, &what);
                    assert_runs_match_segments(&got);
                    assert_same_walks(&got, &want, &queries);
                }
            }
        }
        assert!(grown_classes >= 5, "a cell outgrew five size classes: {grown_classes}");
        assert!(layouts[0] >= 2 && layouts[1] >= 2, "sorted and counted layouts: {layouts:?}");
    }

    #[test]
    #[should_panic(expected = "each key once")]
    fn bulk_build_refuses_a_repeated_key() {
        let bbox = Aabb::around(Point::ORIGIN, 1.0);
        let _ = MovingIndex::bulk(10.0, [(1u32, bbox), (2, bbox), (1, bbox)]);
    }

    #[test]
    fn non_finite_query_points_get_an_empty_answer_at_once() {
        let idx = populated();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut seen = SeenScratch::new();
            let mut keys = Vec::new();
            for p in [
                Point::new(f64::NAN, 0.0),
                Point::new(0.0, f64::NAN),
                Point::new(f64::INFINITY, 0.0),
                Point::new(0.0, f64::NEG_INFINITY),
            ] {
                let query = Aabb::around(p, 1e6);
                idx.query_keys_into(&query, &mut seen, &mut keys);
                let walked = rect(&idx, &query).len();
                tx.send((p, keys.len() + walked)).expect("receiver waits");
            }
        });
        for _ in 0..4 {
            let (p, found) = rx
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("a non-finite query point must not hang the walk");
            assert_eq!(found, 0, "{p:?}");
        }
    }

    #[test]
    fn occupancy_at_counts_the_cell_containing_the_point() {
        let mut idx = MovingIndex::new(10.0);
        idx.insert(1u32, Aabb::around(Point::new(5.0, 5.0), 1.0));
        idx.insert(2, Aabb::around(Point::new(6.0, 4.0), 1.0));
        idx.insert(3, Aabb::around(Point::new(-5.0, -5.0), 1.0));
        assert_eq!(idx.occupancy_at(&Point::new(0.0, 0.0)), 2, "a corner belongs to +x/+y");
        assert_eq!(idx.occupancy_at(&Point::new(9.999, 9.999)), 2);
        assert_eq!(idx.occupancy_at(&Point::new(-0.001, -0.001)), 1, "floor, not truncation");
        assert_eq!(idx.occupancy_at(&Point::new(10.0, 0.0)), 0);
        assert_eq!(idx.occupancy_at(&Point::new(500.0, 500.0)), 0);
    }

    #[test]
    fn first_ring_is_one_cell_below_k_and_shrinks_with_density() {
        let cell = 250.0;
        assert_eq!(first_ring_radius(cell, 0, 1), cell, "an empty cell");
        assert_eq!(first_ring_radius(cell, 0, 0), cell);
        assert_eq!(first_ring_radius(cell, 7, 8), cell, "fewer entries than k");
        // At occupancy == k the formula exceeds one cell and is capped.
        assert_eq!(first_ring_radius(cell, 8, 8), cell);
        let dense = first_ring_radius(cell, 16_000, 1);
        let expect = 2.0 * cell * (1.0 / (std::f64::consts::PI * 16_000.0)).sqrt();
        assert!((dense - expect).abs() < 1e-12, "{dense} vs {expect}");
        assert!(dense < cell / 50.0, "a crowded cell starts with a small ring");
        assert!(first_ring_radius(cell, 16_000, 0) > 0.0, "k = 0 is treated as 1");
    }

    #[test]
    fn first_ring_lies_in_the_cell_and_never_shrinks_as_k_grows() {
        for cell in [1e-3, 1.0, 250.0, 1e6] {
            for occupancy in [0, 1, 2, 7, 64, 1_000, 15_800, 1 << 20, usize::MAX] {
                let mut last = 0.0;
                for k in (0..200).chain([1_000, 1 << 20, usize::MAX]) {
                    let r = first_ring_radius(cell, occupancy, k);
                    assert!(r > 0.0 && r <= cell, "cell {cell}, occupancy {occupancy}, k {k}: {r}");
                    assert!(r >= last, "cell {cell}, occupancy {occupancy}, k {k}: {r} < {last}");
                    last = r;
                }
            }
        }
    }

    #[test]
    fn gathered_walks_count_and_order_what_a_per_slot_first_visit_walk_did() {
        // Boxes from points to many cells wide over a crowded block, churned
        // so segments hold swapped slots; queries from one cell to the whole
        // extent.
        let mut idx = MovingIndex::new(10.0);
        let mut rng = SplitMix64::new(0x51AB);
        let mut next = |n| rng.below(n);
        for round in 0..3 {
            for key in 0..400u32 {
                if round > 0 && next(3) == 0 {
                    idx.remove(&key);
                    continue;
                }
                let c = Point::new(next(200) as f64 - 100.0, next(200) as f64 - 100.0);
                idx.insert(key, Aabb::around(c, [0.0, 3.0, 12.0, 45.0][next(4) as usize]));
            }
        }
        let mut seen = SeenScratch::new();
        let mut expect_counts = (0u64, 0u64);
        for q in 0..200 {
            let half = [1.0, 8.0, 30.0, 150.0][q % 4];
            let c = Point::new(next(260) as f64 - 130.0, next(260) as f64 - 130.0);
            let query = Aabb::around(c, half);
            // The walk the gather replaced: one branch per slot.
            let mut firsts = Vec::new();
            let mut visited = std::collections::HashSet::new();
            if let Some(clamped) = idx.clamp(&query) {
                for cell in cell_range(&clamped, idx.cell_size) {
                    if let Some(seg) = idx.table.get(cell) {
                        for &dense in
                            &idx.slab.data[seg.start as usize..(seg.start + seg.len) as usize]
                        {
                            expect_counts.0 += 1;
                            if visited.insert(dense) {
                                firsts.push(dense);
                            }
                        }
                    }
                }
            }
            expect_counts.1 += firsts.len() as u64;
            let expect: Vec<u32> = firsts
                .iter()
                .map(|&dense| &idx.entries[dense as usize])
                .filter(|e| e.bbox.intersects(&query))
                .map(|e| e.item)
                .collect();
            let mut got = Vec::new();
            idx.for_each_in_rect_unordered(&query, &mut seen, |e| got.push(e.item));
            assert_eq!(got, expect, "query {q}: same entries in the same order");
            assert_eq!(seen.dedup_counters(), expect_counts, "query {q}");
        }
        assert!(expect_counts.0 > expect_counts.1, "entries straddle cells");
    }

    #[test]
    fn query_keys_into_is_sorted_deduped_and_reuses_the_buffers() {
        let mut idx = MovingIndex::new(10.0);
        idx.insert(7, Aabb::new(Point::new(0.0, 0.0), Point::new(35.0, 35.0))); // many cells
        idx.insert(2, Aabb::around(Point::new(5.0, 5.0), 1.0));
        let mut seen = SeenScratch::new();
        let mut keys = vec![99u32; 5]; // stale contents must not leak through
        idx.query_keys_into(
            &Aabb::new(Point::new(0.0, 0.0), Point::new(30.0, 30.0)),
            &mut seen,
            &mut keys,
        );
        assert_eq!(keys, vec![2, 7], "deduped across cells, ascending");
        let (inspected, unique) = seen.dedup_counters();
        assert!(inspected > unique, "the multi-cell entry was inspected repeatedly");
        assert_eq!(unique, 2);
    }

    #[test]
    fn bounds_track_insertions() {
        let mut idx = MovingIndex::new(10.0);
        assert!(idx.bounds.is_none());
        idx.insert(1, Aabb::around(Point::new(0.0, 0.0), 1.0));
        idx.insert(2, Aabb::around(Point::new(100.0, -50.0), 1.0));
        let b = idx.bounds.unwrap();
        assert!(b.contains(&Point::new(0.0, 0.0)));
        assert!(b.contains(&Point::new(100.0, -50.0)));
    }
}
