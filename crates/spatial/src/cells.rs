//! Cache-conscious cell storage behind [`MovingIndex`](crate::MovingIndex).
//!
//! The index maps grid-cell coordinates to per-cell candidate lists. A
//! `HashMap<(i64, i64), Vec<_>>` does that with one heap allocation per
//! occupied cell and a SipHash invocation per probe — at 10⁵–10⁶ objects the
//! query path spends its time pointer-chasing. This module replaces it with:
//!
//! * `CellTable` — an open-addressed (linear-probing, tombstone-deleting)
//!   hash table from cell coordinates to a small `Copy` payload, using a
//!   multiply-xor integer hash. One flat slot array, no per-cell boxes; the
//!   payload points into whatever flat arena the owning index keeps.
//! * [`SeenScratch`] — a generation-stamped seen-mask that deduplicates the
//!   candidate walk in O(candidates): an entry registered in many visited
//!   cells is accepted on first visit and skipped afterwards, replacing the
//!   `sort_unstable + dedup` pass (O(c·log c), and resorting *every* query)
//!   the indexes used before. Bumping one generation counter resets the mask
//!   without touching the stamp array. A walk gathers each cell segment's
//!   first visits into a list without a branch per slot (see
//!   [`SeenScratch`]), and the caller then makes one pass over that list.
//!
//! Everything here is allocation-free in steady state: the table only grows
//! when new cells appear (tombstones left by emptied cells are reused when
//! the same — or any probing — coordinate is re-inserted), and the stamp
//! array and first-visit list only grow to the owning index's high-water
//! entry count.

/// Probe states of one table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    Tombstone,
    Live,
}

/// One slot: coordinate plus the caller's payload.
#[derive(Debug, Clone, Copy)]
struct TableSlot<P> {
    state: SlotState,
    coord: (i64, i64),
    payload: P,
}

/// An open-addressed hash table from grid-cell coordinates to a small `Copy`
/// payload (a segment reference, a chain head, …).
#[derive(Debug, Clone)]
pub(crate) struct CellTable<P> {
    slots: Vec<TableSlot<P>>,
    mask: usize,
    live: usize,
    tombstones: usize,
}

/// Multiply-xor avalanche over the two cell coordinates — a couple of
/// multiplies instead of SipHash's rounds; adjacent cells land in unrelated
/// slots so hotspot blocks do not cluster in the table.
#[inline]
fn hash_coord(coord: (i64, i64)) -> u64 {
    let x = (coord.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let y = (coord.1 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut h = x ^ y.rotate_left(31);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

impl<P: Copy + Default> CellTable<P> {
    pub(crate) fn new() -> Self {
        CellTable { slots: Vec::new(), mask: 0, live: 0, tombstones: 0 }
    }

    /// An empty table that takes `cells` inserts without growing — the
    /// capacity that many inserts into [`CellTable::new`] would grow it to —
    /// in two steps, for a build that allocates on one thread and writes on
    /// another: the slot array is allocated here, unwritten, and
    /// [`CellTable::clear_reserved`] writes it before the first insert.
    pub(crate) fn reserved(cells: usize) -> Self {
        let mut table = CellTable::new();
        if cells > 0 {
            let cap = (cells * 4).div_ceil(3).next_power_of_two().max(16);
            table.slots = Vec::with_capacity(cap);
            table.mask = cap - 1;
        }
        table
    }

    /// Writes every slot of a [`CellTable::reserved`] table empty, within
    /// the capacity it reserved.
    pub(crate) fn clear_reserved(&mut self) {
        if self.mask > 0 {
            let empty = TableSlot { state: SlotState::Empty, coord: (0, 0), payload: P::default() };
            self.slots.resize(self.mask + 1, empty);
        }
    }

    /// Number of live (occupied) cells.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    #[inline]
    fn home(&self, coord: (i64, i64)) -> usize {
        (hash_coord(coord) as usize) & self.mask
    }

    /// The payload stored for `coord`, if the cell is occupied.
    #[inline]
    pub(crate) fn get(&self, coord: (i64, i64)) -> Option<&P> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = self.home(coord);
        loop {
            let slot = &self.slots[at];
            match slot.state {
                SlotState::Empty => return None,
                SlotState::Live if slot.coord == coord => return Some(&slot.payload),
                _ => at = (at + 1) & self.mask,
            }
        }
    }

    /// Mutable access to the payload stored for `coord`.
    #[inline]
    pub(crate) fn get_mut(&mut self, coord: (i64, i64)) -> Option<&mut P> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = self.home(coord);
        loop {
            match self.slots[at].state {
                SlotState::Empty => return None,
                SlotState::Live if self.slots[at].coord == coord => {
                    return Some(&mut self.slots[at].payload)
                }
                _ => at = (at + 1) & self.mask,
            }
        }
    }

    /// Inserts a cell that is known to be absent (callers `get` first). The
    /// first tombstone on the probe path is reused, so cells that empty and
    /// refill at the same coordinates do not grow the table.
    pub(crate) fn insert(&mut self, coord: (i64, i64), payload: P) {
        self.reserve_one();
        let mut at = self.home(coord);
        let mut target = None;
        loop {
            match self.slots[at].state {
                SlotState::Empty => break,
                SlotState::Tombstone => {
                    if target.is_none() {
                        target = Some(at);
                    }
                    at = (at + 1) & self.mask;
                }
                SlotState::Live => {
                    debug_assert!(self.slots[at].coord != coord, "insert of an occupied cell");
                    at = (at + 1) & self.mask;
                }
            }
        }
        let at = match target {
            Some(t) => {
                self.tombstones -= 1;
                t
            }
            None => at,
        };
        self.slots[at] = TableSlot { state: SlotState::Live, coord, payload };
        self.live += 1;
    }

    /// Removes a cell, leaving a tombstone on its slot. Returns the payload
    /// if the cell was occupied.
    pub(crate) fn remove(&mut self, coord: (i64, i64)) -> Option<P> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = self.home(coord);
        loop {
            match self.slots[at].state {
                SlotState::Empty => return None,
                SlotState::Live if self.slots[at].coord == coord => {
                    let payload = self.slots[at].payload;
                    self.slots[at].state = SlotState::Tombstone;
                    self.live -= 1;
                    self.tombstones += 1;
                    return Some(payload);
                }
                _ => at = (at + 1) & self.mask,
            }
        }
    }

    /// Iterates over the live cells in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((i64, i64), &P)> {
        self.slots.iter().filter(|s| s.state == SlotState::Live).map(|s| (s.coord, &s.payload))
    }

    /// Grows (and drops tombstones) when live + tombstones would pass 3/4 of
    /// capacity — the probe-length guarantee of linear probing.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 || (self.live + self.tombstones + 1) * 4 > cap * 3 {
            self.rehash((cap * 2).max(16).max(((self.live + 1) * 2).next_power_of_two()));
        }
    }

    /// Moves the live cells into a fresh slot array of `new_cap` (a power of
    /// two above the live count), dropping every tombstone.
    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                TableSlot { state: SlotState::Empty, coord: (0, 0), payload: P::default() };
                new_cap
            ],
        );
        self.mask = new_cap - 1;
        self.tombstones = 0;
        for slot in old {
            if slot.state == SlotState::Live {
                let mut at = self.home(slot.coord);
                while self.slots[at].state == SlotState::Live {
                    at = (at + 1) & self.mask;
                }
                self.slots[at] = slot;
            }
        }
    }
}

/// Caller-owned scratch for the candidate walk: a generation-stamped seen
/// mask (per-entry dedup in O(1)) plus the list of the current query's first
/// visits, gathered without a branch per slot.
///
/// The scratch belongs to the *reader*, not the index: queries run under
/// shared locks, so every reader (connection, query thread) holds its own
/// and reuses it across queries — after warm-up, a query performs zero heap
/// allocations. One scratch may serve indexes of different sizes; the stamp
/// array and the first-visit list grow to the largest entry count seen.
#[derive(Debug, Default)]
pub struct SeenScratch {
    /// `stamps[id] == generation` ⇔ the entry was visited this query.
    stamps: Vec<u32>,
    generation: u32,
    /// `fresh[..gathered]` holds this query's first visits in walk order.
    /// It is one longer than the largest index served, so the gather can
    /// write every slot's id before it knows whether to keep it.
    fresh: Vec<u32>,
    gathered: usize,
    /// Candidates inspected (one per entry per overlapped cell).
    inspected: u64,
    /// Candidates accepted (first visits — the unique candidate count).
    unique: u64,
}

impl SeenScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SeenScratch::default()
    }

    /// Starts a new query over an index with `entries` ids: bumps the
    /// generation so every previous stamp becomes stale at once, and empties
    /// the first-visit list.
    pub(crate) fn begin(&mut self, entries: usize) {
        if self.stamps.len() < entries {
            self.stamps.resize(entries, 0);
        }
        if self.fresh.len() <= entries {
            self.fresh.resize(entries + 1, 0);
        }
        self.gathered = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The u32 generation lapped: clear the stamps once so a stamp
            // from 2^32 queries ago cannot read as "seen this query".
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Stamps every id of `ids` as visited and appends the ones not
    /// yet visited this query to [`SeenScratch::first_visits`] — the dedup
    /// primitive. `ids` must be distinct (one cell's segment is).
    ///
    /// Branch-free per id: each id is written at the list's end whether or
    /// not it is new, and the end advances by `fresh as usize`. Which slots
    /// repeat an earlier cell's entry is data-dependent, so a branch on it
    /// would be mispredicted all through a crowded walk.
    #[inline]
    pub(crate) fn gather(&mut self, ids: impl ExactSizeIterator<Item = u32>) {
        let generation = self.generation;
        let start = self.gathered;
        let mut end = start;
        self.inspected += ids.len() as u64;
        for id in ids {
            let stamp = &mut self.stamps[id as usize];
            let fresh = *stamp != generation;
            *stamp = generation;
            // In bounds: `end` counts distinct ids below the index's entry
            // count, and `begin` sized `fresh` one past that.
            self.fresh[end] = id;
            end += usize::from(fresh);
        }
        self.unique += (end - start) as u64;
        self.gathered = end;
    }

    /// The current query's first visits, in the order the walk met them
    /// (the caller may reorder them).
    #[inline]
    pub(crate) fn first_visits(&mut self) -> &mut [u32] {
        &mut self.fresh[..self.gathered]
    }

    /// Cumulative `(candidates inspected, unique candidates)` over every
    /// query this scratch has served. The ratio is the observable cost of
    /// placement skew: entries spanning many visited cells are inspected
    /// once per cell but deduplicated to one candidate.
    pub fn dedup_counters(&self) -> (u64, u64) {
        (self.inspected, self.unique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::rng::SplitMix64;

    #[test]
    fn table_roundtrips_inserts_lookups_and_removals() {
        let mut t: CellTable<u32> = CellTable::new();
        assert_eq!(t.len(), 0);
        assert!(t.get((0, 0)).is_none());
        for i in 0..500i64 {
            t.insert((i, -i * 7), i as u32);
        }
        assert_eq!(t.len(), 500);
        for i in 0..500i64 {
            assert_eq!(t.get((i, -i * 7)), Some(&(i as u32)));
        }
        assert!(t.get((1, 1)).is_none());
        *t.get_mut((3, -21)).unwrap() = 999;
        assert_eq!(t.get((3, -21)), Some(&999));
        for i in 0..250i64 {
            assert_eq!(t.remove((i, -i * 7)), Some(if i == 3 { 999 } else { i as u32 }));
        }
        assert_eq!(t.len(), 250);
        assert_eq!(t.remove((0, 0)), None, "double remove");
        for i in 250..500i64 {
            assert_eq!(t.get((i, -i * 7)), Some(&(i as u32)), "survivors intact");
        }
        assert_eq!(t.iter().count(), 250);
    }

    #[test]
    fn a_presized_table_has_the_capacity_inserts_grow_to_and_never_grows() {
        for cells in [0usize, 1, 11, 12, 13, 24, 25, 100, 767, 768, 769, 5_000] {
            let mut grown: CellTable<u32> = CellTable::new();
            let mut presized: CellTable<u32> = CellTable::reserved(cells);
            assert!(presized.slots.is_empty(), "{cells} cells: reserved, not written");
            presized.clear_reserved();
            let cap = presized.slots.len();
            assert_eq!(presized.slots.capacity(), cap, "{cells} cells: written in place");
            for i in 0..cells as i64 {
                grown.insert((i, -i), 0);
                presized.insert((i, -i), 0);
            }
            assert_eq!(presized.slots.len(), cap, "{cells} cells: the presized table grew");
            assert_eq!(cap, grown.slots.len(), "{cells} cells");
        }
    }

    #[test]
    fn emptied_cells_leave_reusable_tombstones() {
        let mut t: CellTable<u32> = CellTable::new();
        for i in 0..64i64 {
            t.insert((i, 0), i as u32);
        }
        let cap_before = t.slots.len();
        // Churn the same coordinates many times over: the table must not
        // grow (tombstones are reused), which is what keeps the steady-state
        // reindex path of the moving index allocation-free.
        for _ in 0..1_000 {
            for i in 0..64i64 {
                t.remove((i, 0));
                t.insert((i, 0), i as u32);
            }
        }
        assert_eq!(t.slots.len(), cap_before, "steady-state churn must not grow the table");
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn seen_scratch_dedups_per_generation() {
        let mut seen = SeenScratch::new();
        seen.begin(8);
        seen.gather([3].into_iter());
        seen.gather([3, 7].into_iter());
        assert_eq!(seen.first_visits(), [3, 7]);
        seen.begin(8);
        assert!(seen.first_visits().is_empty());
        seen.gather([3].into_iter());
        assert_eq!(seen.first_visits(), [3], "new generation resets the mask");
        assert_eq!(seen.dedup_counters(), (4, 3));
        seen.begin(1024);
        seen.gather([1023].into_iter());
        assert_eq!(seen.first_visits(), [1023], "mask grows to the index size");
    }

    /// The per-slot branch the gather replaced: `true` once per id per query.
    struct FirstVisit {
        seen: std::collections::HashSet<u32>,
        order: Vec<u32>,
        inspected: u64,
    }

    impl FirstVisit {
        fn visit(&mut self, id: u32) {
            self.inspected += 1;
            if self.seen.insert(id) {
                self.order.push(id);
            }
        }
    }

    #[test]
    fn gather_matches_a_first_visit_reference_on_seeded_walks() {
        let mut rng = SplitMix64::new(0x6A7E);
        let mut next = |n: u64| rng.below(n);
        let mut seen = SeenScratch::new();
        let mut reference_counts = (0, 0);
        // Index sizes from one entry to thousands; walks of up to 64 cells
        // whose segments repeat ids across cells but never within one. The
        // stamps outlive each walk, so later walks run over stale ones.
        for walk in 0..300 {
            let entries = 1 + next(if walk % 3 == 0 { 4 } else { 3_000 }) as usize;
            let mut reference =
                FirstVisit { seen: Default::default(), order: Vec::new(), inspected: 0 };
            seen.begin(entries);
            for _ in 0..next(64) {
                let mut segment: Vec<u32> = (0..entries as u32).collect();
                let len = next(entries as u64 + 1) as usize;
                for i in 0..len {
                    let j = i + next((entries - i) as u64) as usize;
                    segment.swap(i, j);
                }
                segment.truncate(len);
                for &id in &segment {
                    reference.visit(id);
                }
                seen.gather(segment.into_iter());
            }
            assert_eq!(seen.first_visits(), reference.order, "walk {walk}");
            reference_counts.0 += reference.inspected;
            reference_counts.1 += reference.order.len() as u64;
            assert_eq!(seen.dedup_counters(), reference_counts, "walk {walk}");
        }
        assert!(reference_counts.0 > 2 * reference_counts.1, "the walks repeat ids");
    }
}
