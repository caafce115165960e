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
//!   without touching the stamp array.
//!
//! Everything here is allocation-free in steady state: the table only grows
//! when new cells appear (tombstones left by emptied cells are reused when
//! the same — or any probing — coordinate is re-inserted), and the stamp
//! array only grows to the owning index's high-water entry count.

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
            let new_cap = (cap * 2).max(16).max(((self.live + 1) * 2).next_power_of_two());
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
}

/// Caller-owned scratch for the candidate walk: a generation-stamped seen
/// mask (per-entry dedup in O(1)) plus a reusable id buffer for the
/// key-ordered query forms.
///
/// The scratch belongs to the *reader*, not the index: queries run under
/// shared locks, so every reader (connection, query thread) holds its own
/// and reuses it across queries — after warm-up, a query performs zero heap
/// allocations. One scratch may serve indexes of different sizes; the stamp
/// array grows to the largest entry count it has seen.
#[derive(Debug, Default)]
pub struct SeenScratch {
    /// `stamps[dense_id] == generation` ⇔ the entry was visited this query.
    stamps: Vec<u32>,
    generation: u32,
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

    /// Starts a new query over an index with `entries` dense ids: bumps the
    /// generation so every previous stamp becomes stale at once.
    pub(crate) fn begin(&mut self, entries: usize) {
        if self.stamps.len() < entries {
            self.stamps.resize(entries, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The u32 generation lapped: clear the stamps once so a stamp
            // from 2^32 queries ago cannot read as "seen this query".
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// `true` exactly once per dense id per query — the dedup primitive.
    #[inline]
    pub(crate) fn first_visit(&mut self, id: u32) -> bool {
        self.inspected += 1;
        let stamp = &mut self.stamps[id as usize];
        if *stamp == self.generation {
            false
        } else {
            *stamp = self.generation;
            self.unique += 1;
            true
        }
    }

    /// Cumulative `(candidates inspected, unique candidates)` over every
    /// query this scratch has served. The ratio is the observable cost of
    /// placement skew: entries spanning many visited cells are inspected
    /// once per cell but deduplicated to one candidate.
    pub fn dedup_counters(&self) -> (u64, u64) {
        (self.inspected, self.unique)
    }

    /// Resets the dedup counters (the stamp state is unaffected).
    pub fn reset_counters(&mut self) {
        self.inspected = 0;
        self.unique = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(seen.first_visit(3));
        assert!(!seen.first_visit(3));
        assert!(seen.first_visit(7));
        seen.begin(8);
        assert!(seen.first_visit(3), "new generation resets the mask");
        assert_eq!(seen.dedup_counters(), (4, 3));
        seen.reset_counters();
        assert_eq!(seen.dedup_counters(), (0, 0));
        seen.begin(1024);
        assert!(seen.first_visit(1023), "mask grows to the index size");
    }
}
