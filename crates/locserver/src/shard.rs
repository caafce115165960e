//! One lock stripe of the sharded location store.
//!
//! A shard owns the trackers of the objects hashed to it plus a
//! [`MovingIndex`] over conservative bounding boxes of their predicted
//! positions. The index invariant (see the crate docs for the full argument):
//!
//! > For every object with reported state `s` and index entry `(bbox,
//! > valid_until)`, and for every query time `t ≤ valid_until`:
//! > `pred(s, t) ∈ bbox`.
//!
//! The invariant holds because every prediction function in `mbdr-core` is
//! speed-bounded — `|pred(s, t) − s.position| ≤ s.speed · (t − s.timestamp)`
//! — so a box centred on the reported position with radius
//! `speed · (valid_until − s.timestamp) + slack` contains every prediction up
//! to `valid_until` (and, since predictions clamp to the reported position
//! for `t < s.timestamp`, every earlier one too). Stationary objects get an
//! infinite validity. When a query arrives past an entry's `valid_until`, the
//! entry is *lazily re-grown*: `valid_until` is pushed past the query time
//! and the radius recomputed, still anchored at the reported position — the
//! box of a silent mover keeps growing, which is exactly the server's real
//! uncertainty about it.
//!
//! ## Silent and fast movers: the wide list
//!
//! A box's radius grows linearly with the speed and with the time since the
//! report, so the cells it registers in grow with its square: one 10 m/s
//! mover silent for 10⁴ s would register in about 650 000 cells, and one
//! accepted update at 10⁴ m/s in about 5 million, all under the shard's
//! write lock. So an entry whose box would span more than `WIDE_CELLS`
//! cells per axis — on a re-grow or on an accepted update — leaves the grid
//! and its slot goes on the shard's *wide list* instead, with no box, no
//! validity limit and no heap entry. Every rect and nearest walk takes the
//! whole list as candidates and the exact filter decides, which is what a
//! box that large would have yielded anyway. Wide entries stay out of the
//! index's `bounds()` and so out of `extent_radius`; a nearest search stays
//! exact because every ring collects them. The object's next accepted update
//! with a narrower box, its deregistration or re-registration, and a
//! `rebuild_index` that finds its box narrower take an entry off the list.
//!
//! ## Derived state
//!
//! The trackers are the shard's only primary state. The index and the expiry
//! heap are *derived* from the trackers' last reports: an object's entry
//! `(bbox, valid_until)` is a pure function of its last accepted state (and,
//! once re-grown, of the query time that re-grew it), computed by
//! `derive_entry` and nothing else. Live ingest maintains them
//! incrementally, one `reindex` per accepted update. Crash recovery does
//! not: snapshot restore and journal replay write trackers only, and
//! `rebuild_index` derives index and heap once at the end from the same
//! `derive_entry` — bit-identical entries, one heap entry per mover — with
//! one bulk build of the grid (`MovingIndex::bulk`, slots in ascending
//! order, which leaves the index per-slot inserts would) and one heapify.
//! Until it has run, rect and nearest queries see an index that does not
//! cover the recovered trackers yet.
//!
//! ## Storage and query layout
//!
//! Trackers live in a dense slot arena (`slots[slot_id]`); the
//! `ObjectId → slot` hash map is consulted on ingest and point lookup only.
//! The spatial index is keyed by the small `u32` slot id, so resolving a
//! query candidate is a direct array index — no hashing on the query path.
//! Range and nearest collection run as batch kernels in three passes over
//! struct-of-arrays scratch: (1) walk the index cells for candidate slots
//! (deduplicated by a generation-stamped seen mask) and add the wide list,
//! (2) predict every candidate into contiguous position arrays, (3) one
//! linear containment/distance pass over those arrays. With warm buffers
//! all three passes are allocation-free.

use crate::config::ServiceConfig;
use crate::service::{ObjectId, PositionReport};
use mbdr_core::wire::snapshot::SnapshotEntry;
use mbdr_core::{Predictor, ServerTracker, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_spatial::{MovingIndex, SeenScratch};
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A box wider than this many grid cells per axis leaves the grid for the
/// wide list (see the module docs). It bounds the cells one update or
/// re-grow registers to about `WIDE_CELLS²`.
const WIDE_CELLS: f64 = 64.0;

/// An object tracked by one shard, stored in the dense slot arena.
struct TrackedSlot {
    /// The object occupying this slot (meaningful only while the slot is
    /// live, i.e. referenced by the id map).
    object: ObjectId,
    tracker: ServerTracker,
    /// Bumped every time the index entry is (re)written *and* whenever the
    /// slot's occupant changes, monotonically over the slot's whole lifetime
    /// — so the expiry heap can use lazy deletion and a recycled slot never
    /// matches a stale heap entry.
    generation: u64,
    /// Query times up to this instant are covered by the index entry.
    valid_until: f64,
    /// The entry is on the shard's wide list instead of in the grid.
    wide: bool,
}

/// Where an object's index entry goes, as [`ShardState::derive_entry`]
/// computes it.
enum Placement {
    /// In the grid under this box.
    Grid(Aabb),
    /// On the wide list.
    Wide,
}

/// A pending index-entry expiry (min-heap by time via `Reverse`).
#[derive(Debug, PartialEq)]
struct Expiry {
    at: f64,
    slot: u32,
    generation: u64,
}

impl Eq for Expiry {}

impl Ord for Expiry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.slot.cmp(&other.slot))
            .then(self.generation.cmp(&other.generation))
    }
}

impl PartialOrd for Expiry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-reader buffers for the shard batch query kernels: the
/// seen-mask for candidate dedup, the candidate slot list, and the
/// struct-of-arrays prediction output the filter passes run over.
#[derive(Default)]
pub(crate) struct CandidateScratch {
    seen: SeenScratch,
    cand: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ages: Vec<f64>,
    objects: Vec<ObjectId>,
}

impl CandidateScratch {
    /// Cumulative `(candidates inspected, unique candidates)` across every
    /// query served with this scratch (see `SeenScratch::dedup_counters`).
    pub(crate) fn dedup_counters(&self) -> (u64, u64) {
        self.seen.dedup_counters()
    }
}

/// Mutable state of one shard, guarded by the shard's lock.
pub(crate) struct ShardState {
    config: ServiceConfig,
    /// Object id → slot in `slots`. Touched on ingest and point lookup;
    /// queries resolve candidates through the dense arena instead.
    by_id: HashMap<ObjectId, u32>,
    slots: Vec<TrackedSlot>,
    free_slots: Vec<u32>,
    /// Spatial index keyed by slot id.
    index: MovingIndex<u32>,
    /// Slots whose re-grown box was too wide for the grid (see the module
    /// docs): candidates of every query.
    wide: Vec<u32>,
    expiries: BinaryHeap<Reverse<Expiry>>,
}

impl ShardState {
    fn new(config: ServiceConfig) -> Self {
        ShardState {
            config,
            by_id: HashMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            index: MovingIndex::new(config.cell_size_m),
            wide: Vec::new(),
            expiries: BinaryHeap::new(),
        }
    }

    pub(crate) fn object_count(&self) -> usize {
        self.by_id.len()
    }

    /// Objects with an index entry: in the grid or on the wide list.
    pub(crate) fn indexed_count(&self) -> usize {
        self.index.len() + self.wide.len()
    }

    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn total_updates(&self) -> u64 {
        self.by_id.values().map(|&s| self.slots[s as usize].tracker.updates_applied()).sum()
    }

    /// `(occupied cells, max cell occupancy)` of this shard's index.
    pub(crate) fn index_occupancy(&self) -> (usize, usize) {
        (self.index.occupied_cells(), self.index.max_cell_occupancy())
    }

    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn register(&mut self, object: ObjectId, predictor: Arc<dyn Predictor>) {
        match self.by_id.get(&object).copied() {
            Some(slot) => {
                // Re-registration: fresh tracker, same slot. The generation
                // bump invalidates any pending expiries for the old tracker.
                self.index.remove(&slot);
                let tracked = &mut self.slots[slot as usize];
                Self::leave_wide(&mut self.wide, slot, tracked);
                tracked.tracker = ServerTracker::new(predictor);
                tracked.generation += 1;
                tracked.valid_until = f64::INFINITY;
            }
            None => {
                let slot = match self.free_slots.pop() {
                    Some(slot) => {
                        let tracked = &mut self.slots[slot as usize];
                        tracked.object = object;
                        tracked.tracker = ServerTracker::new(predictor);
                        // Keep the generation monotone across occupants so
                        // heap entries of previous occupants never match.
                        tracked.generation += 1;
                        tracked.valid_until = f64::INFINITY;
                        slot
                    }
                    None => {
                        let slot = self.slots.len() as u32;
                        self.slots.push(TrackedSlot {
                            object,
                            tracker: ServerTracker::new(predictor),
                            generation: 0,
                            valid_until: f64::INFINITY,
                            wide: false,
                        });
                        slot
                    }
                };
                self.by_id.insert(object, slot);
            }
        }
    }

    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn deregister(&mut self, object: ObjectId) -> bool {
        let Some(slot) = self.by_id.remove(&object) else {
            return false;
        };
        self.index.remove(&slot);
        let tracked = &mut self.slots[slot as usize];
        Self::leave_wide(&mut self.wide, slot, tracked);
        // Invalidate pending expiries for this slot before recycling it.
        tracked.generation += 1;
        self.free_slots.push(slot);
        self.prune_superseded_expiries();
        true
    }

    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn apply_update(&mut self, object: ObjectId, update: &Update) -> bool {
        let Some(&slot) = self.by_id.get(&object) else {
            return false;
        };
        let tracked = &mut self.slots[slot as usize];
        let before = tracked.tracker.updates_applied();
        tracked.tracker.apply(update);
        if tracked.tracker.updates_applied() != before {
            // The update was accepted (not a stale sequence number): re-anchor
            // the index entry on the new reported state.
            Self::reindex(
                &self.config,
                &mut self.index,
                &mut self.wide,
                &mut self.expiries,
                slot,
                tracked,
                None,
            );
        }
        self.prune_superseded_expiries();
        true
    }

    /// Recovery: reinstates one object's tracker state from a durability
    /// snapshot. Tracker only — the index entry is derived state, written once
    /// by [`ShardState::rebuild_index`] when the recovery pass is over. Returns
    /// `false` when the object is not registered — recovery cannot invent a
    /// tracker because it would not know the predictor.
    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn restore_object(
        &mut self,
        object: ObjectId,
        update: &Update,
        updates_applied: u64,
        bytes_received: u64,
    ) -> bool {
        let Some(&slot) = self.by_id.get(&object) else {
            return false;
        };
        self.slots[slot as usize].tracker.restore(update, updates_applied, bytes_received);
        true
    }

    /// Recovery: applies one replayed frame's updates to `object`'s tracker
    /// under the staleness rules of live ingest, resolving the slot once for
    /// the frame. Tracker only, like [`ShardState::restore_object`]. Returns
    /// how many updates reached a registered tracker — what
    /// [`ShardState::apply_update`] would have answered `true` for.
    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn replay_updates(
        &mut self,
        object: ObjectId,
        updates: impl Iterator<Item = Update>,
    ) -> usize {
        let Some(&slot) = self.by_id.get(&object) else {
            return 0;
        };
        let tracker = &mut self.slots[slot as usize].tracker;
        let mut routed = 0;
        for update in updates {
            tracker.apply(&update);
            routed += 1;
        }
        routed
    }

    /// Recovery: derives the spatial index and the expiry heap afresh from the
    /// trackers' last reports. Every live slot's entry comes from
    /// [`ShardState::derive_entry`], the derivation the accepted-update path
    /// uses too, so every entry is bit-identical to the one per-update
    /// maintenance leaves behind, and the heap holds exactly one entry per
    /// mover. The grid entries go to one [`MovingIndex::bulk`] build in
    /// ascending slot order — the order that leaves the index a per-slot
    /// insert would — and the heap is heapified once.
    #[expect(clippy::indexing_slicing, reason = "free slots and `live` both index the arena")]
    pub(crate) fn rebuild_index(&mut self) {
        let mut live = vec![true; self.slots.len()];
        for &slot in &self.free_slots {
            live[slot as usize] = false;
        }
        self.index = MovingIndex::new(self.config.cell_size_m);
        self.wide.clear();
        let mut grid = Vec::with_capacity(self.by_id.len());
        let mut expiries = Vec::with_capacity(self.by_id.len());
        for ((slot, tracked), live) in (0u32..).zip(&mut self.slots).zip(live) {
            tracked.wide = false;
            if !live {
                continue;
            }
            match Self::derive_entry(&self.config, tracked, None) {
                None => {}
                Some(Placement::Wide) => self.wide.push(slot),
                Some(Placement::Grid(bbox)) => {
                    grid.push((slot, bbox));
                    expiries.extend(Self::expiry(slot, tracked));
                }
            }
        }
        self.index = MovingIndex::bulk(self.config.cell_size_m, grid);
        self.expiries = BinaryHeap::from(expiries);
    }

    /// Appends one durability-snapshot entry per object with applied state to
    /// `out` (objects still waiting for their first update carry no state and
    /// are skipped — recovery re-registers them empty, exactly as they were).
    /// Iteration order is arbitrary; the caller sorts.
    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn snapshot_entries_into(&self, out: &mut Vec<SnapshotEntry>) {
        for (&object, &slot) in &self.by_id {
            let tracked = &self.slots[slot as usize];
            let tracker = &tracked.tracker;
            let (Some(state), Some(sequence)) = (tracker.last_state(), tracker.last_sequence())
            else {
                continue;
            };
            out.push(SnapshotEntry {
                object: object.0,
                updates_applied: tracker.updates_applied(),
                bytes_received: tracker.bytes_received(),
                update: Update {
                    sequence,
                    state: *state,
                    // The tracker does not retain the original update kind and
                    // nothing downstream of `apply` depends on it; `Initial`
                    // is the canonical choice for a state that (re)starts a
                    // tracker.
                    kind: UpdateKind::Initial,
                },
            });
        }
    }

    /// Drops lazily-deleted entries from the top of the expiry heap (entries
    /// whose slot was re-anchored, deregistered or recycled since they were
    /// pushed). Called on the ingest path, which already holds the write
    /// lock, so an ingest-heavy but rarely-queried service does not
    /// accumulate one heap entry per update: for a frequently-updating object
    /// the superseded entries are exactly the earliest-expiring ones and get
    /// popped here.
    #[expect(clippy::indexing_slicing, reason = "heap entries hold slot ids this shard issued")]
    fn prune_superseded_expiries(&mut self) {
        while let Some(Reverse(top)) = self.expiries.peek() {
            if self.slots[top.slot as usize].generation == top.generation {
                break;
            }
            self.expiries.pop();
        }
    }

    /// (Re)writes the index entry of the object in `slot` from its last
    /// reported state ([`ShardState::derive_entry`]): in the grid, off the
    /// wide list if it was on it, or on the wide list, out of the grid.
    fn reindex(
        config: &ServiceConfig,
        index: &mut MovingIndex<u32>,
        wide: &mut Vec<u32>,
        expiries: &mut BinaryHeap<Reverse<Expiry>>,
        slot: u32,
        tracked: &mut TrackedSlot,
        extend_to: Option<f64>,
    ) {
        Self::leave_wide(wide, slot, tracked);
        match Self::derive_entry(config, tracked, extend_to) {
            None => {}
            Some(Placement::Wide) => {
                index.remove(&slot);
                wide.push(slot);
            }
            Some(Placement::Grid(bbox)) => {
                index.insert(slot, bbox);
                if let Some(expiry) = Self::expiry(slot, tracked) {
                    expiries.push(expiry);
                }
            }
        }
    }

    /// The index entry of an object from its last reported state — the one
    /// derivation behind both per-update maintenance and the rebuild — with
    /// the slot's generation bumped and its validity and wide flag set to
    /// match. With `extend_to = Some(t)` the validity is pushed past `t`
    /// (lazy re-grow on a stale query); otherwise it starts one horizon after
    /// the report. A box wider than `WIDE_CELLS` cells per axis goes on the
    /// wide list. `None` (and the slot untouched) for an object that has not
    /// reported yet.
    fn derive_entry(
        config: &ServiceConfig,
        tracked: &mut TrackedSlot,
        extend_to: Option<f64>,
    ) -> Option<Placement> {
        let state = tracked.tracker.last_state()?;
        let speed = state.speed.abs();
        let (valid_until, radius) = if speed < 1e-9 {
            (f64::INFINITY, config.slack_m)
        } else {
            let valid_until = extend_to.unwrap_or(state.timestamp) + config.horizon_s;
            (valid_until, speed * (valid_until - state.timestamp) + config.slack_m)
        };
        tracked.generation += 1;
        if 2.0 * radius > WIDE_CELLS * config.cell_size_m {
            tracked.valid_until = f64::INFINITY;
            tracked.wide = true;
            return Some(Placement::Wide);
        }
        tracked.valid_until = valid_until;
        Some(Placement::Grid(Aabb::around(state.position, radius)))
    }

    /// The heap entry of a slot whose entry is in the grid: none for a parked
    /// object, whose entry never expires.
    fn expiry(slot: u32, tracked: &TrackedSlot) -> Option<Reverse<Expiry>> {
        let at = tracked.valid_until;
        at.is_finite().then_some(Reverse(Expiry { at, slot, generation: tracked.generation }))
    }

    /// Takes `slot` off the wide list if it is on it.
    fn leave_wide(wide: &mut Vec<u32>, slot: u32, tracked: &mut TrackedSlot) {
        if std::mem::take(&mut tracked.wide) {
            if let Some(at) = wide.iter().position(|&s| s == slot) {
                wide.swap_remove(at);
            }
        }
    }

    /// The earliest instant at which some index entry may expire. Lazily
    /// deleted heap entries can make this conservative (too early), which only
    /// costs an unnecessary write-lock refresh.
    pub(crate) fn next_expiry(&self) -> f64 {
        self.expiries.peek().map(|Reverse(e)| e.at).unwrap_or(f64::INFINITY)
    }

    /// Re-grows every index entry whose validity ended at or before `t`.
    #[expect(clippy::indexing_slicing, reason = "heap entries hold slot ids this shard issued")]
    pub(crate) fn refresh_expired(&mut self, t: f64) {
        while let Some(Reverse(top)) = self.expiries.peek() {
            if top.at > t {
                break;
            }
            let Some(Reverse(expiry)) = self.expiries.pop() else {
                break; // unreachable: the peek above saw an entry
            };
            let tracked = &mut self.slots[expiry.slot as usize];
            if tracked.generation != expiry.generation {
                continue; // superseded, deregistered or recycled since pushed
            }
            Self::reindex(
                &self.config,
                &mut self.index,
                &mut self.wide,
                &mut self.expiries,
                expiry.slot,
                tracked,
                Some(t),
            );
        }
    }

    /// The position report for one object at time `t`.
    #[expect(clippy::indexing_slicing, reason = "by_id holds only slot ids this shard issued")]
    pub(crate) fn report_for(&self, object: ObjectId, t: f64) -> Option<PositionReport> {
        let slot = *self.by_id.get(&object)?;
        let tracker = &self.slots[slot as usize].tracker;
        let position = tracker.position_at(t)?;
        let age = tracker.last_state().map(|s| (t - s.timestamp).max(0.0)).unwrap_or(0.0);
        Some(PositionReport { object, position, information_age: age })
    }

    /// Passes 1+2 of the batch query kernels: walk the index cells for the
    /// candidate slot ids (deduplicated, unordered — the service imposes its
    /// own deterministic order on final results) and add the whole wide
    /// list, then predict every candidate at `t` into the contiguous
    /// struct-of-arrays buffers the filter passes run over.
    #[expect(clippy::indexing_slicing, reason = "index items are slot ids this shard issued")]
    fn collect_candidates(&self, area: &Aabb, t: f64, scratch: &mut CandidateScratch) {
        let CandidateScratch { seen, cand, xs, ys, ages, objects } = scratch;
        cand.clear();
        self.index.for_each_in_rect_unordered(area, seen, |entry| cand.push(entry.item));
        cand.extend_from_slice(&self.wide);
        xs.clear();
        ys.clear();
        ages.clear();
        objects.clear();
        for &slot in cand.iter() {
            let tracked = &self.slots[slot as usize];
            let Some(position) = tracked.tracker.position_at(t) else {
                continue;
            };
            let age =
                tracked.tracker.last_state().map(|s| (t - s.timestamp).max(0.0)).unwrap_or(0.0);
            xs.push(position.x);
            ys.push(position.y);
            ages.push(age);
            objects.push(tracked.object);
        }
    }

    /// Index-pruned range query: appends every object whose predicted position
    /// at `t` lies inside `area`, in unspecified order (the service sorts).
    /// Callers must have refreshed expiries ≥ `t`. With warm scratch buffers
    /// this performs zero heap allocations.
    #[expect(clippy::indexing_slicing, reason = "the SoA lanes are pushed together")]
    pub(crate) fn collect_in_rect(
        &self,
        area: &Aabb,
        t: f64,
        scratch: &mut CandidateScratch,
        out: &mut Vec<PositionReport>,
    ) {
        self.collect_candidates(area, t, scratch);
        let CandidateScratch { xs, ys, ages, objects, .. } = scratch;
        for i in 0..xs.len() {
            let position = Point::new(xs[i], ys[i]);
            if area.contains(&position) {
                out.push(PositionReport { object: objects[i], position, information_age: ages[i] });
            }
        }
    }

    /// Index-pruned nearest-candidate collection: appends `(distance, report)`
    /// for every object whose index box intersects the square of half-width
    /// `radius` around `from`. Conservative: every object whose *exact*
    /// predicted position is within `radius` of `from` is included. Scratch
    /// reuse as in [`ShardState::collect_in_rect`].
    #[expect(clippy::indexing_slicing, reason = "the SoA lanes are pushed together")]
    pub(crate) fn collect_near(
        &self,
        from: &Point,
        radius: f64,
        t: f64,
        scratch: &mut CandidateScratch,
        out: &mut Vec<(f64, PositionReport)>,
    ) {
        self.collect_candidates(&Aabb::around(*from, radius), t, scratch);
        let CandidateScratch { xs, ys, ages, objects, .. } = scratch;
        for i in 0..xs.len() {
            let position = Point::new(xs[i], ys[i]);
            // Exact `Point::distance` (with its sqrt), not the squared form:
            // the ordering is the same, but the *tie pattern* after rounding
            // is what the full-scan oracle in the equivalence tests sees, so
            // the kernel must produce bit-identical distances.
            out.push((
                from.distance(&position),
                PositionReport { object: objects[i], position, information_age: ages[i] },
            ));
        }
    }

    /// A radius from `from` guaranteed to cover every indexed entry.
    pub(crate) fn extent_radius(&self, from: &Point) -> f64 {
        self.index.extent_radius(from)
    }

    /// Index entries registered in the grid cell containing `from`.
    pub(crate) fn occupancy_at(&self, from: &Point) -> usize {
        self.index.occupancy_at(from)
    }
}

/// One lock stripe: a shard's state behind its own reader–writer lock.
pub(crate) struct Shard {
    state: RwLock<ShardState>,
    /// Write-lock acquisitions so far — the observable that lets tests (and
    /// operators) verify batched ingest takes each stripe lock once per
    /// batch instead of once per update.
    write_acquisitions: AtomicU64,
}

impl Shard {
    pub(crate) fn new(config: ServiceConfig) -> Self {
        Shard { state: RwLock::new(ShardState::new(config)), write_acquisitions: AtomicU64::new(0) }
    }

    /// Shared access for queries at time `t`, lazily re-growing expired index
    /// entries first (which needs the write lock, taken only when required).
    pub(crate) fn read_fresh<R>(&self, t: f64, f: impl FnOnce(&ShardState) -> R) -> R {
        {
            let state = self.state.read();
            if state.next_expiry() > t {
                return f(&state);
            }
        }
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.write();
        state.refresh_expired(t);
        f(&state)
    }

    /// Shared access for time-independent reads (counts, sums).
    pub(crate) fn read<R>(&self, f: impl FnOnce(&ShardState) -> R) -> R {
        f(&self.state.read())
    }

    /// Exclusive access for mutations.
    pub(crate) fn write<R>(&self, f: impl FnOnce(&mut ShardState) -> R) -> R {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        f(&mut self.state.write())
    }

    /// Number of write-lock acquisitions so far.
    pub(crate) fn write_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{LinearPredictor, ObjectState};
    use mbdr_geo::rng::SplitMix64;
    use std::collections::HashSet;

    enum Op {
        Register(ObjectId),
        Deregister(ObjectId),
        Frame(ObjectId, Vec<Update>),
    }

    /// Objects 0..IDS may be registered; a few ids beyond never are.
    const IDS: u64 = 40;

    /// A seeded stream over a small fleet: a quarter parked, the rest moving
    /// (a few at speeds that put their first box on the wide list),
    /// 1–8 updates per frame of which some are stale (older timestamp) or
    /// duplicates (same timestamp and sequence), interleaved with
    /// (re-)registrations and deregistrations. Returns the stream and how
    /// many `(re-registrations, slot-reusing registrations)` it holds.
    fn stream(seed: u64, ops: usize) -> (Vec<Op>, (usize, usize)) {
        let mut rng = SplitMix64::new(seed);
        let mut out: Vec<Op> = (0..IDS).map(|i| Op::Register(ObjectId(i))).collect();
        let mut registered = [true; IDS as usize];
        let mut freed = 0usize;
        let (mut reregistered, mut reused) = (0, 0);
        let mut clock = [(0u64, 0.0f64); IDS as usize + 4]; // (next sequence, last timestamp)
        for _ in 0..ops {
            let id = rng.below(IDS);
            match rng.below(100) {
                0..=5 => {
                    if registered[id as usize] {
                        reregistered += 1;
                    } else if freed > 0 {
                        freed -= 1;
                        reused += 1;
                    }
                    registered[id as usize] = true;
                    out.push(Op::Register(ObjectId(id)));
                }
                6..=11 => {
                    freed += usize::from(registered[id as usize]);
                    registered[id as usize] = false;
                    out.push(Op::Deregister(ObjectId(id)));
                }
                _ => {
                    let id = rng.below(IDS + 4);
                    let (sequence, last_t) = &mut clock[id as usize];
                    let mut updates = Vec::new();
                    for _ in 0..1 + rng.below(8) {
                        let (seq, t) = match rng.below(100) {
                            0..=14 => (rng.below(*sequence + 1), *last_t - rng.below(50) as f64),
                            15..=24 => (sequence.saturating_sub(1), *last_t),
                            _ => {
                                *sequence += 1;
                                *last_t += 0.5 + rng.below(40) as f64;
                                (*sequence - 1, *last_t)
                            }
                        };
                        // A quarter of the fleet is parked, bar the odd trip;
                        // one moving report in 16 claims a speed around or
                        // far past the one that makes its first box wide.
                        let parked = id.is_multiple_of(4) && rng.below(20) != 0;
                        let speed = match (parked, rng.below(64)) {
                            (true, _) => 0.0,
                            (false, hostile @ 0..=3) => {
                                [390.0, 400.0, 1e4, f64::from(f32::MAX)][hostile as usize]
                            }
                            (false, _) => 1.0 + rng.below(30) as f64,
                        };
                        let position = Point::new(
                            rng.below(20_000) as f64 - 10_000.0,
                            rng.below(20_000) as f64 - 10_000.0,
                        );
                        let heading = rng.below(628) as f64 / 100.0;
                        updates.push(Update {
                            sequence: seq,
                            state: ObjectState::basic(position, speed, heading, t),
                            kind: UpdateKind::DeviationBound,
                        });
                    }
                    out.push(Op::Frame(ObjectId(id), updates));
                }
            }
        }
        (out, (reregistered, reused))
    }

    /// Runs `ops` through the shard; frames go update by update through
    /// `apply_update` (`indexed`) or as a whole through `replay_updates`.
    /// Returns the number of updates routed to a registered tracker.
    fn run(shard: &mut ShardState, ops: &[Op], indexed: bool) -> usize {
        let mut routed = 0;
        for op in ops {
            match op {
                Op::Register(object) => shard.register(*object, Arc::new(LinearPredictor)),
                Op::Deregister(object) => {
                    shard.deregister(*object);
                }
                Op::Frame(object, updates) if indexed => {
                    routed += updates.iter().filter(|u| shard.apply_update(*object, u)).count();
                }
                Op::Frame(object, updates) => {
                    routed += shard.replay_updates(*object, updates.iter().copied());
                }
            }
        }
        routed
    }

    /// Every live slot carries the same tracker state, index box and validity
    /// on both sides, and both heaps expire next at the same instant.
    fn assert_same_derived_state(subject: &mut ShardState, oracle: &mut ShardState, what: &str) {
        assert_eq!(subject.by_id, oracle.by_id, "{what}: slot assignment");
        assert_eq!(subject.index.len(), oracle.index.len(), "{what}: indexed count");
        for (object, &slot) in &oracle.by_id {
            let (s, o) = (&subject.slots[slot as usize], &oracle.slots[slot as usize]);
            assert_eq!(s.tracker.last_state(), o.tracker.last_state(), "{what}: {object:?}");
            assert_eq!(s.tracker.updates_applied(), o.tracker.updates_applied(), "{what}");
            assert_eq!(subject.index.get(&slot), oracle.index.get(&slot), "{what}: {object:?}");
            assert_eq!(s.valid_until.to_bits(), o.valid_until.to_bits(), "{what}: {object:?}");
            assert_eq!(s.wide, o.wide, "{what}: {object:?}");
        }
        let sorted = |wide: &[u32]| {
            let mut wide = wide.to_vec();
            wide.sort_unstable();
            wide
        };
        assert_eq!(sorted(&subject.wide), sorted(&oracle.wide), "{what}: wide list");
        subject.prune_superseded_expiries();
        oracle.prune_superseded_expiries();
        assert_eq!(subject.next_expiry().to_bits(), oracle.next_expiry().to_bits(), "{what}");
    }

    #[test]
    fn rebuilt_index_equals_the_per_update_maintained_one() {
        let config = ServiceConfig { horizon_s: 20.0, ..ServiceConfig::default() };
        let (mut reregistered, mut reused, mut wide_after_rebuild) = (0, 0, 0);
        for seed in 0..24u64 {
            let (ops, (r, u)) = stream(0xD15C_0000 + seed, 700);
            reregistered += r;
            reused += u;
            // Up to `warm` both sides index per update (recovery into a shard
            // that already holds indexed state; 0 = a fresh one); up to `cut`
            // the subject only moves trackers; then it rebuilds.
            let warm = if seed.is_multiple_of(3) { 0 } else { IDS as usize + 10 * seed as usize };
            let cut = 500;
            let (mut subject, mut oracle) = (ShardState::new(config), ShardState::new(config));
            run(&mut oracle, &ops[..warm], true);
            run(&mut subject, &ops[..warm], true);
            let routed = run(&mut oracle, &ops[warm..cut], true);
            assert_eq!(run(&mut subject, &ops[warm..cut], false), routed, "seed {seed}");
            subject.rebuild_index();
            assert_same_derived_state(&mut subject, &mut oracle, "after the rebuild");

            // Exactly one live heap entry per mover with state in the grid,
            // none for parked or wide objects or objects still waiting for a
            // first report.
            wide_after_rebuild += subject.wide.len();
            let movers = subject
                .by_id
                .values()
                .map(|&slot| &subject.slots[slot as usize])
                .filter(|tracked| !tracked.wide)
                .filter_map(|tracked| tracked.tracker.last_state())
                .filter(|state| state.speed.abs() >= 1e-9)
                .count();
            let mut in_heap = HashSet::new();
            for Reverse(expiry) in subject.expiries.iter() {
                let tracked = &subject.slots[expiry.slot as usize];
                assert_eq!(tracked.generation, expiry.generation, "seed {seed}: a dead entry");
                assert_eq!(tracked.valid_until.to_bits(), expiry.at.to_bits());
                assert!(expiry.at.is_finite(), "seed {seed}: a parked object in the heap");
                assert!(in_heap.insert(expiry.slot), "seed {seed}: two entries for one slot");
            }
            assert_eq!(in_heap.len(), movers, "seed {seed}");

            // Placements are consistent after a rebuild: both sides keep
            // ingesting, then lazily re-grow, and stay equal.
            run(&mut oracle, &ops[cut..], true);
            run(&mut subject, &ops[cut..], true);
            assert_same_derived_state(&mut subject, &mut oracle, "after further ingest");
            let far = oracle.next_expiry() + 10.0 * config.horizon_s;
            for t in [oracle.next_expiry(), far] {
                oracle.refresh_expired(t);
                subject.refresh_expired(t);
                assert_same_derived_state(&mut subject, &mut oracle, "after a re-grow");
            }
        }
        assert!(reregistered > 0 && reused > 0, "the streams exercise both registration paths");
        assert!(wide_after_rebuild > 0, "fast reports put entries on the wide list");
    }

    #[test]
    fn a_silent_mover_leaves_the_grid_for_the_wide_list_until_it_reports() {
        let config = ServiceConfig::default();
        let mover = |t: f64, x: f64| Update {
            sequence: t as u64,
            state: ObjectState::basic(Point::new(x, 0.0), 10.0, std::f64::consts::FRAC_PI_2, t),
            kind: UpdateKind::DeviationBound,
        };
        let parked = Update {
            sequence: 0,
            state: ObjectState::basic(Point::new(-500.0, 0.0), 0.0, 0.0, 0.0),
            kind: UpdateKind::Initial,
        };
        // `twin` sees the same reports and never a far-future query.
        let (mut shard, mut twin) = (ShardState::new(config), ShardState::new(config));
        for s in [&mut shard, &mut twin] {
            s.register(ObjectId(1), Arc::new(LinearPredictor));
            s.register(ObjectId(2), Arc::new(LinearPredictor));
            assert!(s.apply_update(ObjectId(1), &mover(0.0, 0.0)));
            assert!(s.apply_update(ObjectId(2), &parked));
        }
        let slot = shard.by_id[&ObjectId(1)];
        let in_grid = |s: &ShardState| s.index.contains_key(&slot);

        // A re-grow below the cap stays in the grid.
        shard.refresh_expired(100.0);
        assert!(in_grid(&shard) && shard.wide.is_empty());

        // Far past it: off the grid, onto the wide list, out of the heap.
        let cells_before = shard.index.occupied_cells();
        shard.refresh_expired(1e9);
        assert!(!in_grid(&shard));
        assert_eq!(shard.wide, [slot]);
        assert!(shard.slots[slot as usize].wide);
        assert!(shard.index.occupied_cells() < cells_before, "its cells are released");
        assert_eq!(shard.indexed_count(), 2, "a wide entry still counts as indexed");
        shard.prune_superseded_expiries();
        assert_eq!(shard.next_expiry(), f64::INFINITY, "nothing left to re-grow");

        // Every query takes it as a candidate; the exact filter decides.
        let mut scratch = CandidateScratch::default();
        let mut out = Vec::new();
        let at = Point::new(1e10, 0.0);
        shard.collect_in_rect(&Aabb::around(at, 1.0), 1e9, &mut scratch, &mut out);
        assert_eq!(out.iter().map(|r| r.object).collect::<Vec<_>>(), [ObjectId(1)]);
        out.clear();
        shard.collect_in_rect(&Aabb::around(Point::ORIGIN, 1.0), 1e9, &mut scratch, &mut out);
        assert!(out.is_empty());
        let mut near = Vec::new();
        shard.collect_near(&Point::new(-500.0, 0.0), 1.0, 1e9, &mut scratch, &mut near);
        assert_eq!(near.len(), 2, "the parked object and the wide one");

        // Its next accepted update writes the entry the twin writes.
        for s in [&mut shard, &mut twin] {
            assert!(s.apply_update(ObjectId(1), &mover(2e9, 7.0)));
        }
        assert!(shard.wide.is_empty() && !shard.slots[slot as usize].wide);
        assert_same_derived_state(&mut shard, &mut twin, "after the update");

        // Deregistration, re-registration and a rebuild each empty the list.
        let regrow_and_check = |s: &mut ShardState, what: &str| {
            s.refresh_expired(1e11);
            assert_eq!(s.wide, [slot], "{what}");
        };
        regrow_and_check(&mut shard, "before the deregistration");
        assert!(shard.deregister(ObjectId(1)));
        assert!(shard.wide.is_empty());
        assert_eq!(shard.indexed_count(), 1);
        shard.register(ObjectId(1), Arc::new(LinearPredictor));
        assert_eq!(shard.by_id[&ObjectId(1)], slot, "the slot is reused");
        assert!(shard.apply_update(ObjectId(1), &mover(3e9, 0.0)));
        regrow_and_check(&mut shard, "before the re-registration");
        shard.register(ObjectId(1), Arc::new(LinearPredictor));
        assert!(shard.wide.is_empty() && !shard.slots[slot as usize].wide);
        assert!(shard.apply_update(ObjectId(1), &mover(4e9, 0.0)));
        regrow_and_check(&mut shard, "before the rebuild");
        shard.rebuild_index();
        assert!(shard.wide.is_empty() && in_grid(&shard));
        assert!(!shard.slots[slot as usize].wide);
    }

    #[test]
    fn rebuild_leaves_deregistered_and_unreported_slots_out() {
        let mut shard = ShardState::new(ServiceConfig::default());
        let report = |x: f64, speed: f64| Update {
            sequence: 0,
            state: ObjectState::basic(Point::new(x, 0.0), speed, 0.0, 1.0),
            kind: UpdateKind::Initial,
        };
        for i in 0..3 {
            shard.register(ObjectId(i), Arc::new(LinearPredictor));
        }
        assert_eq!(shard.replay_updates(ObjectId(0), [report(0.0, 5.0)].into_iter()), 1);
        assert_eq!(shard.replay_updates(ObjectId(1), [report(900.0, 0.0)].into_iter()), 1);
        assert_eq!(shard.replay_updates(ObjectId(9), [report(0.0, 5.0)].into_iter()), 0);
        assert_eq!(shard.indexed_count(), 0, "replay moves trackers only");
        // Object 0 leaves: its slot keeps a tracker with state but is free.
        assert!(shard.deregister(ObjectId(0)));
        shard.rebuild_index();
        assert_eq!(shard.indexed_count(), 1, "only the parked, reported object 1");
        assert_eq!(shard.next_expiry(), f64::INFINITY, "a parked object never expires");
        // The freed slot is reused by a newcomer, which indexes normally.
        shard.register(ObjectId(7), Arc::new(LinearPredictor));
        assert!(shard.apply_update(ObjectId(7), &report(50.0, 5.0)));
        assert_eq!(shard.indexed_count(), 2);
        assert!(shard.next_expiry().is_finite());
    }
}
