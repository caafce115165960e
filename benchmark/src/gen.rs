//! The load generator: everything the program under test receives is made
//! here from the seed, and nothing else reaches it.
//!
//! The fleet geometry is `mbdr_sim::ScaleConfig::standard`'s (16 shards,
//! 250 m cells, a world of ±40 cells, 30 % of a hotspot fleet Zipf-drawn into
//! a 4×2 block of cells) rebuilt here because the benchmark needs the frames
//! as bytes, round by round, and the queries one at a time.

use mbdr_core::{Frame, ObjectState, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use std::time::Duration;

/// Updates batched into one frame: eight one-per-second fixes per uplink.
pub const UPDATES_PER_FRAME: usize = 8;
pub const CELL_M: f64 = 250.0;
pub const WORLD_CELLS: f64 = 40.0;
pub const SHARDS: usize = 16;
const HOTSPOT_CELLS: usize = 8;
const HOTSPOT_FRACTION: f64 = 0.3;
/// Rect sides and nearest `k`s the query mixes cycle through.
pub const RECT_SIDES_M: [f64; 3] = [250.0, 1_000.0, 4_000.0];
pub const NEAREST_KS: [usize; 3] = [1, 8, 64];

/// SplitMix64: one seeded stream per generator, so inputs repeat exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Parked objects re-report one position; movers advance along a fixed
/// heading at constant speed, which is what `LinearPredictor` predicts.
#[derive(Debug, Clone, Copy)]
pub struct Motion {
    base: Point,
    speed: f64,
    heading: f64,
}

impl Motion {
    pub fn is_mover(&self) -> bool {
        self.speed > 0.0
    }

    fn update(&self, sequence: u64, t: f64) -> Update {
        // Same axis convention as LinearPredictor: heading 0 = +y.
        let position = Point::new(
            self.base.x + self.speed * t * self.heading.sin(),
            self.base.y + self.speed * t * self.heading.cos(),
        );
        Update {
            sequence,
            state: ObjectState::basic(position, self.speed, self.heading, t),
            kind: UpdateKind::DeviationBound,
        }
    }

    /// The frame `object` sends in `round`: `updates` fixes one second apart,
    /// the last at [`round_time`]`(round)`.
    pub fn frame(&self, object: u64, round: u64, updates: usize) -> Frame {
        let first = round * UPDATES_PER_FRAME as u64 + (UPDATES_PER_FRAME - updates) as u64;
        Frame {
            source: object,
            updates: (0..updates as u64)
                .map(|u| self.update(first + u, (first + u) as f64))
                .collect(),
        }
    }
}

/// Timestamp of the last fix of `round` — the instant queries are asked at.
pub fn round_time(round: u64) -> f64 {
    (round * UPDATES_PER_FRAME as u64 + UPDATES_PER_FRAME as u64 - 1) as f64
}

fn zipf_rank(rng: &mut SplitMix64, n: usize) -> usize {
    let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut target = rng.next_f64() * harmonic;
    for rank in 0..n {
        target -= 1.0 / (rank + 1) as f64;
        if target <= 0.0 {
            return rank;
        }
    }
    n - 1
}

fn uniform_point(rng: &mut SplitMix64) -> Point {
    let world = WORLD_CELLS * CELL_M;
    Point::new((rng.next_f64() * 2.0 - 1.0) * world, (rng.next_f64() * 2.0 - 1.0) * world)
}

/// A point inside the 4×2-cell hotspot block.
fn hotspot_point(rng: &mut SplitMix64) -> Point {
    Point::new(rng.next_f64() * 4.0 * CELL_M, rng.next_f64() * 2.0 * CELL_M)
}

/// Places `objects` objects uniformly, or with `hotspot` skew; each is a
/// mover with probability `mover_fraction`.
pub fn place_fleet(
    objects: usize,
    hotspot: bool,
    mover_fraction: f64,
    rng: &mut SplitMix64,
) -> Vec<Motion> {
    (0..objects)
        .map(|_| {
            let base = if hotspot && rng.next_f64() < HOTSPOT_FRACTION {
                let rank = zipf_rank(rng, HOTSPOT_CELLS) as f64;
                let (cx, cy) = (rank % 4.0, (rank / 4.0).floor());
                Point::new((cx + rng.next_f64()) * CELL_M, (cy + rng.next_f64()) * CELL_M)
            } else {
                uniform_point(rng)
            };
            let (speed, heading) = if rng.next_f64() < mover_fraction {
                (3.0 + 12.0 * rng.next_f64(), rng.next_f64() * std::f64::consts::TAU)
            } else {
                (0.0, 0.0)
            };
            Motion { base, speed, heading }
        })
        .collect()
}

/// One round's encoded frames, back to back in one buffer.
#[derive(Debug, Default)]
pub struct FrameBatch {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl FrameBatch {
    /// Re-fills the batch with the frames the objects in `range` send in
    /// `round` (`movers_only`: parked objects stay silent).
    pub fn fill(
        &mut self,
        fleet: &[Motion],
        range: std::ops::Range<usize>,
        round: u64,
        updates: usize,
        movers_only: bool,
    ) {
        self.bytes.clear();
        self.ends.clear();
        for object in range {
            let motion = &fleet[object];
            if movers_only && !motion.is_mover() {
                continue;
            }
            self.push(&motion.frame(object as u64, round, updates));
        }
    }

    /// Bytes these frames occupy on the uplink — each as one ingest message
    /// with its length prefix — per update they carry.
    pub fn wire_bytes_per_update(&self, updates_per_frame: usize) -> f64 {
        let mut wire = Vec::new();
        let mut body = Vec::new();
        for frame in self.iter() {
            body.clear();
            body.extend_from_slice(&mbdr_core::Request::Ingest(frame.to_vec()).encode());
            let _ = mbdr_net::transport::write_message(&mut wire, &body);
        }
        wire.len() as f64 / (self.len() * updates_per_frame).max(1) as f64
    }

    pub fn push(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.bytes).expect("generated states are finite");
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// `0..len` cut into consecutive ranges of at most `size`.
pub fn batches(len: usize, size: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len).step_by(size).map(move |start| start..(start + size).min(len))
}

/// A generated query, kept as data so the reference check can replay it.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    Rect(Aabb),
    Nearest(Point, usize),
}

impl Query {
    /// The query's class within its kind, `0..QUERY_CLASSES`: its size (rect
    /// side or `k`) and whether it is aimed at the hotspot. Queries of one
    /// class cost about the same; classes are up to ×100 apart.
    pub fn class(&self, hot: bool) -> usize {
        let size = match self {
            Query::Rect(area) => {
                let side = area.max.x - area.min.x;
                RECT_SIDES_M.iter().position(|s| (s - side).abs() < 1.0)
            }
            Query::Nearest(_, k) => NEAREST_KS.iter().position(|n| n == k),
        };
        size.unwrap_or(0) + if hot { RECT_SIDES_M.len() } else { 0 }
    }
}

/// Classes per query kind: three sizes, uniform or hot.
pub const QUERY_CLASSES: usize = 6;

/// The `i`-th rect query: sides cycle through [`RECT_SIDES_M`]; with
/// `hot_half`, even `i` are centred in the hotspot block.
pub fn rect_query(i: usize, hot_half: bool, rng: &mut SplitMix64) -> Aabb {
    let centre =
        if hot_half && i.is_multiple_of(2) { hotspot_point(rng) } else { uniform_point(rng) };
    Aabb::around(centre, RECT_SIDES_M[(i / 2) % 3] / 2.0)
}

/// The `i`-th nearest query: `k` cycles through [`NEAREST_KS`].
pub fn nearest_query(i: usize, hot_half: bool, rng: &mut SplitMix64) -> (Point, usize) {
    let from =
        if hot_half && i.is_multiple_of(2) { hotspot_point(rng) } else { uniform_point(rng) };
    (from, NEAREST_KS[(i / 2) % 3])
}

/// Whether query `i` of a `hot_half` mix is aimed at the hotspot.
pub fn is_hot(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Open-loop schedule: tick `i` is due at `i × period` after the start, no
/// matter how late earlier ticks ran. Lateness is measured against that fixed
/// schedule, so a stall delays — and is charged to — every tick it overlaps
/// instead of silently shifting the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    period: Duration,
}

impl Pacer {
    pub fn new(period: Duration) -> Self {
        Pacer { period }
    }

    /// When tick `i` is due, as an offset from the start of the schedule.
    pub fn due(&self, tick: u64) -> Duration {
        self.period * u32::try_from(tick).expect("tick count fits u32")
    }

    /// How long to sleep at `elapsed` before tick `tick` (zero when late).
    pub fn wait(&self, tick: u64, elapsed: Duration) -> Duration {
        self.due(tick).saturating_sub(elapsed)
    }

    /// How late tick `tick` is when it starts at `elapsed`.
    pub fn lateness(&self, tick: u64, elapsed: Duration) -> Duration {
        elapsed.saturating_sub(self.due(tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Digest;

    #[test]
    fn open_loop_due_times_do_not_shift_after_a_stall() {
        let p = Pacer::new(Duration::from_millis(10));
        assert_eq!(p.due(0), Duration::ZERO);
        assert_eq!(p.due(7), Duration::from_millis(70));
        // On time: sleep the remainder, no lateness.
        assert_eq!(p.wait(3, Duration::from_millis(24)), Duration::from_millis(6));
        assert_eq!(p.lateness(3, Duration::from_millis(24)), Duration::ZERO);
        // A 35 ms stall during tick 3: ticks 4, 5 and 6 are all late against
        // their original due times, and none of them sleeps.
        let after_stall = Duration::from_millis(30 + 35);
        assert_eq!(p.lateness(4, after_stall), Duration::from_millis(25));
        assert_eq!(p.wait(4, after_stall), Duration::ZERO);
        assert_eq!(p.lateness(6, after_stall), Duration::from_millis(5));
        // Tick 7 is back on the original schedule, not on a shifted one.
        assert_eq!(p.wait(7, after_stall), Duration::from_millis(5));
    }

    fn fleet_digest(seed: u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let fleet = place_fleet(500, true, 0.25, &mut rng);
        let mut batch = FrameBatch::default();
        batch.fill(&fleet, 0..fleet.len(), 3, UPDATES_PER_FRAME, false);
        let mut d = Digest::default();
        d.bytes(batch.bytes());
        for i in 0..20 {
            let r = rect_query(i, true, &mut rng);
            d.f64(r.min.x);
            d.f64(r.max.y);
        }
        d.value()
    }

    #[test]
    fn same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        assert_eq!(fleet_digest(2001), fleet_digest(2001));
        assert_ne!(fleet_digest(2001), fleet_digest(2002));
    }

    #[test]
    fn frames_carry_increasing_timestamps_ending_at_the_round_time() {
        let mut rng = SplitMix64::new(1);
        let fleet = place_fleet(4, false, 1.0, &mut rng);
        let f1 = fleet[2].frame(2, 1, UPDATES_PER_FRAME);
        let f2 = fleet[2].frame(2, 2, 1);
        assert_eq!(f1.source, 2);
        assert_eq!(f1.updates.len(), UPDATES_PER_FRAME);
        assert!(f1.updates.windows(2).all(|w| w[0].state.timestamp < w[1].state.timestamp));
        assert_eq!(f1.updates.last().unwrap().state.timestamp, round_time(1));
        assert_eq!(f2.updates.len(), 1);
        assert_eq!(f2.updates[0].state.timestamp, round_time(2));
        assert!(f2.updates[0].sequence > f1.updates.last().unwrap().sequence);
    }

    #[test]
    fn hotspot_queries_alternate_and_cycle_their_sizes() {
        let mut rng = SplitMix64::new(9);
        for i in 0..12 {
            let r = rect_query(i, true, &mut rng);
            assert!((r.max.x - r.min.x - RECT_SIDES_M[(i / 2) % 3]).abs() < 1e-6);
            if is_hot(i) {
                let c = Point::new((r.min.x + r.max.x) / 2.0, (r.min.y + r.max.y) / 2.0);
                assert!((0.0..=4.0 * CELL_M).contains(&c.x) && (0.0..=2.0 * CELL_M).contains(&c.y));
            }
        }
    }
}
