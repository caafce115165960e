//! The million-object-scale workload: synthetic fleets placed uniformly or
//! with rush-hour hotspot skew, ingested into one sharded
//! [`LocationService`] and queried with rect / nearest traffic.
//!
//! Unlike [`service_workload`](crate::service_workload), which replays full
//! protocol traces for tens of objects, this workload is about the *spatial
//! data plane*: it generates bare position updates directly (no uplink
//! protocol, no accuracy accounting) so object count — not trace synthesis —
//! is the dominant cost, and N can reach 10⁶.
//!
//! ## The skew model
//!
//! Real fleets are not uniform: rush hour concentrates a large fraction of
//! the objects in a few grid cells (the business district, the stadium). The
//! hotspot mode models this with a Zipf-weighted draw over a small contiguous
//! block of [`ScaleConfig::hotspot_cells`] cells at the world's centre:
//! each object joins the hotspot with probability
//! [`ScaleConfig::hotspot_fraction`] (~30%), and within the hotspot the cell
//! is Zipf(1)-distributed, so the first cell alone holds roughly
//! `fraction / H_harmonic` of the whole fleet. Everything is driven by one
//! seeded [`SplitMix64`] stream, so reports are bit-deterministic for a
//! given config — which is what lets the `BENCH_scale.json` gate hold the
//! result counts and occupancy diagnostics strictly.
//!
//! Ingest runs [`ScaleConfig::update_rounds`] full-fleet rounds *after* the
//! initial placement round, so the steady-state move path (unregister from
//! the old cells, re-register in the new) dominates the workload — that
//! is the path hotspot density punishes.

use mbdr_core::{LinearPredictor, ObjectState, Predictor, Update, UpdateKind};
use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{
    IndexStats, LocationService, ObjectId, PositionReport, QueryScratch, ServiceConfig,
};
use std::sync::Arc;

/// Configuration of one scale-workload run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Fleet size (the N axis; up to 10⁶).
    pub objects: usize,
    /// Service lock stripes.
    pub shards: usize,
    /// Grid cell size, metres (also the service's index cell size).
    pub cell_size_m: f64,
    /// World half-extent in cells: the world spans `±world_cells` cells in
    /// each axis around the origin.
    pub world_cells: i64,
    /// Hotspot skew on (rush hour) or off (uniform placement).
    pub hotspot: bool,
    /// Number of cells in the hotspot block.
    pub hotspot_cells: usize,
    /// Fraction of the fleet drawn into the hotspot block.
    pub hotspot_fraction: f64,
    /// Fraction of objects that move between rounds (the rest are parked).
    pub mover_fraction: f64,
    /// Full-fleet update rounds after the initial placement round.
    pub update_rounds: usize,
    /// Seconds of simulated time between rounds.
    pub round_interval_s: f64,
    /// Rect queries issued after ingest.
    pub rect_queries: usize,
    /// Nearest queries issued after ingest.
    pub nearest_queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The standard configuration for a fleet of `objects`, in uniform or
    /// hotspot mode (the two points of the baseline grid differ only here).
    pub fn standard(objects: usize, hotspot: bool, seed: u64) -> Self {
        ScaleConfig {
            objects,
            shards: 16,
            cell_size_m: 250.0,
            world_cells: 40,
            hotspot,
            hotspot_cells: 8,
            hotspot_fraction: 0.3,
            mover_fraction: 0.1,
            update_rounds: 2,
            round_interval_s: 10.0,
            rect_queries: 400,
            nearest_queries: 400,
            seed,
        }
    }
}

/// What one scale-workload run counted. Every field is seed-deterministic
/// and gated by `BENCH_scale.json`; the time the same pipeline takes
/// is `benchmark/`'s `ingest_durable` and `query_hotspot` metrics.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Fleet size.
    pub objects: usize,
    /// Whether hotspot skew was on.
    pub hotspot: bool,
    /// Updates ingested (placement round + update rounds).
    pub updates_applied: u64,
    /// Rect queries issued.
    pub rect_queries: usize,
    /// Nearest queries issued.
    pub nearest_queries: usize,
    /// Total rect-query results (seed-deterministic).
    pub rect_hits: u64,
    /// Total nearest-query results (seed-deterministic).
    pub nearest_hits: u64,
    /// Objects carried in the shard indexes after ingest.
    pub indexed: usize,
    /// Occupied grid cells summed over shards after ingest.
    pub occupied_cells: usize,
    /// Highest entry count in any single cell — the skew observable; in
    /// hotspot mode this is a large fraction of one shard's fleet.
    pub max_cell_occupancy: usize,
    /// Index candidates inspected across all queries, warm-up included
    /// (duplicates included: one inspection per overlapped cell).
    pub candidates_inspected: u64,
    /// Unique candidates after deduplication.
    pub candidates_unique: u64,
    /// Rings the nearest queries collected, warm-up included: one per
    /// query that settled in its first ring, more for each doubling.
    pub nearest_rings: u64,
}

/// Per-object motion state: parked objects re-report the same position every
/// round; movers advance along a fixed heading at constant speed (matching
/// the linear predictor the server runs for them).
struct Motion {
    base: Point,
    speed: f64,
    heading: f64,
}

impl Motion {
    fn position_at(&self, t: f64) -> Point {
        // Same axis convention as LinearPredictor: heading 0 = +y.
        Point::new(
            self.base.x + self.speed * t * self.heading.sin(),
            self.base.y + self.speed * t * self.heading.cos(),
        )
    }

    fn update(&self, sequence: u64, t: f64) -> Update {
        Update {
            sequence,
            state: ObjectState::basic(self.position_at(t), self.speed, self.heading, t),
            kind: UpdateKind::DeviationBound,
        }
    }
}

/// The hotspot block: a contiguous strip of cells straddling the world
/// centre, listed in Zipf rank order (rank 0 = densest).
fn hotspot_block(config: &ScaleConfig) -> Vec<(i64, i64)> {
    (0..config.hotspot_cells as i64).map(|i| (i % 4, i / 4)).collect()
}

/// Draws a hotspot cell with Zipf(1) weights (`w_rank ∝ 1 / (rank + 1)`).
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

fn place_fleet(config: &ScaleConfig, rng: &mut SplitMix64) -> Vec<Motion> {
    let cell = config.cell_size_m;
    let world = config.world_cells as f64 * cell;
    let block = hotspot_block(config);
    (0..config.objects)
        .map(|_| {
            let base = if config.hotspot && rng.next_f64() < config.hotspot_fraction {
                let (cx, cy) = block[zipf_rank(rng, block.len())];
                Point::new((cx as f64 + rng.next_f64()) * cell, (cy as f64 + rng.next_f64()) * cell)
            } else {
                Point::new(
                    (rng.next_f64() * 2.0 - 1.0) * world,
                    (rng.next_f64() * 2.0 - 1.0) * world,
                )
            };
            let (speed, heading) = if rng.next_f64() < config.mover_fraction {
                (3.0 + 12.0 * rng.next_f64(), rng.next_f64() * std::f64::consts::TAU)
            } else {
                (0.0, 0.0)
            };
            Motion { base, speed, heading }
        })
        .collect()
}

/// Runs the scale workload. Single-threaded by design: every count in the
/// report is reproducible bit-for-bit, so the baseline gate can be strict.
pub fn run_scale_workload(config: &ScaleConfig) -> ScaleReport {
    let mut rng = SplitMix64::new(config.seed ^ 0xA076_1D64_78BD_642F);
    let fleet = place_fleet(config, &mut rng);

    let service = LocationService::with_config(ServiceConfig {
        shards: config.shards,
        cell_size_m: config.cell_size_m,
        ..ServiceConfig::default()
    });
    let predictor: Arc<dyn Predictor> = Arc::new(LinearPredictor);
    for id in 0..config.objects as u64 {
        service.register(ObjectId(id), Arc::clone(&predictor));
    }

    // --- Ingest: placement round + update rounds, batched per round.
    let mut updates_applied = 0u64;
    let mut batch: Vec<(ObjectId, Update)> = Vec::with_capacity(config.objects);
    for round in 0..=config.update_rounds {
        let t = round as f64 * config.round_interval_s;
        batch.clear();
        batch.extend(
            fleet
                .iter()
                .enumerate()
                .map(|(id, m)| (ObjectId(id as u64), m.update(round as u64, t))),
        );
        updates_applied += service.apply_batch(&batch) as u64;
    }
    // Exhaustive, no `..`: a new index statistic that is not reported is a
    // compile error.
    let IndexStats { indexed, occupied_cells, max_cell_occupancy } = service.index_stats();

    // --- Queries at the last report instant (inside every validity horizon).
    // Hotspot mode aims half the traffic at the dense block, mirroring real
    // load: the queries go where the objects are.
    let t_q = config.update_rounds as f64 * config.round_interval_s;
    let cell = config.cell_size_m;
    let world = config.world_cells as f64 * cell;
    let mut scratch = QueryScratch::default();
    let mut out: Vec<PositionReport> = Vec::new();

    let rect_for = |i: usize, rng: &mut SplitMix64| {
        let center = if config.hotspot && i.is_multiple_of(2) {
            Point::new(rng.next_f64() * 4.0 * cell, rng.next_f64() * 2.0 * cell)
        } else {
            Point::new((rng.next_f64() * 2.0 - 1.0) * world, (rng.next_f64() * 2.0 - 1.0) * world)
        };
        Aabb::around(center, cell + rng.next_f64() * 5.0 * cell)
    };
    let nearest_for = |i: usize, rng: &mut SplitMix64| {
        let from = if config.hotspot && i.is_multiple_of(2) {
            Point::new(rng.next_f64() * 4.0 * cell, rng.next_f64() * 2.0 * cell)
        } else {
            Point::new((rng.next_f64() * 2.0 - 1.0) * world, (rng.next_f64() * 2.0 - 1.0) * world)
        };
        (from, 1 + rng.below(16) as usize)
    };

    // Eight warm-up queries. They draw from the seeded stream and count in
    // the dedup counters, so the baselines depend on them.
    for i in 0..8 {
        service.objects_in_rect_into(&rect_for(i, &mut rng), t_q, &mut scratch, &mut out);
        let (from, k) = nearest_for(i, &mut rng);
        service.nearest_objects_into(&from, t_q, k, &mut scratch, &mut out);
    }

    let mut rect_hits = 0u64;
    for i in 0..config.rect_queries {
        service.objects_in_rect_into(&rect_for(i, &mut rng), t_q, &mut scratch, &mut out);
        rect_hits += out.len() as u64;
    }
    let mut nearest_hits = 0u64;
    for i in 0..config.nearest_queries {
        let (from, k) = nearest_for(i, &mut rng);
        service.nearest_objects_into(&from, t_q, k, &mut scratch, &mut out);
        nearest_hits += out.len() as u64;
    }
    let (candidates_inspected, candidates_unique) = scratch.dedup_counters();
    let (_, nearest_rings) = scratch.ring_counters();

    ScaleReport {
        objects: config.objects,
        hotspot: config.hotspot,
        updates_applied,
        rect_queries: config.rect_queries,
        nearest_queries: config.nearest_queries,
        rect_hits,
        nearest_hits,
        indexed,
        occupied_cells,
        max_cell_occupancy,
        candidates_inspected,
        candidates_unique,
        nearest_rings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_hotspot_runs_are_deterministic_and_skew_is_visible() {
        let n = 3_000;
        let uniform = run_scale_workload(&ScaleConfig {
            rect_queries: 40,
            nearest_queries: 40,
            ..ScaleConfig::standard(n, false, 11)
        });
        let hotspot = run_scale_workload(&ScaleConfig {
            rect_queries: 40,
            nearest_queries: 40,
            ..ScaleConfig::standard(n, true, 11)
        });
        assert_eq!(uniform.indexed, n);
        assert_eq!(hotspot.indexed, n);
        assert_eq!(uniform.updates_applied, 3 * n as u64);
        // Hotspot placement concentrates ~30% of the fleet in 8 cells: the
        // densest cell must dwarf the uniform world's densest cell.
        assert!(
            hotspot.max_cell_occupancy > 4 * uniform.max_cell_occupancy,
            "hotspot {} vs uniform {}",
            hotspot.max_cell_occupancy,
            uniform.max_cell_occupancy
        );
        assert!(hotspot.occupied_cells < uniform.occupied_cells);
        assert!(hotspot.rect_hits > 0 && hotspot.nearest_hits > 0);

        // Same config, same numbers — the property the strict gate rests on.
        let again = run_scale_workload(&ScaleConfig {
            rect_queries: 40,
            nearest_queries: 40,
            ..ScaleConfig::standard(n, true, 11)
        });
        assert_eq!(again.rect_hits, hotspot.rect_hits);
        assert_eq!(again.nearest_hits, hotspot.nearest_hits);
        assert_eq!(again.max_cell_occupancy, hotspot.max_cell_occupancy);
        assert_eq!(again.candidates_inspected, hotspot.candidates_inspected);
    }

    #[test]
    fn query_answers_match_a_full_scan_reference() {
        // The workload's service answers must equal brute force over the
        // fleet's exact predicted positions — on a skewed fleet, where the
        // index does the most pruning work.
        let config = ScaleConfig {
            rect_queries: 0,
            nearest_queries: 0,
            ..ScaleConfig::standard(2_000, true, 5)
        };
        let mut rng = SplitMix64::new(config.seed ^ 0xA076_1D64_78BD_642F);
        let fleet = place_fleet(&config, &mut rng);
        let service = LocationService::with_config(ServiceConfig {
            shards: config.shards,
            cell_size_m: config.cell_size_m,
            ..ServiceConfig::default()
        });
        let predictor: Arc<dyn Predictor> = Arc::new(LinearPredictor);
        for id in 0..config.objects as u64 {
            service.register(ObjectId(id), Arc::clone(&predictor));
        }
        for (id, m) in fleet.iter().enumerate() {
            service.apply_update(ObjectId(id as u64), &m.update(0, 0.0));
        }
        let t = 7.0;
        let area = Aabb::around(Point::new(2.0 * config.cell_size_m, 100.0), 700.0);
        let got = service.objects_in_rect(&area, t);
        let mut expected: Vec<ObjectId> = fleet
            .iter()
            .enumerate()
            .filter(|(_, m)| area.contains(&m.position_at(t)))
            .map(|(id, _)| ObjectId(id as u64))
            .collect();
        expected.sort_unstable();
        assert!(!expected.is_empty(), "query area hits the hotspot");
        assert_eq!(got.iter().map(|r| r.object).collect::<Vec<_>>(), expected);

        let nn = service.nearest_objects(&Point::new(200.0, 200.0), t, 12);
        let mut brute: Vec<(f64, ObjectId)> = fleet
            .iter()
            .enumerate()
            .map(|(id, m)| {
                (Point::new(200.0, 200.0).distance(&m.position_at(t)), ObjectId(id as u64))
            })
            .collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(
            nn.iter().map(|r| r.object).collect::<Vec<_>>(),
            brute[..12].iter().map(|(_, id)| *id).collect::<Vec<_>>()
        );
    }
}
