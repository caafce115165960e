//! `device_fleet`: the paper's pipeline, hand-assembled.
//!
//! Full-length traces of the four scenarios × three trace seeds, each run
//! under the paper's three protocols at `u_s` ∈ {50, 100, 200} m. Per
//! sighting: `UpdateProtocol::on_sighting` → `Update::encode_into` →
//! `UpdateView::parse` → `ServerTracker::apply` → `position_at` against the
//! ground truth. Closed loop, one thread. Nothing of `locserver`, `journal`
//! or `net` runs here.

use crate::gen::SplitMix64;
use crate::report::{Phase, PhaseCfg, PhaseReport};
use crate::stats;
use crate::trace::Tracer;
use mbdr_core::{ServerTracker, Sighting, UpdateView};
use mbdr_mapmatch::{MapMatcher, MatcherConfig};
use mbdr_sim::protocols::ProtocolContext;
use mbdr_sim::{run_protocol, ProtocolKind, RunConfig};
use mbdr_trace::{Scenario, ScenarioData, ScenarioKind};
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics this phase measures.
/// Shadow passes over one trace: each protocol fed the trace's sightings and
/// nothing else, then its updates encoded, a batch of calls per span.
fn shadow_protocol_layers(p: &Prepared, tracer: &mut Tracer) {
    let mut buf = Vec::with_capacity(64 * BATCH);
    for kind in ProtocolKind::PAPER_SET {
        let mut protocol = kind.build(&p.ctx, 100.0);
        let mut updates = Vec::new();
        for batch in p.data.trace.fixes.chunks(BATCH) {
            let s = tracer.begin(span_name(kind));
            for fix in batch {
                let sighting =
                    Sighting { t: fix.t, position: fix.position, accuracy: fix.accuracy };
                updates.extend(protocol.on_sighting(sighting));
            }
            tracer.end(s, batch.len() as u32);
        }
        for batch in updates.chunks(BATCH) {
            buf.clear();
            let s = tracer.begin("core.wire.update_encode");
            for update in batch {
                let _ = std::hint::black_box(update.encode_into(&mut buf));
            }
            tracer.end(s, batch.len() as u32);
        }
    }
}

pub const SUPPLIES: &[&str] = &["sightings_per_s", "updates_per_object_hour", "bound_hold_share"];

const TRACE_SEEDS: usize = 3;
const ACCURACIES_M: [f64; 3] = [50.0, 100.0, 200.0];
/// Passes over every (trace, protocol, accuracy) cell at full scale:
/// ≈ 60 × 0.75 M = 45 M sightings.
const PASSES: usize = 60;
/// Timed set-ups per run (twelve traces and their map contexts).
const SETUP_REPEATS: usize = 7;
/// Every n-th sighting of a traced pass gets a full span tree; the rest run
/// bare, which keeps tracing overhead on a ~0.25 µs operation small. The tree
/// shows the operation's structure; its children are shorter than a clock
/// read, so the per-layer numbers come from the batched shadow passes.
const TRACE_EVERY: usize = 32;
/// Layer calls per batch span in the shadow passes.
const BATCH: usize = 256;

struct Prepared {
    data: ScenarioData,
    ctx: ProtocolContext,
}

fn span_name(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::MapBased => "core.protocol.on_sighting.map_based",
        ProtocolKind::Linear => "core.protocol.on_sighting.linear",
        _ => "core.protocol.on_sighting.distance_based",
    }
}

#[derive(Default, Clone, Copy)]
struct CellCounts {
    sightings: u64,
    updates: u64,
    update_bytes: u64,
    violations: u64,
    codec_errors: u64,
}

/// One protocol over one trace: the per-sighting pipeline.
fn run_cell(
    p: &Prepared,
    kind: ProtocolKind,
    accuracy: f64,
    tracer: &mut Tracer,
    buf: &mut Vec<u8>,
) -> CellCounts {
    let mut protocol = kind.build(&p.ctx, accuracy);
    let mut server = ServerTracker::new(protocol.predictor());
    let trace = &p.data.trace;
    let allowance = accuracy + trace.fixes.first().map_or(0.0, |f| f.accuracy) + 1.0;
    let mut c = CellCounts::default();
    let sample = tracer.is_enabled();
    for (i, (fix, truth)) in trace.fixes.iter().zip(&trace.ground_truth).enumerate() {
        let sighting = Sighting { t: fix.t, position: fix.position, accuracy: fix.accuracy };
        let traced = sample && i % TRACE_EVERY == 0;
        if traced {
            let root = tracer.begin("device.sighting");
            let s = tracer.begin("sighting.on_sighting");
            let update = protocol.on_sighting(sighting);
            tracer.end(s, 1);
            if let Some(update) = update {
                buf.clear();
                let s = tracer.begin("sighting.update_encode");
                let encoded = update.encode_into(buf);
                tracer.end(s, 1);
                let s = tracer.begin("sighting.updateview_parse");
                let view = UpdateView::parse(buf);
                tracer.end(s, 1);
                match (encoded, view) {
                    (Ok(()), Ok(view)) => {
                        let s = tracer.begin("sighting.tracker_apply");
                        server.apply(view.get());
                        tracer.end(s, 1);
                        c.updates += 1;
                        c.update_bytes += buf.len() as u64;
                    }
                    _ => c.codec_errors += 1,
                }
            }
            let s = tracer.begin("sighting.position_at");
            let predicted = server.position_at(fix.t);
            tracer.end(s, 1);
            if predicted.is_some_and(|p| p.distance(&truth.position) > allowance) {
                c.violations += 1;
            }
            tracer.end(root, 1);
        } else {
            if let Some(update) = protocol.on_sighting(sighting) {
                buf.clear();
                match update.encode_into(buf).ok().and_then(|()| UpdateView::parse(buf).ok()) {
                    Some(view) => {
                        server.apply(view.get());
                        c.updates += 1;
                        c.update_bytes += buf.len() as u64;
                    }
                    None => c.codec_errors += 1,
                }
            }
            if server.position_at(fix.t).is_some_and(|p| p.distance(&truth.position) > allowance) {
                c.violations += 1;
            }
        }
        c.sightings += 1;
    }
    c
}

/// Shadow passes over one trace: the map matcher and the link locator fed
/// the same fixes the protocols see, a batch of calls per span.
fn shadow_map_layers(p: &Prepared, tracer: &mut Tracer) -> (u64, u64) {
    let mut matcher = MapMatcher::new(
        Arc::clone(&p.ctx.network),
        Arc::clone(&p.ctx.locator),
        MatcherConfig::with_tolerance(p.ctx.matching_tolerance),
    );
    let mut matched = 0u64;
    for batch in p.data.trace.fixes.chunks(BATCH) {
        let s = tracer.begin("mapmatch.update");
        for fix in batch {
            matched += u64::from(matcher.update(fix.position).is_matched());
        }
        tracer.end(s, batch.len() as u32);
        let s = tracer.begin("roadnet.locator.nearest_link");
        for fix in batch {
            let hit =
                p.ctx.locator.nearest_link(&p.ctx.network, &fix.position, p.ctx.matching_tolerance);
            std::hint::black_box(hit);
        }
        tracer.end(s, batch.len() as u32);
    }
    (matched, p.data.trace.len() as u64)
}

/// The phase's state between slices; one slice is one pass over every
/// (trace, protocol, accuracy) cell.
pub struct Device {
    traced: bool,
    prepared: Vec<Prepared>,
    passes: usize,
    pass: usize,
    buf: Vec<u8>,
    first_pass: Vec<CellCounts>,
    /// `[bare, recorded]` passes apart.
    sightings: [u64; 2],
    seconds: [f64; 2],
    /// Seconds of every cell of every pass, pass by pass.
    cell_s: Vec<f64>,
    total: CellCounts,
    pass_disagreements: u64,
    report: PhaseReport,
}

impl Device {
    /// Set-up: builds the twelve traces and their map contexts.
    pub fn new(cfg: &PhaseCfg, tracer: &mut Tracer) -> Device {
        let mut report = PhaseReport::default();
        let traced = tracer.is_enabled();
        let mut seeds = SplitMix64::new(cfg.seed ^ 0xD1CE);
        let trace_seeds: Vec<u64> = (0..TRACE_SEEDS).map(|_| seeds.next_u64() >> 16).collect();
        // Every build is timed by itself, and set-up is what a median build
        // of each kind costs, times the builds: about one city map in five
        // takes ten times as long to plan a route on (a seed's luck, and a
        // third of the whole set-up).
        let mut build_s: [Vec<f64>; ScenarioKind::ALL.len()] = Default::default();
        let mut prepared = Vec::new();
        for _ in 0..cfg.setups(SETUP_REPEATS) {
            prepared.clear();
            for (k, kind) in ScenarioKind::ALL.into_iter().enumerate() {
                for &seed in &trace_seeds {
                    let started = Instant::now();
                    let data = Scenario { kind, scale: cfg.trace_scale, seed }.build();
                    let ctx = ProtocolContext::for_scenario(&data);
                    build_s[k].push(started.elapsed().as_secs_f64());
                    prepared.push(Prepared { data, ctx });
                }
            }
        }
        let setup_s = build_s
            .iter()
            .map(|kind| TRACE_SEEDS as f64 * stats::median(kind).unwrap_or(0.0))
            .sum();
        report.set("setup_s", setup_s);
        report.set("trace.scenario_build_s", setup_s);
        for p in &prepared {
            for (fix, truth) in p.data.trace.fixes.iter().zip(&p.data.trace.ground_truth) {
                report.inputs.f64(fix.t);
                report.inputs.f64(fix.position.x);
                report.inputs.f64(fix.position.y);
                report.inputs.f64(truth.position.x);
                report.inputs.f64(truth.position.y);
            }
        }
        Device {
            traced,
            prepared,
            // A traced run doubles its passes: even passes record spans, odd
            // passes run bare, and the difference is the tracing overhead.
            passes: cfg.ops(PASSES, 4) * if traced { 2 } else { 1 },
            pass: 0,
            buf: Vec::with_capacity(64),
            first_pass: Vec::new(),
            sightings: [0; 2],
            seconds: [0.0; 2],
            cell_s: Vec::new(),
            total: CellCounts::default(),
            pass_disagreements: 0,
            report,
        }
    }
}

impl Phase for Device {
    fn slices(&self) -> usize {
        self.passes
    }

    fn step(&mut self, tracer: &mut Tracer) {
        if self.pass >= self.passes {
            return;
        }
        let recording = self.traced && self.pass.is_multiple_of(2);
        tracer.set_recording(recording);
        let r = usize::from(recording);
        let mut cell = 0;
        for p in &self.prepared {
            for kind in ProtocolKind::PAPER_SET {
                for accuracy in ACCURACIES_M {
                    let started = Instant::now();
                    let c = run_cell(p, kind, accuracy, tracer, &mut self.buf);
                    let seconds = started.elapsed().as_secs_f64();
                    self.cell_s.push(seconds);
                    self.seconds[r] += seconds;
                    self.sightings[r] += c.sightings;
                    self.total.sightings += c.sightings;
                    self.total.updates += c.updates;
                    self.total.update_bytes += c.update_bytes;
                    self.total.codec_errors += c.codec_errors;
                    if self.pass == 0 {
                        self.first_pass.push(c);
                    } else if self.first_pass[cell].updates != c.updates {
                        self.pass_disagreements += 1;
                    }
                    cell += 1;
                }
            }
        }
        self.pass += 1;
        tracer.set_recording(self.traced);
    }

    fn finish(self: Box<Self>, tracer: &mut Tracer) -> PhaseReport {
        let Device {
            traced,
            prepared,
            passes,
            first_pass,
            sightings,
            seconds,
            cell_s,
            total,
            pass_disagreements,
            mut report,
            ..
        } = *self;
        // Every pass does the same work cell by cell, so the rate is one
        // pass's sightings over the median time of each cell: the cells a
        // busy neighbour slowed in one pass are left out.
        let cells = first_pass.len();
        let pass_s: f64 = (0..cells)
            .filter_map(|c| {
                let of_cell: Vec<f64> = cell_s.iter().skip(c).step_by(cells).copied().collect();
                stats::median(&of_cell)
            })
            .sum();
        let pass_sightings: u64 = first_pass.iter().map(|c| c.sightings).sum();
        report.set("sightings_per_s", pass_sightings as f64 / pass_s.max(1e-9));
        report.check(total.sightings, total.codec_errors, "update failed to encode or parse");
        report.check(
            passes as u64,
            pass_disagreements,
            "a pass sent a different number of updates",
        );

        // The paper's quantities, from the first pass (every pass repeats it).
        let mut per_kind_rate = [0f64; 4];
        let mut samples = 0u64;
        let mut violations = 0u64;
        let mut reference_mismatch = 0u64;
        let mut cell = 0;
        for (pi, p) in prepared.iter().enumerate() {
            let hours = p.data.trace.duration() / 3600.0;
            for kind in ProtocolKind::PAPER_SET {
                for accuracy in ACCURACIES_M {
                    let c = first_pass[cell];
                    cell += 1;
                    samples += c.sightings;
                    violations += c.violations;
                    report.counts.u64(c.updates);
                    report.counts.u64(c.violations);
                    if kind == ProtocolKind::MapBased && accuracy == 100.0 {
                        per_kind_rate[pi / TRACE_SEEDS] +=
                            c.updates as f64 / hours / TRACE_SEEDS as f64;
                    }
                    // Reference: the simulator's own runner on the same trace.
                    let reference = run_protocol(
                        &p.data.trace,
                        kind.build(&p.ctx, accuracy),
                        RunConfig::default(),
                    );
                    if reference.metrics.updates != c.updates {
                        reference_mismatch += 1;
                    }
                }
            }
        }
        report.check(
            first_pass.len() as u64,
            reference_mismatch,
            "update count differs from run_protocol",
        );
        report.set("updates_per_object_hour", per_kind_rate.iter().sum::<f64>() / 4.0);
        let violation_share = violations as f64 / samples.max(1) as f64;
        report.set("bound_hold_share", 1.0 - violation_share);
        report.set("core.protocol.bound_violation_share", violation_share);
        report.set(
            "core.protocol.updates_per_sighting",
            total.updates as f64 / total.sightings as f64,
        );
        report.set(
            "core.wire.bytes_per_update",
            total.update_bytes as f64 / total.updates.max(1) as f64,
        );

        if traced {
            let (mut matched, mut fixes) = (0, 0);
            for p in &prepared {
                let (m, f) = shadow_map_layers(p, tracer);
                matched += m;
                fixes += f;
                shadow_protocol_layers(p, tracer);
            }
            report.counts.u64(matched);
            report.set("mapmatch.matched_share", matched as f64 / fixes.max(1) as f64);
            report.set_span("mapmatch.update_ns", tracer, "mapmatch.update", 1.0);
            report.set_span(
                "roadnet.locator.nearest_link_ns",
                tracer,
                "roadnet.locator.nearest_link",
                1.0,
            );
            for kind in ProtocolKind::PAPER_SET {
                let name = match kind {
                    ProtocolKind::MapBased => "core.protocol.on_sighting_ns.map_based",
                    ProtocolKind::Linear => "core.protocol.on_sighting_ns.linear",
                    _ => "core.protocol.on_sighting_ns.distance_based",
                };
                report.set_span(name, tracer, span_name(kind), 1.0);
            }
            report.set_span("core.wire.update_encode_ns", tracer, "core.wire.update_encode", 1.0);
            let bare = seconds[0] / sightings[0].max(1) as f64;
            let recorded = seconds[1] / sightings[1].max(1) as f64;
            report.set("trace.overhead_share", recorded / bare.max(1e-12) - 1.0);
        }
        report
    }
}
