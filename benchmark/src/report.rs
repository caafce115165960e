//! What a phase hands back, and the registry of every metric the benchmark
//! may print. `BENCHMARK.json` lists exactly these names (a unit test holds
//! the two together).

use crate::stats::Digest;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How a phase is sized and seeded.
#[derive(Debug, Clone)]
pub struct PhaseCfg {
    /// Multiplier on every operation count (rounds, queries, frames, …).
    pub ops: f64,
    /// Multiplier on every object count (fleet sizes).
    pub objects: f64,
    /// Share of the paper's trace lengths the device traces cover (1.0
    /// except under `--smoke`).
    pub trace_scale: f64,
    pub seed: u64,
    /// Whether set-up is repeated and timed: the named workload's phase
    /// reports `setup_s`, a probe sets up once.
    pub time_setup: bool,
    /// Directory for journal files; created and removed by the caller.
    pub scratch: PathBuf,
}

impl PhaseCfg {
    /// `count` scaled by the operation multiplier, at least `min`.
    pub fn ops(&self, count: usize, min: usize) -> usize {
        ((count as f64 * self.ops).round() as usize).max(min)
    }

    /// Set-ups to run: `repeats` of them when set-up is timed (their median
    /// is `setup_s`; the last one is kept), else one.
    pub fn setups(&self, repeats: usize) -> usize {
        if self.time_setup {
            repeats.max(1)
        } else {
            1
        }
    }

    /// `count` scaled by the object multiplier, at least `min`.
    pub fn objects(&self, count: usize, min: usize) -> usize {
        ((count as f64 * self.objects).round() as usize).max(min)
    }
}

/// One workload's work, cut into slices.
///
/// The machine this runs on changes speed by ±10 % over seconds, so a metric
/// measured in one contiguous block repeats badly. Every phase therefore
/// splits its work into slices of roughly equal cost, and the run interleaves
/// the slices of all its phases: each metric's samples then span the whole
/// run instead of one corner of it.
pub trait Phase {
    /// Slices this phase was planned with (set-up, done by the constructor,
    /// is not one of them).
    fn slices(&self) -> usize;

    /// Runs the next slice; a call past the last slice does nothing.
    fn step(&mut self, tracer: &mut Tracer);

    /// Runs whatever must come last (reference checks, recovery) and reports.
    fn finish(self: Box<Self>, tracer: &mut Tracer) -> PhaseReport;
}

/// Everything one phase measured and checked.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// End-to-end and per-layer values by registry name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per kind of failure, for the operator.
    pub notes: Vec<String>,
    pub inputs: Digest,
    pub counts: Digest,
}

impl PhaseReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `name` from a traced span's median ns per call, scaled by `unit`
    /// (1.0 for ns, 1e-3 for µs); leaves it unset when the span never ran.
    pub fn set_span(&mut self, name: &'static str, tracer: &Tracer, span: &str, unit: f64) {
        if let Some(ns) = tracer.median_ns(span) {
            self.set(name, ns * unit);
        }
    }

    /// Counts `n` attempted operations of which `bad` failed, noting why.
    pub fn check(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.notes.push(format!("{bad} of {n} failed: {what}"));
        }
    }
}

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` (and the test that holds it to this table)
    /// reads the direction: per-layer metrics have no bound to apply it to.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("sightings_per_s", "1/s", Higher, 0.25),
    e2e("updates_per_object_hour", "1/h", Lower, 0.1),
    e2e("bound_hold_share", "share", Higher, 0.001),
    e2e("ingest_updates_per_s", "1/s", Higher, 0.25),
    e2e("plain_updates_per_s", "1/s", Higher, 0.25),
    e2e("journal_tax", "ratio", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("rect_p50_us", "us", Lower, 0.25),
    e2e("nearest_p50_us", "us", Lower, 0.25),
    e2e("wire_bytes_per_update", "B", Lower, 0.02),
];

/// The per-layer metrics, printed by the traced run of every workload.
pub const PER_LAYER: &[PerLayer] = &[
    layer("roadnet.locator.nearest_link_ns", "ns", Lower),
    layer("mapmatch.update_ns", "ns", Lower),
    layer("mapmatch.matched_share", "share", Higher),
    layer("core.protocol.on_sighting_ns.map_based", "ns", Lower),
    layer("core.protocol.on_sighting_ns.linear", "ns", Lower),
    layer("core.protocol.on_sighting_ns.distance_based", "ns", Lower),
    layer("core.protocol.updates_per_sighting", "ratio", Lower),
    layer("core.protocol.bound_violation_share", "share", Lower),
    layer("core.wire.update_encode_ns", "ns", Lower),
    layer("core.wire.frame_encode_ns", "ns", Lower),
    layer("core.wire.frameview_parse_ns", "ns", Lower),
    layer("core.wire.request_encode_ns", "ns", Lower),
    layer("core.wire.positions_decode_ns", "ns", Lower),
    layer("core.wire.bytes_per_update", "B", Lower),
    layer("core.tracker.apply_ns", "ns", Lower),
    layer("core.tracker.position_at_ns", "ns", Lower),
    layer("spatial.moving.reanchor_ns", "ns", Lower),
    layer("spatial.moving.query_keys_ns", "ns", Lower),
    layer("spatial.moving.candidates_per_unique", "ratio", Lower),
    layer("spatial.moving.max_cell_occupancy", "count", Lower),
    layer("spatial.moving.occupied_cells", "count", Lower),
    layer("journal.append_frame_ns", "ns", Lower),
    layer("journal.flush_us", "us", Lower),
    layer("journal.fsyncs", "count", Lower),
    layer("journal.snapshots", "count", Lower),
    layer("journal.install_snapshot_ms", "ms", Lower),
    layer("journal.bytes_per_frame_byte", "ratio", Lower),
    layer("journal.replay_ns_per_frame", "ns", Lower),
    layer("journal.disk_peak_mb", "MB", Lower),
    layer("journal.append_errors", "count", Lower),
    layer("locserver.apply_frame_bytes_ns", "ns", Lower),
    layer("locserver.apply_frame_bytes.single_ns", "ns", Lower),
    layer("locserver.apply_frame_bytes.journaled_ns", "ns", Lower),
    layer("locserver.shard_delta_ns", "ns", Lower),
    layer("locserver.journal_delta_ns", "ns", Lower),
    layer("locserver.journal_tax_from_slices", "ratio", Lower),
    layer("locserver.write_lock_acquisitions_per_frame", "ratio", Lower),
    layer("locserver.objects_in_rect_us", "us", Lower),
    layer("locserver.objects_in_rect_us.hot", "us", Lower),
    layer("locserver.objects_in_rect_us.uniform", "us", Lower),
    layer("locserver.nearest_objects_us", "us", Lower),
    layer("locserver.nearest_objects_us.hot", "us", Lower),
    layer("locserver.nearest_objects_us.uniform", "us", Lower),
    layer("locserver.objects_in_rect_p99_us", "us", Lower),
    layer("locserver.nearest_objects_p99_us", "us", Lower),
    layer("locserver.hits_per_rect", "count", Lower),
    layer("locserver.position_of_ns", "ns", Lower),
    layer("locserver.recover_and_attach_s", "s", Lower),
    layer("locserver.replayed_frames", "count", Lower),
    layer("net.client.send_frame_ns", "ns", Lower),
    layer("net.client.send_frame.single_ns", "ns", Lower),
    layer("net.client.flush_us", "us", Lower),
    layer("net.client.rect_rtt_us", "us", Lower),
    layer("net.client.nearest_rtt_us", "us", Lower),
    layer("net.client.health_rtt_us", "us", Lower),
    layer("net.client.connect_us", "us", Lower),
    layer("net.client.rect_rtt_p99_us", "us", Lower),
    layer("net.client.nearest_rtt_p99_us", "us", Lower),
    layer("net.ingest_updates_per_s", "1/s", Higher),
    layer("net.delta_ns", "ns", Lower),
    layer("net.server.wakeups_per_message", "ratio", Lower),
    layer("net.server.spurious_wakeup_share", "share", Lower),
    layer("net.server.backpressure_stalls", "count", Lower),
    layer("net.server.bytes_received_per_update", "B", Lower),
    layer("net.server.evicted_slow", "count", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("trace.scenario_build_s", "s", Lower),
    layer("trace.span_cost_ns", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let count = |needle: &str| json.matches(needle).count();
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert_eq!(count(&entry), 1, "end_to_end entry {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert_eq!(count(&entry), 1, "per_layer entry {entry}");
        }
        assert_eq!(count("\"bound\":"), END_TO_END.len());
        assert_eq!(count("\"better\":"), END_TO_END.len() + PER_LAYER.len());
        for w in crate::WORKLOADS {
            assert_eq!(count(&format!("{{\"name\": \"{w}\", \"why\": ")), 1, "workload {w}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
