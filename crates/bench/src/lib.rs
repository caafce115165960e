//! # mbdr-bench — the experiment harness
//!
//! One function per paper artefact: [`table1`] regenerates Table 1,
//! [`figure`] regenerates the data behind Figures 7–10, [`summary`] computes
//! the headline reduction percentages, [`updates_along_route`] reproduces the
//! Fig. 3 / Fig. 6 comparison (where along the route each protocol had to send
//! an update), and [`ablations`] runs the additional design-choice studies
//! DESIGN.md lists. The `reproduce` binary is a thin CLI over these functions.
//! Beyond the paper's artefacts, [`throughput`] sweeps the concurrent fleet
//! workload over the
//! sharded location service (objects × shards × query mix) as the service's
//! concurrency baseline, [`wire`] sweeps the lossy-uplink channel model over loss
//! rates as the wire protocol's accuracy/overhead baseline, and [`netbase`]
//! drives the TCP serving layer over loopback as the end-to-end network
//! baseline, and [`scale`] sweeps the synthetic 10⁴/10⁵-object workload
//! (uniform and Zipf-hotspot placement) over the spatial data plane as the
//! large-N baseline. [`baseline_document`] builds any of the nine documents
//! by command name. Every number in them is seed-determined, so the
//! regression gate is a byte comparison: `baselines/check.sh` diffs each
//! fresh document against the committed `baselines/BENCH_<cmd>.json`. Time
//! is measured by the separate `benchmark/` package. [`hotpath`]
//! measures the steady-state ingest/query/predict pipeline under the
//! counting allocator ([`alloccount`]) and pins its allocations-per-
//! operation at zero. [`recovery`] is the durability baseline: journaled
//! ingest, kill-and-recover bit-identity against an uninterrupted twin, and
//! torn-tail repair arithmetic, all strict-gated. [`faults`] is the
//! degraded-mode baseline: a seeded disk outage mid-stream
//! ([`mbdr_sim::FaultPlan`]), probe-driven self-healing, then a crash whose
//! recovery must lose nothing acknowledged — exact degraded-frame
//! accounting and `bit_identical_acknowledged`, all strict-gated.

#![warn(missing_docs)]
// `unsafe` is allowed item by item, with a reason, in `alloccount.rs` only.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

pub mod alloccount;
pub mod faults;
pub mod hotpath;
pub mod netbase;
pub mod recovery;
pub mod scale;
pub mod throughput;
pub mod wire;

use faults::{faults_bench, render_faults_json};
use hotpath::{hotpath_report, render_hotpath_json};
use mbdr_geo::Point;
use mbdr_sim::protocols::ProtocolContext;
use mbdr_sim::runner::{run_protocol, RunConfig};
use mbdr_sim::{render_json, sweep_scenario, Json, ProtocolKind, SweepResult};
use mbdr_trace::{Scenario, ScenarioData, ScenarioKind, TraceStats};
use netbase::{connscale_grid, net_grid, render_connscale_json, render_net_json};
use recovery::{recovery_bench, render_recovery_json};
use scale::{render_scale_json, scale_grid};
use throughput::{render_throughput_json, throughput_grid};
use wire::wire_baseline;

/// Default random seed used by all experiments (fixed for reproducibility).
pub const DEFAULT_SEED: u64 = 2001;

/// Every `reproduce` subcommand, in the order the usage string lists them.
/// The binary's parser, its usage output, and the operations runbook
/// (`docs/OPERATIONS.md`) are all tested against this one list, so a command
/// cannot be added or renamed without the documentation following.
pub const REPRODUCE_COMMANDS: [&str; 19] = [
    "table1",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "figures",
    "summary",
    "updates-trace",
    "ablations",
    "json",
    "throughput",
    "wire",
    "net",
    "connscale",
    "hotpath",
    "scale",
    "recovery",
    "faults",
    "all",
];

/// Every `reproduce` flag with the placeholder of its value (empty for a
/// switch), in the order the usage string lists them. The binary prints its
/// usage from this list and its parser is tested against it; the
/// `reproduce -- <cmd> …` lines in README and `docs/OPERATIONS.md` may show
/// no other flag.
pub const REPRODUCE_FLAGS: [(&str, &str); 4] =
    [("--scale", "F"), ("--seed", "N"), ("--csv", ""), ("--help", "")];

/// The full figure set as one machine-readable JSON document (schema
/// `mbdr-reproduce/1`): per figure, the sweep data — update counts and
/// deviations per protocol and accuracy (`reproduce json`).
pub fn figures_json(scale: f64, seed: u64) -> Json {
    let figures = ScenarioKind::ALL.iter().map(|&kind| {
        Json::object([
            ("figure", Json::exact(f64::from(figure_number(kind)))),
            ("sweep", render_json(&figure(kind, scale, seed))),
        ])
    });
    Json::document("mbdr-reproduce/1", scale, seed, [("figures", Json::array(figures))])
}

/// The JSON document of one baseline command (`json`, `throughput`, …,
/// `faults`), or `None` for a command that prints no baseline document.
pub fn baseline_document(command: &str, scale: f64, seed: u64) -> Option<Json> {
    Some(match command {
        "json" => figures_json(scale, seed),
        "throughput" => render_throughput_json(scale, seed, &throughput_grid(scale, seed)),
        "wire" => wire_baseline(scale, seed).to_json(),
        "net" => render_net_json(scale, seed, &net_grid(scale, seed)),
        "connscale" => render_connscale_json(scale, seed, &connscale_grid(scale, seed)),
        "hotpath" => render_hotpath_json(scale, seed, &hotpath_report(scale, seed)),
        "scale" => render_scale_json(scale, seed, &scale_grid(scale, seed)),
        "recovery" => render_recovery_json(scale, seed, &recovery_bench(scale, seed)),
        "faults" => render_faults_json(scale, seed, &faults_bench(scale, seed)),
        _ => return None,
    })
}

/// Builds the scenario data for one movement pattern at the given scale
/// (1.0 = the paper's full trace length).
pub fn scenario_data(kind: ScenarioKind, scale: f64, seed: u64) -> ScenarioData {
    Scenario { kind, scale, seed }.build()
}

/// One row of Table 1: the scenario label and the trace statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Scenario label ("car, freeway", …).
    pub label: &'static str,
    /// Statistics of the synthetic trace.
    pub stats: TraceStats,
    /// The paper's reported values for comparison (length km, duration s,
    /// average km/h, maximum km/h).
    pub paper: (f64, f64, f64, f64),
}

/// Regenerates Table 1 (characteristics of the four traces) at the given
/// scale.
pub fn table1(scale: f64, seed: u64) -> Vec<Table1Row> {
    let paper = |kind: ScenarioKind| match kind {
        ScenarioKind::Freeway => (163.0, 1.0 * 3600.0 + 35.0 * 60.0, 103.0, 155.0),
        ScenarioKind::Interurban => (99.0, 1.0 * 3600.0 + 39.0 * 60.0, 60.0, 116.0),
        ScenarioKind::City => (89.0, 2.0 * 3600.0 + 25.0 * 60.0, 34.0, 65.0),
        ScenarioKind::Walking => (10.0, 2.0 * 3600.0 + 8.0 * 60.0, 4.6, 7.2),
    };
    ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let data = scenario_data(kind, scale, seed);
            Table1Row { label: kind.name(), stats: TraceStats::of(&data.trace), paper: paper(kind) }
        })
        .collect()
}

/// The figure each scenario corresponds to in the paper.
pub fn figure_number(kind: ScenarioKind) -> u32 {
    match kind {
        ScenarioKind::Freeway => 7,
        ScenarioKind::Interurban => 8,
        ScenarioKind::City => 9,
        ScenarioKind::Walking => 10,
    }
}

/// Regenerates the data behind one of Figures 7–10: updates per hour
/// (absolute and relative to distance-based reporting) for every requested
/// accuracy in the paper's sweep.
pub fn figure(kind: ScenarioKind, scale: f64, seed: u64) -> SweepResult {
    let data = scenario_data(kind, scale, seed);
    sweep_scenario(&data, &ProtocolKind::PAPER_SET, &kind.accuracy_sweep(), RunConfig::default())
}

/// Headline reductions derived from the four figures: the paper reports up to
/// 83 % reduction for linear DR vs. distance-based reporting (freeway), a
/// further up to 60 % for map-based vs. linear, and up to 91 % overall.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Scenario label.
    pub scenario: String,
    /// Maximum reduction of linear DR vs. distance-based reporting, percent.
    pub linear_vs_distance_pct: f64,
    /// Maximum reduction of map-based DR vs. linear DR, percent.
    pub map_vs_linear_pct: f64,
    /// Maximum reduction of map-based DR vs. distance-based reporting, percent.
    pub map_vs_distance_pct: f64,
}

/// Computes the headline reduction percentages from already-computed figures.
pub fn summary(figures: &[SweepResult]) -> Vec<SummaryRow> {
    figures
        .iter()
        .map(|f| SummaryRow {
            scenario: f.scenario.clone(),
            linear_vs_distance_pct: f
                .max_reduction_pct(ProtocolKind::Linear, ProtocolKind::DistanceBased)
                .unwrap_or(0.0),
            map_vs_linear_pct: f
                .max_reduction_pct(ProtocolKind::MapBased, ProtocolKind::Linear)
                .unwrap_or(0.0),
            map_vs_distance_pct: f
                .max_reduction_pct(ProtocolKind::MapBased, ProtocolKind::DistanceBased)
                .unwrap_or(0.0),
        })
        .collect()
}

/// Update positions along one route for one protocol — the data behind the
/// Fig. 3 (linear) vs. Fig. 6 (map-based) screenshots: "9 position updates
/// with a linear prediction protocol" vs. "3 position updates with a map-based
/// protocol on the same route".
pub fn updates_along_route(
    data: &ScenarioData,
    protocol: ProtocolKind,
    requested_accuracy: f64,
) -> Vec<Point> {
    let ctx = ProtocolContext::for_scenario(data);
    let outcome =
        run_protocol(&data.trace, protocol.build(&ctx, requested_accuracy), RunConfig::default());
    outcome.updates.iter().map(|u| u.state.position).collect()
}

/// An ablation study: a named sweep with a non-default protocol set.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What the study varies.
    pub name: String,
    /// The sweep result.
    pub result: SweepResult,
}

/// Runs the ablation studies listed in DESIGN.md:
///
/// 1. **Intersection policy** — smallest angle (paper) vs. probability-trained
///    vs. main-road priority vs. first-link, on the city scenario, where
///    intersections are frequent.
/// 2. **Prediction order** — linear vs. higher-order (arc) vs. map-based, on
///    the inter-urban scenario (long curves).
/// 3. **Prior-art comparison** — known-route and Wolfson-style adaptive
///    policies against the paper set, on the freeway scenario.
pub fn ablations(scale: f64, seed: u64) -> Vec<Ablation> {
    let accuracy_subset = [50.0, 100.0, 250.0];
    let city = scenario_data(ScenarioKind::City, scale, seed);
    let interurban = scenario_data(ScenarioKind::Interurban, scale, seed);
    let freeway = scenario_data(ScenarioKind::Freeway, scale, seed);
    vec![
        Ablation {
            name: "intersection policy (city)".into(),
            result: sweep_scenario(
                &city,
                &[
                    ProtocolKind::MapBased,
                    ProtocolKind::MapProbability,
                    ProtocolKind::MapMainRoad,
                    ProtocolKind::MapFirstLink,
                    ProtocolKind::DistanceBased,
                ],
                &accuracy_subset,
                RunConfig::default(),
            ),
        },
        Ablation {
            name: "prediction order (inter-urban)".into(),
            result: sweep_scenario(
                &interurban,
                &[
                    ProtocolKind::Linear,
                    ProtocolKind::HigherOrder,
                    ProtocolKind::MapBased,
                    ProtocolKind::DistanceBased,
                ],
                &accuracy_subset,
                RunConfig::default(),
            ),
        },
        Ablation {
            name: "prior art (freeway)".into(),
            result: sweep_scenario(
                &freeway,
                &[
                    ProtocolKind::MapBased,
                    ProtocolKind::KnownRoute,
                    ProtocolKind::Adaptive,
                    ProtocolKind::DisconnectionDetection,
                    ProtocolKind::DistanceBased,
                ],
                &accuracy_subset,
                RunConfig::default(),
            ),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_rows_in_paper_order() {
        let rows = table1(0.03, DEFAULT_SEED);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "car, freeway");
        assert_eq!(rows[3].label, "walking person");
        for row in &rows {
            assert!(row.stats.length_km > 0.0);
            assert!(row.stats.max_speed_kmh >= row.stats.average_speed_kmh);
        }
    }

    #[test]
    fn ablations_run_the_three_studies() {
        let results = ablations(0.03, DEFAULT_SEED);
        assert_eq!(results.len(), 3);
        for (ablation, protocols) in results.iter().zip([5, 4, 5]) {
            assert_eq!(ablation.result.points.len(), protocols * 3, "{}", ablation.name);
        }
    }

    #[test]
    fn every_baseline_document_prints_the_same_bytes_twice() {
        // Every number in every document is seed-determined, so two builds
        // of the same (scale, seed) print byte-identical documents.
        let commands = [
            ("json", 0.02),
            ("throughput", 0.02),
            ("wire", 0.05),
            ("net", 0.05),
            ("connscale", 0.02),
            ("hotpath", 0.02),
            ("scale", 0.01),
            ("recovery", 0.25),
            ("faults", 0.25),
        ];
        for (command, scale) in commands {
            let print =
                || baseline_document(command, scale, 7).expect("a baseline command").to_string();
            assert_eq!(print(), print(), "`reproduce {command}` is not reproducible");
        }
        assert!(baseline_document("fig7", 0.02, 7).is_none());
    }

    #[test]
    fn figure_numbers_match_the_paper() {
        assert_eq!(figure_number(ScenarioKind::Freeway), 7);
        assert_eq!(figure_number(ScenarioKind::Walking), 10);
    }

    #[test]
    fn updates_along_route_shows_the_fig3_fig6_effect() {
        let data = scenario_data(ScenarioKind::Freeway, 0.05, DEFAULT_SEED);
        let linear = updates_along_route(&data, ProtocolKind::Linear, 100.0);
        let map = updates_along_route(&data, ProtocolKind::MapBased, 100.0);
        assert!(!map.is_empty());
        assert!(
            map.len() <= linear.len(),
            "map-based ({}) must not need more updates than linear ({})",
            map.len(),
            linear.len()
        );
    }
}
