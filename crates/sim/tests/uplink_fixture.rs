//! The bytes on the uplink are pinned by a fixture, not only by counts:
//! `fixtures/uplink-v1.txt` was written by the build that preceded the
//! per-map successor table and the lazy motion estimate (it still chose the
//! outgoing link at every hop of every prediction and estimated motion on
//! every sighting). This build must send the very same updates — same
//! instants, same encoded bytes — for every protocol whose code those two
//! changes touch. Never regenerate the fixture from the current code: a
//! failing line means an update moved.

use mbdr_sim::protocols::{ProtocolContext, ProtocolKind};
use mbdr_sim::{run_protocol, RunConfig};
use mbdr_trace::{Scenario, ScenarioKind};
use std::fmt::Write as _;

const SEED: u64 = 2001;
const SCALE: f64 = 0.1;
const ACCURACIES_M: [f64; 3] = [50.0, 100.0, 200.0];
/// The paper's three protocols plus the three others built on
/// `MapPredictor` or `MotionEstimator`.
const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::DistanceBased,
    ProtocolKind::Linear,
    ProtocolKind::MapBased,
    ProtocolKind::MapProbability,
    ProtocolKind::MapMainRoad,
    ProtocolKind::KnownRoute,
];

fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One line per (scenario, protocol, accuracy): the update count and an
/// FNV-64 over the concatenated `Update::encode_into` bytes.
fn render() -> String {
    let mut out = String::new();
    let mut buf = Vec::new();
    for kind in ScenarioKind::ALL {
        let data = Scenario { kind, scale: SCALE, seed: SEED }.build();
        let ctx = ProtocolContext::for_scenario(&data);
        for protocol in PROTOCOLS {
            for accuracy in ACCURACIES_M {
                let outcome =
                    run_protocol(&data.trace, protocol.build(&ctx, accuracy), RunConfig::default());
                let mut hash = 0xcbf2_9ce4_8422_2325;
                for update in &outcome.updates {
                    buf.clear();
                    update.encode_into(&mut buf).expect("protocol updates encode");
                    hash = fnv64(hash, &buf);
                }
                writeln!(
                    out,
                    "{} | {} | {accuracy} | {} | {hash:016x}",
                    kind.name(),
                    protocol.label(),
                    outcome.updates.len()
                )
                .expect("write to String");
            }
        }
    }
    out
}

#[test]
fn every_update_stream_matches_the_parent_build() {
    let fixture = include_str!("fixtures/uplink-v1.txt");
    let rendered = render();
    // Line by line, so a failure names the one stream that moved.
    for (got, expected) in rendered.lines().zip(fixture.lines()) {
        assert_eq!(got, expected, "an update stream moved (got vs. fixture)");
    }
    let cells = ScenarioKind::ALL.len() * PROTOCOLS.len() * ACCURACIES_M.len();
    assert_eq!((rendered.lines().count(), fixture.lines().count()), (cells, cells));
}
