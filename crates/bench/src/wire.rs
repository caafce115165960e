//! The `reproduce wire` baseline: the lossy-link sweep of
//! [`mbdr_sim::lossy`] at the repository's default seed, emitted as one JSON
//! document (schema `mbdr-wire/1`) so accuracy degradation and message
//! overhead under uplink loss are tracked as a regression baseline from this
//! change on.

use mbdr_sim::{run_loss_sweep, LinkConfig, LossSweepConfig, LossSweepResult, ProtocolKind};
use mbdr_trace::ScenarioKind;

/// The loss rates the baseline sweeps, ascending.
pub(crate) const BASELINE_LOSS_RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];

/// Runs the wire baseline: the map-based protocol on the city scenario at
/// `u_s` = 100 m over a GPRS-like degraded link, swept over
/// [`BASELINE_LOSS_RATES`]. `scale` shrinks the trace for smoke runs.
pub(crate) fn wire_baseline(scale: f64, seed: u64) -> LossSweepResult {
    run_loss_sweep(&LossSweepConfig {
        scenario: ScenarioKind::City,
        scale,
        seed,
        protocol: ProtocolKind::MapBased,
        requested_accuracy: 100.0,
        loss_rates: BASELINE_LOSS_RATES.to_vec(),
        link: LinkConfig::gprs(seed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_is_monotone_and_well_formed() {
        // The same shape CI smokes: a short city trace over the full loss
        // axis. Accuracy must degrade monotonically with loss (the JSON is
        // the acceptance artefact for that property).
        let result = wire_baseline(0.05, 2001);
        assert_eq!(result.points.len(), BASELINE_LOSS_RATES.len());
        for pair in result.points.windows(2) {
            assert!(pair[1].deviation.mean >= pair[0].deviation.mean);
            assert!(pair[1].delivered_ratio <= pair[0].delivered_ratio + 1e-12);
        }
        let tree = result.to_json();
        assert_eq!(tree.get("schema"), Some(&mbdr_sim::Json::str("mbdr-wire/1")));
        let Some(mbdr_sim::Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        assert_eq!(points[5].get("loss_rate"), Some(&mbdr_sim::Json::exact(0.5)));
    }
}
