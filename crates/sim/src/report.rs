//! Rendering of results: text tables and CSV for people, one JSON value tree
//! for the regression gate.
//!
//! The paper presents its results as figures (updates per hour vs. requested
//! accuracy, absolute and relative to the distance-based baseline); without a
//! plotting dependency the same data is rendered as aligned text tables and as
//! CSV for external plotting.
//!
//! Every machine-readable baseline document (`reproduce json|throughput|…`)
//! is built as a [`Json`] tree whose numeric leaves each carry a
//! [`MetricClass`] and a print precision, declared on the line that emits the
//! field. [`Json`]'s `Display` impl is the single writer; `mbdr_bench::check`
//! compares the in-memory tree against the parsed committed baseline and reads
//! each leaf's class from the tree.

use crate::protocols::ProtocolKind;
use crate::sweep::SweepResult;
use std::fmt::Write as _;

/// Renders the sweep as a human-readable table: one row per requested
/// accuracy, one column pair (updates/h, % of baseline) per protocol.
pub fn render_table(result: &SweepResult, protocols: &[ProtocolKind]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario: {}", result.scenario);
    let _ = write!(out, "{:>8} ", "u_s [m]");
    for p in protocols {
        let _ = write!(out, "| {:>22} ", p.label());
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:->9}", "");
    for _ in protocols {
        let _ = write!(out, "+{:->24}", "");
    }
    let _ = writeln!(out);
    for &a in &result.accuracies {
        let _ = write!(out, "{a:>8.0} ");
        for &p in protocols {
            match result.point(p, a) {
                Some(point) => {
                    let rel = point
                        .relative_to_baseline_pct
                        .map(|r| format!("{r:5.1}%"))
                        .unwrap_or_else(|| "   n/a".to_string());
                    let _ = write!(out, "| {:>9.1}/h {:>10} ", point.metrics.updates_per_hour, rel);
                }
                None => {
                    let _ = write!(out, "| {:>22} ", "—");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the sweep as CSV with the columns
/// `scenario,protocol,requested_accuracy_m,updates,updates_per_hour,relative_pct,mean_deviation_m,max_deviation_m`.
pub fn render_csv(result: &SweepResult) -> String {
    let mut out = String::from(
        "scenario,protocol,requested_accuracy_m,updates,updates_per_hour,relative_pct,mean_deviation_m,max_deviation_m\n",
    );
    for p in &result.points {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.3},{},{:.2},{:.2}",
            result.scenario,
            p.protocol.label(),
            p.requested_accuracy,
            p.metrics.updates,
            p.metrics.updates_per_hour,
            p.relative_to_baseline_pct.map(|r| format!("{r:.2}")).unwrap_or_default(),
            p.metrics.deviation.mean,
            p.metrics.deviation.max,
        );
    }
    out
}

/// How `reproduce --check` judges a numeric leaf against its committed
/// baseline. The class is stated by the emitter on the line that builds the
/// leaf; it is never inferred from the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Fully determined by the seed (counts, config echoes, byte totals,
    /// single-threaded deviation sweeps): must match the baseline to a
    /// relative `1e-6`.
    Exact,
    /// Machine-dependent wall clock, rate or latency: only required to be
    /// finite and non-negative (a sub-resolution wall clock legitimately
    /// renders as zero).
    Timing,
    /// Dependent on thread interleaving or kernel scheduling, not on the
    /// seed: only required to be finite and non-negative.
    Loose,
}

impl MetricClass {
    /// Every class, in documentation order.
    pub const ALL: [MetricClass; 3] = [MetricClass::Exact, MetricClass::Timing, MetricClass::Loose];

    /// The class's name in check output and in `docs/OPERATIONS.md`.
    pub fn name(self) -> &'static str {
        match self {
            MetricClass::Exact => "exact",
            MetricClass::Timing => "timing",
            MetricClass::Loose => "loose",
        }
    }
}

/// A numeric leaf: its value, how the gate judges it, and how it prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value (counts are stored as `f64`; the documents stay far below
    /// 2^53). Non-finite values print as `null`.
    pub value: f64,
    /// How the regression gate judges the leaf.
    pub class: MetricClass,
    /// Digits after the decimal point, or `None` for the shortest form that
    /// round-trips.
    pub decimals: Option<u8>,
}

/// The number as the writer prints it: `null` when non-finite, else at the
/// leaf's print precision.
impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.decimals {
            _ if !self.value.is_finite() => f.write_str("null"),
            Some(digits) => write!(f, "{:.prec$}", self.value, prec = usize::from(digits)),
            None => write!(f, "{}", self.value),
        }
    }
}

impl Metric {
    /// The value the printed text reads back as (NaN for `null`), so a fresh
    /// leaf compares equal to its own committed text.
    pub fn printed(&self) -> f64 {
        self.to_string().parse().unwrap_or(f64::NAN)
    }
}

/// The one JSON value tree: every baseline document is built as a `Json`,
/// printed by its [`Display`](std::fmt::Display) impl (the only JSON writer
/// in the workspace) and compared in memory by `mbdr_bench::check`, which
/// also parses the committed baselines into this type.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with its metric class and print precision.
    Num(Metric),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn num(value: f64, class: MetricClass) -> Json {
        Json::Num(Metric { value, class, decimals: None })
    }

    /// A seed-determined number ([`MetricClass::Exact`]).
    pub fn exact(value: f64) -> Json {
        Json::num(value, MetricClass::Exact)
    }

    /// A wall clock, rate or latency ([`MetricClass::Timing`]) printed with
    /// `decimals` digits.
    pub fn timing(value: f64, decimals: u8) -> Json {
        Json::num(value, MetricClass::Timing).fixed(decimals)
    }

    /// An interleaving- or scheduling-dependent number
    /// ([`MetricClass::Loose`]).
    pub fn loose(value: f64) -> Json {
        Json::num(value, MetricClass::Loose)
    }

    /// Prints this number with exactly `decimals` digits after the point.
    pub fn fixed(mut self, decimals: u8) -> Json {
        if let Json::Num(metric) = &mut self {
            metric.decimals = Some(decimals);
        }
        self
    }

    /// A string leaf.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// An array of the given items.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object with the given fields, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(key, value)| (key.into(), value)).collect())
    }

    /// The baseline-document envelope: `schema`, `scale`, `seed`, then the
    /// document's own fields.
    pub fn document<'k>(
        schema: &str,
        scale: f64,
        seed: u64,
        rest: impl IntoIterator<Item = (&'k str, Json)>,
    ) -> Json {
        let head = [
            ("schema", Json::str(schema)),
            ("scale", Json::exact(scale)),
            ("seed", Json::exact(seed as f64)),
        ];
        Json::object(head.into_iter().chain(rest))
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The writer: compact JSON, non-finite numbers as `null`, strings escaped
/// (`"`, `\`, `\n`, `\r`, `\t`, other control characters as `\u00XX`;
/// everything else, non-ASCII included, verbatim).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::Num(metric) => write!(f, "{metric}"),
            Json::Str(value) => write_string(f, value),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_string(f: &mut std::fmt::Formatter<'_>, value: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in value.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// The sweep as a JSON tree: scenario, the swept accuracies, and one entry
/// per (protocol, accuracy) point carrying the update counts and deviation
/// statistics — all single-threaded and seed-determined, hence exact. This is
/// the machine-readable form consumed as a perf/regression baseline.
pub fn render_json(result: &SweepResult) -> Json {
    let point = |p: &crate::sweep::SweepPoint| {
        let d = &p.metrics.deviation;
        Json::object([
            ("protocol", Json::str(p.protocol.label())),
            ("requested_accuracy_m", Json::exact(p.requested_accuracy)),
            ("updates", Json::exact(p.metrics.updates as f64)),
            ("updates_per_hour", Json::exact(p.metrics.updates_per_hour)),
            ("payload_bytes", Json::exact(p.metrics.payload_bytes as f64)),
            ("duration_s", Json::exact(p.metrics.duration_s)),
            (
                "relative_to_baseline_pct",
                p.relative_to_baseline_pct.map_or(Json::Null, Json::exact),
            ),
            (
                "deviation",
                Json::object([
                    ("mean_m", Json::exact(d.mean)),
                    ("p95_m", Json::exact(d.p95)),
                    ("max_m", Json::exact(d.max)),
                    ("samples", Json::exact(d.samples as f64)),
                    ("bound_violations", Json::exact(d.bound_violations as f64)),
                ]),
            ),
        ])
    };
    Json::object([
        ("scenario", Json::str(&*result.scenario)),
        ("accuracies_m", Json::array(result.accuracies.iter().map(|&a| Json::exact(a)))),
        ("points", Json::array(result.points.iter().map(point))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{DeviationStats, RunMetrics};
    use crate::sweep::SweepPoint;

    fn fake_result() -> SweepResult {
        let metrics = |rate: f64| RunMetrics {
            protocol: "x".into(),
            requested_accuracy: 50.0,
            updates: (rate as u64).max(1),
            payload_bytes: 100,
            duration_s: 3600.0,
            updates_per_hour: rate,
            deviation: DeviationStats::from_samples(vec![1.0, 2.0, 3.0], 60.0),
        };
        SweepResult {
            scenario: "car, freeway".into(),
            accuracies: vec![50.0],
            points: vec![
                SweepPoint {
                    protocol: ProtocolKind::DistanceBased,
                    requested_accuracy: 50.0,
                    metrics: metrics(400.0),
                    relative_to_baseline_pct: Some(100.0),
                },
                SweepPoint {
                    protocol: ProtocolKind::MapBased,
                    requested_accuracy: 50.0,
                    metrics: metrics(40.0),
                    relative_to_baseline_pct: Some(10.0),
                },
            ],
        }
    }

    #[test]
    fn table_contains_every_protocol_and_accuracy() {
        let text =
            render_table(&fake_result(), &[ProtocolKind::DistanceBased, ProtocolKind::MapBased]);
        assert!(text.contains("car, freeway"));
        assert!(text.contains("distance-based"));
        assert!(text.contains("map-based dr"));
        assert!(text.contains("10.0%"));
        assert!(text.contains("400.0/h"));
    }

    #[test]
    fn missing_points_render_as_a_dash() {
        let text = render_table(&fake_result(), &[ProtocolKind::Linear]);
        assert!(text.contains('—'));
    }

    #[test]
    fn json_is_well_formed_and_carries_update_counts() {
        let tree = render_json(&fake_result());
        let json = tree.to_string();
        assert!(json.starts_with("{\"scenario\":\"car, freeway\",\"accuracies_m\":[50],"));
        assert!(json.contains("\"protocol\":\"map-based dr\""));
        assert!(json.contains("\"updates\":400,\"updates_per_hour\":400,"));
        assert!(json.contains("\"relative_to_baseline_pct\":10,"));
        // The sweep is single-threaded and seed-determined: every leaf is exact.
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        assert_eq!(points[0].get("updates"), Some(&Json::exact(400.0)));
    }

    #[test]
    fn json_escapes_strings_and_maps_non_finite_to_null() {
        assert_eq!(
            Json::str("a\"b\\c\n\r\t\u{1}é").to_string(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001é\""
        );
        assert_eq!(Json::exact(f64::NAN).to_string(), "null");
        assert_eq!(Json::timing(f64::INFINITY, 1).to_string(), "null");
        assert_eq!(Json::exact(2.5).to_string(), "2.5");
        assert_eq!(Json::exact(7.0).to_string(), "7");
        assert_eq!(Json::timing(0.125, 1).to_string(), "0.1");
        assert_eq!(Json::loose(9.8765).fixed(2).to_string(), "9.88");
        assert_eq!(
            Json::document("s/1", 0.5, 9, [("ok", Json::Bool(true)), ("none", Json::Null)])
                .to_string(),
            "{\"schema\":\"s/1\",\"scale\":0.5,\"seed\":9,\"ok\":true,\"none\":null}"
        );
    }

    #[test]
    fn csv_has_a_row_per_point_plus_header() {
        let csv = render_csv(&fake_result());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().next().unwrap().starts_with("scenario,protocol"));
        assert!(csv.contains("map-based dr,50,"));
    }
}
