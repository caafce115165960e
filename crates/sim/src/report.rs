//! Rendering of results: text tables and CSV for people, one JSON value tree
//! for the regression gate.
//!
//! The paper presents its results as figures (updates per hour vs. requested
//! accuracy, absolute and relative to the distance-based baseline); without a
//! plotting dependency the same data is rendered as aligned text tables and as
//! CSV for external plotting.
//!
//! Every machine-readable baseline document (`reproduce json|throughput|…`)
//! is built as a [`Json`] tree whose numeric leaves are seed-determined
//! counts and measurements, each with the print precision declared on the
//! line that emits it. [`Json`]'s `Display` impl is the single writer and
//! prints one leaf per line, so the gate is a line diff of the printed
//! document against the committed baseline (`baselines/check.sh`). Time is
//! not measured here: `benchmark/` owns it.

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

/// A numeric leaf: its value and how it prints. The value is fully
/// determined by the seed, so the regression gate requires its printed text
/// to match the committed baseline byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value (counts are stored as `f64`; the documents stay far below
    /// 2^53). Non-finite values print as `null`.
    pub value: f64,
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

/// The one JSON value tree: every baseline document is built as a `Json` and
/// printed by its [`Display`](std::fmt::Display) impl, the only JSON writer
/// in the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with its print precision.
    Num(Metric),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A seed-determined number, printed in its shortest round-trip form.
    pub fn exact(value: f64) -> Json {
        Json::Num(Metric { value, decimals: None })
    }

    /// Prints this number with exactly `decimals` digits after the point.
    pub(crate) fn fixed(mut self, decimals: u8) -> Json {
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

/// The writer: one leaf per line, two spaces of indent per level,
/// `"key": value` in objects, and `[]` / `{}` inline when empty — so a line
/// diff between two documents names every changed leaf. Non-finite numbers
/// print as `null`; strings are escaped (`"`, `\`, `\n`, `\r`, `\t`, other
/// control characters as `\u00XX`; everything else, non-ASCII included,
/// verbatim).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_json(f, self, 0)
    }
}

fn write_json(f: &mut std::fmt::Formatter<'_>, value: &Json, depth: usize) -> std::fmt::Result {
    let (open, close, entries): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Null => return f.write_str("null"),
        Json::Bool(value) => return write!(f, "{value}"),
        Json::Num(metric) => return write!(f, "{metric}"),
        Json::Str(value) => return write_string(f, value),
        Json::Arr(items) => ('[', ']', items.iter().map(|item| (None, item)).collect()),
        Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(&**k), v)).collect()),
    };
    f.write_char(open)?;
    for (i, (key, value)) in entries.iter().enumerate() {
        let separator = if i == 0 { "" } else { "," };
        write!(f, "{separator}\n{:indent$}", "", indent = 2 * (depth + 1))?;
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(": ")?;
        }
        write_json(f, value, depth + 1)?;
    }
    if !entries.is_empty() {
        write!(f, "\n{:indent$}", "", indent = 2 * depth)?;
    }
    f.write_char(close)
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
        assert!(json.starts_with(
            "{\n  \"scenario\": \"car, freeway\",\n  \"accuracies_m\": [\n    50\n  ],\n"
        ));
        assert!(json.contains("\n      \"protocol\": \"map-based dr\",\n"));
        assert!(json.contains("\n      \"updates\": 400,\n      \"updates_per_hour\": 400,\n"));
        assert!(json.contains("\n      \"relative_to_baseline_pct\": 10,\n"));
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
        assert_eq!(Json::exact(f64::INFINITY).fixed(1).to_string(), "null");
        assert_eq!(Json::exact(2.5).to_string(), "2.5");
        assert_eq!(Json::exact(7.0).to_string(), "7");
        assert_eq!(Json::exact(0.125).fixed(1).to_string(), "0.1");
        assert_eq!(Json::exact(9.8765).fixed(2).to_string(), "9.88");
        assert_eq!(
            Json::document("s/1", 0.5, 9, [("ok", Json::Bool(true)), ("none", Json::Null)])
                .to_string(),
            "{\n  \"schema\": \"s/1\",\n  \"scale\": 0.5,\n  \"seed\": 9,\n  \"ok\": true,\n  \"none\": null\n}"
        );
    }

    #[test]
    fn writer_prints_one_leaf_per_line() {
        let tree = Json::object([
            (
                "a\"b",
                Json::array([
                    Json::object([
                        ("mean_m", Json::exact(2.004).fixed(2)),
                        ("max_m", Json::exact(f64::INFINITY)),
                    ]),
                    Json::exact(f64::NAN),
                    Json::exact(f64::NEG_INFINITY).fixed(1),
                    Json::array([]),
                ]),
            ),
            ("empty", Json::object::<&str>([])),
            ("ok", Json::Bool(true)),
        ]);
        let expected = r#"{
  "a\"b": [
    {
      "mean_m": 2.00,
      "max_m": null
    },
    null,
    null,
    []
  ],
  "empty": {},
  "ok": true
}"#;
        assert_eq!(tree.to_string(), expected);
    }

    #[test]
    fn csv_has_a_row_per_point_plus_header() {
        let csv = render_csv(&fake_result());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().next().unwrap().starts_with("scenario,protocol"));
        assert!(csv.contains("map-based dr,50,"));
    }
}
