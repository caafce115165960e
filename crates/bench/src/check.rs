//! The regression gate behind `reproduce <cmd> --check`: a dependency-free
//! JSON parser plus a baseline comparator.
//!
//! The baselines (`baselines/BENCH_<cmd>.json`) are committed outputs of the
//! JSON-emitting reproduce commands at CI's smoke scales. A check run builds
//! the document again as an in-memory [`Json`] tree, parses the committed
//! file, and walks both in parallel. Every number in a document — counts,
//! config echoes, byte totals, the single-threaded deviation sweeps — is
//! fully determined by the seed, so each must match the baseline as printed,
//! to a relative `1e-6` that absorbs float formatting across machines and
//! nothing else. Time is measured by `benchmark/`, never here.
//!
//! Any structural difference — missing key, extra key, array length change,
//! schema string change — fails the check outright: schema evolution must go
//! through `--write-baseline`, not slip past the gate.

use mbdr_sim::Json;

/// Parses one JSON document (numbers come back as shortest-form leaves).
/// Returns a message with the byte offset on malformed input.
pub fn parse_json(text: impl AsRef<[u8]>) -> Result<Json, String> {
    let bytes = text.as_ref();
    let mut at = 0usize;
    let value = parse_value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing content at byte {at}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && bytes[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*at) == Some(&byte) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {at}", byte as char, at = *at))
    }
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{') => parse_object(bytes, at),
        Some(b'[') => parse_array(bytes, at),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, at)?)),
        Some(b't') => parse_literal(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", Json::Null),
        Some(_) => parse_number(bytes, at),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {at}", at = *at))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    while *at < bytes.len() && matches!(bytes[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *at += 1;
    }
    std::str::from_utf8(&bytes[start..*at])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::exact)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// Parses a string literal: UTF-8 decoded run by run, plus every escape the
/// writer produces (`\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX`) and `\/`.
fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        // Neither delimiter can occur inside a multi-byte sequence, so the
        // bytes up to the next one are a whole number of characters.
        let run = *at;
        while !matches!(bytes.get(*at), Some(b'"' | b'\\') | None) {
            *at += 1;
        }
        let raw = std::str::from_utf8(&bytes[run..*at])
            .map_err(|e| format!("invalid UTF-8 at byte {}", run + e.valid_up_to()))?;
        out.push_str(raw);
        match bytes.get(*at) {
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(_) => {
                let escaped = *bytes.get(*at + 1).ok_or("unterminated escape")?;
                *at += 2;
                match escaped {
                    b'"' | b'\\' | b'/' => out.push(escaped as char),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let unit = parse_hex4(bytes, at)?;
                        out.push(char::from_u32(unit).ok_or_else(|| {
                            format!("lone surrogate `\\u{unit:04x}` at byte {}", *at - 6)
                        })?);
                    }
                    other => {
                        return Err(format!(
                            "unsupported escape `\\{}` at byte {}",
                            other as char,
                            *at - 2
                        ))
                    }
                }
            }
            None => return Err("unterminated string".into()),
        }
    }
}

/// The four hex digits of a `\uXXXX` escape, as a code unit.
fn parse_hex4(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let digits = bytes
        .get(*at..*at + 4)
        .and_then(|d| std::str::from_utf8(d).ok())
        .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| format!("`\\u` needs four hex digits at byte {at}", at = *at))?;
    *at += 4;
    u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
}

fn parse_array(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {at}", at = *at)),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        expect(bytes, at, b':')?;
        fields.push((key, parse_value(bytes, at)?));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {at}", at = *at)),
        }
    }
}

/// Outcome of one baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Human-readable mismatch descriptions (empty means the check passed).
    pub mismatches: Vec<String>,
    /// Leaves that matched the baseline.
    pub compared: usize,
}

impl CheckReport {
    /// Whether the current document is within tolerance of the baseline.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn fail(&mut self, path: &[String], message: String) {
        let where_ = if path.is_empty() { "<root>".to_string() } else { path.join(".") };
        self.mismatches.push(format!("{where_}: {message}"));
    }
}

/// Compares a freshly built document against its parsed committed baseline.
/// Numbers are compared as `fresh` prints them.
pub fn compare_baseline(baseline: &Json, fresh: &Json) -> CheckReport {
    let mut report = CheckReport::default();
    walk(baseline, fresh, &mut Vec::new(), &mut report);
    report
}

fn walk(baseline: &Json, fresh: &Json, path: &mut Vec<String>, report: &mut CheckReport) {
    match (baseline, fresh) {
        (Json::Obj(base_fields), Json::Obj(fresh_fields)) => {
            for (key, base_value) in base_fields {
                match fresh.get(key) {
                    Some(fresh_value) => {
                        path.push(key.clone());
                        walk(base_value, fresh_value, path, report);
                        path.pop();
                    }
                    None => report.fail(path, format!("key `{key}` missing from current output")),
                }
            }
            for (key, _) in fresh_fields {
                if baseline.get(key).is_none() {
                    report.fail(
                        path,
                        format!(
                            "new key `{key}` not in the baseline (regenerate it with \
                             --write-baseline)"
                        ),
                    );
                }
            }
        }
        (Json::Arr(base_items), Json::Arr(fresh_items)) => {
            if base_items.len() != fresh_items.len() {
                report.fail(
                    path,
                    format!("array length {} != baseline {}", fresh_items.len(), base_items.len()),
                );
                return;
            }
            for (i, (b, c)) in base_items.iter().zip(fresh_items).enumerate() {
                path.push(format!("[{i}]"));
                walk(b, c, path, report);
                path.pop();
            }
        }
        (Json::Str(_) | Json::Bool(_) | Json::Null, _) if baseline == fresh => report.compared += 1,
        (Json::Str(_), Json::Str(_)) | (Json::Bool(_), Json::Bool(_)) => {
            report.fail(path, format!("{fresh} != baseline {baseline}"))
        }
        (_, Json::Num(metric)) => compare_number(baseline, metric.printed(), path, report),
        _ => report.fail(path, "value kind differs from the baseline".into()),
    }
}

/// Judges one fresh number as the writer prints it (NaN for `null`).
fn compare_number(baseline: &Json, cur: f64, path: &[String], report: &mut CheckReport) {
    match baseline {
        Json::Num(base) if cur.is_finite() => {
            let base = base.value;
            let tolerance = 1e-9f64.max(1e-6 * base.abs().max(cur.abs()));
            if (base - cur).abs() <= tolerance {
                report.compared += 1;
            } else {
                report.fail(path, format!("{cur} != baseline {base} (tolerance {tolerance:.2e})"));
            }
        }
        Json::Null if !cur.is_finite() => report.compared += 1,
        _ => report.fail(path, "value kind differs from the baseline".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh document with one leaf of every kind.
    fn doc() -> Json {
        let point = Json::object([
            ("updates_sent", Json::exact(120.0)),
            ("deviation", Json::object([("mean_m", Json::exact(2.0).fixed(2))])),
            ("label", Json::str("a b")),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        Json::document("mbdr-x/1", 0.05, 7, [("points", Json::array([point]))])
    }

    /// The committed form of a fresh document: what `--write-baseline` writes
    /// and `--check` reads back.
    fn committed(fresh: &Json) -> Json {
        parse_json(fresh.to_string()).expect("the writer's output parses")
    }

    /// The node at `path` (object keys, decimal array indexes).
    fn at<'a>(node: &'a mut Json, path: &[&str]) -> &'a mut Json {
        let Some((head, rest)) = path.split_first() else { return node };
        let child = match node {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == head).map(|(_, v)| v),
            Json::Arr(items) => items.get_mut(head.parse::<usize>().expect("array index")),
            _ => None,
        };
        at(child.unwrap_or_else(|| panic!("no `{head}` in the tree")), rest)
    }

    /// `fresh` with the node at `path` replaced.
    fn with(fresh: &Json, path: &[&str], node: Json) -> Json {
        let mut tree = fresh.clone();
        *at(&mut tree, path) = node;
        tree
    }

    fn drift_every_number(node: &mut Json) {
        match node {
            Json::Num(metric) => metric.value = metric.value * 3.0 + 7.0,
            Json::Arr(items) => items.iter_mut().for_each(drift_every_number),
            Json::Obj(fields) => fields.iter_mut().for_each(|(_, v)| drift_every_number(v)),
            _ => {}
        }
    }

    /// The leaves the gate actually holds: every number is drifted at once,
    /// and the paths that then fail are the gated ones.
    fn gated_leaves(fresh: &Json) -> Vec<String> {
        let baseline = committed(fresh);
        let clean = compare_baseline(&baseline, fresh);
        assert!(clean.passed(), "{:?}", clean.mismatches);
        let mut drifted = fresh.clone();
        drift_every_number(&mut drifted);
        let report = compare_baseline(&baseline, &drifted);
        report.mismatches.iter().map(|m| m[..m.find(':').expect("path: message")].into()).collect()
    }

    #[test]
    fn parser_round_trips_the_baseline_shapes() {
        let doc = committed(&doc());
        assert_eq!(doc.get("schema"), Some(&Json::str("mbdr-x/1")));
        let Some(Json::Arr(points)) = doc.get("points") else { panic!("points array") };
        assert_eq!(points[0].get("updates_sent"), Some(&Json::exact(120.0)));
        assert_eq!(points[0].get("flag"), Some(&Json::Bool(true)));
        assert_eq!(points[0].get("nothing"), Some(&Json::Null));
        // Whitespace between tokens, and every string form the writer emits.
        let spaced = parse_json(" { \"k\" : [ 1 , \"a\\r\\u0001\\/é\" ] } ").unwrap();
        let expected = Json::array([Json::exact(1.0), Json::str("a\r\u{1}/é")]);
        assert_eq!(spaced.get("k"), Some(&expected));
    }

    #[test]
    fn parser_rejects_garbage_with_positions() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"\\q\"").unwrap_err().contains("byte 1"));
        assert!(parse_json("\"\\u12\"").unwrap_err().contains("four hex digits at byte 3"));
        assert!(parse_json("\"\\ud800\"").unwrap_err().contains("lone surrogate"));
        // Invalid UTF-8 is an error with the offending byte's offset, never a
        // mangled string.
        assert_eq!(parse_json(b"[\"ok\",\"a\xC3\"]").unwrap_err(), "invalid UTF-8 at byte 8");
    }

    /// SplitMix64: the round-trip test's seeded generator.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn string(&mut self) -> String {
            const ALPHABET: [char; 12] =
                ['a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', 'é', '🚕'];
            (0..self.below(9)).map(|_| ALPHABET[self.below(12) as usize]).collect()
        }

        fn tree(&mut self, depth: u32) -> Json {
            match self.below(if depth == 0 { 5 } else { 7 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => Json::Str(self.string()),
                3 => Json::exact([f64::NAN, f64::INFINITY, -f64::INFINITY][self.below(3) as usize])
                    .fixed(1),
                4 => {
                    let value = (self.below(u64::MAX) as i64 as f64) / 1024.0;
                    match self.below(4) {
                        0 => Json::exact(value),
                        1 => Json::exact(value).fixed(2),
                        2 => Json::exact(value).fixed(3),
                        _ => Json::exact(self.below(1 << 53) as f64),
                    }
                }
                5 => Json::array((0..self.below(4)).map(|_| self.tree(depth - 1))),
                _ => {
                    Json::object((0..self.below(4)).map(|_| (self.string(), self.tree(depth - 1))))
                }
            }
        }
    }

    /// What parsing a tree's printed form must give back: non-finite numbers
    /// as `null`, fixed-precision numbers rounded, precisions dropped.
    fn parsed_form(tree: &Json) -> Json {
        match tree {
            Json::Num(metric) if metric.printed().is_nan() => Json::Null,
            Json::Num(metric) => Json::exact(metric.printed()),
            Json::Arr(items) => Json::array(items.iter().map(parsed_form)),
            Json::Obj(fields) => Json::object(fields.iter().map(|(k, v)| (&**k, parsed_form(v)))),
            other => other.clone(),
        }
    }

    #[test]
    fn writer_and_parser_round_trip_random_trees() {
        let mut rng = Mix(2001);
        for case in 0..500 {
            let tree = rng.tree(4);
            let text = tree.to_string();
            let parsed = parse_json(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(parsed, parsed_form(&tree), "case {case}: {text}");
        }
    }

    #[test]
    fn identical_documents_pass() {
        let fresh = doc();
        let report = compare_baseline(&committed(&fresh), &fresh);
        assert!(report.passed(), "{:?}", report.mismatches);
        // schema, scale, seed, updates_sent, deviation.mean_m, label, flag,
        // nothing
        assert_eq!(report.compared, 8);
    }

    #[test]
    fn every_numeric_drift_fails() {
        let fresh = doc();
        // No number may drift — neither a count nor the single-threaded
        // deviation.
        assert_eq!(
            gated_leaves(&fresh),
            ["scale", "seed", "points.[0].updates_sent", "points.[0].deviation.mean_m"]
        );
        // The gate compares what the writer prints: a drift below the print
        // precision of a leaf is no drift.
        let within_print =
            with(&fresh, &["points", "0", "deviation", "mean_m"], Json::exact(2.004).fixed(2));
        assert!(compare_baseline(&committed(&fresh), &within_print).passed());
    }

    #[test]
    fn net_schema_gates_query_result_counts_strictly() {
        // The real mbdr-net/1 emitter queries one post-flush instant, so what
        // the queries returned is as seed-determined as what was sent and is
        // gated like it. The scheduling diagnostics are not in the document.
        let tree = crate::netbase::render_net_json(0.05, 7, &crate::netbase::net_grid(0.05, 7));
        let gated = gated_leaves(&tree);
        for key in ["rect_results", "nearest_results", "zone_events", "server.bytes_sent"] {
            assert!(gated.contains(&format!("points.[0].{key}")), "{key} must be gated");
        }
        assert!(!tree.to_string().contains("wakeups"));
    }

    #[test]
    fn structural_changes_fail() {
        let fresh = doc();
        let baseline = committed(&fresh);
        let failure = |changed: &Json| compare_baseline(&baseline, changed).mismatches.join("\n");
        let mut missing = fresh.clone();
        let Json::Obj(fields) = at(&mut missing, &["points", "0"]) else { panic!("point object") };
        fields.retain(|(key, _)| key != "flag");
        assert!(failure(&missing).contains("key `flag` missing"));
        let mut extra = fresh.clone();
        let Json::Obj(fields) = at(&mut extra, &["points", "0"]) else { panic!("point object") };
        fields.push(("extra".into(), Json::exact(1.0)));
        assert!(failure(&extra).contains("--write-baseline"));
        let mut longer = fresh.clone();
        let Json::Arr(points) = at(&mut longer, &["points"]) else { panic!("points array") };
        points.push(Json::exact(999.0));
        assert!(failure(&longer).contains("array length 2 != baseline 1"));
        assert!(failure(&with(&fresh, &["schema"], Json::str("mbdr-x/2"))).contains("schema"));
        assert!(failure(&with(&fresh, &["points", "0", "flag"], Json::exact(1.0))).contains("kind"));
    }

    #[test]
    fn null_and_a_number_never_match() {
        let fresh = doc();
        // A number printed as `null` on one side only is a kind change,
        // whichever side it is on; `null` on both sides is the same document.
        let nulled = with(&fresh, &["points", "0", "updates_sent"], Json::exact(f64::NAN));
        assert!(!compare_baseline(&committed(&fresh), &nulled).passed());
        assert!(!compare_baseline(&committed(&nulled), &fresh).passed());
        assert!(compare_baseline(&committed(&nulled), &nulled).passed());
    }
}
