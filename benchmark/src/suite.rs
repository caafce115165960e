//! The one-command suite: every workload in a fresh process, first untraced
//! (end-to-end metrics), then traced at a quarter of the operation count
//! (per-layer metrics); results and cross-run checks go to
//! `benchmark/out/results.json` and standard output.

use crate::report::{self, END_TO_END};
use crate::{env, stats, Args, OUT_DIR, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// What one child process printed.
#[derive(Debug, Default, Clone)]
struct Run {
    workload: String,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    digests: BTreeMap<String, String>,
    /// name → (value, unit), in print order.
    metrics: Vec<(String, f64, String)>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }
}

/// Parses a child's `metric` / `digest` / `result` lines.
fn parse_run(workload: &str, traced: bool, stdout: &str) -> Run {
    let mut run = Run { workload: workload.into(), traced, ..Run::default() };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric" | "extra", name, value, unit] => {
                if let Ok(value) = value.parse() {
                    run.metrics.push(((*name).into(), value, (*unit).into()));
                }
            }
            ["digest", kind, hex] => {
                run.digests.insert((*kind).into(), (*hex).into());
            }
            ["result", correct, attempted, failed] => {
                run.correct = *correct == "true";
                run.attempted = attempted.parse().unwrap_or(0);
                run.failed = failed.parse().unwrap_or(0);
            }
            _ => {}
        }
    }
    run
}

fn spawn_run(workload: &str, traced: bool, args: &Args) -> Run {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let stdout = match command.output() {
        Ok(output) => String::from_utf8_lossy(&output.stdout).into_owned(),
        Err(e) => {
            eprintln!("cannot start {workload}: {e}");
            String::new()
        }
    };
    let run = parse_run(workload, traced, &stdout);
    let mode = if traced { "traced" } else { "untraced" };
    for line in stdout.lines().filter(|l| l.starts_with("note ")) {
        println!("{workload} {mode} {line}");
    }
    for (kind, hex) in &run.digests {
        println!("{workload} {mode} digest {kind} {hex}");
    }
    for (name, value, unit) in &run.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload} {mode}: {} — {} attempted, {} failed",
        if run.correct { "correct" } else { "NOT CORRECT" },
        run.attempted,
        run.failed
    );
    run
}

/// Cross-run checks of one workload's untraced + traced pair.
fn check_pair(untraced: &Run, traced: &Run) {
    let w = &untraced.workload;
    if let Some(overhead) = traced.metric("trace.overhead_share") {
        let verdict = if overhead <= 0.15 { "ok" } else { "WARN above 0.15" };
        println!("check {w} trace.overhead_share {overhead:.4} {verdict}");
    }
    if w != "ingest_durable" {
        return;
    }
    for name in ["locserver.shard_delta_ns", "locserver.journal_delta_ns"] {
        if let Some(v) = traced.metric(name) {
            println!("check {w} {name} {v:.1} {}", if v >= 0.0 { "ok" } else { "WARN negative" });
        }
    }
    if let (Some(slices), Some(end_to_end)) =
        (traced.metric("locserver.journal_tax_from_slices"), untraced.metric("journal_tax"))
    {
        let off = slices / end_to_end - 1.0;
        let verdict = if off.abs() <= 0.10 { "ok" } else { "WARN beyond 10 %" };
        println!(
            "check {w} journal_tax slices {slices:.4} vs end-to-end {end_to_end:.4} ({:+.1} %) {verdict}",
            off * 100.0
        );
    }
}

/// `--repeat`: each end-to-end metric's spread (quartile distance ÷ median,
/// as the gate computes it) against its bound, and digest agreement.
fn check_repeats(repeats: &[Vec<Run>]) -> bool {
    let mut identical = true;
    for (i, first) in repeats[0].iter().enumerate() {
        for later in &repeats[1..] {
            if later[i].digests != first.digests {
                identical = false;
                println!("repeat {} digests DIFFER between repeats", first.workload);
            }
        }
        if first.traced {
            continue;
        }
        for m in END_TO_END {
            let values: Vec<f64> =
                repeats.iter().filter_map(|runs| runs[i].metric(m.name)).collect();
            let (Some((q1, q3)), Some(median)) =
                (stats::quartiles(&values), stats::median(&values))
            else {
                continue;
            };
            let spread = (q3 - q1) / median.abs().max(f64::MIN_POSITIVE);
            let verdict = if spread <= m.bound { "ok" } else { "EXCEEDS" };
            println!(
                "spread {} {} {spread:.4} bound {} {verdict}",
                first.workload, m.name, m.bound
            );
        }
    }
    identical
}

fn results_json(args: &Args, repeats: &[Vec<Run>]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"mbdr-benchmark/1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"smoke\": {},\n  \"environment\": {{{}}},\n  \"runs\": [",
        args.seed,
        args.seconds,
        args.smoke,
        env::json(Path::new(OUT_DIR))
    );
    let mut first = true;
    for (repeat, runs) in repeats.iter().enumerate() {
        for run in runs {
            let _ = write!(
                out,
                "{}\n    {{\"workload\": \"{}\", \"repeat\": {repeat}, \"traced\": {}, \
                 \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digests\": {{",
                if first { "" } else { "," },
                run.workload,
                run.traced,
                run.correct,
                run.attempted,
                run.failed
            );
            first = false;
            for (i, (kind, hex)) in run.digests.iter().enumerate() {
                let _ = write!(out, "{}\"{kind}\": \"{hex}\"", if i == 0 { "" } else { ", " });
            }
            out.push_str("}, \"metrics\": {");
            for (i, (name, value, unit)) in run.metrics.iter().enumerate() {
                let bound = report::end_to_end(name)
                    .map(|m| {
                        format!(", \"better\": \"{}\", \"bound\": {}", m.better.as_str(), m.bound)
                    })
                    .unwrap_or_default();
                let _ = write!(
                    out,
                    "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"{bound}}}",
                    if i == 0 { "" } else { ", " }
                );
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Runs the whole suite `args.repeat` times. Returns whether every run was
/// correct (and, when repeated, whether the digests agreed).
pub fn run(args: &Args) -> bool {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return false;
    }
    let mut repeats: Vec<Vec<Run>> = Vec::new();
    for _ in 0..args.repeat {
        let mut runs = Vec::new();
        for workload in WORKLOADS {
            let untraced = spawn_run(workload, false, args);
            let traced = spawn_run(workload, true, args);
            check_pair(&untraced, &traced);
            runs.push(untraced);
            runs.push(traced);
        }
        repeats.push(runs);
    }
    let mut ok = repeats.iter().flatten().all(|r| r.correct);
    if repeats.len() > 1 {
        ok &= check_repeats(&repeats);
    }
    let path = Path::new(OUT_DIR).join("results.json");
    match std::fs::write(&path, results_json(args, &repeats)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips_through_the_parser() {
        let stdout = "note x: something\ndigest inputs 00ff\ndigest counts 1234\n\
                      metric setup_s 0.25 s\nmetric rect_p50_us 12.5 us\nresult true 100 0\n{...}\n";
        let run = parse_run("query_hotspot", false, stdout);
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (100, 0));
        assert_eq!(run.metric("rect_p50_us"), Some(12.5));
        assert_eq!(run.digests["inputs"], "00ff");
        assert_eq!(run.metric("missing"), None);
        let json = results_json(
            &Args { workload: None, seed: 1, seconds: 2, trace: false, smoke: true, repeat: 1 },
            &[vec![run]],
        );
        assert!(json.contains("\"rect_p50_us\": {\"value\": 12.5, \"unit\": \"us\", \"better\": \"lower\", \"bound\": 0.25}"));
    }

    #[test]
    fn a_run_that_printed_no_result_is_not_correct() {
        assert!(!parse_run("tcp_fleet", true, "metric a 1 s\n").correct);
    }
}
