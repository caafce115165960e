//! The repo's benchmark: four workloads, each one process, measured from
//! outside through the crates' public functions. See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload once and prints its metrics as `metric <name> <value> <unit>`
//! lines followed by one JSON object on the last line. Without `--workload`
//! the suite runs: every workload in a fresh process, untraced then traced.
//!
//! Every process runs all four *phases*: the named workload's at the scale
//! `--seconds` asks for, the other three as short probes. That way each run
//! can report every metric of `BENCHMARK.json`: a metric is read from the
//! workload's own phase when that phase measures it, otherwise from the
//! first phase in the order device, ingest, query, tcp that does.

mod device;
mod env;
mod fleet;
mod gen;
mod ingest;
mod query;
mod report;
mod stats;
mod suite;
mod tcp;
mod trace;

use report::{Phase, PhaseCfg, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in phase order.
pub const WORKLOADS: [&str; 4] = ["device_fleet", "ingest_durable", "query_hotspot", "tcp_fleet"];

/// `--seconds` at which a workload runs its full operation counts (those
/// take about this long, timed, on the 2-core reference box).
const FULL_SCALE_SECONDS: f64 = 20.0;
/// A traced run does a quarter of the operations.
const TRACED_OPS: f64 = 0.25;
/// Probe phases: three tenths of the operations on a tenth of the objects —
/// long enough that a probe's timings repeat about as well as a workload's.
const PROBE_OPS: f64 = 0.3;
const PROBE_OBJECTS: f64 = 0.1;
/// `--smoke`: every count ÷ 50 (on a tenth of the objects), all checks on.
const SMOKE_OPS: f64 = 1.0 / 50.0;
const SMOKE_OBJECTS: f64 = 0.1;
const SMOKE_TRACE_SCALE: f64 = 0.1;
/// Most interleaving cycles of one run.
const MAX_CYCLES: usize = 16;
const DEFAULT_SEED: u64 = 2001;
const DEFAULT_SECONDS: u64 = 20;

/// Where results, traces and scratch journals go (inside the checkout).
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Removes the scratch directory when the run ends, failure included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// End-to-end metrics `phase` measures (besides `setup_s`).
fn supplies(phase: &str) -> &'static [&'static str] {
    match phase {
        "device_fleet" => device::SUPPLIES,
        "ingest_durable" => ingest::SUPPLIES,
        "query_hotspot" => query::SUPPLIES,
        _ => tcp::SUPPLIES,
    }
}

/// Sets `phase` up (timed inside, as `setup_s`) and returns it ready to step.
fn start_phase(phase: &str, cfg: &PhaseCfg, tracer: &mut Tracer) -> Box<dyn Phase> {
    match phase {
        "device_fleet" => Box::new(device::Device::new(cfg, tracer)),
        "ingest_durable" => Box::new(ingest::Ingest::new(cfg, tracer)),
        "query_hotspot" => Box::new(query::QueryHotspot::new(cfg, tracer)),
        _ => Box::new(tcp::TcpFleet::new(cfg, tracer)),
    }
}

/// Runs `workload` once and prints its result. Returns whether the run is
/// complete and correct.
fn run_workload(workload: &str, args: &Args) -> bool {
    let workload: &'static str =
        WORKLOADS.iter().copied().find(|w| *w == workload).expect("parse_args checked the name");
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("cannot create {}: {e}", scratch.0.display());
        return false;
    }
    let mut tracer = if args.trace { Tracer::enabled() } else { Tracer::disabled() };
    let (smoke_ops, smoke_objects) =
        if args.smoke { (SMOKE_OPS, SMOKE_OBJECTS) } else { (1.0, 1.0) };
    let ops = args.seconds as f64 / FULL_SCALE_SECONDS
        * smoke_ops
        * if args.trace { TRACED_OPS } else { 1.0 };
    let own = PhaseCfg {
        ops,
        objects: smoke_objects,
        trace_scale: if args.smoke { SMOKE_TRACE_SCALE } else { 1.0 },
        seed: args.seed,
        time_setup: true,
        scratch: scratch.0.clone(),
    };
    let probe = PhaseCfg {
        ops: own.ops * PROBE_OPS,
        objects: own.objects * PROBE_OBJECTS,
        time_setup: false,
        ..own.clone()
    };

    // The named workload is set up first, in a fresh process; then the
    // probes. An untraced probe that could add no end-to-end metric is
    // left out.
    let mut supplied: Vec<&str> = supplies(workload).to_vec();
    let mut phases: Vec<(&'static str, Box<dyn Phase>)> = Vec::new();
    tracer.set_scope(workload);
    phases.push((workload, start_phase(workload, &own, &mut tracer)));
    for phase in WORKLOADS.iter().filter(|w| **w != workload) {
        if !args.trace && supplies(phase).iter().all(|name| supplied.contains(name)) {
            continue;
        }
        supplied.extend(supplies(phase));
        tracer.set_scope(phase);
        phases.push((phase, start_phase(phase, &probe, &mut tracer)));
    }

    // Interleave: in each of `cycles` cycles every phase runs its share of
    // its slices, so every metric is sampled across the whole run.
    let cycles = phases.iter().map(|(_, p)| p.slices()).max().unwrap_or(1).clamp(1, MAX_CYCLES);
    for cycle in 0..cycles {
        for (name, phase) in &mut phases {
            tracer.set_scope(name);
            let n = phase.slices();
            for _ in (cycle * n / cycles)..((cycle + 1) * n / cycles) {
                phase.step(&mut tracer);
            }
        }
    }

    // First wins: the workload's own phase, then the probes in phase order.
    let mut merged: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (name, phase) in phases {
        tracer.set_scope(name);
        let report = phase.finish(&mut tracer);
        attempted += report.attempted;
        failed += report.failed;
        for note in &report.notes {
            println!("note {name}: {note}");
        }
        if name == workload {
            println!("digest inputs {:016x}", report.inputs.value());
            println!("digest counts {:016x}", report.counts.value());
        }
        for (metric, value) in report.metrics {
            merged.entry(metric).or_insert(value);
        }
    }
    if args.trace {
        merged.insert("trace.span_cost_ns", tracer.span_cost_ns());
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, tracer.to_json(workload)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    } else if let Some(mb) = stats::peak_rss_mb() {
        merged.insert("peak_rss_mb", mb);
    }
    drop(scratch);

    // Exactly the contract's metric set for this mode, every one measured.
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut complete = true;
    let mut json = String::new();
    for (name, unit) in wanted {
        match merged.get(name).copied().filter(|v| v.is_finite()) {
            Some(value) => {
                println!("metric {name} {value} {unit}");
                let _ = write!(
                    json,
                    "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    if json.is_empty() { "" } else { ", " }
                );
            }
            None => {
                println!("note {workload}: metric {name} was not measured");
                complete = false;
            }
        }
    }
    if !args.trace {
        // Timings the untraced run took on the way that are per-layer
        // metrics (all of tcp_fleet's): shown, and kept in results.json.
        for m in PER_LAYER {
            if let Some(value) = merged.get(m.name).copied().filter(|v| v.is_finite()) {
                println!("extra {} {value} {}", m.name, m.unit);
            }
        }
    }
    let correct = complete && failed == 0;
    println!("result {correct} {attempted} {failed}");
    if complete {
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            attempted.max(1)
        );
    }
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: benchmark/run.sh [--workload <name> --trace <0|1>] [--seed N] [--seconds S] \
                 [--smoke] [--repeat N]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(workload) => run_workload(workload, &args),
        None => suite::run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
