//! `reproduce` — regenerate every table and figure of the paper, plus the
//! post-paper perf baselines, with a built-in regression gate.
//!
//! ```text
//! cargo run --release -p mbdr-bench --bin reproduce -- all --scale 1.0
//! cargo run --release -p mbdr-bench --bin reproduce -- table1
//! cargo run --release -p mbdr-bench --bin reproduce -- fig7 --csv
//! cargo run --release -p mbdr-bench --bin reproduce -- summary
//! cargo run --release -p mbdr-bench --bin reproduce -- updates-trace
//! cargo run --release -p mbdr-bench --bin reproduce -- ablations --scale 0.25
//! cargo run --release -p mbdr-bench --bin reproduce -- throughput --scale 0.02
//! cargo run --release -p mbdr-bench --bin reproduce -- wire --scale 0.1
//! cargo run --release -p mbdr-bench --bin reproduce -- net --scale 0.05
//! cargo run --release -p mbdr-bench --bin reproduce -- connscale
//! cargo run --release -p mbdr-bench --bin reproduce -- scale
//! cargo run --release -p mbdr-bench --bin reproduce -- json --scale 0.05 --check
//! cargo run --release -p mbdr-bench --bin reproduce -- net --scale 0.05 --write-baseline
//! ```
//!
//! `--scale` (default 1.0) shrinks the trace length for quick smoke runs;
//! `--seed` changes the synthetic map/trace/noise seed; `--csv` prints the
//! figure data as CSV instead of a table. For the JSON-emitting commands
//! (`json`, `throughput`, `wire`, `net`, `connscale`, `hotpath`, `scale`,
//! `recovery`, `faults`),
//! `--check` compares the fresh
//! output against the committed `baselines/BENCH_<cmd>.json` with per-metric
//! tolerances and exits non-zero on regression, `--write-baseline`
//! (re)generates that file, and `--baseline-dir` overrides the directory.
//! The document itself always goes to stdout, so CI can archive it while
//! gating on the exit code.
//!
//! Every flag is parsed in one place and every unknown command or argument
//! dies with usage and a non-zero exit — there is exactly one parser.

use mbdr_bench::alloccount::CountingAllocator;
use mbdr_bench::check::{compare_baseline, parse_json};
use mbdr_bench::faults::{faults_bench, render_faults_json};
use mbdr_bench::hotpath::{hotpath_report, render_hotpath_json};
use mbdr_bench::netbase::{
    connscale_fd_demand, connscale_grid, net_grid, open_file_soft_limit, render_connscale_json,
    render_net_json,
};
use mbdr_bench::recovery::{recovery_bench, render_recovery_json};
use mbdr_bench::scale::{render_scale_json, scale_grid};
use mbdr_bench::throughput::{render_throughput_json, throughput_grid};
use mbdr_bench::wire::wire_baseline;
use mbdr_bench::{
    ablations, figure, figure_number, scenario_data, summary, table1, updates_along_route,
    DEFAULT_SEED, REPRODUCE_COMMANDS,
};
use mbdr_geo::format_duration_hm;
use mbdr_sim::{render_csv, render_json, render_table, Json, ProtocolKind};
use mbdr_trace::ScenarioKind;
use std::path::PathBuf;
use std::time::Instant;

/// The counting allocator behind `reproduce hotpath`: its per-allocation
/// cost is one relaxed atomic increment, so installing it globally does not
/// disturb the other commands' timings while making allocations-per-
/// operation an exact, gateable number.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Every subcommand, validated at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Table1,
    Fig(ScenarioKind),
    Figures,
    Summary,
    UpdatesTrace,
    Ablations,
    Json,
    Throughput,
    Wire,
    Net,
    ConnScale,
    Hotpath,
    Scale,
    Recovery,
    Faults,
    All,
}

impl Command {
    /// The single place a command name is recognised.
    fn parse(name: &str) -> Option<Command> {
        Some(match name {
            "table1" => Command::Table1,
            "fig7" => Command::Fig(ScenarioKind::Freeway),
            "fig8" => Command::Fig(ScenarioKind::Interurban),
            "fig9" => Command::Fig(ScenarioKind::City),
            "fig10" => Command::Fig(ScenarioKind::Walking),
            "figures" => Command::Figures,
            "summary" => Command::Summary,
            "updates-trace" => Command::UpdatesTrace,
            "ablations" => Command::Ablations,
            "json" => Command::Json,
            "throughput" => Command::Throughput,
            "wire" => Command::Wire,
            "net" => Command::Net,
            "connscale" => Command::ConnScale,
            "hotpath" => Command::Hotpath,
            "scale" => Command::Scale,
            "recovery" => Command::Recovery,
            "faults" => Command::Faults,
            "all" => Command::All,
            _ => return None,
        })
    }

    /// The baseline file name for the JSON-emitting commands, `None` for the
    /// human-readable ones (which have no baseline to check against).
    fn baseline_file(self) -> Option<&'static str> {
        Some(match self {
            Command::Json => "BENCH_json.json",
            Command::Throughput => "BENCH_throughput.json",
            Command::Wire => "BENCH_wire.json",
            Command::Net => "BENCH_net.json",
            Command::ConnScale => "BENCH_connscale.json",
            Command::Hotpath => "BENCH_hotpath.json",
            Command::Scale => "BENCH_scale.json",
            Command::Recovery => "BENCH_recovery.json",
            Command::Faults => "BENCH_faults.json",
            _ => return None,
        })
    }
}

struct Options {
    command: Command,
    scale: f64,
    seed: u64,
    csv: bool,
    check: bool,
    write_baseline: bool,
    baseline_dir: PathBuf,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        command: Command::All,
        scale: 1.0,
        seed: DEFAULT_SEED,
        csv: false,
        check: false,
        write_baseline: false,
        baseline_dir: PathBuf::from("baselines"),
    };
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number in (0, 1]"));
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--csv" => options.csv = true,
            "--check" => options.check = true,
            "--write-baseline" => options.write_baseline = true,
            "--baseline-dir" => {
                options.baseline_dir = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--baseline-dir needs a path"));
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if !positional_seen => {
                options.command = Command::parse(other)
                    .unwrap_or_else(|| die(&format!("unknown command `{other}`")));
                positional_seen = true;
            }
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    if !(options.scale > 0.0 && options.scale <= 1.0) {
        die("--scale must be in (0, 1]");
    }
    // The documents echo the seed as a JSON number, which is exact up to 2^53.
    if options.seed > 1 << 53 {
        die("--seed must be at most 2^53");
    }
    if options.check && options.write_baseline {
        die("--check and --write-baseline are mutually exclusive");
    }
    if options.write_baseline && options.command.baseline_file().is_none() {
        die("--write-baseline only applies to the JSON commands \
             (json|throughput|wire|net|connscale|hotpath|scale|recovery|faults)");
    }
    if options.check && options.command.baseline_file().is_none() {
        die("--check only applies to the JSON commands");
    }
    options
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    print_usage();
    std::process::exit(2);
}

fn print_usage() {
    eprintln!(
        "usage: reproduce [{}]\n       [--scale F] [--seed N] [--csv] [--check] \
         [--write-baseline] [--baseline-dir DIR]",
        REPRODUCE_COMMANDS.join("|"),
    );
}

/// The full figure set as one machine-readable JSON document: scale, seed,
/// and per figure the sweep data (update counts per protocol and accuracy)
/// plus the wall-clock time the sweep took. This is the perf and regression
/// baseline future changes are compared against.
fn json_baseline(scale: f64, seed: u64) -> Json {
    let figures = ScenarioKind::ALL.iter().map(|&kind| {
        let started = Instant::now();
        let result = figure(kind, scale, seed);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Json::object([
            ("figure", Json::exact(f64::from(figure_number(kind)))),
            ("wall_ms", Json::timing(wall_ms, 1)),
            ("sweep", render_json(&result)),
        ])
    });
    Json::document("mbdr-reproduce/1", scale, seed, [("figures", Json::array(figures))])
}

/// The JSON document for one of the baseline commands.
fn baseline_json(command: Command, scale: f64, seed: u64) -> Json {
    match command {
        Command::Json => json_baseline(scale, seed),
        Command::Throughput => render_throughput_json(scale, seed, &throughput_grid(scale, seed)),
        Command::Wire => wire_baseline(scale, seed).to_json(),
        Command::Net => render_net_json(scale, seed, &net_grid(scale, seed)),
        Command::ConnScale => render_connscale_json(scale, seed, &connscale_grid(scale, seed)),
        Command::Hotpath => render_hotpath_json(scale, seed, &hotpath_report(scale, seed)),
        Command::Scale => render_scale_json(scale, seed, &scale_grid(scale, seed)),
        Command::Recovery => render_recovery_json(scale, seed, &recovery_bench(scale, seed)),
        Command::Faults => render_faults_json(scale, seed, &faults_bench(scale, seed)),
        _ => unreachable!("parse_args only routes JSON commands here"),
    }
}

/// Refuses to start `connscale` when the process's open-file limit cannot
/// hold the workload (exit 2 with the fix spelled out, instead of dying
/// mid-run on an opaque `EMFILE` from some opener thread).
fn require_fd_headroom(scale: f64) {
    let Some(limit) = open_file_soft_limit() else { return };
    let demand = connscale_fd_demand(scale);
    if limit < demand {
        eprintln!(
            "error: `reproduce connscale --scale {scale}` needs about {demand} file \
             descriptors (two per connection plus slack) but the soft open-file limit is \
             {limit}.\nRaise it first (`ulimit -n {demand}`) or lower --scale.",
        );
        std::process::exit(2);
    }
}

/// Runs a JSON command, optionally checking against or (re)writing its
/// committed baseline. The fresh document always goes to stdout.
fn run_json_command(options: &Options) {
    if options.command == Command::ConnScale {
        require_fd_headroom(options.scale);
    }
    let fresh = baseline_json(options.command, options.scale, options.seed);
    println!("{fresh}");
    let file = options.command.baseline_file().expect("JSON command");
    let path = options.baseline_dir.join(file);
    if options.write_baseline {
        if let Err(e) = std::fs::create_dir_all(&options.baseline_dir) {
            eprintln!("error: cannot create {}: {e}", options.baseline_dir.display());
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, format!("{fresh}\n")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("baseline written to {}", path.display());
    } else if options.check {
        let committed = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline {}: {e}\n(generate it with `reproduce {} --scale \
                     {} --write-baseline`)",
                    path.display(),
                    file.trim_start_matches("BENCH_").trim_end_matches(".json"),
                    options.scale,
                );
                std::process::exit(1);
            }
        };
        let baseline = parse_json(&committed)
            .unwrap_or_else(|e| fail_check(&path, &format!("baseline is not valid JSON: {e}")));
        let report = compare_baseline(&baseline, &fresh);
        if report.passed() {
            eprintln!(
                "check OK against {}: {} strict metrics matched, {} sanity-checked",
                path.display(),
                report.strict_compared,
                report.sanity_checked,
            );
        } else {
            eprintln!("regression check FAILED against {}:", path.display());
            for mismatch in &report.mismatches {
                eprintln!("  {mismatch}");
            }
            std::process::exit(1);
        }
    }
}

fn fail_check(path: &std::path::Path, message: &str) -> ! {
    eprintln!("error: {}: {message}", path.display());
    std::process::exit(1);
}

fn print_table1(scale: f64, seed: u64) {
    println!("== Table 1: characteristics of the traces (paper values in parentheses) ==");
    println!(
        "{:<18} {:>10} {:>10} {:>14} {:>14}",
        "scenario", "length", "duration", "avg speed", "max speed"
    );
    for row in table1(scale, seed) {
        let (p_len, p_dur, p_avg, p_max) = row.paper;
        println!(
            "{:<18} {:>6.0} km ({:>3.0}) {:>8} ({}) {:>6.0} km/h ({:>3.0}) {:>6.0} km/h ({:>3.0})",
            row.label,
            row.stats.length_km,
            p_len * scale,
            format_duration_hm(row.stats.duration_s),
            format_duration_hm(p_dur * scale),
            row.stats.average_speed_kmh,
            p_avg,
            row.stats.max_speed_kmh,
            p_max,
        );
    }
    println!();
}

fn print_figure(kind: ScenarioKind, scale: f64, seed: u64, csv: bool) {
    let result = figure(kind, scale, seed);
    println!(
        "== Figure {}: {} — updates per hour (absolute and % of distance-based) ==",
        figure_number(kind),
        kind.name()
    );
    if csv {
        print!("{}", render_csv(&result));
    } else {
        print!("{}", render_table(&result, &ProtocolKind::PAPER_SET));
    }
    println!();
}

fn print_summary(scale: f64, seed: u64) {
    let figures: Vec<_> = ScenarioKind::ALL.iter().map(|&k| figure(k, scale, seed)).collect();
    println!("== Headline reductions (maximum over the accuracy sweep) ==");
    println!(
        "{:<18} {:>24} {:>24} {:>24}",
        "scenario", "linear vs distance", "map vs linear", "map vs distance"
    );
    for row in summary(&figures) {
        println!(
            "{:<18} {:>23.1}% {:>23.1}% {:>23.1}%",
            row.scenario,
            row.linear_vs_distance_pct,
            row.map_vs_linear_pct,
            row.map_vs_distance_pct
        );
    }
    println!();
    println!("paper reference points: linear vs distance up to 83% (freeway), map vs linear up");
    println!("to 60% (freeway), map vs distance up to 91% overall.");
    println!();
}

fn print_updates_trace(scale: f64, seed: u64) {
    // The Fig. 3 / Fig. 6 comparison: one freeway drive, u_s = 100 m.
    let data = scenario_data(ScenarioKind::Freeway, scale.min(0.2), seed);
    println!(
        "== Fig. 3 / Fig. 6 analogue: update positions along one freeway drive (u_s = 100 m) =="
    );
    for (label, kind) in
        [("linear-pred dr", ProtocolKind::Linear), ("map-based dr", ProtocolKind::MapBased)]
    {
        let updates = updates_along_route(&data, kind, 100.0);
        println!("{label}: {} updates", updates.len());
        for (i, p) in updates.iter().enumerate() {
            println!("    #{i:<3} at ({:>9.1} m, {:>9.1} m)", p.x, p.y);
        }
    }
    println!();
}

fn print_ablations(scale: f64, seed: u64, csv: bool) {
    for ablation in ablations(scale, seed) {
        println!("== Ablation: {} ==", ablation.name);
        let protocols: Vec<ProtocolKind> = {
            let mut seen = Vec::new();
            for p in &ablation.result.points {
                if !seen.contains(&p.protocol) {
                    seen.push(p.protocol);
                }
            }
            seen
        };
        if csv {
            print!("{}", render_csv(&ablation.result));
        } else {
            print!("{}", render_table(&ablation.result, &protocols));
        }
        println!();
    }
}

fn main() {
    let options = parse_args();
    match options.command {
        Command::Table1 => print_table1(options.scale, options.seed),
        Command::Fig(kind) => print_figure(kind, options.scale, options.seed, options.csv),
        Command::Figures => {
            for kind in ScenarioKind::ALL {
                print_figure(kind, options.scale, options.seed, options.csv);
            }
        }
        Command::Summary => print_summary(options.scale, options.seed),
        Command::UpdatesTrace => print_updates_trace(options.scale, options.seed),
        Command::Ablations => print_ablations(options.scale, options.seed, options.csv),
        Command::Json
        | Command::Throughput
        | Command::Wire
        | Command::Net
        | Command::ConnScale
        | Command::Hotpath
        | Command::Scale
        | Command::Recovery
        | Command::Faults => run_json_command(&options),
        Command::All => {
            print_table1(options.scale, options.seed);
            for kind in ScenarioKind::ALL {
                print_figure(kind, options.scale, options.seed, options.csv);
            }
            print_summary(options.scale, options.seed);
            print_updates_trace(options.scale, options.seed);
            print_ablations(options.scale, options.seed, options.csv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_list_and_parser_agree_exactly() {
        // Every command the usage string (and the docs tested against
        // REPRODUCE_COMMANDS) advertises must parse…
        for name in REPRODUCE_COMMANDS {
            assert!(Command::parse(name).is_some(), "`{name}` is documented but not parsed");
        }
        // …and near-miss spellings must not.
        for name in ["fig11", "recover", "hot-path", "Scale", ""] {
            assert!(Command::parse(name).is_none(), "`{name}` should not parse");
        }
    }

    #[test]
    fn json_commands_have_baseline_files_and_figure_commands_do_not() {
        for name in REPRODUCE_COMMANDS {
            let command = Command::parse(name).expect("parses");
            let json_command = matches!(
                command,
                Command::Json
                    | Command::Throughput
                    | Command::Wire
                    | Command::Net
                    | Command::ConnScale
                    | Command::Hotpath
                    | Command::Scale
                    | Command::Recovery
                    | Command::Faults
            );
            assert_eq!(
                command.baseline_file().is_some(),
                json_command,
                "`{name}` baseline-file mapping drifted"
            );
            if let Some(file) = command.baseline_file() {
                assert_eq!(file, format!("BENCH_{name}.json"), "baseline naming convention");
            }
        }
    }
}
