//! `reproduce` — regenerate every table and figure of the paper, plus the
//! post-paper perf baselines.
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
//! cargo run --release -p mbdr-bench --bin reproduce -- json --scale 0.05 > baselines/BENCH_json.json
//! ```
//!
//! `--scale` (default 1.0) shrinks the trace length for quick smoke runs;
//! `--seed` changes the synthetic map/trace/noise seed; `--csv` prints the
//! figure and ablation data as CSV instead of a table. The JSON-emitting
//! commands (`json`, `throughput`, `wire`, `net`, `connscale`, `hotpath`,
//! `scale`, `recovery`, `faults`) print one document to stdout, one leaf per
//! line. Every number in a document is determined by `(scale, seed)`, so the
//! regression gate is a byte comparison: `baselines/check.sh` diffs each
//! fresh document against the committed `baselines/BENCH_<cmd>.json`, and
//! redirecting stdout into that file regenerates it. `reproduce` keeps no
//! clock; wall clocks, rates and latencies are measured by the `benchmark/`
//! package.
//!
//! Every flag is parsed in one place and every unknown command or argument
//! dies with usage and a non-zero exit — there is exactly one parser.

use mbdr_bench::alloccount::CountingAllocator;
use mbdr_bench::netbase::{connscale_fd_demand, open_file_soft_limit};
use mbdr_bench::{
    ablations, baseline_document, figure, figure_number, scenario_data, summary, table1,
    updates_along_route, DEFAULT_SEED, REPRODUCE_COMMANDS, REPRODUCE_FLAGS,
};
use mbdr_geo::format_duration_hm;
use mbdr_sim::{render_csv, render_table, ProtocolKind};
use mbdr_trace::ScenarioKind;

/// The counting allocator behind `reproduce hotpath`: installed for the
/// whole binary, it makes allocations-per-operation an exact, gateable
/// number at the cost of one relaxed atomic increment per allocation.
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
    /// A JSON baseline document, built by [`baseline_document`] by name.
    Document(&'static str),
    All,
}

impl Command {
    /// The single place a command name is recognised.
    fn parse(name: &str) -> Option<Command> {
        let name = *REPRODUCE_COMMANDS.iter().find(|&&command| command == name)?;
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
            "json" | "throughput" | "wire" | "net" | "connscale" | "hotpath" | "scale"
            | "recovery" | "faults" => Command::Document(name),
            "all" => Command::All,
            _ => return None,
        })
    }

    /// Whether `--csv` changes what the command prints.
    fn has_csv_form(self) -> bool {
        matches!(self, Command::Fig(_) | Command::Figures | Command::Ablations | Command::All)
    }
}

struct Options {
    command: Command,
    scale: f64,
    seed: u64,
    csv: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut args = args.into_iter();
    let mut options = Options { command: Command::All, scale: 1.0, seed: DEFAULT_SEED, csv: false };
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--seed" => {
                options.seed =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--csv" => options.csv = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if !positional_seen => {
                options.command =
                    Command::parse(other).ok_or_else(|| format!("unknown command `{other}`"))?;
                positional_seen = true;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !(options.scale > 0.0 && options.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    // The documents echo the seed as a JSON number, which is exact up to 2^53.
    if options.seed > 1 << 53 {
        return Err("--seed must be at most 2^53".into());
    }
    if options.csv && !options.command.has_csv_form() {
        return Err("--csv only applies to fig7|fig8|fig9|fig10|figures|ablations|all".into());
    }
    Ok(options)
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    print_usage();
    std::process::exit(2);
}

fn print_usage() {
    let flags: Vec<String> = REPRODUCE_FLAGS
        .iter()
        .map(|&(flag, value)| format!("[{}]", [flag, value].join(" ").trim_end()))
        .collect();
    eprintln!("usage: reproduce [{}]\n       {}", REPRODUCE_COMMANDS.join("|"), flags.join(" "));
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
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| die(&message));
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
        Command::Document(name) => {
            if name == "connscale" {
                require_fd_headroom(options.scale);
            }
            let document = baseline_document(name, options.scale, options.seed)
                .expect("every Document command builds a baseline document");
            println!("{document}");
        }
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
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::Path;

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
    fn flag_list_and_parser_agree_and_csv_needs_a_csv_form() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|arg| arg.to_string()));
        // Every flag the usage string advertises parses (`--help` prints the
        // usage and exits, so it is left out here)…
        for (flag, value) in REPRODUCE_FLAGS.into_iter().filter(|&(flag, _)| flag != "--help") {
            let args = if value.is_empty() { vec!["fig7", flag] } else { vec!["fig7", flag, "1"] };
            assert!(parse(&args).is_ok(), "`{flag}` is listed but not parsed");
        }
        // …an unlisted one does not…
        assert!(parse(&["json", "--check"]).is_err());
        // …and `--csv` is refused, not ignored, where it would change nothing.
        for name in ["table1", "summary", "updates-trace", "json", "faults"] {
            assert!(parse(&[name, "--csv"]).is_err(), "`{name} --csv` should not parse");
        }
        for name in ["fig7", "figures", "ablations", "all"] {
            assert!(parse(&[name, "--csv"]).is_ok(), "`{name} --csv` should parse");
        }
    }

    #[test]
    fn json_commands_have_baseline_files_and_figure_commands_do_not() {
        // Three sets must be equal, so no document goes ungated: the
        // commands that print a document, the committed baselines, and the
        // table `baselines/check.sh` diffs. The scan is lexical, like
        // `tests/doc_sync.rs`.
        let documents: BTreeSet<&str> = REPRODUCE_COMMANDS
            .into_iter()
            .filter(|&name| Command::parse(name) == Some(Command::Document(name)))
            .collect();
        assert_eq!(documents.len(), 9, "{documents:?}");
        let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let files: BTreeSet<String> = fs::read_dir(&baselines)
            .unwrap_or_else(|err| panic!("read_dir {}: {err}", baselines.display()))
            .filter_map(|entry| {
                let name = entry.expect("dir entry").file_name().into_string().ok()?;
                Some(name.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string())
            })
            .collect();
        assert_eq!(files.iter().map(String::as_str).collect::<BTreeSet<_>>(), documents);
        let script = fs::read_to_string(baselines.join("check.sh")).expect("read check.sh");
        let table: BTreeSet<&str> = script
            .split_whitespace()
            .filter_map(|word| {
                let (name, scale) = word.trim_end_matches(';').split_once(':')?;
                scale.parse::<f64>().is_ok().then_some(name)
            })
            .collect();
        assert_eq!(table, documents, "baselines/check.sh's (command, scale) table");
    }
}
