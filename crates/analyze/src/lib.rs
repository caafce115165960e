//! `mbdr-analyze` — the workspace's dependency-free static-analysis engine.
//!
//! The stack's correctness story is largely *by convention*: `unsafe` lives
//! only in `crates/net/src/sys`, decode paths never panic on hostile bytes,
//! the hot-path functions pinned at zero allocations by `BENCH_hotpath.json`
//! stay allocation-free, every declared stats counter is bumped, and every
//! wire-kind byte has an encode and a decode arm. This crate turns
//! those conventions into lints: a hand-rolled lexer ([`lexer`]), structural
//! passes ([`model`]) and five project-specific checks ([`lints`]) that emit
//! `file:line: [lint-id] message` diagnostics with `reproduce --check`-style
//! exit semantics. The engine is std-only (no `syn`, consistent with the
//! workspace's offline-shim policy) and self-tests against a fixture corpus.
//!
//! Escape hatch: a `// lint: allow(<lint-id>) reason=<why>` comment on the
//! offending line or the line above suppresses that lint there; a hatch
//! without a reason is itself a diagnostic (`escape-hatch`).

pub mod lexer;
pub mod lints;
pub mod model;

use lexer::LexedFile;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifiers of every lint the engine ships, in catalog order.
pub const LINT_IDS: [&str; 5] = [
    lints::unsafe_confinement::ID,
    lints::panic_freedom::ID,
    lints::hotpath_alloc::ID,
    lints::counter_discipline::ID,
    lints::wire_kinds::ID,
];

/// One-line description per lint, aligned with [`LINT_IDS`].
pub const LINT_DESCRIPTIONS: [&str; 5] = [
    "`unsafe` only inside the confinement boundary, every block with a // SAFETY: comment",
    "no unwrap/expect/panic!/unreachable!/literal-indexing in protected non-test code",
    "no allocating calls inside the functions the hotpath manifest pins at 0 allocs",
    "every declared stats counter is updated on its production path",
    "every wire-kind const has both an encode-path and a decode-path reference",
];

/// One finding, rendered as `file:line: [lint-id] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the analysis root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint identifier (one of [`LINT_IDS`] or `escape-hatch`).
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Where a counter block's fields must be updated.
#[derive(Debug, Clone)]
pub struct CounterSpec {
    /// Struct whose fields are the counters (e.g. `ServerStats`), declared
    /// either as a plain struct or as the live block of a `counters!`
    /// invocation.
    pub struct_name: String,
    /// File declaring the struct.
    pub decl_file: String,
    /// Files where update evidence (`+=`, `bump(&…)`, `fetch_add`) counts.
    pub update_files: Vec<String>,
}

/// Everything the engine checks, parameterised so the fixture corpus can
/// instantiate each lint against tiny synthetic trees. The committed
/// real-tree configuration is [`AnalyzeConfig::mbdr`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeConfig {
    /// Path prefixes where `unsafe` is allowed (with a SAFETY comment).
    pub unsafe_boundary: Vec<String>,
    /// Path prefixes whose non-test code must be panic-free.
    pub panic_free: Vec<String>,
    /// `(file, fn)` pairs pinned allocation-free (the hotpath manifest).
    pub hotpath_manifest: Vec<(String, String)>,
    /// Counter blocks under the update discipline.
    pub counters: Vec<CounterSpec>,
    /// Path prefix holding the wire codec.
    pub wire_files: Vec<String>,
    /// Prefixes of wire-kind const names (`REQ_`, `RESP_`, …).
    pub wire_const_prefixes: Vec<String>,
}

impl AnalyzeConfig {
    /// The committed configuration for this repository: the invariants of
    /// PRs 4–7 as lints. The hotpath manifest is read from
    /// `crates/analyze/hotpath.manifest` under `root`.
    pub fn mbdr(root: &Path) -> std::io::Result<AnalyzeConfig> {
        let manifest_path = root.join(HOTPATH_MANIFEST);
        let manifest = load_hotpath_manifest(&manifest_path)?;
        Ok(AnalyzeConfig {
            unsafe_boundary: vec!["crates/net/src/sys/epoll.rs".into()],
            panic_free: vec![
                "crates/core/src/wire/".into(),
                "crates/core/src/map_predictor.rs".into(),
                "crates/core/src/predictor.rs".into(),
                "crates/core/src/server.rs".into(),
                "crates/journal/src/".into(),
                "crates/net/src/".into(),
                "crates/locserver/src/durability.rs".into(),
                "crates/locserver/src/durable.rs".into(),
                "crates/locserver/src/lib.rs".into(),
                "crates/locserver/src/service.rs".into(),
                "crates/locserver/src/shard.rs".into(),
                "crates/locserver/src/zones.rs".into(),
            ],
            hotpath_manifest: manifest,
            counters: vec![
                CounterSpec {
                    struct_name: "ServerStats".into(),
                    decl_file: "crates/net/src/stats.rs".into(),
                    update_files: vec![
                        "crates/net/src/reactor.rs".into(),
                        "crates/net/src/server.rs".into(),
                    ],
                },
                CounterSpec {
                    struct_name: "JournalStats".into(),
                    decl_file: "crates/journal/src/stats.rs".into(),
                    update_files: vec!["crates/journal/src/journal.rs".into()],
                },
                CounterSpec {
                    struct_name: "DurabilityCounters".into(),
                    decl_file: "crates/locserver/src/durability.rs".into(),
                    update_files: vec!["crates/locserver/src/durability.rs".into()],
                },
                CounterSpec {
                    struct_name: "LinkStats".into(),
                    decl_file: "crates/sim/src/degraded.rs".into(),
                    update_files: vec!["crates/sim/src/degraded.rs".into()],
                },
                CounterSpec {
                    struct_name: "IndexStats".into(),
                    decl_file: "crates/locserver/src/service.rs".into(),
                    update_files: vec!["crates/locserver/src/service.rs".into()],
                },
            ],
            wire_files: vec!["crates/core/src/wire/".into()],
            wire_const_prefixes: vec![
                "REQ_".into(),
                "RESP_".into(),
                "KIND_".into(),
                "FLAG_".into(),
            ],
        })
    }
}

/// Repository-relative path of the committed hot-path manifest.
pub const HOTPATH_MANIFEST: &str = "crates/analyze/hotpath.manifest";

/// Parses the hotpath manifest: one `path fn_name` pair per line, `#`
/// comments and blank lines ignored.
pub fn load_hotpath_manifest(path: &Path) -> std::io::Result<Vec<(String, String)>> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(file), Some(func), None) => entries.push((file.into(), func.into())),
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("hotpath manifest: bad line `{line}` (want `path fn_name`)"),
                ))
            }
        }
    }
    Ok(entries)
}

/// Walks the analysis root and returns every `.rs` file the engine lints,
/// as sorted root-relative `/`-separated paths. Build output and the
/// analyzer's own fixture corpus (violations on purpose) are excluded.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Runs every lint over the workspace at `root`. Convenience wrapper around
/// [`collect_sources`] + [`analyze_sources`].
pub fn analyze_workspace(root: &Path, config: &AnalyzeConfig) -> std::io::Result<Vec<Diagnostic>> {
    let files = collect_sources(root)?;
    analyze_sources(root, &files, config)
}

/// Runs every lint over the given root-relative files. The result is sorted
/// by `(file, line, lint, message)` and deduplicated, so the rendered output
/// is deterministic regardless of input order — the property the fixture
/// corpus asserts.
pub fn analyze_sources(
    root: &Path,
    files: &[String],
    config: &AnalyzeConfig,
) -> std::io::Result<Vec<Diagnostic>> {
    let mut lexed: BTreeMap<String, LexedFile> = BTreeMap::new();
    for rel in files {
        let text = std::fs::read_to_string(root.join(rel))?;
        lexed.insert(rel.clone(), LexedFile::lex(text));
    }
    let mut diagnostics = Vec::new();
    for (rel, file) in &lexed {
        lints::escape_hatch::check(rel, file, &mut diagnostics);
        lints::unsafe_confinement::check(rel, file, config, &mut diagnostics);
        lints::panic_freedom::check(rel, file, config, &mut diagnostics);
    }
    lints::hotpath_alloc::check(&lexed, config, &mut diagnostics);
    lints::counter_discipline::check(&lexed, config, &mut diagnostics);
    lints::wire_kinds::check(&lexed, config, &mut diagnostics);

    let suppressed = lints::escape_hatch::suppressions(&lexed);
    diagnostics.retain(|d| {
        !suppressed.iter().any(|(file, line, lint)| {
            *file == d.file && d.lint == *lint && (d.line == *line || d.line == line + 1)
        })
    });
    diagnostics.sort();
    diagnostics.dedup();
    Ok(diagnostics)
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]` — how the binary and `reproduce analyze` find the tree.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
