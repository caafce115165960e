//! Engine self-tests against the fixture corpus: the good tree is clean, the
//! bad tree produces exactly the expected diagnostics, the real workspace is
//! clean under the committed config, and output is deterministic regardless
//! of input order.

use mbdr_analyze::{
    analyze_sources, analyze_workspace, collect_sources, find_workspace_root, AnalyzeConfig,
    CounterSpec,
};
use std::path::{Path, PathBuf};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(which)
}

/// The config both fixture trees are written against: boundary `sys/`,
/// panic-free codec under `codec/`, one manifest fn, one plain and one
/// `counters!`-declared counter block, `KIND_`-prefixed wire consts.
fn fixture_config(hotpath_manifest: Vec<(&str, &str)>) -> AnalyzeConfig {
    AnalyzeConfig {
        unsafe_boundary: vec!["sys/".into()],
        panic_free: vec!["codec/".into()],
        hotpath_manifest: hotpath_manifest
            .into_iter()
            .map(|(f, func)| (f.to_string(), func.to_string()))
            .collect(),
        counters: vec![
            CounterSpec {
                struct_name: "Stats".into(),
                decl_file: "stats.rs".into(),
                update_files: vec!["stats.rs".into()],
            },
            CounterSpec {
                struct_name: "Declared".into(),
                decl_file: "stats.rs".into(),
                update_files: vec!["stats.rs".into()],
            },
        ],
        wire_files: vec!["codec/".into()],
        wire_const_prefixes: vec!["KIND_".into()],
    }
}

#[test]
fn good_fixtures_are_clean() {
    let root = fixture_root("good");
    let files = collect_sources(&root).expect("walk good fixtures");
    assert!(files.contains(&"codec/wire.rs".to_string()), "fixture layout moved: {files:?}");
    let config = fixture_config(vec![("hot.rs", "fill_into")]);
    let diagnostics = analyze_sources(&root, &files, &config).expect("analyze good fixtures");
    let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(rendered.is_empty(), "good fixtures must be clean, got:\n{}", rendered.join("\n"));
}

#[test]
fn bad_fixtures_produce_exactly_the_expected_diagnostics() {
    let root = fixture_root("bad");
    let files = collect_sources(&root).expect("walk bad fixtures");
    let config = fixture_config(vec![
        ("hot.rs", "fill_into"),
        ("hot.rs", "renamed_away"),
        ("ghost.rs", "fill_into"),
    ]);
    let diagnostics = analyze_sources(&root, &files, &config).expect("analyze bad fixtures");
    let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    let expected = [
        "codec/hatch.rs:5: [escape-hatch] escape hatch for `panic-freedom` is missing its \
         reason (append `reason=<why>`)",
        "codec/hatch.rs:6: [panic-freedom] slice indexing by literal can panic on short input; \
         use `.get(…)`",
        "codec/hatch.rs:10: [escape-hatch] escape hatch names unknown lint `made-up-lint` \
         (known: unsafe-confinement, panic-freedom, hotpath-alloc, counter-discipline, \
         wire-kind-exhaustiveness)",
        "codec/hatch.rs:11: [panic-freedom] slice indexing by literal can panic on short \
         input; use `.get(…)`",
        "codec/hatch.rs:14: [escape-hatch] malformed escape hatch: expected \
         `// lint: allow(<lint-id>) reason=<why>`",
        "codec/wire.rs:5: [wire-kind-exhaustiveness] wire kind `KIND_PONG` has no decode-path \
         reference (a fn named *decode*, *parse* or *from_wire*)",
        "codec/wire.rs:5: [wire-kind-exhaustiveness] wire kind `KIND_PONG` has no encode-path \
         reference (a fn named *encode* or *to_wire*)",
        "codec/wire.rs:12: [panic-freedom] slice indexing by literal can panic on short input; \
         use `.get(…)`",
        "codec/wire.rs:16: [panic-freedom] `panic!` is a panic path in protected code",
        "codec/wire.rs:20: [panic-freedom] `.unwrap(…)` can panic; return a typed error instead",
        "ghost.rs:1: [hotpath-alloc] hotpath manifest names `fill_into` in a file the tree lacks",
        "hot.rs:1: [hotpath-alloc] hotpath manifest names fn `renamed_away` but the file does \
         not define it (stale manifest after a rename?)",
        "hot.rs:5: [hotpath-alloc] `Vec::new` allocates inside `fill_into`, which the hotpath \
         manifest pins allocation-free",
        "hot.rs:9: [hotpath-alloc] `.clone()` allocates inside `fill_into`, which the hotpath \
         manifest pins allocation-free",
        "outside.rs:4: [unsafe-confinement] `unsafe` outside the confinement boundary (sys/)",
        "outside.rs:4: [unsafe-confinement] `unsafe` without a `// SAFETY:` comment on it or \
         just above it",
        "stats.rs:7: [counter-discipline] counter `Stats.ghost` is never updated in stats.rs",
        "stats.rs:22: [counter-discipline] counter `Declared.ghost` is never updated in stats.rs",
    ];
    assert_eq!(
        rendered,
        expected,
        "bad-fixture diagnostics drifted;\ngot:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn the_real_tree_is_clean_under_the_committed_config() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest_dir).expect("workspace root above crates/analyze");
    let config = AnalyzeConfig::mbdr(&root).expect("committed config loads");
    assert!(!config.hotpath_manifest.is_empty(), "hotpath manifest must not be empty");
    assert_eq!(
        config.unsafe_boundary,
        ["crates/net/src/sys/epoll.rs"],
        "one file, so `unsafe` in sys/mod.rs is a finding"
    );
    // The predictor and tracker consume wire-derived state on serving
    // threads: a hostile `towards` once indexed past the node table there,
    // outside the protected set.
    for file in ["map_predictor.rs", "predictor.rs", "server.rs"] {
        let path = format!("crates/core/src/{file}");
        assert!(config.panic_free.contains(&path), "{path} must be panic-free");
    }
    // The prediction walk's per-hop lookup, the rule behind it and the
    // per-sighting buffer step are pinned allocation-free.
    for (file, func) in [
        ("crates/core/src/map_predictor.rs", "predict"),
        ("crates/roadnet/src/network.rs", "straightest_continuation"),
        ("crates/roadnet/src/network.rs", "smallest_angle_link"),
        ("crates/geo/src/estimate.rs", "record"),
    ] {
        assert!(
            config.hotpath_manifest.contains(&(file.to_string(), func.to_string())),
            "hotpath manifest must pin {file} {func}"
        );
    }
    let diagnostics = analyze_workspace(&root, &config).expect("analyze the real tree");
    let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "the real tree must be clean (the CI gate runs this); got:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn output_is_deterministic_regardless_of_input_order() {
    let root = fixture_root("bad");
    let mut files = collect_sources(&root).expect("walk bad fixtures");
    let config = fixture_config(vec![("hot.rs", "fill_into")]);
    let forward = analyze_sources(&root, &files, &config).expect("forward order");
    files.reverse();
    let reversed = analyze_sources(&root, &files, &config).expect("reversed order");
    assert_eq!(forward, reversed);
    assert!(!forward.is_empty());
}
