//! Doc-sync: the committed documentation must stay true to the code.
//!
//! Two contracts are enforced here:
//!
//! * `docs/WIRE.md` names (in backticks) every wire/format constant defined
//!   by `mbdr-core`'s wire modules, by `mbdr-net`'s framing, by
//!   `mbdr-locserver`'s reader of older journal formats and by
//!   `mbdr-journal`, and names no constant that does not exist — renaming
//!   a wire constant without updating the spec fails `cargo test`, as does
//!   documenting a ghost.
//! * `README.md` and `docs/OPERATIONS.md` mention every `reproduce`
//!   command in [`mbdr_bench::REPRODUCE_COMMANDS`] (the same list the
//!   binary's parser and usage string are tested against), every
//!   `reproduce -- <word>` invocation they show names a real command, and
//!   every flag a `reproduce <cmd> …` invocation shows is in
//!   [`mbdr_bench::REPRODUCE_FLAGS`].
//!
//! The scans are deliberately lexical — no rustc, no syn — keeping the
//! test std-only like the rest of the workspace.

use mbdr_bench::{REPRODUCE_COMMANDS, REPRODUCE_FLAGS};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Repo root, resolved from this crate's manifest dir (`crates/bench`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root resolves")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|err| panic!("read {}: {err}", path.display()))
}

/// Is `name` a wire/format constant the spec must cover? The patterns pick
/// out protocol kinds, flags, layout sizes, magics, versions and file-name
/// pieces while ignoring implementation details (lookup tables, loop bounds).
fn is_wire_constant(name: &str) -> bool {
    const PREFIXES: [&str; 4] = ["REQ_", "RESP_", "KIND_", "FLAG_"];
    const SUFFIXES: [&str; 7] =
        ["_LEN", "_MAGIC", "_VERSION", "_BYTES", "_SUFFIX", "_PREFIX", "_POLY"];
    name == "TOWARDS_NONE_WIRE"
        || PREFIXES.iter().any(|p| name.starts_with(p))
        || SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Every `const` identifier in `source` that [`is_wire_constant`] selects.
/// Lexical scan: doc/line comments are skipped, visibility does not matter
/// (private constants still define the format).
fn wire_constants_in(source: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let Some(at) = trimmed.find("const ") else { continue };
        let rest = &trimmed[at + "const ".len()..];
        let ident: String =
            rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if is_wire_constant(&ident) {
            found.insert(ident);
        }
    }
    found
}

/// The files whose constants define the wire and on-disk formats.
fn wire_source_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("crates/core/src/wire/mod.rs"),
        root.join("crates/core/src/wire/query.rs"),
        root.join("crates/core/src/wire/snapshot.rs"),
        root.join("crates/locserver/src/legacy.rs"),
        root.join("crates/net/src/transport.rs"),
    ];
    let journal_src = root.join("crates/journal/src");
    let entries = fs::read_dir(&journal_src)
        .unwrap_or_else(|err| panic!("read_dir {}: {err}", journal_src.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// All backtick-quoted spans in a markdown document.
fn backticked_spans(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = doc;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        spans.push(&after[..close]);
        rest = &after[close + 1..];
    }
    spans
}

#[test]
fn wire_doc_names_every_wire_constant() {
    let root = repo_root();
    let doc = read(&root.join("docs/WIRE.md"));
    let spans: BTreeSet<&str> = backticked_spans(&doc).into_iter().collect();

    let mut missing = Vec::new();
    let mut total = 0usize;
    for file in wire_source_files(&root) {
        for name in wire_constants_in(&read(&file)) {
            total += 1;
            if !spans.contains(name.as_str()) {
                missing.push(format!("{} (from {})", name, file.display()));
            }
        }
    }
    // The format has real breadth; a scan that found almost nothing would
    // mean the extraction broke, not that the code lost its constants.
    assert!(total >= 30, "wire-constant scan looks broken: only {total} constants found");
    assert!(
        missing.is_empty(),
        "docs/WIRE.md does not mention these wire constants (add them to the \
         spec, in backticks):\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn wire_doc_constants_all_exist() {
    let root = repo_root();
    let doc = read(&root.join("docs/WIRE.md"));

    let mut defined: BTreeSet<String> = BTreeSet::new();
    for file in wire_source_files(&root) {
        defined.extend(wire_constants_in(&read(&file)));
    }

    let mut ghosts = Vec::new();
    for span in backticked_spans(&doc) {
        let is_const_token = !span.is_empty()
            && span.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && span.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
        if is_const_token && is_wire_constant(span) && !defined.contains(span) {
            ghosts.push(span.to_string());
        }
    }
    assert!(
        ghosts.is_empty(),
        "docs/WIRE.md names wire constants that do not exist in \
         mbdr-core/mbdr-journal:\n  {}",
        ghosts.join("\n  ")
    );
}

/// Words that may legitimately follow `reproduce -- ` in a doc besides
/// command names: nothing. Flags always follow a command, so a bare flag
/// directly after `--` would itself be a doc bug the test should catch.
fn invoked_commands(doc: &str) -> BTreeSet<String> {
    let mut commands = BTreeSet::new();
    let mut rest = doc;
    while let Some(at) = rest.find("reproduce -- ") {
        let after = &rest[at + "reproduce -- ".len()..];
        let word: String = after
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
            .collect();
        if !word.is_empty() {
            commands.insert(word);
        }
        rest = after;
    }
    commands
}

#[test]
fn docs_and_usage_agree_on_the_reproduce_command_list() {
    let root = repo_root();
    let expected: BTreeSet<&str> = REPRODUCE_COMMANDS.iter().copied().collect();

    for doc_path in ["README.md", "docs/OPERATIONS.md"] {
        let doc = read(&root.join(doc_path));

        // Direction A — coverage: every command the binary accepts is shown
        // in the doc, either as a full `reproduce -- <cmd>` invocation or as
        // inline `reproduce <cmd>` prose.
        let mut undocumented = Vec::new();
        for cmd in &expected {
            let invoked = doc.contains(&format!("reproduce -- {cmd}"));
            let prose = doc.contains(&format!("reproduce {cmd}"));
            if !invoked && !prose {
                undocumented.push(*cmd);
            }
        }
        assert!(
            undocumented.is_empty(),
            "{doc_path} does not document these reproduce commands: \
             {undocumented:?} (REPRODUCE_COMMANDS is the source of truth)"
        );

        // Direction B — no ghosts: every `reproduce -- <word>` invocation
        // the doc shows names a command the parser actually accepts.
        let shown = invoked_commands(&doc);
        let ghosts: Vec<&String> =
            shown.iter().filter(|w| !expected.contains(w.as_str())).collect();
        assert!(
            ghosts.is_empty(),
            "{doc_path} shows `reproduce -- <cmd>` invocations for commands \
             the binary does not accept: {ghosts:?}"
        );
    }
}

/// Every `-`-word shown in a `reproduce <cmd> …` or `reproduce -- <cmd> …`
/// invocation of a real command: the words after the command up to the end
/// of the line, a shell comment, a pipe, a redirect or a closing backtick.
fn invoked_flags(doc: &str) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    for line in doc.lines() {
        let mut rest = line;
        while let Some(at) = rest.find("reproduce ") {
            rest = &rest[at + "reproduce ".len()..];
            let invocation = rest.strip_prefix("-- ").unwrap_or(rest);
            let invocation =
                &invocation[..invocation.find(['#', '|', '>', '`']).unwrap_or(invocation.len())];
            let mut words = invocation.split_whitespace();
            if words.next().is_some_and(|command| REPRODUCE_COMMANDS.contains(&command)) {
                flags.extend(words.filter(|word| word.starts_with('-')).map(str::to_string));
            }
        }
    }
    flags
}

#[test]
fn docs_show_only_real_reproduce_flags() {
    let root = repo_root();
    let known: BTreeSet<&str> = REPRODUCE_FLAGS.iter().map(|&(flag, _)| flag).collect();
    for doc_path in ["README.md", "docs/OPERATIONS.md"] {
        let shown = invoked_flags(&read(&root.join(doc_path)));
        assert!(!shown.is_empty(), "{doc_path}: the flag scan found no flag at all");
        let ghosts: Vec<&String> = shown.iter().filter(|f| !known.contains(f.as_str())).collect();
        assert!(
            ghosts.is_empty(),
            "{doc_path} shows reproduce flags the binary does not accept: {ghosts:?} \
             (REPRODUCE_FLAGS is the source of truth)"
        );
    }
}
