//! counter-discipline: every counter of the configured blocks — the
//! `counters!`-declared `ServerStats`, `JournalStats` and
//! `DurabilityCounters`, and the plain structs `LinkStats` and `IndexStats`
//! — must be **updated** somewhere on its production path. A counter that is
//! reported but never bumped silently reads zero: exactly the regression
//! that slips through when a PR declares a field and forgets to wire it.
//! The other half of the contract, that every counter is *surfaced*, needs
//! no lint for the `counters!` blocks: the macro generates the snapshot and
//! its `fields()` list from the one declaration, and the reports iterate
//! that list. For the two plain structs surfacing is unchecked — their
//! emitters (`lossy.rs`, `scale.rs`) spell the fields by hand.

use crate::lexer::{LexedFile, TokenKind};
use crate::model::{inside, struct_fields, test_spans};
use crate::{AnalyzeConfig, CounterSpec, Diagnostic};
use std::collections::BTreeMap;

pub const ID: &str = "counter-discipline";

/// Callee names that mutate a counter handed to them by reference
/// (`swap` covers the atomic state byte of the durability machine, which
/// is only ever written through `AtomicU8::swap`).
const UPDATE_CALLEES: [&str; 6] = ["bump", "add", "fetch_add", "fetch_sub", "store", "swap"];

/// How many tokens before `&x.field` the mutating callee may sit
/// (`bump ( & self . stats . field` is the longest committed idiom).
const CALLEE_LOOKBACK: usize = 8;

pub fn check(
    files: &BTreeMap<String, LexedFile>,
    config: &AnalyzeConfig,
    out: &mut Vec<Diagnostic>,
) {
    for spec in &config.counters {
        check_spec(files, spec, out);
    }
}

fn check_spec(files: &BTreeMap<String, LexedFile>, spec: &CounterSpec, out: &mut Vec<Diagnostic>) {
    let Some(decl) = files.get(&spec.decl_file) else {
        out.push(Diagnostic {
            file: spec.decl_file.clone(),
            line: 1,
            lint: ID,
            message: format!("counter spec points at a missing file for `{}`", spec.struct_name),
        });
        return;
    };
    let Some(fields) = struct_fields(decl, &spec.struct_name) else {
        out.push(Diagnostic {
            file: spec.decl_file.clone(),
            line: 1,
            lint: ID,
            message: format!("struct `{}` not found", spec.struct_name),
        });
        return;
    };
    for (field, decl_line) in fields {
        let updated = spec
            .update_files
            .iter()
            .filter_map(|f| files.get(f))
            .any(|file| has_update_evidence(file, &field));
        if !updated {
            out.push(Diagnostic {
                file: spec.decl_file.clone(),
                line: decl_line,
                lint: ID,
                message: format!(
                    "counter `{}.{}` is never updated in {}",
                    spec.struct_name,
                    field,
                    spec.update_files.join(", ")
                ),
            });
        }
    }
}

/// Update evidence for `field` in one file's non-test code: `.field += …`,
/// `.field = …` (not `==`), or `.field` as an argument within reach of a
/// mutating callee (`bump(&stats.field)`, `field.fetch_add(…)`).
fn has_update_evidence(file: &LexedFile, field: &str) -> bool {
    let tests = test_spans(file);
    for i in 0..file.tokens.len() {
        if inside(&tests, i) || !file.is_ident(i, field) {
            continue;
        }
        if i == 0 || !file.is_punct(i - 1, b'.') {
            continue;
        }
        if file.is_punct(i + 1, b'+') && file.is_punct(i + 2, b'=') {
            return true;
        }
        if file.is_punct(i + 1, b'=') && !file.is_punct(i + 2, b'=') {
            return true;
        }
        // `field.fetch_add(…)` — the callee follows the field.
        if file.is_punct(i + 1, b'.')
            && file.tokens.get(i + 2).map(|t| t.kind) == Some(TokenKind::Ident)
            && UPDATE_CALLEES.contains(&file.token_text(&file.tokens[i + 2]))
        {
            return true;
        }
        // `bump(&self.stats.field)` — the callee precedes the reference.
        let from = i.saturating_sub(CALLEE_LOOKBACK);
        if (from..i).any(|j| {
            file.tokens[j].kind == TokenKind::Ident
                && UPDATE_CALLEES.contains(&file.token_text(&file.tokens[j]))
        }) {
            return true;
        }
    }
    false
}
