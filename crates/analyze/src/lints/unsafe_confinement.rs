//! unsafe-confinement: `unsafe` tokens may appear only under the configured
//! boundary (`crates/net/src/sys/epoll.rs` — the raw-syscall wrappers), and every
//! `unsafe` site, inside or outside, must carry a `// SAFETY:` comment on
//! its line or within the four lines above. Outside the boundary an escape
//! hatch with a reason is additionally required.

use crate::lexer::{LexedFile, TokenKind};
use crate::{AnalyzeConfig, Diagnostic};

pub const ID: &str = "unsafe-confinement";

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit
/// (room for an interleaved `#[allow(unsafe_code)]` and an escape hatch).
const SAFETY_LOOKBACK_LINES: u32 = 4;

pub fn check(rel: &str, file: &LexedFile, config: &AnalyzeConfig, out: &mut Vec<Diagnostic>) {
    let in_boundary = config.unsafe_boundary.iter().any(|p| rel.starts_with(p.as_str()));
    let mut last_outside_line = 0u32;
    let mut last_safety_line = 0u32;
    for (i, token) in file.tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident || !file.is_ident(i, "unsafe") {
            continue;
        }
        let line = token.line;
        if !in_boundary && line != last_outside_line {
            last_outside_line = line;
            out.push(Diagnostic {
                file: rel.to_string(),
                line,
                lint: ID,
                message: format!(
                    "`unsafe` outside the confinement boundary ({})",
                    config.unsafe_boundary.join(", ")
                ),
            });
        }
        let from = line.saturating_sub(SAFETY_LOOKBACK_LINES);
        if !file.comment_in_lines_contains(from, line, "SAFETY:") && line != last_safety_line {
            last_safety_line = line;
            out.push(Diagnostic {
                file: rel.to_string(),
                line,
                lint: ID,
                message: "`unsafe` without a `// SAFETY:` comment on it or just above it"
                    .to_string(),
            });
        }
    }
}
