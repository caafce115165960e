//! Shared structural passes over a [`LexedFile`]: test-code spans, function
//! bodies, struct fields and the escape-hatch directives. Each lint composes
//! these instead of re-deriving structure from raw tokens.

use crate::lexer::{LexedFile, TokenKind};

/// A half-open token-index range `[start, end)`.
pub type TokenRange = (usize, usize);

/// One function item: its name and the token range of its body (braces
/// included).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Line the `fn` keyword is on.
    pub line: u32,
    pub body: TokenRange,
}

/// A parsed `// lint: allow(<id>) reason=<text>` escape hatch.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the directive comment starts on; it suppresses diagnostics on
    /// this line and the next.
    pub line: u32,
    pub lint: String,
    /// Whether a non-empty reason was given (`reason=` with text after it).
    pub has_reason: bool,
}

/// Token-index ranges of test-only code: any item annotated `#[cfg(test)]`
/// or `#[test]` (typically the `mod tests { … }` block), so lints about
/// production paths skip them.
pub fn test_spans(lexed: &LexedFile) -> Vec<TokenRange> {
    let mut spans: Vec<TokenRange> = Vec::new();
    let tokens = &lexed.tokens;
    let mut i = 0usize;
    while i < tokens.len() {
        if inside(&spans, i) {
            i += 1;
            continue;
        }
        if lexed.is_punct(i, b'#') && lexed.is_punct(i + 1, b'[') {
            let Some(attr_end) = lexed.matching_bracket(i + 1) else { break };
            if attr_is_test(lexed, i + 2, attr_end) {
                if let Some(span) = item_span(lexed, attr_end + 1) {
                    spans.push(span);
                    i = span.1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Is token index `i` inside any of `spans`?
pub fn inside(spans: &[TokenRange], i: usize) -> bool {
    spans.iter().any(|&(s, e)| i >= s && i < e)
}

/// Does the attribute body `[from, to)` mark test code? Matches `#[test]`,
/// `#[cfg(test)]` and composed forms such as `#[cfg(all(test, unix))]` —
/// any attribute mentioning the bare ident `test`.
fn attr_is_test(lexed: &LexedFile, from: usize, to: usize) -> bool {
    (from..to).any(|i| lexed.is_ident(i, "test"))
}

/// The token range of the item starting at `from` (further attributes are
/// skipped): through the matching `}` of its first brace group, or through
/// a `;` for brace-less items (`#[cfg(test)] use …;`).
fn item_span(lexed: &LexedFile, from: usize) -> Option<TokenRange> {
    let mut i = from;
    // Skip stacked attributes between the test attribute and the item.
    while lexed.is_punct(i, b'#') && lexed.is_punct(i + 1, b'[') {
        i = lexed.matching_bracket(i + 1)? + 1;
    }
    let mut j = i;
    while j < lexed.tokens.len() {
        if lexed.is_punct(j, b'{') {
            let close = lexed.matching_brace(j)?;
            return Some((from, close + 1));
        }
        if lexed.is_punct(j, b';') {
            return Some((from, j + 1));
        }
        j += 1;
    }
    None
}

/// Every function item in the file: `fn <name> … { body }`. The body is the
/// first brace group after the name (correct for every signature in this
/// workspace; const-generic brace expressions in signatures would fool it).
pub fn fn_spans(lexed: &LexedFile) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if !lexed.is_ident(i, "fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            if lexed.is_punct(j, b'{') {
                open = Some(j);
                break;
            }
            if lexed.is_punct(j, b';') {
                break; // trait method declaration or extern fn: no body
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let Some(close) = lexed.matching_brace(open) else { continue };
        spans.push(FnSpan {
            name: lexed.token_text(name_tok).to_string(),
            line: tokens[i].line,
            body: (open, close + 1),
        });
    }
    spans
}

/// The innermost function (by narrowest body) containing token index `i`.
pub fn enclosing_fn(spans: &[FnSpan], i: usize) -> Option<&FnSpan> {
    spans.iter().filter(|f| i >= f.body.0 && i < f.body.1).min_by_key(|f| f.body.1 - f.body.0)
}

/// Named fields of `struct <name> { … }`, as `(field, decl_line)` pairs:
/// `ident: Type` members of a plain struct, or the bare documented counter
/// names of a block declared inside a `counters! { … }` invocation (where
/// the one list generates the live block, its snapshot and `fields()`).
/// Returns `None` when the struct is not declared in this file.
pub fn struct_fields(lexed: &LexedFile, name: &str) -> Option<Vec<(String, u32)>> {
    let tokens = &lexed.tokens;
    let macro_bodies = counters_invocations(lexed);
    for i in 0..tokens.len() {
        if !(lexed.is_ident(i, "struct") && lexed.is_ident(i + 1, name)) {
            continue;
        }
        let mut j = i + 2;
        while j < tokens.len() && !lexed.is_punct(j, b'{') {
            if lexed.is_punct(j, b';') {
                return Some(Vec::new()); // unit or tuple struct
            }
            j += 1;
        }
        let open = j;
        let close = lexed.matching_brace(open)?;
        let bare = inside(&macro_bodies, i);
        let mut fields = Vec::new();
        let mut depth = 0usize;
        let mut k = open;
        while k < close {
            match tokens[k].kind {
                TokenKind::Punct(b'{' | b'(' | b'<' | b'[') => depth += 1,
                TokenKind::Punct(b'}' | b')' | b'>' | b']') => depth = depth.saturating_sub(1),
                // A counter name: the whole list entry (attributes nest one
                // level deeper, doc comments are not tokens).
                TokenKind::Ident
                    if bare && depth == 1 && (lexed.is_punct(k + 1, b',') || k + 1 == close) =>
                {
                    fields.push((lexed.token_text(&tokens[k]).to_string(), tokens[k].line));
                }
                TokenKind::Ident if !bare && depth == 1 && lexed.is_punct(k + 1, b':') => {
                    let word = lexed.token_text(&tokens[k]);
                    // `pub(crate)` never matches: `pub` precedes `(`, and the
                    // depth guard keeps generic arguments out.
                    if word != "pub" && word != "crate" && !lexed.is_punct(k + 2, b':') {
                        fields.push((word.to_string(), tokens[k].line));
                    }
                }
                _ => {}
            }
            k += 1;
        }
        return Some(fields);
    }
    None
}

/// Token ranges of the bodies of `counters! { … }` invocations (path
/// prefixes such as `mbdr_journal::counters!` included).
fn counters_invocations(lexed: &LexedFile) -> Vec<TokenRange> {
    (0..lexed.tokens.len())
        .filter(|&i| {
            lexed.is_ident(i, "counters")
                && lexed.is_punct(i + 1, b'!')
                && lexed.is_punct(i + 2, b'{')
        })
        .filter_map(|i| lexed.matching_brace(i + 2).map(|close| (i + 2, close + 1)))
        .collect()
}

/// All escape-hatch directives in the file, plus malformed-directive
/// diagnostics as `(line, message)` pairs.
pub fn allow_directives(lexed: &LexedFile) -> (Vec<AllowDirective>, Vec<(u32, String)>) {
    let mut directives = Vec::new();
    let mut malformed = Vec::new();
    for comment in &lexed.comments {
        let body = comment.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            malformed.push((
                comment.line,
                "malformed escape hatch: expected \
                 `// lint: allow(<lint-id>) reason=<why>`"
                    .to_string(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed.push((comment.line, "malformed escape hatch: unclosed `allow(`".to_string()));
            continue;
        };
        let lint = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim();
        let has_reason =
            tail.strip_prefix("reason=").map(|r| !r.trim().is_empty()).unwrap_or(false);
        directives.push(AllowDirective { line: comment.line, lint, has_reason });
    }
    (directives, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_modules_and_test_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\n\
                   #[test]\nfn standalone() {}\nfn also_live() {}";
        let lexed = LexedFile::lex(src.into());
        let spans = test_spans(&lexed);
        assert_eq!(spans.len(), 2);
        let unwrap_at = lexed.tokens.iter().position(|t| lexed.token_text(t) == "unwrap").unwrap();
        assert!(inside(&spans, unwrap_at));
        let live_at = lexed.tokens.iter().position(|t| lexed.token_text(t) == "also_live").unwrap();
        assert!(!inside(&spans, live_at));
    }

    #[test]
    fn fn_spans_find_bodies_and_skip_bodyless_declarations() {
        let src = "trait T { fn decl(&self); }\nimpl T for U {\n  fn decl(&self) { work() }\n}\n\
                   pub fn free<X: Clone>(x: X) -> Vec<X> { vec![x] }";
        let lexed = LexedFile::lex(src.into());
        let spans = fn_spans(&lexed);
        let names: Vec<_> = spans.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["decl", "free"]);
        let work = lexed.tokens.iter().position(|t| lexed.token_text(t) == "work").unwrap();
        assert_eq!(enclosing_fn(&spans, work).unwrap().name, "decl");
    }

    #[test]
    fn struct_fields_skip_visibility_and_nested_generics() {
        let src = "pub struct Stats {\n  /// doc\n  pub a: u64,\n  pub(crate) b: AtomicU64,\n  \
                   c: HashMap<String, Vec<u8>>,\n}";
        let lexed = LexedFile::lex(src.into());
        let fields: Vec<_> =
            struct_fields(&lexed, "Stats").unwrap().into_iter().map(|(f, _)| f).collect();
        assert_eq!(fields, ["a", "b", "c"]);
        assert!(struct_fields(&lexed, "Absent").is_none());
        // Inside a `counters!` invocation the fields are the bare counter
        // names; outside one a bare name is not a field.
        let src = "mbdr_journal::counters! {\n  pub(crate) struct Live {\n    /// First.\n    \
                   first,\n    #[doc = \"x, y\"]\n    second,\n    last\n  }\n  \
                   pub snapshot Copied { pub extra: Option<u8> }\n}\nstruct Plain { first, x: u8 }";
        let lexed = LexedFile::lex(src.into());
        let line = |name: &str, line| (name.to_string(), line);
        assert_eq!(
            struct_fields(&lexed, "Live").unwrap(),
            [line("first", 4), line("second", 6), line("last", 7)]
        );
        assert_eq!(struct_fields(&lexed, "Plain").unwrap(), [line("x", 11)]);
    }

    #[test]
    fn allow_directives_require_reasons() {
        let src = "// lint: allow(panic-freedom) reason=poisoning is unreachable here\n\
                   x.unwrap();\n// lint: allow(panic-freedom)\ny.unwrap();";
        let lexed = LexedFile::lex(src.into());
        let (directives, malformed) = allow_directives(&lexed);
        assert_eq!(directives.len(), 2);
        assert!(directives[0].has_reason);
        assert!(!directives[1].has_reason);
        assert!(malformed.is_empty());
    }
}
