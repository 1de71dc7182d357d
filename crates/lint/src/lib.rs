//! `ppt-lint` — the workspace invariant checker.
//!
//! A token-level scanner over the workspace's Rust sources enforcing the
//! project invariants that `rustc` and clippy cannot see — the conventions
//! the hand-rolled concurrency core (raw `poll(2)` FFI, poison-recovering
//! locks, relaxed-atomic telemetry) depends on for correctness:
//!
//! | id | rule |
//! |----|------|
//! | L1 | every `unsafe` block/fn/impl is preceded by a `// SAFETY:` comment |
//! | L2 | `Ordering::Relaxed` only in allowlisted files (`telemetry.rs`, `stats.rs`) — elsewhere state Acquire/Release/SeqCst or justify with `// RELAXED-OK:` |
//! | L3 | no `.unwrap()` / `.expect()` in non-test library code (justify with `// UNWRAP-OK:`) |
//! | L4 | in `ppt-runtime`, `Mutex::lock()` / `Condvar::wait*()` go through `lock_recover` / `wait_recover` (justify with `// LOCK-OK:`) |
//! | L5 | no bare `as` numeric narrowing in the wire/serve/reactor paths — use `try_from` (justify with `// CAST-OK:`) |
//! | L6 | every `extern "C"` FFI call's return value is checked (justify with `// FFI-OK:`) |
//!
//! A justification comment counts when it sits on the offending line or in
//! the contiguous comment block immediately above it. The generic waiver
//! `// ppt-lint: allow(Lx)` is accepted in the same positions.
//!
//! Deliberately excluded from the scan: `target/` (build output), `shims/`
//! (offline stand-ins for external crates — we do not lint vendored
//! third-party API surfaces), and any `fixtures/` directory (lint test
//! inputs contain deliberate violations).
//!
//! The checker lints itself: `crates/lint/src` is ordinary library code to
//! every rule above.

// PR-8 hardening: no unsafe code belongs in this crate, and every public
// type must be debuggable from test failures and operator logs.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules & diagnostics
// ---------------------------------------------------------------------------

/// A lint rule identifier (`L1`..`L6`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 6] = [Rule::L1, Rule::L2, Rule::L3, Rule::L4, Rule::L5, Rule::L6];

    /// The rule-specific justification marker that waives a violation.
    pub fn marker(self) -> &'static str {
        match self {
            Rule::L1 => "SAFETY:",
            Rule::L2 => "RELAXED-OK:",
            Rule::L3 => "UNWRAP-OK:",
            Rule::L4 => "LOCK-OK:",
            Rule::L5 => "CAST-OK:",
            Rule::L6 => "FFI-OK:",
        }
    }

    /// One-line rule description for `ppt-lint rules` and diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::L1 => "`unsafe` must be preceded by a `// SAFETY:` comment",
            Rule::L2 => {
                "Ordering::Relaxed only in telemetry.rs/stats.rs; elsewhere use \
                 Acquire/Release/SeqCst or justify with `// RELAXED-OK:`"
            }
            Rule::L3 => {
                "no .unwrap()/.expect() in non-test library code; justify with `// UNWRAP-OK:`"
            }
            Rule::L4 => {
                "in ppt-runtime, Mutex::lock()/Condvar::wait*() must go through \
                 lock_recover/wait_recover; justify with `// LOCK-OK:`"
            }
            Rule::L5 => {
                "no bare `as` numeric narrowing in wire/serve/reactor paths — use \
                 try_from or justify with `// CAST-OK:`"
            }
            Rule::L6 => {
                "every extern \"C\" call's return value must be checked; justify \
                 with `// FFI-OK:`"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
        })
    }
}

/// One reported violation: `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {} (waive with `// {} <why>`)",
            self.path.display(),
            self.line,
            self.rule,
            self.message,
            self.rule.marker()
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A source token. Comment text is kept out-of-band (per line) so waiver
/// lookups stay cheap; literal *content* matters only for strings (to
/// recognise `extern "C"`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Ident(String),
    /// Any single punctuation character (`.`/`:`/`{`/…).
    Sym(char),
    /// String literal (regular, raw, byte, raw-byte); payload is the
    /// unquoted text, truncated — only ever compared against `"C"`.
    Str(String),
    /// Char literal, numeric literal, or lifetime — content irrelevant.
    Opaque,
}

#[derive(Debug, Clone)]
struct Token {
    line: u32,
    kind: TokKind,
}

/// Lexed file: token stream plus the comment text found on each line.
struct Lexed {
    tokens: Vec<Token>,
    /// line number → concatenated comment text on that line.
    comments: BTreeMap<u32, String>,
    /// Lines that carry at least one non-comment token.
    code_lines: BTreeSet<u32>,
}

fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut comments: BTreeMap<u32, String> = BTreeMap::new();
    let mut code_lines = BTreeSet::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let mut push_comment = |line: u32, text: &str| {
        let slot = comments.entry(line).or_default();
        slot.push(' ');
        slot.push_str(text);
    };

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                push_comment(line, &src[start..i]);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment; text attributed to every line spanned.
                let mut depth = 1usize;
                i += 2;
                let mut seg_start = i;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        push_comment(line, &src[seg_start..i]);
                        line += 1;
                        i += 1;
                        seg_start = i;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push_comment(line, &src[seg_start..i.min(bytes.len())]);
            }
            b'"' => {
                let (text, end, newlines) = scan_string(src, i);
                tokens.push(Token { line, kind: TokKind::Str(text) });
                code_lines.insert(line);
                line += newlines;
                i = end;
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let start = i;
                // Skip the prefix (r, b, br, rb) and any `#`s, then scan from
                // the quote; raw strings have no escapes — find the matching
                // `"###…` terminator.
                let mut j = i;
                while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    if hashes == 0 && !src[start..j].contains('r') {
                        // Plain byte string `b"…"` — escapes apply.
                        let (text, end, newlines) = scan_string(src, j);
                        tokens.push(Token { line, kind: TokKind::Str(text) });
                        code_lines.insert(line);
                        line += newlines;
                        i = end;
                    } else {
                        j += 1;
                        let body_start = j;
                        let terminator: String =
                            std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                        let rel = src[j..].find(&terminator).unwrap_or(src.len() - j);
                        let body = &src[body_start..j + rel];
                        tokens.push(Token {
                            line,
                            kind: TokKind::Str(body.chars().take(16).collect()),
                        });
                        code_lines.insert(line);
                        line += body.matches('\n').count() as u32;
                        i = j + rel + terminator.len();
                    }
                } else {
                    // Just an identifier starting with r/b.
                    let (ident, end) = scan_ident(src, i);
                    tokens.push(Token { line, kind: TokKind::Ident(ident) });
                    code_lines.insert(line);
                    i = end;
                }
            }
            b'\'' => {
                // Lifetime/label vs char literal.
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                let after = bytes.get(i + 2).copied().unwrap_or(0);
                if (next.is_ascii_alphabetic() || next == b'_') && after != b'\'' {
                    // Lifetime: consume ident chars.
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    tokens.push(Token { line, kind: TokKind::Opaque });
                    code_lines.insert(line);
                } else {
                    // Char literal: consume to closing quote, honouring \-escape.
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        i += 2;
                        while i < bytes.len() && bytes[i] != b'\'' {
                            i += 1;
                        }
                    } else if i < bytes.len() {
                        i += 1;
                    }
                    if bytes.get(i) == Some(&b'\'') {
                        i += 1;
                    }
                    tokens.push(Token { line, kind: TokKind::Opaque });
                    code_lines.insert(line);
                }
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || (bytes[i] == b'.'
                            && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())))
                {
                    i += 1;
                }
                tokens.push(Token { line, kind: TokKind::Opaque });
                code_lines.insert(line);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let (ident, end) = scan_ident(src, i);
                tokens.push(Token { line, kind: TokKind::Ident(ident) });
                code_lines.insert(line);
                i = end;
            }
            c => {
                tokens.push(Token { line, kind: TokKind::Sym(c as char) });
                code_lines.insert(line);
                i += 1;
            }
        }
    }
    Lexed { tokens, comments, code_lines }
}

/// Scans a `"…"` literal starting at the opening quote. Returns the
/// (truncated) body text, the index one past the closing quote, and how many
/// newlines the literal spans.
fn scan_string(src: &str, open: usize) -> (String, usize, u32) {
    let bytes = src.as_bytes();
    let mut i = open + 1;
    let mut newlines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    let body: String = src[open + 1..i.saturating_sub(1).max(open + 1)].chars().take(16).collect();
    (body, i, newlines)
}

fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn scan_ident(src: &str, start: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut i = start;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    (src[start..i].to_string(), i)
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// What kind of source a file is, derived from its workspace-relative path.
/// Controls which rules apply (see the module docs for the matrix).
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Library code: under a crate's `src/` (or the workspace root `src/`).
    pub library: bool,
    /// Inside `crates/runtime/src/` — the L4 lock-discipline scope.
    pub runtime_src: bool,
    /// One of the L5 cast-audited files (`wire.rs`/`serve.rs`/`reactor.rs`
    /// in the runtime crate).
    pub l5_scoped: bool,
    /// On the L2 `Ordering::Relaxed` allowlist (`telemetry.rs`, `stats.rs`).
    pub relaxed_allowlisted: bool,
    /// Under a `tests/`, `benches/` or `examples/` directory.
    pub test_context: bool,
}

impl FileClass {
    /// Classifies `path`, which should be workspace-relative (absolute paths
    /// work too; only the components matter).
    pub fn of(path: &Path) -> FileClass {
        let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
        let has = |name: &str| comps.contains(&name);
        let base = path.file_name().and_then(|b| b.to_str()).unwrap_or("");
        let test_context = has("tests") || has("benches") || has("examples");
        let library = has("src") && !test_context;
        let runtime_src = library && has("runtime");
        FileClass {
            library,
            runtime_src,
            l5_scoped: runtime_src && matches!(base, "wire.rs" | "serve.rs" | "reactor.rs"),
            relaxed_allowlisted: matches!(base, "telemetry.rs" | "stats.rs"),
            test_context,
        }
    }
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

/// A parsed source file ready for rule evaluation.
pub struct SourceFile {
    path: PathBuf,
    class: FileClass,
    lexed: Lexed,
    /// Per-token: inside a `#[cfg(test)]` / `#[test]` item.
    in_test: Vec<bool>,
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile").field("path", &self.path).finish_non_exhaustive()
    }
}

impl SourceFile {
    /// Lexes `src` and classifies it by `path`.
    pub fn parse(path: impl Into<PathBuf>, src: &str) -> SourceFile {
        let path = path.into();
        let class = FileClass::of(&path);
        let lexed = lex(src);
        let in_test = mark_test_regions(&lexed.tokens);
        SourceFile { path, class, lexed, in_test }
    }

    fn tok(&self, i: usize) -> Option<&TokKind> {
        self.lexed.tokens.get(i).map(|t| &t.kind)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        matches!(self.tok(i), Some(TokKind::Ident(id)) if id == name)
    }

    fn is_sym(&self, i: usize, c: char) -> bool {
        matches!(self.tok(i), Some(TokKind::Sym(s)) if *s == c)
    }

    /// Index of the first token of the statement containing token `i`
    /// (the token after the previous `;`/`{`/`}`, or 0).
    fn stmt_start(&self, i: usize) -> usize {
        let mut j = i;
        while j > 0 {
            match self.tok(j - 1) {
                Some(TokKind::Sym(';' | '{' | '}')) => break,
                _ => j -= 1,
            }
        }
        j
    }

    /// True when the statement containing token `i` starts with `use`
    /// (imports must not trip L2/L5).
    fn in_use_statement(&self, i: usize) -> bool {
        self.is_ident(self.stmt_start(i), "use")
    }

    /// True when line `line` carries a waiver for `rule`: the rule's marker
    /// or a generic `ppt-lint: allow(Lx)`, on the line itself or in the
    /// contiguous pure-comment block immediately above.
    fn waived(&self, rule: Rule, line: u32) -> bool {
        let hit = |l: u32| {
            self.lexed.comments.get(&l).is_some_and(|text| {
                text.contains(rule.marker()) || text.contains(&format!("ppt-lint: allow({rule})"))
            })
        };
        if hit(line) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.lexed.code_lines.contains(&l) {
                return false; // a code line ends the comment block
            }
            if self.lexed.comments.contains_key(&l) {
                if hit(l) {
                    return true;
                }
            } else {
                return false; // blank line ends the comment block
            }
        }
        false
    }

    /// Waiver lookup for the violation at token `i`: the token's own line,
    /// or — for multi-line statements where the justification sits above the
    /// statement head — the statement's first line.
    fn waived_at(&self, rule: Rule, i: usize) -> bool {
        let line = self.lexed.tokens[i].line;
        if self.waived(rule, line) {
            return true;
        }
        let start_line = self.lexed.tokens[self.stmt_start(i)].line;
        start_line != line && self.waived(rule, start_line)
    }
}

/// Marks the token ranges covered by `#[test]`-ish attributes (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]`) and the item that follows each —
/// to the matching close brace of the item's body, or to the terminating
/// semicolon for body-less items. `cfg(not(test))` is *not* a test region.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let is_sym = |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Sym(s)) if *s == c);

    let mut i = 0usize;
    while i < tokens.len() {
        if !(is_sym(i, '#') && (is_sym(i + 1, '[') || (is_sym(i + 1, '!') && is_sym(i + 2, '[')))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = if is_sym(i + 1, '!') { i + 3 } else { i + 2 };
        let mut depth = 1usize; // inside `[`
        let mut saw_test = false;
        let mut saw_not = false;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                TokKind::Sym('[' | '(') => depth += 1,
                TokKind::Sym(']' | ')') => depth -= 1,
                TokKind::Ident(id) if id == "test" => saw_test = true,
                TokKind::Ident(id) if id == "not" => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while is_sym(j, '#') && is_sym(j + 1, '[') {
            let mut d = 1usize;
            j += 2;
            while j < tokens.len() && d > 0 {
                match &tokens[j].kind {
                    TokKind::Sym('[') => d += 1,
                    TokKind::Sym(']') => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Consume the item: ends at `;` before any body, else at the close
        // of the first top-level `{…}`. `(`/`[` nesting is tracked so a `;`
        // inside `[u8; 4]` doesn't end the item early.
        let mut paren = 0isize;
        let mut end = j;
        while end < tokens.len() {
            match &tokens[end].kind {
                TokKind::Sym('(' | '[') => paren += 1,
                TokKind::Sym(')' | ']') => paren -= 1,
                TokKind::Sym(';') if paren == 0 => {
                    end += 1;
                    break;
                }
                TokKind::Sym('{') if paren == 0 => {
                    let mut braces = 1usize;
                    end += 1;
                    while end < tokens.len() && braces > 0 {
                        match &tokens[end].kind {
                            TokKind::Sym('{') => braces += 1,
                            TokKind::Sym('}') => braces -= 1,
                            _ => {}
                        }
                        end += 1;
                    }
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for flag in in_test.iter_mut().take(end.min(tokens.len())).skip(attr_start) {
            *flag = true;
        }
        i = end;
    }
    in_test
}

/// Collects the names declared inside `extern "C" { … }` blocks.
fn collect_ffi_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for f in files {
        let toks = &f.lexed.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            let is_extern_c = f.is_ident(i, "extern")
                && matches!(f.tok(i + 1), Some(TokKind::Str(s)) if s == "C");
            if is_extern_c {
                // Find the block open (attributes/cfgs may intervene).
                let mut j = i + 2;
                while j < toks.len() && !f.is_sym(j, '{') && !f.is_sym(j, ';') {
                    j += 1;
                }
                if f.is_sym(j, '{') {
                    let mut depth = 1usize;
                    j += 1;
                    while j < toks.len() && depth > 0 {
                        match &toks[j].kind {
                            TokKind::Sym('{') => depth += 1,
                            TokKind::Sym('}') => depth -= 1,
                            TokKind::Ident(id) if id == "fn" => {
                                if let Some(TokKind::Ident(name)) = f.tok(j + 1) {
                                    names.insert(name.clone());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }
    names
}

/// Integer types `as`-casts to which are treated as potentially narrowing
/// on the wire/serve/reactor paths (L5). Widening-only targets (`u64`,
/// `u128`, `i64`, `i128`, `f64`) are allowed.
const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Runs every rule over the parsed `files` (two passes: FFI-name
/// collection, then per-file checks). Diagnostics come back sorted by
/// path/line/rule.
pub fn check_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let ffi_names = collect_ffi_names(files);
    let mut out = Vec::new();
    for f in files {
        check_one(f, &ffi_names, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

fn check_one(f: &SourceFile, ffi_names: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let toks = &f.lexed.tokens;
    let mut report = |rule: Rule, i: usize, message: String| {
        if !f.waived_at(rule, i) {
            out.push(Diagnostic { path: f.path.clone(), line: toks[i].line, rule, message });
        }
    };

    for i in 0..toks.len() {
        let in_test = f.in_test[i];

        // L1 — SAFETY comment on every `unsafe` (everywhere, tests included).
        if f.is_ident(i, "unsafe") {
            // `unsafe` in a fn-pointer/trait position (`unsafe fn` item decl
            // inside extern blocks is covered too — cheap and uniform).
            report(Rule::L1, i, "`unsafe` without a `// SAFETY:` comment".to_string());
        }

        // L2 — Relaxed allowlist (library code outside test regions).
        if f.is_ident(i, "Relaxed")
            && !f.class.relaxed_allowlisted
            && !f.class.test_context
            && !in_test
            && !f.in_use_statement(i)
        {
            report(
                Rule::L2,
                i,
                "Ordering::Relaxed outside telemetry.rs/stats.rs — state \
                 Acquire/Release/SeqCst or justify"
                    .to_string(),
            );
        }

        // L3 — unwrap/expect in non-test library code.
        if f.class.library
            && !in_test
            && f.is_sym(i, '.')
            && (f.is_ident(i + 1, "unwrap") || f.is_ident(i + 1, "expect"))
            && f.is_sym(i + 2, '(')
        {
            let which = match f.tok(i + 1) {
                Some(TokKind::Ident(id)) => id.clone(),
                _ => String::new(),
            };
            report(Rule::L3, i, format!(".{which}() in non-test library code"));
        }

        // L4 — raw lock/wait in ppt-runtime library code.
        if f.class.runtime_src
            && !in_test
            && f.is_sym(i, '.')
            && f.is_sym(i + 2, '(')
            && (f.is_ident(i + 1, "lock")
                || f.is_ident(i + 1, "wait")
                || f.is_ident(i + 1, "wait_timeout")
                || f.is_ident(i + 1, "wait_while"))
        {
            let which = match f.tok(i + 1) {
                Some(TokKind::Ident(id)) => id.clone(),
                _ => String::new(),
            };
            report(
                Rule::L4,
                i,
                format!(".{which}() bypasses lock_recover/wait_recover poison handling"),
            );
        }

        // L5 — bare `as` narrowing on the wire/serve/reactor paths.
        if f.class.l5_scoped && !in_test && f.is_ident(i, "as") && !f.in_use_statement(i) {
            if let Some(TokKind::Ident(target)) = f.tok(i + 1) {
                if NARROW_TARGETS.contains(&target.as_str()) {
                    report(
                        Rule::L5,
                        i,
                        format!("bare `as {target}` numeric narrowing — use try_from"),
                    );
                }
            }
        }

        // L6 — discarded extern "C" return value.
        if let Some(TokKind::Ident(name)) = f.tok(i) {
            if ffi_names.contains(name)
                && f.is_sym(i + 1, '(')
                && !f.is_ident(i.wrapping_sub(1), "fn")
            {
                // Walk back over `unsafe {` wrappers to the preceding
                // statement context; a call in statement position discards
                // its result.
                let mut j = i;
                while j >= 2 && f.is_sym(j - 1, '{') && f.is_ident(j - 2, "unsafe") {
                    j -= 2;
                }
                let discarded =
                    j == 0 || matches!(f.tok(j - 1), Some(TokKind::Sym(';' | '{' | '}')));
                if discarded {
                    report(
                        Rule::L6,
                        i,
                        format!("return value of extern \"C\" `{name}()` is discarded"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "shims", "fixtures"];

/// Recursively collects the workspace's `.rs` files under `root`, skipping
/// `SKIP_DIRS`. Paths come back workspace-relative and sorted.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Reads, parses and checks the whole workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for rel in workspace_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::parse(rel, &src));
    }
    Ok(check_files(&files))
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn check_str(path: &str, src: &str) -> Vec<Diagnostic> {
        check_files(&[SourceFile::parse(path, src)])
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    const LIB: &str = "crates/x/src/lib.rs";

    #[test]
    fn l1_unsafe_needs_safety() {
        let bad = "fn f() { let p = 0 as *const u8; unsafe { p.read() }; }";
        assert_eq!(rules_of(&check_str(LIB, bad)), vec![Rule::L1]);
        let good = "fn f(p: *const u8) {\n    // SAFETY: p is valid for reads.\n    unsafe { p.read() };\n}";
        assert!(check_str(LIB, good).is_empty());
        let same_line = "fn f(p: *const u8) { unsafe { p.read() }; // SAFETY: valid\n}";
        assert!(check_str(LIB, same_line).is_empty());
    }

    #[test]
    fn l1_comment_block_may_span_lines() {
        let good = "fn f(p: *const u8) {\n    // SAFETY: p is valid,\n    // and aligned.\n    unsafe { p.read() };\n}";
        assert!(check_str(LIB, good).is_empty());
        let interrupted =
            "fn f(p: *const u8) {\n    // SAFETY: stale, detached\n    let q = p;\n    unsafe { q.read() };\n}";
        assert_eq!(rules_of(&check_str(LIB, interrupted)), vec![Rule::L1]);
    }

    #[test]
    fn l2_relaxed_allowlist() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        assert_eq!(rules_of(&check_str(LIB, bad)), vec![Rule::L2]);
        // Allowlisted files pass.
        assert!(check_str("crates/runtime/src/telemetry.rs", bad).is_empty());
        assert!(check_str("crates/runtime/src/stats.rs", bad).is_empty());
        // Justified passes.
        let good = "fn f(a: &AtomicU64) {\n    // RELAXED-OK: monotonic counter, no ordering needed.\n    a.load(Ordering::Relaxed);\n}";
        assert!(check_str(LIB, good).is_empty());
        // Imports never trip it.
        assert!(check_str(LIB, "use std::sync::atomic::Ordering::Relaxed;").is_empty());
        // Test modules never trip it.
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}";
        assert!(check_str(LIB, in_test).is_empty());
    }

    #[test]
    fn l3_unwrap_expect() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_of(&check_str(LIB, bad)), vec![Rule::L3]);
        let bad2 = "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }";
        assert_eq!(rules_of(&check_str(LIB, bad2)), vec![Rule::L3]);
        // unwrap_or & friends are fine.
        assert!(check_str(LIB, "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
        // Tests and test dirs are exempt.
        assert!(check_str(LIB, "#[test]\nfn t() { Some(1).unwrap(); }").is_empty());
        assert!(check_str("crates/x/tests/t.rs", bad).is_empty());
        assert!(check_str("crates/x/examples/e.rs", bad).is_empty());
        // Waived passes.
        let good = "fn f(x: Option<u32>) -> u32 {\n    // UNWRAP-OK: x checked Some by caller contract.\n    x.unwrap()\n}";
        assert!(check_str(LIB, good).is_empty());
    }

    #[test]
    fn l4_lock_discipline_scoped_to_runtime() {
        let bad = "fn f(m: &Mutex<u32>) { let _ = m.lock(); }";
        assert_eq!(rules_of(&check_str("crates/runtime/src/pool.rs", bad)), vec![Rule::L4]);
        // Other crates are out of scope.
        assert!(check_str("crates/core/src/engine.rs", bad).is_empty());
        let wait = "fn f(cv: &Condvar, g: Guard) { let _ = cv.wait(g); }";
        assert_eq!(rules_of(&check_str("crates/runtime/src/pool.rs", wait)), vec![Rule::L4]);
        let ok = "fn f(m: &Mutex<u32>) {\n    // LOCK-OK: the recover helper itself.\n    let _ = m.lock();\n}";
        assert!(check_str("crates/runtime/src/pool.rs", ok).is_empty());
    }

    #[test]
    fn l5_cast_narrowing_scoped() {
        let bad = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_of(&check_str("crates/runtime/src/wire.rs", bad)), vec![Rule::L5]);
        assert_eq!(rules_of(&check_str("crates/runtime/src/serve.rs", bad)), vec![Rule::L5]);
        assert_eq!(rules_of(&check_str("crates/runtime/src/reactor.rs", bad)), vec![Rule::L5]);
        // Widening targets and other files are fine.
        assert!(
            check_str("crates/runtime/src/wire.rs", "fn f(x: u8) -> u64 { x as u64 }").is_empty()
        );
        assert!(check_str("crates/runtime/src/session.rs", bad).is_empty());
        let ok =
            "fn f(x: u64) -> u32 {\n    // CAST-OK: x < 2^32 by construction.\n    x as u32\n}";
        assert!(check_str("crates/runtime/src/wire.rs", ok).is_empty());
    }

    #[test]
    fn l6_ffi_return_checked() {
        let decl = "extern \"C\" {\n    fn poke(x: i32) -> i32;\n}\n";
        let bad = format!(
            "{decl}fn f() {{\n    // SAFETY: poke is harmless.\n    unsafe {{ poke(1) }};\n}}"
        );
        // The bare-statement call discards the return value.
        assert_eq!(rules_of(&check_str(LIB, &bad)), vec![Rule::L6]);
        let good = format!(
            "{decl}fn f() -> i32 {{\n    // SAFETY: poke is harmless.\n    let rc = unsafe {{ poke(1) }};\n    rc\n}}"
        );
        assert!(check_str(LIB, &good).is_empty());
        let matched = format!(
            "{decl}fn f() -> i32 {{\n    // SAFETY: poke is harmless.\n    match unsafe {{ poke(1) }} {{ rc => rc }}\n}}"
        );
        assert!(check_str(LIB, &matched).is_empty());
    }

    #[test]
    fn generic_waiver_allows_any_rule() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // ppt-lint: allow(L3) — proven Some above.\n    x.unwrap()\n}";
        assert!(check_str(LIB, src).is_empty());
        // A waiver for a different rule does not leak.
        let wrong = "fn f(x: Option<u32>) -> u32 {\n    // ppt-lint: allow(L2)\n    x.unwrap()\n}";
        assert_eq!(rules_of(&check_str(LIB, wrong)), vec![Rule::L3]);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() -> &'static str {\n    // mentions .unwrap( and Ordering::Relaxed and unsafe\n    \"contains .unwrap() and unsafe and Relaxed\"\n}";
        assert!(check_str(LIB, src).is_empty());
        let raw = "fn f() -> &'static str { r#\"has .unwrap() inside\"# }";
        assert!(check_str(LIB, raw).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_of(&check_str(LIB, src)), vec![Rule::L3]);
    }

    #[test]
    fn test_region_ends_at_item_close() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let diags = check_str(LIB, src);
        assert_eq!(rules_of(&diags), vec![Rule::L3]);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn diagnostics_carry_location_and_render() {
        let diags = check_str(LIB, "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        let rendered = diags[0].to_string();
        assert!(rendered.contains("lib.rs:2"), "{rendered}");
        assert!(rendered.contains("L3"), "{rendered}");
        assert!(rendered.contains("UNWRAP-OK:"), "{rendered}");
    }
}
