//! A resumable, allocation-free XML lexer.
//!
//! The lexer is the paper's "first transducer" (§3.1): it converts a slice of
//! XML bytes into a stream of opening/closing tag events (plus text and
//! attribute events when requested). It is deliberately *lenient*: a slice may
//! start or end in the middle of an element because the PP-Transducer feeds it
//! arbitrary chunks, so structural problems are not lexical errors.
//!
//! Two usage modes matter for performance:
//!
//! * **tags only** ([`LexerConfig::tags_only`]): text runs and attributes are
//!   skipped without being materialised. This is the hot path used by the
//!   pushdown transducer, whose input alphabet consists solely of tag events.
//! * **full events**: text and attributes are reported; used by the DOM
//!   builder and by queries that involve `text()` or attribute tests.
//!
//! As in the paper's prototype (§5), a chunk is assumed to begin at a `<` that
//! starts a tag; comments and CDATA sections are skipped correctly only when
//! they are fully contained in the slice being lexed, which always holds for
//! whole-document lexing and for chunk splits produced by [`crate::split`] on
//! comment-free data.

use crate::event::XmlEvent;

/// Configuration for [`Lexer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LexerConfig {
    /// When `true`, only `Open`/`Close` events are produced; text and
    /// attributes are skipped. This is the transducer hot path.
    pub tags_only: bool,
}

impl LexerConfig {
    /// Configuration producing only tag events.
    pub fn tags_only() -> Self {
        LexerConfig { tags_only: true }
    }
}

/// Streaming lexer over a byte slice. See the module documentation.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
    config: LexerConfig,
    /// Close event pending after a self-closing tag was reported as `Open`.
    pending_close: Option<(usize, usize, usize)>,
    /// Remaining attribute bytes of the most recent open tag: `(start, end, tag_pos)`.
    attr_cursor: Option<(usize, usize, usize)>,
}

#[inline]
fn is_name_byte(b: u8) -> bool {
    !matches!(b, b'<' | b'>' | b'/' | b'=' | b'"' | b'\'') && !b.is_ascii_whitespace()
}

#[inline]
fn is_ws(b: u8) -> bool {
    b.is_ascii_whitespace()
}

/// Length of `bytes` up to its first `<` (all of it if there is none).
///
/// Scans a word at a time, so a long text run takes an eighth of the steps
/// of a byte loop. A byte loop's speed swung 2× with where the linker placed
/// it, which moved whenever unrelated code changed size.
fn text_len(bytes: &[u8]) -> usize {
    const LT: u64 = u64::from_ne_bytes([b'<'; 8]);
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut len = 0;
    for word in bytes.chunks_exact(8) {
        let mut buf = [0; 8];
        buf.copy_from_slice(word);
        // The zero bytes of `x` are the word's `<`s; the expression below is
        // non-zero exactly when there is one.
        let x = u64::from_ne_bytes(buf) ^ LT;
        if x.wrapping_sub(ONES) & !x & HIGHS != 0 {
            break;
        }
        len += 8;
    }
    len + bytes[len..].iter().position(|&b| b == b'<').unwrap_or(bytes.len() - len)
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input` with the default configuration (full
    /// events).
    pub fn new(input: &'a [u8]) -> Self {
        Self::with_config(input, LexerConfig::default())
    }

    /// Creates a lexer producing only tag events.
    pub fn tags_only(input: &'a [u8]) -> Self {
        Self::with_config(input, LexerConfig::tags_only())
    }

    /// Creates a lexer with an explicit configuration.
    pub fn with_config(input: &'a [u8], config: LexerConfig) -> Self {
        Lexer { input, pos: 0, config, pending_close: None, attr_cursor: None }
    }

    /// Byte offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Skips ahead until `pos` points at the next `<` (or the end of input).
    /// Used when resuming in the middle of a stream.
    pub fn skip_to_tag_start(&mut self) {
        if let Some(rest) = self.input.get(self.pos..) {
            self.pos += text_len(rest);
        }
    }

    fn next_attr(&mut self) -> Option<XmlEvent<'a>> {
        let (mut p, end, tag_pos) = self.attr_cursor?;
        let input = self.input;
        // Skip whitespace and stray '/' before the attribute name.
        while p < end && (is_ws(input[p]) || input[p] == b'/') {
            p += 1;
        }
        if p >= end {
            self.attr_cursor = None;
            return None;
        }
        let name_start = p;
        while p < end && is_name_byte(input[p]) {
            p += 1;
        }
        let name_end = p;
        // Skip whitespace and '='.
        while p < end && (is_ws(input[p]) || input[p] == b'=') {
            p += 1;
        }
        let (value_start, value_end, after) = if p < end && (input[p] == b'"' || input[p] == b'\'')
        {
            let quote = input[p];
            let vs = p + 1;
            let mut q = vs;
            while q < end && input[q] != quote {
                q += 1;
            }
            (vs, q, (q + 1).min(end))
        } else {
            // Unquoted value (not strictly valid XML, accepted leniently).
            let vs = p;
            let mut q = vs;
            while q < end && !is_ws(input[q]) {
                q += 1;
            }
            (vs, q, q)
        };
        self.attr_cursor = Some((after, end, tag_pos));
        if name_end == name_start {
            // Nothing parseable left; terminate attribute scanning.
            self.attr_cursor = None;
            return None;
        }
        Some(XmlEvent::Attr {
            name: &input[name_start..name_end],
            value: &input[value_start..value_end],
            pos: name_start,
        })
    }

    /// Finds the end of a tag starting at `start` (offset of `<`), respecting
    /// quoted attribute values. Returns the offset of the closing `>` or the
    /// end of input if the tag is truncated.
    fn find_tag_end(&self, start: usize) -> usize {
        let input = self.input;
        let mut p = start;
        let mut quote: Option<u8> = None;
        while p < input.len() {
            let b = input[p];
            match quote {
                Some(q) => {
                    if b == q {
                        quote = None;
                    }
                }
                None => {
                    if b == b'"' || b == b'\'' {
                        quote = Some(b);
                    } else if b == b'>' {
                        return p;
                    }
                }
            }
            p += 1;
        }
        input.len()
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = XmlEvent<'a>;

    fn next(&mut self) -> Option<XmlEvent<'a>> {
        loop {
            // Attributes belong to the element just opened, so they must be
            // reported before the pending close of a self-closing tag.
            if !self.config.tags_only {
                if let Some(ev) = self.next_attr() {
                    return Some(ev);
                }
            } else {
                self.attr_cursor = None;
            }
            if let Some((start, end, pos)) = self.pending_close.take() {
                return Some(XmlEvent::Close { name: &self.input[start..end], pos });
            }
            let input = self.input;
            if self.pos >= input.len() {
                return None;
            }
            if input[self.pos] != b'<' {
                // Text run.
                let start = self.pos;
                self.pos += text_len(&input[start..]);
                if self.config.tags_only {
                    continue;
                }
                return Some(XmlEvent::Text { text: &input[start..self.pos], pos: start });
            }
            let tag_pos = self.pos;
            if self.pos + 1 >= input.len() {
                // Lone '<' at the end of the slice: truncated, stop.
                self.pos = input.len();
                return None;
            }
            match input[self.pos + 1] {
                b'/' => {
                    // Closing tag.
                    let name_start = self.pos + 2;
                    let mut p = name_start;
                    while p < input.len() && is_name_byte(input[p]) {
                        p += 1;
                    }
                    let name_end = p;
                    while p < input.len() && input[p] != b'>' {
                        p += 1;
                    }
                    self.pos = (p + 1).min(input.len());
                    if name_end == name_start {
                        continue; // `</>`: skip leniently
                    }
                    return Some(XmlEvent::Close {
                        name: &input[name_start..name_end],
                        pos: tag_pos,
                    });
                }
                b'!' => {
                    // Comment, CDATA or DOCTYPE — skip.
                    if input[self.pos + 1..].starts_with(b"!--") {
                        match find_subslice(&input[self.pos + 4..], b"-->") {
                            Some(off) => self.pos = self.pos + 4 + off + 3,
                            None => self.pos = input.len(),
                        }
                    } else if input[self.pos + 1..].starts_with(b"![CDATA[") {
                        match find_subslice(&input[self.pos + 9..], b"]]>") {
                            Some(off) => self.pos = self.pos + 9 + off + 3,
                            None => self.pos = input.len(),
                        }
                    } else {
                        let end = self.find_tag_end(self.pos);
                        self.pos = (end + 1).min(input.len());
                    }
                    continue;
                }
                b'?' => {
                    // Processing instruction / XML declaration — skip.
                    let end = self.find_tag_end(self.pos);
                    self.pos = (end + 1).min(input.len());
                    continue;
                }
                _ => {
                    // Opening tag.
                    let name_start = self.pos + 1;
                    let mut p = name_start;
                    while p < input.len() && is_name_byte(input[p]) {
                        p += 1;
                    }
                    let name_end = p;
                    let tag_end = self.find_tag_end(self.pos);
                    let truncated = tag_end >= input.len();
                    let self_closing =
                        !truncated && tag_end > self.pos && input[tag_end - 1] == b'/';
                    self.pos = if truncated { input.len() } else { tag_end + 1 };
                    if name_end == name_start {
                        continue; // `<>`: skip leniently
                    }
                    if truncated {
                        // A tag cut off by the end of the slice: drop it; the
                        // next chunk (whose split point was the `<`) owns it.
                        return None;
                    }
                    if !self.config.tags_only {
                        let attrs_end = if self_closing { tag_end - 1 } else { tag_end };
                        if name_end < attrs_end {
                            self.attr_cursor = Some((name_end, attrs_end, tag_pos));
                        }
                    }
                    if self_closing {
                        self.pending_close = Some((name_start, name_end, tag_pos));
                    }
                    return Some(XmlEvent::Open {
                        name: &input[name_start..name_end],
                        pos: tag_pos,
                    });
                }
            }
        }
    }
}

/// Naive subslice search (inputs are short: comment/CDATA terminators).
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(xml: &[u8]) -> Vec<(bool, String)> {
        Lexer::tags_only(xml)
            .map(|e| match e {
                XmlEvent::Open { name, .. } => (true, String::from_utf8_lossy(name).into_owned()),
                XmlEvent::Close { name, .. } => (false, String::from_utf8_lossy(name).into_owned()),
                _ => unreachable!("tags_only lexer must not produce text/attr events"),
            })
            .collect()
    }

    /// The word scan finds the first `<` wherever it falls in a word, past
    /// every other byte value, and reports a run with none as all of it.
    #[test]
    fn text_len_finds_the_first_bracket() {
        let filler: Vec<u8> = (0..=255u8).filter(|&b| b != b'<').cycle().take(600).collect();
        assert_eq!(text_len(&filler), filler.len());
        // Runs starting at 0x00, next to `<` (0x3c) and at its high-bit twin.
        for first in [0, 40, 170] {
            for len in 0..40 {
                let run = &filler[first..first + len];
                assert_eq!(text_len(run), len);
                for at in 0..len {
                    let mut bytes = run.to_vec();
                    bytes[at] = b'<';
                    if at + 3 < len {
                        bytes[at + 3] = b'<';
                    }
                    assert_eq!(text_len(&bytes), at, "from {first}, len {len}, `<` at {at}");
                }
            }
        }
    }

    #[test]
    fn simple_document() {
        let xml = b"<a><b><d></d></b><b><c></c></b></a>";
        let ev = tags(xml);
        let expect = vec![
            (true, "a"),
            (true, "b"),
            (true, "d"),
            (false, "d"),
            (false, "b"),
            (true, "b"),
            (true, "c"),
            (false, "c"),
            (false, "b"),
            (false, "a"),
        ];
        let expect: Vec<(bool, String)> =
            expect.into_iter().map(|(o, n)| (o, n.to_string())).collect();
        assert_eq!(ev, expect);
    }

    #[test]
    fn self_closing_tag_emits_open_and_close() {
        let ev = tags(b"<a><b/></a>");
        assert_eq!(
            ev,
            vec![
                (true, "a".to_string()),
                (true, "b".to_string()),
                (false, "b".to_string()),
                (false, "a".to_string())
            ]
        );
    }

    #[test]
    fn text_events_are_reported_in_full_mode() {
        let xml = b"<a>hello<b>world</b></a>";
        let texts: Vec<String> = Lexer::new(xml)
            .filter_map(|e| match e {
                XmlEvent::Text { text, .. } => Some(String::from_utf8_lossy(text).into_owned()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["hello".to_string(), "world".to_string()]);
    }

    #[test]
    fn attributes_are_reported_with_values() {
        let xml = br#"<status id="42" lang='en'><user name="bob"/></status>"#;
        let attrs: Vec<(String, String)> = Lexer::new(xml)
            .filter_map(|e| match e {
                XmlEvent::Attr { name, value, .. } => Some((
                    String::from_utf8_lossy(name).into_owned(),
                    String::from_utf8_lossy(value).into_owned(),
                )),
                _ => None,
            })
            .collect();
        assert_eq!(
            attrs,
            vec![
                ("id".to_string(), "42".to_string()),
                ("lang".to_string(), "en".to_string()),
                ("name".to_string(), "bob".to_string()),
            ]
        );
    }

    #[test]
    fn attributes_skipped_in_tags_only_mode() {
        let xml = br#"<a href="x">t</a>"#;
        let ev = tags(xml);
        assert_eq!(ev, vec![(true, "a".to_string()), (false, "a".to_string())]);
    }

    #[test]
    fn comments_pi_doctype_and_cdata_are_skipped() {
        let xml =
            br#"<?xml version="1.0"?><!DOCTYPE a><a><!-- <ignored> --><![CDATA[<b>]]><c/></a>"#;
        let ev = tags(xml);
        assert_eq!(
            ev,
            vec![
                (true, "a".to_string()),
                (true, "c".to_string()),
                (false, "c".to_string()),
                (false, "a".to_string())
            ]
        );
    }

    #[test]
    fn chunk_starting_mid_document_is_lexed() {
        // Equivalent to the second chunk of the paper's running example
        // (lines 5-8 of Fig 1a).
        let xml = b"<b><c></c></b></a>";
        let ev = tags(xml);
        assert_eq!(
            ev,
            vec![
                (true, "b".to_string()),
                (true, "c".to_string()),
                (false, "c".to_string()),
                (false, "b".to_string()),
                (false, "a".to_string())
            ]
        );
    }

    #[test]
    fn truncated_trailing_tag_is_dropped() {
        let ev = tags(b"<a><b></b><c");
        assert_eq!(
            ev,
            vec![(true, "a".to_string()), (true, "b".to_string()), (false, "b".to_string())]
        );
    }

    #[test]
    fn positions_are_byte_offsets() {
        let xml = b"<a><bb></bb></a>";
        let pos: Vec<usize> = Lexer::tags_only(xml).map(|e| e.pos()).collect();
        assert_eq!(pos, vec![0, 3, 7, 12]);
    }

    #[test]
    fn skip_to_tag_start_resumes_at_bracket() {
        let xml = b"ignored text<a></a>";
        let mut lex = Lexer::tags_only(xml);
        lex.skip_to_tag_start();
        assert_eq!(lex.position(), 12);
        let ev: Vec<_> = lex.collect();
        assert_eq!(ev.len(), 2);
    }

    #[test]
    fn attribute_value_containing_gt_does_not_end_tag() {
        let xml = br#"<a title="1 > 0"><b/></a>"#;
        let ev = tags(xml);
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[1], (true, "b".to_string()));
    }

    #[test]
    fn whitespace_in_closing_tag_is_tolerated() {
        let ev = tags(b"<a></a >");
        assert_eq!(ev, vec![(true, "a".to_string()), (false, "a".to_string())]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert_eq!(tags(b"").len(), 0);
        assert_eq!(tags(b"   ").len(), 0);
    }
}
