//! Comment/string-aware lexical analysis of Rust source.
//!
//! The workspace is deliberately dependency-free, so the lint pass
//! cannot parse with `syn`; instead it works on a *blanked* copy of each
//! file in which every byte inside a comment, string literal, or char
//! literal is replaced by a space (newlines are preserved so line
//! numbers survive). Substring scans over the blanked text then see
//! only real code tokens. On top of that, [`blank_spans`] erases the
//! `#[cfg(test)]` items ([`cfg_test_spans`]) the rules must ignore.
//!
//! This is a lexer-level approximation, not a parser — it understands
//! nesting of block comments, raw strings with `#` fences, and the
//! lifetime-vs-char-literal ambiguity, which is all the lint rules
//! need. It would be defeated by macro-generated source, which the
//! workspace's hand-written style avoids.

/// Replace every non-code byte (comments, string/char literal contents,
/// including the delimiters) with a space, preserving newlines and byte
/// offsets.
pub fn blank_noncode(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            out[i] = b'\n';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = skip_string(b, &mut out, i),
            b'r' | b'b' if starts_raw_string(b, i) => i = skip_raw_string(b, &mut out, i),
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                out[i] = b'b';
                i = skip_string(b, &mut out, i + 1);
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime is a quote followed by an ident
                // with no closing quote right after.
                if is_char_literal(b, i) {
                    i = skip_char(b, i);
                } else {
                    out[i] = b'\'';
                    i += 1;
                }
            }
            c => {
                out[i] = c;
                if c == b'\n' {
                    out[i] = b'\n';
                }
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("only ASCII substitutions on char boundaries")
}

fn starts_raw_string(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn skip_raw_string(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    loop {
        if j >= b.len() {
            return j;
        }
        if b[j] == b'\n' {
            out[j] = b'\n';
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < b.len() && seen < hashes && b[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
}

fn skip_string(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            b'\n' => {
                out[j] = b'\n';
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

fn is_char_literal(b: &[u8], i: usize) -> bool {
    // 'x' or '\…' closed by a quote within a few bytes; lifetimes have
    // no closing quote after the identifier.
    if i + 1 >= b.len() {
        return false;
    }
    if b[i + 1] == b'\\' {
        return true;
    }
    // `'a'` is a char; `'a ` or `'a,` is a lifetime.
    i + 2 < b.len() && b[i + 2] == b'\''
}

fn skip_char(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Byte offset of the `{` that opens the item following offset `at`
/// (skipping anything until the first `{`), and the offset one past its
/// matching `}` — both computed on *blanked* text so braces in strings
/// and comments don't count. Returns `None` on unbalanced input.
pub fn brace_span(blanked: &str, at: usize) -> Option<(usize, usize)> {
    let b = blanked.as_bytes();
    let open = (at..b.len()).find(|&i| b[i] == b'{')?;
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Blank (with spaces, preserving newlines) every byte in `spans` of
/// `blanked`.
pub fn blank_spans(blanked: &mut String, spans: &[(usize, usize)]) {
    // SAFETY-free version: rebuild via bytes.
    let mut bytes = std::mem::take(blanked).into_bytes();
    for &(start, end) in spans {
        let end = end.min(bytes.len());
        for byte in &mut bytes[start..end] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
    }
    *blanked = String::from_utf8(bytes).expect("blanking is ASCII-safe");
}

/// Spans of `#[cfg(test)]`-gated items (the attribute through the end
/// of the item's brace block) in blanked text.
pub fn cfg_test_spans(blanked: &str) -> Vec<(usize, usize)> {
    let attr = "#[cfg(test)]";
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(rel) = blanked[from..].find(attr) {
        let start = from + rel;
        match brace_span(blanked, start + attr.len()) {
            Some((_, end)) => {
                spans.push((start, end));
                from = end;
            }
            None => break,
        }
    }
    spans
}

/// 1-based line number of byte offset `at`.
pub fn line_of(src: &str, at: usize) -> usize {
    src.as_bytes()[..at].iter().filter(|&&c| c == b'\n').count() + 1
}

/// The full text of the line containing byte offset `at`, trimmed.
pub fn line_text(src: &str, at: usize) -> &str {
    let start = src[..at].rfind('\n').map_or(0, |i| i + 1);
    let end = src[at..].find('\n').map_or(src.len(), |i| at + i);
    src[start..end].trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let src = "let a = 1; // unwrap() here\n/* panic! *//*/* nested */*/ let b;";
        let out = blank_noncode(src);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("panic"));
        assert!(out.contains("let a = 1;"));
        assert!(out.contains("let b;"));
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn blanks_strings_and_chars_but_not_lifetimes() {
        let src = r#"fn f<'a>(x: &'a str) { let c = 'x'; let s = "unwrap()"; }"#;
        let out = blank_noncode(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("fn f<'a>"), "{out}");
        assert!(out.contains("&'a str"));
    }

    #[test]
    fn blanks_raw_strings_with_fences() {
        let src = "let s = r#\"has \"quotes\" and unwrap()\"#; let t = 1;";
        let out = blank_noncode(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("let t = 1;"));
    }

    #[test]
    fn preserves_newlines_for_line_numbers() {
        let src = "a\n\"str\nstr\"\nb";
        let out = blank_noncode(src);
        assert_eq!(
            out.matches('\n').count(),
            src.matches('\n').count(),
            "{out:?}"
        );
        assert_eq!(line_of(src, src.len() - 1), 4);
    }

    #[test]
    fn cfg_test_span_covers_module() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn more() {}";
        let mut blanked = blank_noncode(src);
        let spans = cfg_test_spans(&blanked);
        assert_eq!(spans.len(), 1);
        blank_spans(&mut blanked, &spans);
        assert!(!blanked.contains("unwrap"));
        assert!(blanked.contains("fn live"));
        assert!(blanked.contains("fn more"));
    }
}
