//! Source cleaning: blank out comments, string/char literals, and locate
//! `#[cfg(test)]` regions, so the rule engine scans only live library code.
//!
//! The cleaned text has exactly the same byte length and newline positions
//! as the input — every blanked byte becomes a space — so byte offsets and
//! line numbers computed on it map 1:1 onto the original file.

/// A cleaned view of one source file.
pub struct Cleaned {
    /// Same length as the input; comments and literals are spaces.
    pub text: Vec<u8>,
    /// Byte offset of the start of each line (line 1 at index 0).
    pub line_starts: Vec<usize>,
    /// Sorted, disjoint byte ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
}

impl Cleaned {
    /// 1-based line number containing byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether `pos` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// Names of the modules this file declares as test-only without a
    /// body (`#[cfg(test)] mod x;`): their files are test code throughout.
    pub fn test_mods(&self) -> Vec<String> {
        let mut names = Vec::new();
        for &(s, e) in &self.test_regions {
            let item = &self.text[s..e];
            if item.last() != Some(&b';') {
                continue;
            }
            let Some(at) = find(item, b"mod ", 0) else {
                continue;
            };
            let name: Vec<u8> = item[at + 4..]
                .iter()
                .copied()
                .skip_while(|b| b.is_ascii_whitespace())
                .take_while(|&b| is_ident(b))
                .collect();
            if !name.is_empty() {
                names.push(String::from_utf8_lossy(&name).into_owned());
            }
        }
        names
    }

    /// The cleaned text of the line containing `pos` (without newline).
    pub fn line_text(&self, pos: usize) -> &[u8] {
        let line = self.line_of(pos);
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&e| e.saturating_sub(1))
            .unwrap_or(self.text.len());
        &self.text[start..end.max(start)]
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Returns `Some(total_prefix_len, hashes)` if `src[i..]` starts a raw (or
/// raw byte) string literal: `r"`, `r#"`, `br"`, `b"` is *not* raw but is
/// handled by the plain-string state, so only `r`-forms are detected here.
fn raw_string_start(src: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if src.get(j) == Some(&b'b') {
        j += 1;
    }
    if src.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while src.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if src.get(j) == Some(&b'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// Blanks comments and string/char literals (newlines preserved).
pub fn clean(src: &[u8]) -> Cleaned {
    let mut out = src.to_vec();
    let mut i = 0;
    let n = src.len();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        let to = to.min(out.len());
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < n {
        let b = src[i];
        // Line comment.
        if b == b'/' && src.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < n && src[i] != b'\n' {
                i += 1;
            }
            blank(&mut out, start, i);
            continue;
        }
        // Block comment (nested).
        if b == b'/' && src.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if src[i] == b'/' && src.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && src.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start, i);
            continue;
        }
        // Raw strings (r"...", r#"..."#, br"...").
        let prev_ident = i > 0 && is_ident(src[i - 1]);
        if !prev_ident {
            if let Some((plen, hashes)) = raw_string_start(src, i) {
                let start = i;
                i += plen;
                'raw: while i < n {
                    if src[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && src.get(i + 1 + k) == Some(&b'#') {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                blank(&mut out, start, i);
                continue;
            }
        }
        // Plain (and byte) strings.
        if b == b'"' || (b == b'b' && !prev_ident && src.get(i + 1) == Some(&b'"')) {
            let start = i;
            i += if b == b'b' { 2 } else { 1 };
            while i < n {
                match src[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut out, start, i);
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            let next = src.get(i + 1).copied().unwrap_or(0);
            let is_char = next == b'\\'
                || (src.get(i + 2) == Some(&b'\'') && next != b'\'')
                || (!is_ident(next) && next != b'\'' && src.get(i + 2) == Some(&b'\''));
            if is_char {
                let start = i;
                i += 1;
                let mut steps = 0;
                while i < n && steps < 16 {
                    match src[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                    steps += 1;
                }
                blank(&mut out, start, i);
                continue;
            }
            // Lifetime: skip the quote and the identifier after it.
            i += 1;
            while i < n && is_ident(src[i]) {
                i += 1;
            }
            continue;
        }
        i += 1;
    }

    let mut line_starts = vec![0];
    for (p, &b) in src.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(p + 1);
        }
    }
    let test_regions = find_test_regions(&out);
    Cleaned {
        text: out,
        line_starts,
        test_regions,
    }
}

/// Finds `#[cfg(test)]`-gated items in cleaned text by brace matching.
fn find_test_regions(text: &[u8]) -> Vec<(usize, usize)> {
    const NEEDLE: &[u8] = b"#[cfg(test)]";
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(rel) = find(text, NEEDLE, from) {
        let start = rel;
        let mut i = rel + NEEDLE.len();
        // Skip whitespace and any further attributes.
        loop {
            while i < text.len() && text[i].is_ascii_whitespace() {
                i += 1;
            }
            if text.get(i) == Some(&b'#') && text.get(i + 1) == Some(&b'[') {
                let mut depth = 0;
                while i < text.len() {
                    match text[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // The gated item: ends at the matching `}` of its first brace, or at
        // `;` for brace-less items (`mod tests;`, `use …;`).
        let mut end = i;
        let mut depth = 0usize;
        while end < text.len() {
            match text[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        regions.push((start, end));
        from = end.max(rel + 1);
    }
    regions
}

/// First occurrence of `needle` in `hay[from..]`, as an absolute offset.
pub fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn cleaned_str(src: &str) -> String {
        String::from_utf8(clean(src.as_bytes()).text).unwrap()
    }

    #[test]
    fn blanks_comments_and_strings() {
        let c = cleaned_str("let x = \"a == b\"; // x.unwrap()\nlet y = 1;");
        assert!(!c.contains("=="), "{c}");
        assert!(!c.contains("unwrap"), "{c}");
        assert!(c.contains("let y = 1;"));
    }

    #[test]
    fn blanks_raw_strings_and_chars() {
        let c = cleaned_str(r##"let s = r#"panic!("x")"#; let c = '"'; let l: &'static str = s;"##);
        assert!(!c.contains("panic"), "{c}");
        assert!(c.contains("'static"), "lifetimes survive: {c}");
    }

    #[test]
    fn nested_block_comments() {
        let c = cleaned_str("/* a /* b */ c.unwrap() */ let z = 2;");
        assert!(!c.contains("unwrap"), "{c}");
        assert!(c.contains("let z = 2;"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let c = clean(src.as_bytes());
        let pos = find(&c.text, b"unwrap", 0).unwrap();
        assert!(c.in_test(pos));
        let cpos = find(&c.text, b"fn c", 0).unwrap();
        assert!(!c.in_test(cpos));
    }

    #[test]
    fn test_mods_lists_bodyless_cfg_test_modules() {
        let src = "mod live;\n#[cfg(test)]\nmod audit;\n#[cfg(test)]\n#[allow(dead_code)]\npub(crate) mod  helpers ;\n#[cfg(test)]\nmod tests {\n  mod inner;\n}\n";
        let c = clean(src.as_bytes());
        assert_eq!(c.test_mods(), ["audit", "helpers"]);
    }

    #[test]
    fn line_numbers_are_stable() {
        let src = "a\nbb\nccc\n";
        let c = clean(src.as_bytes());
        assert_eq!(c.line_of(0), 1);
        assert_eq!(c.line_of(2), 2);
        assert_eq!(c.line_of(5), 3);
    }
}
