//! String escaping for the hand-rendered `--json` outputs (the
//! workspace takes no external dependencies, so no JSON library).

/// Escapes a string for embedding in a JSON string literal: quote,
/// backslash, `\n`, `\r` and `\t` get their short escapes, every other
/// control character its `\u00XX` form.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
