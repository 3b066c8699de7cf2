//! The workspace's one JSON string escaper.
//!
//! Every artifact emitter (reports, SARIF, slices, repair outcomes,
//! fuzz and litmus reports, served replies) writes its own layout by
//! hand but quotes every string through [`json_string`], so escaping
//! has exactly one definition.

/// Escapes `s` as a JSON string literal, double quotes included. Only
/// `"`, `\` and control characters are escaped; everything else,
/// non-ASCII included, is emitted verbatim, so any standard JSON parser
/// yields `s` back byte-for-byte and multi-line artifacts can ride
/// inside single-line envelopes without losing byte identity.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls_only() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\""
        );
        assert_eq!(json_string("O'Neil é —"), "\"O'Neil é —\"");
    }
}
