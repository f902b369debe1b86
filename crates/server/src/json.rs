//! A hardened JSON *parser* for the serve protocol.
//!
//! The workspace's [`Json`] model (crates/telemetry) only renders; the
//! daemon also has to *read* attacker-supplied request frames. This
//! parser is written for that position in the trust boundary: strict
//! (no trailing garbage, no unknown escapes), recursion-bounded (a
//! frame of ten thousand `[` must not overflow the reader thread's
//! stack), and total — every malformed input is an `Err` with a byte
//! offset, never a panic.

use safetsa_telemetry::Json;

/// Maximum container nesting depth accepted. Deep enough for any real
/// request (ours nest two levels), shallow enough that parsing is far
/// from the thread's stack limit.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, requiring the whole input be consumed
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns `"offset N: message"` for the first malformed byte.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("offset {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            // Duplicate keys: last write wins, matching `Json::set`.
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = val;
            } else {
                pairs.push((key, val));
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Json::Obj(pairs));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid codepoint")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Raw control bytes are invalid inside JSON strings.
                0x00..=0x1f => return Err(self.err("control byte in string")),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // remaining continuation bytes are valid — copy the
                    // whole scalar.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(self.err("bad hex digit")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if float {
            return text
                .parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("bad number"));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::U64(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::I64(i));
        }
        // Out-of-range integers degrade to float rather than erroring.
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rendered_documents() {
        let mut doc = Json::obj();
        doc.set("op", Json::Str("run".into()));
        doc.set("deadline_ms", Json::U64(50));
        doc.set("neg", Json::I64(-3));
        doc.set("f", Json::F64(1.5));
        doc.set("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = doc.render();
        let back = parse(&text).unwrap();
        assert_eq!(back.render(), text);
        // Pretty form parses to the same value.
        assert_eq!(parse(&doc.render_pretty()).unwrap().render(), text);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\"b\n\tAé""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\n\tAé".into()));
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err()); // lone surrogate
        assert!(parse(r#""\x41""#).is_err()); // unknown escape
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "01x",
            "\"",
            "{\"a\" 1}",
            "nulll",
            "1 2",
            "{\"a\":1}garbage",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_bomb_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        let ok = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_last_write_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }
}
