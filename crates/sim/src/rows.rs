//! How a sweep row is spelled and sealed on disk: one JSON object per
//! line, one writer, one reader, one integrity frame.
//!
//! Both files the sweep farm writes — the result-cache record and the
//! shard log — are made of **rows**: a flat `{"key": value, ...}` object
//! on one line. [`RowWriter`] spells one; [`Row`] reads one back in a
//! single pass that borrows its tokens from the line (strings are
//! unescaped only when a backslash is present, integers parse as
//! integers, nested objects and arrays come back as raw slices).
//! [`seal`]/[`unseal`] frame a row as `payload|fnv16hex\n`, so a torn or
//! bit-flipped line is detectable without trusting any of its bytes;
//! every row on disk is sealed.

use etpp_telemetry::json_escape;
use etpp_trace::format::{fnv1a, FNV_OFFSET};
use std::borrow::Cow;
use std::fmt::{Display, Write as _};

// ---------------------------------------------------------------------------
// Integrity frame
// ---------------------------------------------------------------------------

fn checksum(payload: &str) -> u64 {
    fnv1a(payload.as_bytes(), FNV_OFFSET)
}

/// Frames one single-line payload as `payload|fnv1a(payload) as 016x\n`.
pub fn seal(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "sealed rows are single lines");
    format!("{payload}|{:016x}\n", checksum(payload))
}

/// Appends the row `fields` spell to `out`, sealed — [`seal`] without a
/// second buffer.
pub fn push_sealed(out: &mut String, fields: impl FnOnce(&mut RowWriter<'_>)) {
    let start = out.len();
    let mut w = RowWriter::open(out);
    fields(&mut w);
    w.close();
    let sum = checksum(&out[start..]);
    let _ = writeln!(out, "|{sum:016x}");
}

/// Validates one sealed line and returns its payload. A line missing its
/// newline (torn write), carrying anything after it, or failing its hash
/// is `None`. The hash is spelled exactly as [`seal`] spells it, so no
/// byte of a sealed line can change without failing the check.
pub fn unseal(line: &str) -> Option<&str> {
    let (payload, hash) = line.strip_suffix('\n')?.rsplit_once('|')?;
    let spelled = hash.len() == 16 && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    (spelled && u64::from_str_radix(hash, 16).ok()? == checksum(payload)).then_some(payload)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends one `{"key": value, ...}` row to a buffer.
pub struct RowWriter<'a> {
    out: &'a mut String,
    sep: &'static str,
}

impl<'a> RowWriter<'a> {
    /// Opens a row at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        RowWriter { out, sep: "" }
    }

    fn key(&mut self, key: &str) {
        let _ = write!(self.out, "{}\"{key}\": ", self.sep);
        self.sep = ", ";
    }

    /// A value spelled by its `Display`: numbers, booleans, `null`.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// A string value, escaped only when it needs to be.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        if value.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            self.out.push_str(&json_escape(value));
        } else {
            self.out.push_str(value);
        }
        self.out.push('"');
        self
    }

    /// A nested row.
    pub fn nested(&mut self, key: &str, fields: impl FnOnce(&mut RowWriter<'_>)) -> &mut Self {
        self.raw(key, row(fields))
    }

    /// `value`, or `null` when there is none.
    pub fn opt(&mut self, key: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(v) => self.raw(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Closes the row.
    pub fn close(&mut self) {
        self.out.push('}');
    }
}

/// One row as its own string.
pub fn row(fields: impl FnOnce(&mut RowWriter<'_>)) -> String {
    let mut out = String::new();
    let mut w = RowWriter::open(&mut out);
    fields(&mut w);
    w.close();
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One parsed row: its keys and raw value tokens, in line order, all
/// borrowed from the line. A string token keeps its quotes and escapes,
/// a nested object or array its brackets; the typed getters decode.
#[derive(Debug)]
pub struct Row<'a>(Vec<(&'a str, &'a str)>);

/// Index just past the string whose opening quote is at `s[at]`.
fn string_end(s: &[u8], at: usize) -> Option<usize> {
    let mut i = at + 1;
    while *s.get(i)? != b'"' {
        i += if s[i] == b'\\' { 2 } else { 1 };
    }
    Some(i + 1)
}

/// Index just past the value token starting at `s[at]`: a string, a
/// balanced object/array, or a bare word (number, `true`, `null`...).
fn value_end(s: &[u8], at: usize) -> Option<usize> {
    match *s.get(at)? {
        b'"' => string_end(s, at),
        b'{' | b'[' => {
            let (mut depth, mut i) = (0usize, at);
            loop {
                match *s.get(i)? {
                    b'"' => i = string_end(s, i)? - 1,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    _ => {}
                }
                i += 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        _ => {
            let word = |b: &u8| !b.is_ascii_whitespace() && !b",:{}[]\"".contains(b);
            let len = s[at..].iter().take_while(|b| word(b)).count();
            (len > 0).then_some(at + len)
        }
    }
}

/// Undoes [`json_escape`] (and the rest of JSON's escapes); `None` on a
/// malformed escape.
fn unescape(raw: &str) -> Option<Cow<'_, str>> {
    if !raw.contains('\\') {
        return Some(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex = chars.as_str().get(..4)?;
                chars = chars.as_str()[4..].chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            c @ ('"' | '\\' | '/') => c,
            _ => return None,
        });
    }
    Some(Cow::Owned(out))
}

impl<'a> Row<'a> {
    /// Parses one `{...}` row; `None` unless `line` (surrounding
    /// whitespace aside) is exactly one well-formed object.
    pub fn parse(line: &'a str) -> Option<Row<'a>> {
        let text = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let s = text.as_bytes();
        let skip_ws = |mut i: usize| {
            while s.get(i).is_some_and(u8::is_ascii_whitespace) {
                i += 1;
            }
            i
        };
        // `Some(index after it)` when `s[i]` is `byte`.
        let expect = |i: usize, byte: u8| (*s.get(i)? == byte).then_some(i + 1);
        let mut fields = Vec::with_capacity(12);
        let mut i = skip_ws(0);
        while i < s.len() {
            if !fields.is_empty() {
                i = skip_ws(expect(i, b',')?);
            }
            let key_end = string_end(s, expect(i, b'"')? - 1)?;
            let at = skip_ws(expect(skip_ws(key_end), b':')?);
            let end = value_end(s, at)?;
            fields.push((&text[i + 1..key_end - 1], &text[at..end]));
            i = skip_ws(end);
        }
        Some(Row(fields))
    }

    fn token(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    fn field<T>(&self, key: &str, read: impl FnOnce(&'a str) -> Option<T>) -> Result<T, String> {
        self.token(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or malformed field \"{key}\""))
    }

    /// A number or boolean field, parsed straight into `T` — an integer
    /// type reads an integer (no detour through `f64`), out-of-range is
    /// an error, and `null` is not a number.
    ///
    /// # Errors
    /// Names the field when it is absent or not a `T` — as the other
    /// getters do for their types.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.field(key, |v| v.parse().ok())
    }

    /// A string field, unescaped (borrowed when it held no backslash).
    pub fn str(&self, key: &str) -> Result<Cow<'a, str>, String> {
        self.field(key, |v| unescape(v.strip_prefix('"')?.strip_suffix('"')?))
    }

    /// A nested object or array, as the raw slice of the line.
    pub fn nested(&self, key: &str) -> Result<&'a str, String> {
        self.field(key, |v| v.starts_with(['{', '[']).then_some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip_every_value_kind() {
        let nasty = "called `Result::unwrap()` on an `Err` value: \"boom\" \\ \n\t\u{1} é ✓ | {[,";
        let mut line = String::new();
        let mut w = RowWriter::open(&mut line);
        w.raw("index", 18_446_744_073_709_551_615u64)
            .opt("gone", None::<u64>)
            .raw("ok", true)
            .raw("ratio", 0.1f64 + 0.2)
            .str("plain", "obs_queue=10 pf_buffer=8")
            .str("error", nasty)
            .nested("inner", |n| {
                n.str("k", "}\"]").raw("v", -3);
            })
            .raw("list", "[1, {\"a\": \"]\"}]");
        w.close();
        assert!(!line.contains('\n'), "rows are single lines: {line}");
        assert!(line.starts_with("{\"index\": 18446744073709551615, \"gone\": null, "));

        let row = Row::parse(&line).expect("own row parses");
        // Above 2^53: an f64 round trip would have lost the low bits.
        assert_eq!(row.get("index"), Ok(u64::MAX));
        assert!(row.get::<u32>("index").is_err(), "out of range is an error");
        assert!(row.get::<f64>("gone").is_err() && row.get::<bool>("gone").is_err());
        assert_eq!(row.get("ok"), Ok(true));
        // Shortest-round-trip Display: bit-exact, not approximate.
        assert_eq!(
            row.get("ratio").map(f64::to_bits),
            Ok((0.1f64 + 0.2).to_bits())
        );
        assert!(matches!(row.str("plain"), Ok(Cow::Borrowed(_))));
        assert_eq!(row.str("error").as_deref(), Ok(nasty));
        let inner = Row::parse(row.nested("inner").unwrap()).unwrap();
        assert_eq!(inner.str("k").as_deref(), Ok("}\"]"));
        assert_eq!(inner.get::<i64>("v"), Ok(-3));
        assert_eq!(
            inner.get::<u64>("v"),
            Err("missing or malformed field \"v\"".into())
        );
        assert_eq!(row.nested("list"), Ok("[1, {\"a\": \"]\"}]"));
        assert!(row.get::<u64>("absent").is_err() && row.str("absent").is_err());
        // Wrong type asked for is an error, not a coercion.
        assert!(row.get::<u64>("plain").is_err() && row.str("index").is_err());
    }

    #[test]
    fn reader_rejects_malformed_rows_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1 \"b\": 2}",
            "{\"a\": \"unterminated}",
            "{\"a\": \"trailing backslash\\",
            "{\"a\": {\"b\": 1}",
            "{\"a\": [1, 2}}}",
            "{\"a\": 1} trailing",
            "{a: 1}",
            "{\"a\": 1 2}",
        ] {
            assert!(Row::parse(bad).is_none(), "accepted {bad:?}");
        }
        assert!(Row::parse(" {} ").is_some_and(|r| r.str("a").is_err()));
        // Nothing writes arrays of rows: a trailing separator is junk.
        assert!(Row::parse("{\"a\": 1},").is_none());
        // A misspelt bare word is a token no typed getter accepts.
        assert!(Row::parse("{\"a\": tru}").is_some_and(|r| r.get::<bool>("a").is_err()));
        // Escapes the writer never emits still decode; bad ones fail.
        let row = Row::parse(r#"{"a": "é\/\b", "b": "\x", "c": "\u12"}"#).unwrap();
        assert_eq!(row.str("a").as_deref(), Ok("é/\u{8}"));
        assert!(row.str("b").is_err() && row.str("c").is_err());
    }

    #[test]
    fn seal_detects_any_truncation_flip_or_extension() {
        let sealed = seal("{\"a\": 1}|not the hash");
        assert_eq!(unseal(&sealed), Some("{\"a\": 1}|not the hash"));
        for cut in 0..sealed.len() {
            assert_eq!(unseal(&sealed[..cut]), None, "cut at {cut}");
        }
        // Every change of every byte, the hash's case and sign included
        // (`from_str_radix` alone would take `A` for `a`, or a `+`).
        for i in 0..sealed.len() {
            for mask in 1..=255u8 {
                let mut bytes = sealed.clone().into_bytes();
                bytes[i] ^= mask;
                if let Ok(s) = String::from_utf8(bytes) {
                    assert_eq!(unseal(&s), None, "flip {mask:#x} at {i}");
                }
            }
        }
        assert_eq!(unseal(&format!("{sealed}{sealed}")), None);
        assert_eq!(unseal("no frame at all\n"), None);
        // `push_sealed` frames exactly what `seal` does, after what the
        // buffer already holds.
        let mut out = String::from("kept");
        push_sealed(&mut out, |w| {
            w.raw("a", 1);
        });
        assert_eq!(out, format!("kept{}", seal("{\"a\": 1}")));
    }
}
