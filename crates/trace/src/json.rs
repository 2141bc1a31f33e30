//! The workspace's one JSON codec. Every JSON text the workspace writes or
//! reads goes through [`Json`]: trace lines (JSONL) and their Chrome twin,
//! `BENCH_*.json` records, repro artifacts and the snapshot debug view.
//! A number keeps its text, so a `u64` reads back exactly, and an object
//! keeps its keys in order, so a value always renders to the same bytes.
//! [`Json::to_compact`] writes no whitespace (one JSONL line);
//! [`Json::to_pretty`] puts a container whose members are all scalars on
//! one line (`[2, 16]`) and any other one member per line, indented 2
//! spaces per level.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; its keys are distinct and keep their order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from {
    ($($t:ty),* => |$v:ident| $json:expr) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}
from!(u8, u16, u32, u64, usize => |v| Json::Num(v.to_string()));
from!(bool => |v| Json::Bool(v));
from!(&str => |v| Json::Str(v.to_string()));
from!(String => |v| Json::Str(v));

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object of `members`, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` as a `0x`-prefixed, 16-digit hex string: a 64-bit digest can
    /// exceed the integers every JSON reader holds exactly (2^53).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// The value as a `u64`, if it is an unsigned integer that fits one.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value on one line, with no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The value in the pretty layout, ending with a newline.
    pub fn to_pretty(&self) -> String {
        format!("{self}\n")
    }

    /// Writes the value at nesting `depth` of the pretty layout, or
    /// compact when `depth` is `None`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, "{}", members);
            }
        }
    }
}

/// The compact text of an array of `items`, each rendered as it comes: a
/// long stream of records is never held as one [`Json`].
pub fn compact_array(items: impl IntoIterator<Item = Json>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        item.write(&mut out, None);
    }
    out + "]"
}

/// The pretty layout without the final newline: how a scalar or a
/// container of scalars shows in a one-line message.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        f.write_str(&out)
    }
}

/// The member `key` of an object; a missing one reads as `null`.
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        let Json::Obj(members) = self else {
            return &NULL;
        };
        members
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&NULL, |(_, v)| v)
    }
}

/// A container's members (each with its key, in an object) between the
/// two `brackets`: on one line when compact or all scalars, else one per
/// line a level deeper than `depth`.
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let scalar = |(_, v): (Option<&str>, &Json)| !matches!(v, Json::Arr(_) | Json::Obj(_));
    let (sep, colon, inner) = match depth {
        None => (",", ":", None),
        Some(_) if members.clone().all(scalar) => (", ", ": ", None),
        Some(d) => (",", ": ", Some(d + 1)),
    };
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in members.enumerate() {
        out.push_str(if i > 0 { sep } else { "" });
        inner.inspect(|d| newline(out, *d));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(colon);
        }
        value.write(out, inner);
    }
    inner.inspect(|d| newline(out, d - 1));
    out.push_str(&brackets[1..]);
}

/// `s` as a JSON string literal: `"` and `\` escaped by a backslash, a
/// control character as `\u00xx`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deeper nesting is refused: the parser recurses once per level.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, which must be the whole of `text` (give or
/// take whitespace). An object may not repeat a key.
///
/// # Errors
///
/// What is wrong, and at which byte.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, rest: text };
    let value = p.value(0)?;
    match p.eat("") && p.rest.is_empty() {
        true => Ok(value),
        false => p.err("trailing characters"),
    }
}

/// Parses one JSON object, such as a JSONL trace line, into a key map.
///
/// # Errors
///
/// As [`parse`], and a document that is not an object.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Json>, String> {
    match parse(line)? {
        Json::Obj(members) => Ok(members.into_iter().collect()),
        _ => Err("not a JSON object".to_string()),
    }
}

type Res<T> = Result<T, String>;

/// A parse in progress: `rest` is what is left of `text`.
struct Parser<'t> {
    text: &'t str,
    rest: &'t str,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Res<T> {
        Err(format!(
            "byte {}: {what}",
            self.text.len() - self.rest.len()
        ))
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
        let rest = self.rest.strip_prefix(token);
        self.rest = rest.unwrap_or(self.rest);
        rest.is_some()
    }

    fn value(&mut self, depth: usize) -> Res<Json> {
        if depth > MAX_DEPTH {
            return self.err("nested too deeply");
        }
        if self.eat("[") {
            return self.list("]", |p| p.value(depth + 1)).map(Json::Arr);
        }
        if self.eat("{") {
            let members = self.list("}", |p| {
                let key = p.string()?;
                match p.eat(":") {
                    true => Ok((key, p.value(depth + 1)?)),
                    false => p.err("expected ':'"),
                }
            })?;
            let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            return match keys.windows(2).find(|pair| pair[0] == pair[1]) {
                Some(pair) => self.err(&format!("duplicate key {:?}", pair[0])),
                None => Ok(Json::Obj(members)),
            };
        }
        if self.rest.starts_with('"') {
            return self.string().map(Json::Str);
        }
        for (word, value) in [
            ("null", Json::Null),
            ("true", true.into()),
            ("false", false.into()),
        ] {
            if self.eat(word) {
                return Ok(value);
            }
        }
        self.number()
    }

    /// Comma-separated items, each read by `item`, up to `close`.
    fn list<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        let mut items = Vec::new();
        while !self.eat(close) {
            if !items.is_empty() && !self.eat(",") {
                return self.err(&format!("expected ',' or '{close}'"));
            }
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as its text.
    fn number(&mut self) -> Res<Json> {
        let end = self.rest.find(|c: char| !"+-.eE0123456789".contains(c));
        let (text, rest) = self.rest.split_at(end.unwrap_or(self.rest.len()));
        let body = text.strip_prefix('-').unwrap_or(text);
        let (mantissa, exp) = body.split_once(['e', 'E']).unwrap_or((body, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let int_ok = digits(int) && (int == "0" || !int.starts_with('0'));
        if !(int_ok && digits(frac) && digits(exp)) {
            return self.err("expected a value");
        }
        self.rest = rest;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Res<String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let end = self.rest.find(|c| c == '"' || c == '\\' || c < ' ');
            let (plain, rest) = self.rest.split_at(end.unwrap_or(self.rest.len()));
            out.push_str(plain);
            let Some(next) = rest.bytes().next() else {
                return self.err("unterminated string");
            };
            self.rest = &rest[1..];
            match next {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return self.err("control character in a string"),
            }
        }
    }

    /// The character an escape stands for, after its `\`: a `\uXXXX` high
    /// surrogate takes the `\uXXXX` low one after it.
    fn escape(&mut self) -> Res<char> {
        let next = self.rest.bytes().next();
        self.rest = self.rest.get(1..).unwrap_or_default();
        let mut code = match next {
            Some(b'u') => self.hex4(),
            Some(c @ (b'"' | b'\\' | b'/')) => u32::from(c),
            Some(b'b') => 0x8,
            Some(b'f') => 0xc,
            Some(b'n') => 0xa,
            Some(b'r') => 0xd,
            Some(b't') => 0x9,
            _ => u32::MAX,
        };
        if let (0xd800..0xdc00, Some(rest)) = (code, self.rest.strip_prefix("\\u")) {
            self.rest = rest;
            let low = self.hex4().checked_sub(0xdc00).filter(|low| *low < 0x400);
            code = low.map_or(u32::MAX, |low| 0x10000 + ((code - 0xd800) << 10) + low);
        }
        char::from_u32(code).map_or_else(|| self.err("bad escape"), Ok)
    }

    /// The four hex digits next, or `u32::MAX` (no character) if they are
    /// not there.
    fn hex4(&mut self) -> u32 {
        match self.rest.get(..4) {
            Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                self.rest = &self.rest[4..];
                u32::from_str_radix(hex, 16).unwrap_or(u32::MAX)
            }
            _ => u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_control_character_quote_and_backslash_round_trips() {
        let mut all: String = (0u8..0x20).map(char::from).collect();
        all.push_str("\"\\é");
        let text = Json::from(all.as_str()).to_compact();
        assert!(text.bytes().all(|b| b >= b' '), "{text}");
        assert_eq!(parse(&text), Ok(Json::Str(all)));
        assert_eq!(Json::from("a\"b\\c\nd").to_compact(), r#""a\"b\\c\u000ad""#);
        let escapes = r#""\/\b\f\n\r\té𝄞""#;
        assert_eq!(parse(escapes), Ok("/\u{8}\u{c}\n\r\té𝄞".into()));
    }

    #[test]
    fn u64_max_reads_back_exactly() {
        let text = Json::obj([("n", u64::MAX.into())]).to_compact();
        assert_eq!(text, r#"{"n":18446744073709551615}"#);
        assert_eq!(parse(&text).unwrap()["n"].as_int(), Some(u64::MAX));
        for not_a_u64 in ["18446744073709551616", "-1", "1.0", "1e3"] {
            assert_eq!(parse(not_a_u64).unwrap().as_int(), None, "{not_a_u64}");
        }
    }

    #[test]
    fn duplicate_keys_are_an_error() {
        assert!(parse(r#"{"a":1,"b":2,"a":3}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1,"a":1}"#).is_err());
        assert!(parse(r#"[{"a":1},{"a":1}]"#).is_ok());
    }

    #[test]
    fn malformed_input_is_an_error() {
        let table = ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":1} x", "\"open", "tru"];
        let numbers = ["01", "1.", "-", "1e", "[1 2]", "{,}"];
        let strings = [r#""\x""#, r#""\ud834""#, "\"\u{1}\""];
        for bad in table.into_iter().chain(numbers).chain(strings) {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        assert!(parse_flat_object("[]").is_err());
    }

    #[test]
    fn compact_and_pretty_layouts_read_back() {
        let codec = Json::obj([("bytes", 12u64.into()), ("fnv", Json::hex(7))]);
        let (pair, rows): (Json, _) = (vec![2u64, 16].into(), vec![Json::obj([("k", Json::Null)])]);
        let doc = Json::obj([("pair", pair), ("codec", codec), ("rows", rows.into())]);
        let compact = r#"{"pair":[2,16],"codec":{"bytes":12,"fnv":"0x0000000000000007"},"rows":[{"k":null}]}"#;
        let pretty = "{\n  \"pair\": [2, 16],\n  \"codec\": {\"bytes\": 12, \"fnv\": \
                      \"0x0000000000000007\"},\n  \"rows\": [\n    {\"k\": null}\n  ]\n}\n";
        assert_eq!(doc.to_compact(), compact);
        assert_eq!(doc.to_pretty(), pretty);
        assert_eq!((parse(compact), parse(pretty)), (Ok(doc.clone()), Ok(doc)));
        assert_eq!(Json::Arr(Vec::new()).to_pretty(), "[]\n");
        let items = vec![Json::Arr(Vec::new()), Json::Null];
        assert_eq!(compact_array(items.clone()), Json::Arr(items).to_compact());
    }
}
