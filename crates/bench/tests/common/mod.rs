//! What the bin suites share: a bin runner, a scratch directory, and a
//! JSON reader for what the bins write (`BENCH_*.json`, repro artifacts,
//! Chrome traces, `snapshot --inspect`). Each suite pulls this in with
//! `mod common;`; what one does not use is dead code there.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

/// The path of the bench bin named `bin`.
pub fn exe(bin: &str) -> &'static str {
    match bin {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "fig10" => env!("CARGO_BIN_EXE_fig10"),
        "parallel_sweep" => env!("CARGO_BIN_EXE_parallel_sweep"),
        "oracle" => env!("CARGO_BIN_EXE_oracle"),
        "repro" => env!("CARGO_BIN_EXE_repro"),
        "snapshot" => env!("CARGO_BIN_EXE_snapshot"),
        "lineage" => env!("CARGO_BIN_EXE_lineage"),
        other => panic!("no bin {other}"),
    }
}

/// Runs `bin` with `args`, asserts its exit code and returns its stdout
/// and stderr.
pub fn run(bin: &str, args: &[&str], code: i32) -> (String, String) {
    let mut command = Command::new(exe(bin));
    let out = command.args(args).output().expect("bin runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    let what = format!("{bin} {args:?}\n{stdout}{stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}");
    (stdout, stderr)
}

/// A fresh directory under the system temp dir, one per test.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sde-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// A JSON value. A number keeps its text, and a string the text between
/// its quotes (escapes checked, not decoded): equal counts compare equal
/// however large they are.
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; the whole text must be consumed.
    pub fn parse(text: &str) -> Res<Json> {
        let mut rest = text;
        let value = value(&mut rest)?;
        match eat(&mut rest, "") && rest.is_empty() {
            true => Ok(value),
            false => Err(format!("trailing bytes at {rest:.20}")),
        }
    }

    /// Reads and parses the file at `path`.
    pub fn read(path: &Path) -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
    }

    /// The member `key` of an object, which must be present.
    pub fn at(&self, key: &str) -> &Json {
        let found = match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key),
            _ => None,
        };
        &found.unwrap_or_else(|| panic!("no {key:?} in {self:?}")).1
    }

    pub fn u64(&self) -> u64 {
        match self {
            Json::Num(n) => n.parse().expect("a count"),
            _ => panic!("{self:?} is not a number"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("{self:?} is not a string"),
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("{self:?} is not an array"),
        }
    }
}

type Res<T> = Result<T, String>;

/// How many bytes at the front of `bytes` are in `set`.
fn span(bytes: &[u8], set: &[u8]) -> usize {
    bytes.iter().take_while(|b| set.contains(b)).count()
}

/// Skips whitespace at the front of `s`, then consumes `token` if it
/// comes next.
fn eat(s: &mut &str, token: &str) -> bool {
    *s = &s[span(s.as_bytes(), b" \t\n\r")..];
    let rest = s.strip_prefix(token);
    *s = rest.unwrap_or(s);
    rest.is_some()
}

/// Comma-separated items, each read by `item`, up to `close`.
fn list<T>(s: &mut &str, close: &str, item: fn(&mut &str) -> Res<T>) -> Res<Vec<T>> {
    let mut items = Vec::new();
    while !eat(s, close) {
        if !items.is_empty() && !eat(s, ",") {
            return Err(format!("expected , or {close} at {s:.20}"));
        }
        items.push(item(s)?);
    }
    Ok(items)
}

fn member(s: &mut &str) -> Res<(String, Json)> {
    let key = string(s)?;
    match eat(s, ":") {
        true => Ok((key, value(s)?)),
        false => Err(format!("expected : at {s:.20}")),
    }
}

fn value(s: &mut &str) -> Res<Json> {
    if eat(s, "{") {
        return list(s, "}", member).map(Json::Obj);
    }
    if eat(s, "[") {
        return list(s, "]", value).map(Json::Arr);
    }
    if s.starts_with('"') {
        return string(s).map(Json::Str);
    }
    let number = &s[..span(s.as_bytes(), b"+-.eE0123456789")];
    let words = [
        ("null", Json::Null),
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
    ];
    let (text, value) = match words.into_iter().find(|(w, _)| s.starts_with(w)) {
        Some(word) => word,
        None if number.parse::<f64>().is_ok() => (number, Json::Num(number.to_string())),
        None => return Err(format!("bad value at {s:.20}")),
    };
    *s = &s[text.len()..];
    Ok(value)
}

/// A string's text between its quotes, escapes checked, not decoded.
fn string(s: &mut &str) -> Res<String> {
    if !eat(s, "\"") {
        return Err(format!("expected a string at {s:.20}"));
    }
    let bytes = s.as_bytes();
    let mut end = 0;
    loop {
        end += match bytes.get(end) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => break,
            Some(b'\\') => match bytes.get(end + 1) {
                Some(b'u') if span(&bytes[end + 2..], b"0123456789abcdefABCDEF") >= 4 => 6,
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 2,
                _ => return Err(format!("bad escape at {:.20}", &s[end..])),
            },
            Some(b) if *b < b' ' => return Err(format!("control byte in {:.20}", &s[..end])),
            Some(_) => 1,
        };
    }
    let text = s[..end].to_string();
    *s = &s[end + 1..];
    Ok(text)
}
