//! Dependency-free JSON for the compc workspace.
//!
//! The build environment is fully offline, so instead of serde this crate
//! has one lexer, the pull [`Reader`], with two APIs over it. A caller that
//! knows the shape it expects walks the text with the reader itself
//! (`begin_object`, `next_key`, `begin_array`, `next_item`, strings
//! borrowed from the input) and builds its own types without an
//! intermediate tree; the spec loader does. [`parse`] builds a [`Value`]
//! tree with the same reader. Either way every syntax error carries a
//! line/column position, duplicate keys are found in time linear in the
//! object, and nesting stops at [`MAX_DEPTH`]. Compact and pretty writers
//! render a [`Value`]; object key order is preserved (insertion order),
//! which keeps emitted specs diffable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; written without a fraction when
    /// integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// `&str` view if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `bool` view if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Non-negative integer view if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// Slice view if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Entry-list view if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Look up `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// One-word description of the node's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Num(_) => Kind::Num,
            Value::Str(_) => Kind::Str,
            Value::Array(_) => Kind::Array,
            Value::Object(_) => Kind::Object,
        }
        .name()
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Compact rendering appended to a caller-owned buffer, so hot paths
    /// (the serve journal writes one record per acked append) can reuse
    /// one scratch allocation instead of paying a fresh `String` per call.
    pub fn write_compact_into(&self, out: &mut String) {
        write_value(out, self, None, 0);
    }

    /// Indented multi-line rendering.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

/// `n` as a non-negative integer, if it is one exactly and at most 2^53.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}

impl_from_int!(u8, u16, u32, u64, usize, i32, i64);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest. The tree parser recurses once
/// per level, so without a bound a line of `[`s would overflow the stack;
/// the deepest document this workspace reads (a daemon request carrying a
/// spec) nests 5 levels.
pub const MAX_DEPTH: usize = 64;

/// Objects with up to this many keys find a duplicate key by comparing it
/// with each earlier one; larger objects hash their keys.
const SMALL_OBJECT: usize = 16;

/// Parse a complete JSON document, rejecting trailing garbage and arrays
/// or objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.end()?;
    Ok(v)
}

/// The type of the next value, known from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Kind {
    /// One-word description, as [`Value::type_name`] gives it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "boolean",
            Kind::Num => "number",
            Kind::Str => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A pull reader over one JSON document: the crate's only lexer.
///
/// The caller walks the document value by value. [`Reader::peek`] names
/// the next value's [`Kind`]; a scalar is read with [`Reader::str`] (which
/// borrows from the input unless the string has escapes), [`Reader::u64`]
/// or [`Reader::bool`]; a container
/// is opened with [`Reader::begin_object`] or [`Reader::begin_array`] and
/// walked with [`Reader::next_key`] or [`Reader::next_item`], each of which
/// must be followed by reading exactly one value. [`Reader::skip`] passes
/// over a value and [`Reader::value`] builds it as a [`Value`] tree
/// ([`parse`] is that over a whole document); [`Reader::end`] checks that
/// nothing follows the document. Nesting, duplicate keys and every syntax
/// error are checked as [`parse`] checks them, with the same messages and
/// positions: a walk that reads a whole document without error read a
/// document [`parse`] accepts.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// The open arrays and objects, outermost first: `open[..depth]`.
    open: [Frame; MAX_DEPTH],
    depth: usize,
    /// The keys read so far of each open object that has at most
    /// [`SMALL_OBJECT`] keys, outermost first.
    keys: KeyStack<'a>,
    /// The keys of each open object that has more, outermost first.
    sets: Vec<HashSet<Cow<'a, str>>>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Frame {
    object: bool,
    /// No item or entry read yet.
    first: bool,
    /// The object's keys are in the last of `sets`, not in `keys`.
    hashed: bool,
    /// Where the object's keys start in `keys`.
    keys_from: u32,
}

/// Keys a reader holds without allocating: more than the open objects of
/// a spec or a daemon request hold at once.
const INLINE_KEYS: usize = 32;

/// A stack of keys, inline while it holds at most [`INLINE_KEYS`].
#[derive(Debug)]
struct KeyStack<'a> {
    inline: [Cow<'a, str>; INLINE_KEYS],
    len: usize,
    /// The keys past the first [`INLINE_KEYS`].
    spilled: Vec<Cow<'a, str>>,
}

impl<'a> KeyStack<'a> {
    fn new() -> Self {
        KeyStack {
            inline: std::array::from_fn(|_| Cow::Borrowed("")),
            len: 0,
            spilled: Vec::new(),
        }
    }

    fn push(&mut self, key: Cow<'a, str>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = key,
            None => self.spilled.push(key),
        }
        self.len += 1;
    }

    /// The keys from position `from` on.
    fn since(&self, from: usize) -> impl Iterator<Item = &Cow<'a, str>> {
        self.inline[from.min(INLINE_KEYS)..self.len.min(INLINE_KEYS)]
            .iter()
            .chain(&self.spilled[from.saturating_sub(INLINE_KEYS)..])
    }

    fn truncate(&mut self, len: usize) {
        self.spilled.truncate(len.saturating_sub(INLINE_KEYS));
        self.len = len;
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            open: [Frame::default(); MAX_DEPTH],
            depth: 0,
            keys: KeyStack::new(),
            sets: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.text.as_bytes()[..self.pos.min(self.text.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// The kind of the next value; an error if no value starts there.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Kind::Num),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Opens the object that comes next.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.begin(b'{')
    }

    /// Opens the array that comes next.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.begin(b'[')
    }

    fn begin(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek_byte() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(self.err(format!(
                "arrays and objects nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.expect(bracket)?;
        self.open[self.depth] = Frame {
            object: bracket == b'{',
            first: true,
            hashed: false,
            keys_from: self.keys.len as u32,
        };
        self.depth += 1;
        Ok(())
    }

    /// Moves past the `,` before the innermost container's next item or
    /// entry, or past its closing bracket: true if an item or entry
    /// follows. `close` is `]` or `}`.
    fn more(&mut self, close: u8, what: &str) -> Result<bool, ParseError> {
        let frame = &mut self.open[self.depth - 1];
        debug_assert_eq!(frame.object, close == b'}');
        let first = std::mem::replace(&mut frame.first, false);
        self.skip_ws();
        match self.peek_byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ => Err(self.err(format!("expected ',' or '{}' in {what}", close as char))),
        }
    }

    /// Pops the innermost frame and the keys of its object.
    fn close(&mut self) {
        self.depth -= 1;
        let frame = self.open[self.depth];
        if frame.hashed {
            self.sets.pop();
        } else if frame.object {
            self.keys.truncate(frame.keys_from as usize);
        }
    }

    /// The next key of the innermost open object, with the reader at its
    /// value; `None` once the object has closed. A key the object already
    /// has is an error.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.more(b'}', "object")? {
            return Ok(None);
        }
        let key = self.string()?;
        if !self.record_key(key.clone()) {
            return Err(self.err(format!("duplicate object key \"{key}\"")));
        }
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Records a key of the innermost object; false if it has the key.
    fn record_key(&mut self, key: Cow<'a, str>) -> bool {
        let frame = &mut self.open[self.depth - 1];
        if frame.hashed {
            return self
                .sets
                .last_mut()
                .expect("hashed keys")
                .insert(key.clone());
        }
        let from = frame.keys_from as usize;
        if self.keys.since(from).any(|k| *k == key) {
            return false;
        }
        if self.keys.len - from < SMALL_OBJECT {
            self.keys.push(key);
        } else {
            // Past linear search: the object's keys move to a hash set.
            frame.hashed = true;
            let mut set: HashSet<_> = self.keys.since(from).cloned().collect();
            set.insert(key);
            self.sets.push(set);
            self.keys.truncate(from);
        }
        true
    }

    /// Whether the innermost open array has another item, with the reader
    /// at it; false once the array has closed.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.more(b']', "array")
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn end(&mut self) -> Result<(), ParseError> {
        debug_assert_eq!(self.depth, 0, "end() inside an array or object");
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.err("unexpected trailing characters"));
        }
        Ok(())
    }

    /// Reads the next value as a tree.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let val = self.value()?;
                    entries.push((key.into_owned(), val));
                }
                Value::Object(entries)
            }
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Num => Value::Num(self.number()?),
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Null => {
                self.null()?;
                Value::Null
            }
        })
    }

    /// Reads past the next value, checking it as [`Reader::value`] would,
    /// without building it.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        let level = self.depth;
        loop {
            match self.peek()? {
                Kind::Object => self.begin_object()?,
                Kind::Array => self.begin_array()?,
                Kind::Str => {
                    self.string()?;
                }
                Kind::Num => {
                    self.number()?;
                }
                Kind::Bool => {
                    self.bool()?;
                }
                Kind::Null => self.null()?,
            }
            // Close what ended, up to the next value still inside.
            loop {
                if self.depth == level {
                    return Ok(());
                }
                let more = if self.open[self.depth - 1].object {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Reads a string; borrowed from the input unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.string()
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.peek_byte() == Some(b'f') {
            self.literal("false").map(|()| false)
        } else {
            self.literal("true").map(|()| true)
        }
    }

    fn null(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.literal("null")
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(r.peek_byte(), Some(b) if b.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    /// Reads a number, as an integer if it is one [`Value::as_u64`] takes.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        self.number().map(exact_u64)
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("invalid literal (expected '{word}')")))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let plain = self.plain_run();
        if self.peek_byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = plain.to_string();
        loop {
            match self.peek_byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek_byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    /// Consumes the run of plain characters up to the next quote, escape
    /// or control byte. Those are ASCII, so the run is whole UTF-8 scalars
    /// of the input.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while self
            .peek_byte()
            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // self.pos is at the 'u'.
        let hex4 = |r: &Self, at: usize| -> Result<u32, ParseError> {
            let slice = r
                .text
                .as_bytes()
                .get(at..at + 4)
                .ok_or_else(|| r.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(slice).map_err(|_| r.err("bad \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| r.err("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            let bytes = self.text.as_bytes();
            if bytes.get(self.pos) == Some(&b'\\') && bytes.get(self.pos + 1) == Some(&b'u') {
                let lo = hex4(self, self.pos + 2)?;
                self.pos += 6;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }
}

/// Build an object value from `(key, value)` pairs.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_documents() {
        let src = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "hi\nthere"}"#;
        let v = parse(src).unwrap();
        let compact = v.to_compact();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.to_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"zebra": 1, "apple": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["zebra", "apple"]);
    }

    #[test]
    fn reports_positions() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("true"));
    }

    #[test]
    fn rejects_trailing_garbage_and_duplicates() {
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("line1\nline2\t\"quoted\" \\ \u{1F600}".to_string());
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        let surrogate = parse(r#""😀""#).unwrap();
        assert_eq!(surrogate.as_str().unwrap(), "\u{1F600}");
    }

    /// Plain runs between escapes keep multi-byte characters whole, and a
    /// raw control character still ends the run with an error.
    #[test]
    fn plain_runs_keep_multibyte_characters() {
        let v = parse("\"añ\\n日😀\\\"x\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "añ\n日😀\"x");
        assert!(parse("\"a\u{01}b\"").is_err());
    }

    /// Nesting up to the limit parses; one level more fails at the
    /// offending bracket instead of overflowing the stack, however deep
    /// the input goes.
    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = parse(&arrays(n)).unwrap_err();
            assert_eq!((err.line, err.col), (1, MAX_DEPTH + 1));
            assert!(err.msg.contains("nested deeper than 64"), "{}", err.msg);
        }
        // Objects count toward the same limit.
        let objects = |n: usize| r#"{"k":"#.repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.col, 5 * MAX_DEPTH + 1);
    }

    /// Duplicate keys are found in time linear in the object: 80,000
    /// distinct keys parse, and the first duplicate in document order is
    /// reported after its closing quote, in small and large objects alike.
    #[test]
    fn duplicate_keys_are_found_in_large_objects() {
        let n = 80_000;
        let keys: Vec<String> = (0..n).map(|i| format!("\"k{i}\":1")).collect();
        let wide = format!("{{{}}}", keys.join(","));
        let start = std::time::Instant::now();
        assert_eq!(parse(&wide).unwrap().as_object().unwrap().len(), n);
        // A quadratic check took seconds here; allow a slow debug build.
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());

        let twice = format!("{{{},\"k7\":2,\"k3\":2}}", keys.join(","));
        let err = parse(&twice).unwrap_err();
        assert_eq!(err.msg, "duplicate object key \"k7\"");
        assert_eq!((err.line, err.col), (1, wide.len() + 5));

        let small = parse(r#"{"a":1, "b":{"a":1}, "a" :2}"#).unwrap_err();
        assert_eq!(
            (small.line, small.col, small.msg.as_str()),
            (1, 25, "duplicate object key \"a\"")
        );
        // Keys compare unescaped, as the tree stores them.
        assert!(parse(r#"{"a":1,"\u0061":2}"#).is_err());
    }

    /// Keys are tracked per object through nesting: past the linear-search
    /// size, and past the keys a reader holds without allocating.
    #[test]
    fn duplicate_keys_are_per_object() {
        let keys = |prefix: &str, n: usize| -> String {
            (0..n).map(|i| format!("\"{prefix}{i}\":1,")).collect()
        };
        // An object hashed its keys, then holds an object with the same keys.
        let inner = format!("{{{}\"last\":2}}", keys("k", 20));
        let doc = format!("{{{}\"in\":{inner},\"k20\":3}}", keys("k", 20));
        assert!(parse(&doc).is_ok());
        let dup = format!("{{{}\"in\":{inner},\"k19\":3}}", keys("k", 20));
        let err = parse(&dup).unwrap_err();
        assert_eq!(
            (err.col, err.msg.as_str()),
            (dup.len() - 2, "duplicate object key \"k19\"")
        );
        // Eight nested objects of six keys each: 48 keys open at once.
        let mut deep = String::new();
        for level in 0..8 {
            deep += &format!("{{{}\"next\":", keys(&format!("l{level}_"), 5));
        }
        let closed = deep.clone() + "1" + &"}".repeat(8);
        assert!(parse(&closed).is_ok());
        let reopened = deep.clone() + "1" + &"}".repeat(4) + ",\"l3_4\":0" + &"}".repeat(4);
        assert_eq!(
            parse(&reopened).unwrap_err().msg,
            "duplicate object key \"l3_4\""
        );
        let fresh = deep + "1" + &"}".repeat(4) + ",\"l4_4\":0" + &"}".repeat(4);
        assert!(parse(&fresh).is_ok());
    }

    /// A walk with the pull reader: borrowed strings without escapes, owned
    /// ones with them, skipped values checked like parsed ones.
    #[test]
    fn reader_walks_a_document() {
        let text = r#" {"name": "plain", "esc": "a\"b", "skip": [1, {"x": null}], "n": 7} "#;
        let mut r = Reader::new(text);
        assert_eq!(r.peek().unwrap(), Kind::Object);
        r.begin_object().unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match &*key {
                "name" | "esc" => {
                    let s = r.str().unwrap();
                    seen.push((
                        key.to_string(),
                        matches!(s, Cow::Borrowed(_)),
                        s.into_owned(),
                    ));
                }
                "n" => assert_eq!(r.u64().unwrap(), Some(7)),
                _ => r.skip().unwrap(),
            }
        }
        r.end().unwrap();
        assert_eq!(
            seen,
            [
                ("name".to_string(), true, "plain".to_string()),
                ("esc".to_string(), false, "a\"b".to_string())
            ]
        );

        for bad in [r#"[{"x":1,"x":2}]"#, r#"[1,]"#, r#"[{"a" 1}]"#] {
            let mut r = Reader::new(bad);
            assert_eq!(r.skip().unwrap_err(), parse(bad).unwrap_err(), "{bad}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(
            Reader::new(&deep).skip().unwrap_err(),
            parse(&deep).unwrap_err()
        );
    }

    #[test]
    fn integers_write_without_fraction() {
        assert_eq!(Value::from(42u64).to_compact(), "42");
        assert_eq!(Value::from(2.5f64).to_compact(), "2.5");
    }
}
