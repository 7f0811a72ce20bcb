//! Robustness of the JSON spec layer: arbitrary (garbage) specs must never
//! panic — every failure mode is a typed error.

use compc::session::{restore_sessions, SpecSession, SpecSessionError};
use compc::spec::{NodeSpec, SystemSpec};
use compc_core::CheckOptions;
use compc_json::{Value, Writer};
use proptest::prelude::*;

/// A short random lowercase identifier (1–4 chars), built from combinators
/// so the strategy needs no regex support.
fn arb_word() -> impl Strategy<Value = String> {
    (1usize..=4, 0u32..26, 0u32..26, 0u32..26, 0u32..26).prop_map(|(len, a, b, c, d)| {
        [a, b, c, d][..len]
            .iter()
            .map(|&x| char::from(b'a' + x as u8))
            .collect()
    })
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("q\"x".to_string()),
        Just("b\\s".to_string()),
        Just("😀a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("S".to_string()),
        Just("missing".to_string()),
        arb_word(),
    ]
}

fn arb_node() -> impl Strategy<Value = NodeSpec> {
    (
        arb_name(),
        prop_oneof![
            Just("root".to_string()),
            Just("subtx".to_string()),
            Just("leaf".to_string()),
            Just("bogus".to_string()),
        ],
        proptest::option::of(arb_name()),
        proptest::option::of(arb_name()),
    )
        .prop_map(|(name, kind, parent, home)| NodeSpec {
            name,
            kind,
            parent,
            home,
        })
}

fn arb_pairs() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((arb_name(), arb_name()), 0..5)
}

/// The spec reader's reference: the tree parser and the tree walker that
/// read specs before the one-pass reader, kept as they were.
mod reference {
    use compc::spec::{NodeSpec, SpecError, SystemSpec, SPEC_VERSION};
    use compc_json::{ParseError, Value, MAX_DEPTH};

    /// Parse a complete JSON document, rejecting trailing garbage and
    /// arrays or objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("unexpected trailing characters"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects open around `pos`.
        depth: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: impl Into<String>) -> ParseError {
            let mut line = 1;
            let mut col = 1;
            for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
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

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected '{}'", b as char)))
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            match self.peek() {
                Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err(format!(
                    "arrays and objects nested deeper than {MAX_DEPTH} levels"
                ))),
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, ParseError>,
        ) -> Result<Value, ParseError> {
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(format!("invalid literal (expected '{word}')")))
            }
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
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
                    Some(_) => {
                        // Consume the run of plain characters up to the next
                        // quote, escape or control byte. Those are ASCII, so
                        // the run is whole UTF-8 scalars of the input `&str`.
                        let start = self.pos;
                        while self
                            .peek()
                            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                        {
                            self.pos += 1;
                        }
                        let run = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(run);
                    }
                }
            }
        }

        fn unicode_escape(&mut self) -> Result<char, ParseError> {
            // self.pos is at the 'u'.
            let hex4 = |p: &Self, at: usize| -> Result<u32, ParseError> {
                let slice = p
                    .bytes
                    .get(at..at + 4)
                    .ok_or_else(|| p.err("truncated \\u escape"))?;
                let s = std::str::from_utf8(slice).map_err(|_| p.err("bad \\u escape"))?;
                u32::from_str_radix(s, 16).map_err(|_| p.err("bad \\u escape"))
            };
            let hi = hex4(self, self.pos + 1)?;
            self.pos += 5;
            if (0xD800..0xDC00).contains(&hi) {
                // High surrogate: require a following \uXXXX low surrogate.
                if self.bytes.get(self.pos) == Some(&b'\\')
                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                {
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

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut entries: Vec<(String, Value)> = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                if entries.iter().any(|(k, _)| *k == key) {
                    return Err(self.err(format!("duplicate object key \"{key}\"")));
                }
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                entries.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
    }

    fn parse_err(msg: impl Into<String>) -> SpecError {
        SpecError::Parse(msg.into())
    }

    fn expect_string(v: &Value, ctx: impl FnOnce() -> String) -> Result<String, SpecError> {
        v.as_str().map(str::to_string).ok_or_else(|| {
            parse_err(format!(
                "{}: expected a string, got {}",
                ctx(),
                v.type_name()
            ))
        })
    }

    fn expect_array<'v>(v: &'v Value, ctx: &str) -> Result<&'v [Value], SpecError> {
        v.as_array()
            .ok_or_else(|| parse_err(format!("{ctx}: expected an array, got {}", v.type_name())))
    }

    fn expect_string_list(v: &Value, ctx: &str) -> Result<Vec<String>, SpecError> {
        (0..)
            .zip(expect_array(v, ctx)?)
            .map(|(i, item)| expect_string(item, || format!("{ctx}[{i}]")))
            .collect()
    }

    fn expect_pair_list(v: &Value, ctx: &str) -> Result<Vec<(String, String)>, SpecError> {
        (0..)
            .zip(expect_array(v, ctx)?)
            .map(|(i, item)| {
                let pair = item
                    .as_array()
                    .ok_or_else(|| parse_err(format!("{ctx}[{i}]: expected a [from, to] pair")))?;
                if pair.len() != 2 {
                    return Err(parse_err(format!(
                        "{ctx}[{i}]: expected exactly 2 names, got {}",
                        pair.len()
                    )));
                }
                Ok((
                    expect_string(&pair[0], || format!("{ctx}[{i}][0]"))?,
                    expect_string(&pair[1], || format!("{ctx}[{i}][1]"))?,
                ))
            })
            .collect()
    }

    fn node_from_json(v: &Value, idx: usize) -> Result<NodeSpec, SpecError> {
        let ctx = || format!("nodes[{idx}]");
        let entries = v.as_object().ok_or_else(|| {
            parse_err(format!(
                "{}: expected an object, got {}",
                ctx(),
                v.type_name()
            ))
        })?;
        let mut name = None;
        let mut kind = None;
        let mut parent = None;
        let mut home = None;
        for (key, val) in entries {
            let field = || format!("{}.{key}", ctx());
            match key.as_str() {
                "name" => name = Some(expect_string(val, field)?),
                "kind" => kind = Some(expect_string(val, field)?),
                "parent" => parent = Some(expect_string(val, field)?),
                "home" => home = Some(expect_string(val, field)?),
                other => {
                    return Err(parse_err(format!("{}: unknown field \"{other}\"", ctx())));
                }
            }
        }
        let name = name.ok_or_else(|| parse_err(format!("{}: missing \"name\"", ctx())))?;
        let kind =
            kind.ok_or_else(|| parse_err(format!("{} (\"{name}\"): missing \"kind\"", ctx())))?;
        Ok(NodeSpec {
            name,
            kind,
            parent,
            home,
        })
    }

    /// A spec from JSON text: the whole text as a tree, then the tree.
    pub fn spec(input: &str) -> Result<SystemSpec, SpecError> {
        let value = parse(input).map_err(|e| SpecError::Parse(e.to_string()))?;
        from_json(&value)
    }

    fn from_json(value: &Value) -> Result<SystemSpec, SpecError> {
        let entries = value.as_object().ok_or_else(|| {
            parse_err(format!(
                "top level: expected an object, got {}",
                value.type_name()
            ))
        })?;
        let mut spec = SystemSpec {
            auto_propagate: true,
            ..SystemSpec::default()
        };
        for (key, val) in entries {
            match key.as_str() {
                "version" => {
                    let v = val
                        .as_u64()
                        .ok_or_else(|| parse_err("version: expected a non-negative integer"))?;
                    if v != SPEC_VERSION {
                        return Err(SpecError::UnsupportedVersion(v));
                    }
                    spec.version = v;
                }
                "schedules" => spec.schedules = expect_string_list(val, "schedules")?,
                "nodes" => {
                    spec.nodes = expect_array(val, "nodes")?
                        .iter()
                        .enumerate()
                        .map(|(i, item)| node_from_json(item, i))
                        .collect::<Result<_, _>>()?;
                }
                "conflicts" => spec.conflicts = expect_pair_list(val, "conflicts")?,
                "output_weak" => spec.output_weak = expect_pair_list(val, "output_weak")?,
                "output_strong" => spec.output_strong = expect_pair_list(val, "output_strong")?,
                "input_weak" => spec.input_weak = expect_pair_list(val, "input_weak")?,
                "input_strong" => spec.input_strong = expect_pair_list(val, "input_strong")?,
                "tx_weak" => spec.tx_weak = expect_pair_list(val, "tx_weak")?,
                "tx_strong" => spec.tx_strong = expect_pair_list(val, "tx_strong")?,
                "auto_propagate" => {
                    spec.auto_propagate = val
                        .as_bool()
                        .ok_or_else(|| parse_err("auto_propagate: expected a boolean"))?;
                }
                other => {
                    return Err(parse_err(format!("top level: unknown field \"{other}\"")));
                }
            }
        }
        Ok(spec)
    }
}

/// The checkpoint reader's reference: the tree path that validated a
/// checkpoint document before the one-pass reader reported its own
/// errors, kept as it was. The whole text is parsed as a tree; the
/// layout's fields, then every session's fields are checked on the tree;
/// then each session's spec is read from its place in the text and built,
/// in session order.
mod checkpoint_reference {
    use compc::session::{SpecSession, SpecSessionError, DEFAULT_SESSION};
    use compc::spec::{SpecError, SystemSpec, SPEC_VERSION};
    use compc_core::CheckOptions;
    use compc_json::{ParseError, Reader, Value};

    /// One session of a checkpoint document.
    struct CheckpointEntry {
        /// The session's name; `None` in the single-session layout.
        name: Option<String>,
        /// The recorded append count.
        appends: u64,
    }

    /// Restores the sessions of `text`: each session's name, recorded
    /// append count and session.
    pub fn restore(text: &str) -> Result<Vec<(String, u64, SpecSession)>, SpecSessionError> {
        let doc = compc_json::parse(text)
            .map_err(|e| SpecSessionError::Checkpoint(format!("not JSON: {e}")))?;
        tree_entries(&doc)?
            .into_iter()
            .enumerate()
            .map(|(index, entry)| {
                let spec = read_entry_spec(text, entry.name.is_some().then_some(index))?;
                let mut session = SpecSession::with_options(CheckOptions::default());
                if !spec.nodes.is_empty() {
                    session.append_all(std::slice::from_ref(&spec))?;
                }
                let appends = entry.appends.max(session.stats().appends);
                let name = entry.name.unwrap_or_else(|| DEFAULT_SESSION.to_string());
                Ok((name, appends, session))
            })
            .collect()
    }

    /// Reads the spec of session `entry` (`None` in the single-session
    /// layout) of a checkpoint that [`tree_entries`] accepted.
    fn read_entry_spec(text: &str, entry: Option<usize>) -> Result<SystemSpec, SpecError> {
        // Opens the object that comes next and moves to the value of `key`.
        fn seek(r: &mut Reader<'_>, key: &str) -> Result<(), ParseError> {
            r.begin_object()?;
            while r.next_key()?.is_some_and(|k| k != key) {
                r.skip()?;
            }
            Ok(())
        }
        let mut r = Reader::new(text);
        if let Some(index) = entry {
            seek(&mut r, "sessions")?;
            r.begin_array()?;
            for _ in 0..index {
                r.next_item()?;
                r.skip()?;
            }
            r.next_item()?;
        }
        seek(&mut r, "spec")?;
        SystemSpec::read(&mut r)
    }

    /// Validates a parsed checkpoint document in either layout and lists
    /// its sessions; their specs are left to read.
    fn tree_entries(doc: &Value) -> Result<Vec<CheckpointEntry>, SpecSessionError> {
        let fail = |what: String| Err(SpecSessionError::Checkpoint(what));
        let Some(fields) = doc.as_object() else {
            return fail("top level must be an object".into());
        };
        let Some(sessions) = doc.get("sessions") else {
            return Ok(vec![checkpoint_entry(fields, None)?]);
        };
        for (key, val) in fields {
            match key.as_str() {
                "version" => check_version(val).map_err(SpecSessionError::Checkpoint)?,
                "sessions" => {}
                other => return fail(format!("unknown field \"{other}\"")),
            }
        }
        let Some(sessions) = sessions.as_array() else {
            return fail("\"sessions\" must be an array".into());
        };
        let mut entries: Vec<CheckpointEntry> = Vec::with_capacity(sessions.len());
        for (index, session) in sessions.iter().enumerate() {
            let Some(fields) = session.as_object() else {
                return fail(format!("sessions[{index}] must be an object"));
            };
            let entry = checkpoint_entry(fields, Some(index))?;
            let Some(name) = &entry.name else {
                return fail(format!("sessions[{index}] is missing \"session\""));
            };
            if entries.iter().any(|e| e.name.as_ref() == Some(name)) {
                return fail(format!("duplicate session \"{name}\""));
            }
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Reads one session's fields: the whole single-session document
    /// (`index` = `None`: `version`, `appends`, `spec`) or element `index`
    /// of `"sessions"` (`session`, `appends`, `spec`). `spec` is required;
    /// any other field is an error.
    fn checkpoint_entry(
        fields: &[(String, Value)],
        index: Option<usize>,
    ) -> Result<CheckpointEntry, SpecSessionError> {
        let at = index.map_or_else(String::new, |i| format!("sessions[{i}]: "));
        let fail = |what: &str| SpecSessionError::Checkpoint(format!("{at}{what}"));
        let mut name = None;
        let mut appends = 0u64;
        let mut spec = false;
        for (key, val) in fields {
            match (key.as_str(), index) {
                ("version", None) => check_version(val).map_err(|e| fail(&e))?,
                ("session", Some(_)) => {
                    let text = val.as_str().filter(|s| !s.is_empty());
                    name = Some(
                        text.ok_or_else(|| fail("session must be a non-empty string"))?
                            .to_string(),
                    );
                }
                ("appends", _) => {
                    appends = val
                        .as_u64()
                        .ok_or_else(|| fail("appends must be an integer"))?;
                }
                ("spec", _) => spec = true,
                (other, _) => return Err(fail(&format!("unknown field \"{other}\""))),
            }
        }
        if !spec {
            return Err(fail("missing \"spec\" field"));
        }
        Ok(CheckpointEntry { name, appends })
    }

    /// Accepts only the checkpoint format version this build writes.
    fn check_version(val: &Value) -> Result<(), String> {
        match val.as_u64() {
            Some(SPEC_VERSION) => Ok(()),
            Some(v) => Err(format!("unsupported checkpoint version {v}")),
            None => Err("version must be an integer".into()),
        }
    }
}

/// The writer's reference: the tree builder and the recursive tree writer
/// that wrote JSON before the streaming writer, kept as they were.
mod write_reference {
    use compc::spec::{SystemSpec, SPEC_VERSION};
    use compc_json::Value;

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

    /// `v` written compact (`indent` = `None`) or pretty (`Some(2)`).
    pub fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
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

    /// The spec as the tree `SystemSpec::to_json` built before it was
    /// written by the streaming writer.
    pub fn spec_tree(spec: &SystemSpec) -> Value {
        let pairs = |rel: &[(String, String)]| -> Value {
            Value::Array(
                rel.iter()
                    .map(|(a, b)| {
                        Value::Array(vec![Value::from(a.as_str()), Value::from(b.as_str())])
                    })
                    .collect(),
            )
        };
        let mut entries: Vec<(String, Value)> = vec![
            ("version".into(), Value::from(SPEC_VERSION)),
            (
                "schedules".into(),
                Value::Array(
                    spec.schedules
                        .iter()
                        .map(|s| Value::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "nodes".into(),
                Value::Array(
                    spec.nodes
                        .iter()
                        .map(|n| {
                            let mut e: Vec<(String, Value)> = vec![
                                ("name".into(), Value::from(n.name.as_str())),
                                ("kind".into(), Value::from(n.kind.as_str())),
                            ];
                            if let Some(p) = &n.parent {
                                e.push(("parent".into(), Value::from(p.as_str())));
                            }
                            if let Some(h) = &n.home {
                                e.push(("home".into(), Value::from(h.as_str())));
                            }
                            Value::Object(e)
                        })
                        .collect(),
                ),
            ),
        ];
        for (key, rel) in [
            ("conflicts", &spec.conflicts),
            ("output_weak", &spec.output_weak),
            ("output_strong", &spec.output_strong),
            ("input_weak", &spec.input_weak),
            ("input_strong", &spec.input_strong),
            ("tx_weak", &spec.tx_weak),
            ("tx_strong", &spec.tx_strong),
        ] {
            if !rel.is_empty() {
                entries.push((key.into(), pairs(rel)));
            }
        }
        entries.push(("auto_propagate".into(), Value::Bool(spec.auto_propagate)));
        Value::Object(entries)
    }
}

/// Characters that exercise every escape the writer makes and the runs it
/// copies whole: quote, backslash, the named and the `\u` control
/// escapes, DEL (written raw), multi-byte and astral characters.
const WRITE_PALETTE: [char; 16] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '😀',
];

/// Finite numbers the writer formats in each of its ways: integers up to
/// 2^53 in magnitude, the next integers past it, fractions and exponents.
const WRITE_NUMBERS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -7.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    0.5,
    -2.25,
    1e300,
    1.5e-7,
    123_456_789.0,
];

/// A string of palette characters.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..WRITE_PALETTE.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| WRITE_PALETTE[i]).collect())
}

/// The next draw below `n` of the xorshift generator at `seed`.
fn draw(seed: &mut u64, n: u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed % n
}

/// A string of up to four palette characters drawn from `seed`.
fn text_from(seed: &mut u64) -> String {
    let len = draw(seed, 5);
    (0..len)
        .map(|_| WRITE_PALETTE[draw(seed, WRITE_PALETTE.len() as u64) as usize])
        .collect()
}

/// A pseudo-random JSON tree drawn from `seed`: up to `depth` levels of
/// empty and non-empty arrays and objects, palette strings and keys,
/// `WRITE_NUMBERS` and integers up to 2^53.
fn value_from(seed: &mut u64, depth: usize) -> Value {
    match draw(seed, if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(draw(seed, 2) == 1),
        2 => Value::Num(WRITE_NUMBERS[draw(seed, WRITE_NUMBERS.len() as u64) as usize]),
        3 => Value::Num(draw(seed, (1 << 53) + 1) as f64),
        4 => Value::Str(text_from(seed)),
        5 => {
            let len = draw(seed, 4);
            Value::Array((0..len).map(|_| value_from(seed, depth - 1)).collect())
        }
        _ => {
            let len = draw(seed, 4);
            Value::Object(
                (0..len)
                    .map(|i| {
                        (
                            format!("{i}{}", text_from(seed)),
                            value_from(seed, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

/// `v` streamed through the writer's call API, not [`Writer::value`].
fn stream(w: &mut Writer<'_>, v: &Value) {
    match v {
        Value::Null => {
            w.null();
        }
        Value::Bool(b) => {
            w.bool(*b);
        }
        Value::Num(n) => {
            w.num(*n);
        }
        Value::Str(s) => {
            w.str(s);
        }
        Value::Array(items) => {
            w.begin_array();
            for item in items {
                stream(w, item);
            }
            w.end_array();
        }
        Value::Object(entries) => {
            w.begin_object();
            for (key, val) in entries {
                w.key(key);
                stream(w, val);
            }
            w.end_object();
        }
    }
}

/// The `k`-th value of `v` in preorder (`v` itself is the 0th).
fn nth_value<'v>(v: &'v mut Value, k: &mut usize) -> Option<&'v mut Value> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    let children: Vec<&mut Value> = match v {
        Value::Array(items) => items.iter_mut().collect(),
        Value::Object(entries) => entries.iter_mut().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for child in children {
        if let Some(found) = nth_value(child, k) {
            return Some(found);
        }
    }
    None
}

fn count_values(v: &Value) -> usize {
    1 + match v {
        Value::Array(items) => items.iter().map(count_values).sum(),
        Value::Object(entries) => entries.iter().map(|(_, v)| count_values(v)).sum(),
        _ => 0,
    }
}

/// A value of another type than `v`'s.
fn other_type(v: &Value, pick: u64) -> Value {
    let all = [
        Value::Null,
        Value::Bool(true),
        Value::Num(3.0),
        Value::Str("x".into()),
        Value::Array(vec![Value::Str("y".into())]),
        Value::Object(vec![]),
    ];
    let others: Vec<Value> = all
        .into_iter()
        .filter(|o| o.type_name() != v.type_name())
        .collect();
    others[pick as usize % others.len()].clone()
}

/// Retypes a value at random; `None` if `doc` has no value past its root.
fn swap_type(doc: &mut Value, pick: u64) -> bool {
    let n = count_values(doc);
    let mut k = 1 + pick as usize % (n - 1).max(1);
    match nth_value(doc, &mut k) {
        Some(v) => {
            *v = other_type(v, pick / 7);
            true
        }
        None => false,
    }
}

/// The object entries of the document's nodes.
fn node_objects(doc: &mut Value) -> Vec<&mut Vec<(String, Value)>> {
    let Value::Object(top) = doc else {
        return Vec::new();
    };
    top.iter_mut()
        .filter(|(k, _)| k == "nodes")
        .flat_map(|(_, v)| match v {
            Value::Array(items) => items.iter_mut().collect(),
            _ => Vec::new(),
        })
        .filter_map(|n| match n {
            Value::Object(entries) => Some(entries),
            _ => None,
        })
        .collect()
}

/// Cuts `text` at a char boundary at or before `at`.
fn cut(text: &str, at: usize) -> &str {
    let mut at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    &text[..at]
}

/// `text` with a syntax error at its end, drawn from `b`: its last byte
/// cut, trailing garbage, or a `]` doubled.
fn break_syntax(text: String, b: u64) -> String {
    match b % 3 {
        0 => cut(&text, text.len() - 1).to_string(),
        1 => text + " x",
        _ => text.replacen(']', "]]", 1 + (b / 3) as usize % 3),
    }
}

/// `text` with one character, at a byte drawn from `b`, replaced by a
/// JSON delimiter drawn from `a`.
fn replace_byte(text: &str, a: u64, b: u64) -> String {
    let at = cut(text, b as usize % (text.len() + 1)).len();
    let mut out = text[..at].to_string();
    let delimiters = b"{}[],:\"\\ 0-t";
    out.push(delimiters[a as usize % delimiters.len()] as char);
    if let Some(c) = text[at..].chars().next() {
        out.push_str(&text[at + c.len_utf8()..]);
    }
    out
}

/// A spec's JSON text, mutated by `how` (picks drawn from `a` and `b`).
fn mutated(spec: &SystemSpec, how: u32, a: u64, b: u64) -> String {
    let mut doc = spec.to_json();
    let render = |doc: &Value| {
        if a & 1 == 0 {
            doc.to_compact()
        } else {
            doc.to_pretty()
        }
    };
    match how {
        // A field's type swapped.
        1 => {
            swap_type(&mut doc, a);
        }
        // A duplicate key at the top level.
        2 => {
            if let Value::Object(top) = &mut doc {
                let entry = top[a as usize % top.len()].clone();
                let at = b as usize % (top.len() + 1);
                top.insert(at, entry);
            }
        }
        // A duplicate key in a node.
        3 => {
            let mut nodes = node_objects(&mut doc);
            if !nodes.is_empty() {
                let n = nodes.len();
                let node = &mut nodes[a as usize % n];
                let entry = node[b as usize % node.len()].clone();
                node.push(entry);
            }
        }
        // An unknown field, at the top level or in a node.
        4 => {
            let field = ("mystery".to_string(), Value::Num(1.0));
            let mut nodes = node_objects(&mut doc);
            if a & 1 == 1 && !nodes.is_empty() {
                let n = nodes.len();
                let node = &mut nodes[b as usize % n];
                let at = (b / 7) as usize % (node.len() + 1);
                node.insert(at, field);
            } else if let Value::Object(top) = &mut doc {
                let at = b as usize % (top.len() + 1);
                top.insert(at, field);
            }
        }
        // Truncation at a random byte.
        5 => {
            let text = render(&doc);
            return cut(&text, b as usize % (text.len() + 1)).to_string();
        }
        // Trailing garbage.
        6 => {
            let garbage = [" x", "}", ",", " {}", "\n\"", " 1"];
            return render(&doc) + garbage[b as usize % garbage.len()];
        }
        // Escaped characters spelled as \u escapes (names already carry
        // quotes, backslashes and astral characters).
        7 => {
            return render(&doc)
                .replace('😀', "\\ud83d\\ude00")
                .replace('a', "\\u0061");
        }
        // Nesting past MAX_DEPTH in place of some value.
        8 => {
            let mut deep = Value::Str("z".into());
            for _ in 0..=compc_json::MAX_DEPTH + (b as usize % 3) {
                deep = Value::Array(vec![deep]);
            }
            let n = count_values(&doc);
            let mut k = a as usize % n;
            if let Some(v) = nth_value(&mut doc, &mut k) {
                *v = deep;
            }
        }
        // A syntax error after a shape error.
        9 => {
            swap_type(&mut doc, a);
            return break_syntax(render(&doc), b);
        }
        // One byte replaced by a JSON delimiter.
        10 => return replace_byte(&render(&doc), a, b),
        _ => {}
    }
    render(&doc)
}

/// The `k`-th object of `v` in preorder, as its entries.
fn nth_object<'v>(v: &'v mut Value, k: &mut usize) -> Option<&'v mut Vec<(String, Value)>> {
    match v {
        Value::Object(entries) => {
            if *k == 0 {
                return Some(entries);
            }
            *k -= 1;
            entries.iter_mut().find_map(|(_, v)| nth_object(v, k))
        }
        Value::Array(items) => items.iter_mut().find_map(|v| nth_object(v, k)),
        _ => None,
    }
}

fn count_objects(v: &Value) -> usize {
    match v {
        Value::Object(entries) => 1 + entries.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Value::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// A random object of `doc` (picked by `pick`), as its entries.
fn some_object(doc: &mut Value, pick: u64) -> Option<&mut Vec<(String, Value)>> {
    let mut k = pick as usize % count_objects(doc).max(1);
    nth_object(doc, &mut k)
}

/// A checkpoint document of `specs`: the single-session layout for one
/// unnamed session, else one session per spec named from `names`.
fn checkpoint_doc(specs: &[SystemSpec], names: &[String], single: bool, a: u64) -> Value {
    let field = |key: &str, v: Value| (key.to_string(), v);
    let mut top = Vec::new();
    if !a.is_multiple_of(5) {
        top.push(field("version", Value::Num(1.0)));
    }
    if single {
        top.push(field("appends", Value::Num((a % 4) as f64)));
        top.push(field("spec", specs[0].to_json()));
    } else {
        let sessions = specs
            .iter()
            .zip(names)
            .enumerate()
            .map(|(i, (spec, name))| {
                Value::Object(vec![
                    field("session", Value::Str(name.clone())),
                    field("appends", Value::Num(((a >> i) % 4) as f64)),
                    field("spec", spec.to_json()),
                ])
            })
            .collect();
        top.push(field("sessions", Value::Array(sessions)));
    }
    Value::Object(top)
}

/// A checkpoint document's text, mutated by `how` (picks drawn from `a`
/// and `b`): most mutations move an error between the layout, a
/// session's fields, a spec and the syntax, or reorder an object so the
/// phase order and the document order of two errors differ.
fn mutated_checkpoint(mut doc: Value, how: u32, a: u64, b: u64) -> String {
    let render = |doc: &Value| {
        if a & 1 == 0 {
            doc.to_compact()
        } else {
            doc.to_pretty()
        }
    };
    match how {
        // A value's type swapped, once or twice.
        1 | 2 => {
            swap_type(&mut doc, a);
            if how == 2 {
                swap_type(&mut doc, b);
            }
        }
        // A duplicate key in some object.
        3 => {
            if let Some(object) = some_object(&mut doc, a).filter(|o| !o.is_empty()) {
                let entry = object[b as usize % object.len()].clone();
                let at = (b / 7) as usize % (object.len() + 1);
                object.insert(at, entry);
            }
        }
        // An unknown or misplaced field in some object.
        4 => {
            let keys = [
                "mystery", "session", "spec", "appends", "version", "sessions",
            ];
            let field = (keys[b as usize % keys.len()].to_string(), Value::Num(1.0));
            if let Some(object) = some_object(&mut doc, a) {
                let at = (b / 7) as usize % (object.len() + 1);
                object.insert(at, field);
            }
        }
        // A field removed from some object.
        5 => {
            if let Some(object) = some_object(&mut doc, a).filter(|o| !o.is_empty()) {
                object.remove(b as usize % object.len());
            }
        }
        // An object's fields reordered, with a value retyped first.
        6 => {
            swap_type(&mut doc, b);
            if let Some(object) = some_object(&mut doc, a).filter(|o| !o.is_empty()) {
                let n = object.len();
                object.rotate_left(b as usize % n);
            }
        }
        // A session's name emptied or copied from another's.
        7 => {
            let names: Vec<Value> = match doc.get("sessions").and_then(Value::as_array) {
                Some(items) => items
                    .iter()
                    .filter_map(|s| s.get("session"))
                    .cloned()
                    .collect(),
                None => Vec::new(),
            };
            if let Some(object) = some_object(&mut doc, a) {
                if let Some((_, v)) = object.iter_mut().find(|(k, _)| k == "session") {
                    *v = names
                        .get(b as usize % (names.len() + 1))
                        .cloned()
                        .unwrap_or(Value::Str(String::new()));
                }
            }
        }
        // Truncation at a random byte.
        8 => {
            let text = render(&doc);
            return cut(&text, b as usize % (text.len() + 1)).to_string();
        }
        // A syntax error after a shape error.
        9 => {
            swap_type(&mut doc, a);
            return break_syntax(render(&doc), b);
        }
        // One byte replaced by a JSON delimiter.
        10 => return replace_byte(&render(&doc), a, b),
        _ => {}
    }
    render(&doc)
}

/// A restore's outcome as text: each session's name, append count and
/// rendered spec, or the error.
fn restored_text(restored: Result<Vec<(String, u64, SpecSession)>, SpecSessionError>) -> String {
    match restored {
        Ok(sessions) => sessions
            .iter()
            .map(|(name, appends, s)| format!("{name} {appends} {}", s.spec().to_compact()))
            .collect::<Vec<_>>()
            .join("; "),
        Err(e) => e.to_string(),
    }
}

/// A spec that builds, so that some sessions restore and a later
/// session's error has an earlier build to be ranked against.
fn valid_spec() -> SystemSpec {
    SystemSpec::parse(
        r#"{"schedules": ["S"], "nodes": [
            {"name": "a", "kind": "root", "home": "S"},
            {"name": "b", "kind": "root", "home": "S"},
            {"name": "c", "kind": "leaf", "parent": "a"}
        ]}"#,
    )
    .unwrap()
}

fn arb_spec() -> impl Strategy<Value = SystemSpec> {
    let arbitrary = (
        proptest::collection::vec(arb_name(), 0..3),
        proptest::collection::vec(arb_node(), 0..4),
        arb_pairs(),
        arb_pairs(),
    )
        .prop_map(|(schedules, nodes, conflicts, output_weak)| SystemSpec {
            schedules,
            nodes,
            conflicts,
            output_weak,
            ..SystemSpec::default()
        });
    prop_oneof![Just(valid_spec()), Just(SystemSpec::default()), arbitrary]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass reader reads every spec and every mutation of one as
    /// the tree parser and walker did: the same spec, or the same error
    /// text. A syntax error anywhere outranks a shape error before it.
    #[test]
    fn reader_matches_the_tree_reference(
        schedules in proptest::collection::vec(arb_name(), 0..4),
        nodes in proptest::collection::vec(arb_node(), 0..6),
        conflicts in arb_pairs(),
        output_weak in arb_pairs(),
        tx_strong in arb_pairs(),
        how in 0u32..11,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let spec = SystemSpec {
            version: 1,
            schedules,
            nodes,
            conflicts,
            output_weak,
            tx_strong,
            auto_propagate: a % 3 != 0,
            ..SystemSpec::default()
        };
        let text = mutated(&spec, how, a, b);
        let tree = compc_json::parse(&text).map_err(|e| e.to_string());
        let want_tree = reference::parse(&text).map_err(|e| e.to_string());
        prop_assert_eq!(tree, want_tree, "{}", text);
        let got = SystemSpec::parse(&text).map_err(|e| e.to_string());
        let want = reference::spec(&text).map_err(|e| e.to_string());
        prop_assert_eq!(got, want, "{}", text);
    }

    /// The checkpoint reader restores every checkpoint document and every
    /// mutation of one as the tree path did: the same sessions, or the
    /// same error text. Not JSON outranks the layout's fields, which
    /// outrank every session's fields, which outrank each session's spec
    /// and build, taken in session order.
    #[test]
    fn checkpoint_reader_matches_the_tree_reference(
        specs in proptest::collection::vec(arb_spec(), 1..4),
        names in proptest::collection::vec(arb_name(), 3),
        single in proptest::bool::ANY,
        how in 0u32..11,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let text = mutated_checkpoint(checkpoint_doc(&specs, &names, single, a), how, a, b);
        let got = restore_sessions(&text, CheckOptions::default()).map(|sessions| {
            sessions
                .into_iter()
                .map(|(name, s)| (name, s.stats().appends, s))
                .collect()
        });
        let want = checkpoint_reference::restore(&text);
        prop_assert_eq!(restored_text(got), restored_text(want), "{}", text);
    }

    /// `SystemSpec::build` is total: any input yields `Ok` or a typed
    /// error, never a panic.
    #[test]
    fn arbitrary_specs_never_panic(
        schedules in proptest::collection::vec(arb_name(), 0..4),
        nodes in proptest::collection::vec(arb_node(), 0..8),
        conflicts in arb_pairs(),
        output_weak in arb_pairs(),
        output_strong in arb_pairs(),
        input_weak in arb_pairs(),
        tx_weak in arb_pairs(),
        auto_propagate in proptest::bool::ANY,
    ) {
        let spec = SystemSpec {
            version: 1,
            schedules,
            nodes,
            conflicts,
            output_weak,
            output_strong,
            input_weak,
            input_strong: vec![],
            tx_weak,
            tx_strong: vec![],
            auto_propagate,
        };
        // Either outcome is fine; panicking is not.
        let _ = spec.build();
        // And serialization round-trips regardless of validity.
        let json = spec.to_json().to_compact();
        let back = SystemSpec::parse(&json).unwrap();
        prop_assert_eq!(spec, back);
    }

    /// The streaming writer writes what the recursive tree writer wrote,
    /// byte for byte, compact and pretty: a tree through the call API,
    /// `Value::to_compact`, `to_pretty` and `write_compact_into`, and a
    /// spec through `SystemSpec::write` against its old tree.
    #[test]
    fn writer_matches_the_tree_reference(
        seed in 1u64..1 << 62,
        schedules in proptest::collection::vec(arb_text(), 0..3),
        nodes in proptest::collection::vec(arb_node(), 0..4),
        names in proptest::collection::vec(arb_text(), 0..4),
        conflicts in arb_pairs(),
        input_strong in arb_pairs(),
        tx_weak in arb_pairs(),
        auto_propagate in proptest::bool::ANY,
    ) {
        let reference = |v: &Value, pretty: bool| {
            let mut out = String::new();
            write_reference::write_value(&mut out, v, pretty.then_some(2), 0);
            out
        };
        let mut draw = seed;
        let value = Value::Array((0..3).map(|_| value_from(&mut draw, 4)).collect());
        for pretty in [false, true] {
            let mut streamed = String::new();
            let mut w = if pretty {
                Writer::pretty(&mut streamed)
            } else {
                Writer::compact(&mut streamed)
            };
            stream(&mut w, &value);
            prop_assert_eq!(&streamed, &reference(&value, pretty));
        }
        prop_assert_eq!(value.to_compact(), reference(&value, false));
        prop_assert_eq!(value.to_pretty(), reference(&value, true));
        let mut appended = "prefix ".to_string();
        value.write_compact_into(&mut appended);
        prop_assert_eq!(appended, format!("prefix {}", reference(&value, false)));

        let mut nodes = nodes;
        for (node, name) in nodes.iter_mut().zip(names) {
            node.name = name;
        }
        let spec = SystemSpec {
            version: 1,
            schedules,
            nodes,
            conflicts,
            input_strong,
            tx_weak,
            auto_propagate,
            ..SystemSpec::default()
        };
        let tree = write_reference::spec_tree(&spec);
        prop_assert_eq!(spec.to_compact(), reference(&tree, false));
        prop_assert_eq!(spec.to_pretty(), reference(&tree, true));
        prop_assert_eq!(spec.to_json(), tree);
    }
}
