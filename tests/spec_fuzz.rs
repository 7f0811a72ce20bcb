//! Robustness of the JSON spec layer: arbitrary (garbage) specs must never
//! panic — every failure mode is a typed error.

use compc::spec::{NodeSpec, SystemSpec};
use compc_json::Value;
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
            let text = render(&doc);
            return match b % 3 {
                0 => cut(&text, text.len() - 1).to_string(),
                1 => text + " x",
                _ => text.replacen(']', "]]", 1 + (b / 3) as usize % 3),
            };
        }
        // One byte replaced by a JSON delimiter.
        10 => {
            let text = render(&doc);
            let at = cut(&text, b as usize % (text.len() + 1)).len();
            let mut out = text[..at].to_string();
            let delimiters = b"{}[],:\"\\ 0-t";
            out.push(delimiters[a as usize % delimiters.len()] as char);
            if let Some(c) = text[at..].chars().next() {
                out.push_str(&text[at + c.len_utf8()..]);
            }
            return out;
        }
        _ => {}
    }
    render(&doc)
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
}
