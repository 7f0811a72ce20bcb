//! The fields of a request line or a journal record, read in one pass.

use crate::spec::{SpecError, SystemSpec};
use compc_json::{Kind, ParseError, Reader, Value};

/// What the daemon reads of a request line or a journal record: one JSON
/// object whose other keys are ignored.
pub(crate) struct Envelope {
    /// `"session"`: `Some(None)` when it is not a non-empty string.
    pub(crate) session: Option<Option<String>>,
    /// `"seq"`, if it is an integer.
    pub(crate) seq: Option<u64>,
    /// `"op"`, if it is a string.
    pub(crate) op: Option<String>,
    /// `"append"`: the spec it holds, or why it holds none.
    pub(crate) append: Option<Result<SystemSpec, SpecError>>,
}

impl Envelope {
    /// Reads `line` in one pass, without building a JSON tree. A line that
    /// is not JSON is an error wherever its syntax error lies, even after
    /// a bad spec in `"append"`: when the pass stops early, the line is
    /// parsed again as a tree to decide.
    pub(crate) fn read(line: &str) -> Result<Envelope, ParseError> {
        let mut r = Reader::new(line);
        match Envelope::read_fields(&mut r).and_then(|env| Ok(r.end().map(|()| env)?)) {
            Ok(env) => Ok(env),
            Err(spec_error) => Ok(Envelope::of_tree(&compc_json::parse(line)?, spec_error)),
        }
    }

    /// Reads the fields; fails on a syntax error or a spec error.
    fn read_fields(r: &mut Reader<'_>) -> Result<Envelope, SpecError> {
        let mut env = Envelope {
            session: None,
            seq: None,
            op: None,
            append: None,
        };
        if r.peek()? != Kind::Object {
            r.skip()?;
            return Ok(env);
        }
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match (&*key, r.peek()?) {
                ("session", Kind::Str) => {
                    let name = r.str()?;
                    env.session = Some((!name.is_empty()).then(|| name.into_owned()));
                }
                ("session", _) => {
                    r.skip()?;
                    env.session = Some(None);
                }
                ("seq", Kind::Num) => env.seq = r.u64()?,
                ("op", Kind::Str) => env.op = Some(r.str()?.into_owned()),
                ("append", _) => env.append = Some(Ok(SystemSpec::read(r)?)),
                _ => r.skip()?,
            }
        }
        Ok(env)
    }

    /// The fields of a line that parses, whose one-pass read stopped at
    /// `spec_error` in `"append"`.
    fn of_tree(line: &Value, spec_error: SpecError) -> Envelope {
        Envelope {
            session: line
                .get("session")
                .map(|v| v.as_str().filter(|s| !s.is_empty()).map(str::to_string)),
            seq: line.get("seq").and_then(Value::as_u64),
            op: line.get("op").and_then(Value::as_str).map(str::to_string),
            append: line.get("append").map(|_| Err(spec_error)),
        }
    }
}
