//! The fields of a request line or a journal record, read in one pass.

use crate::spec::{SpecError, SystemSpec};
use compc_json::{Kind, ParseError, Reader};

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
    /// a bad spec in `"append"`: when the pass stops there, the line is
    /// read again with `"append"` skipped, which finds the syntax error if
    /// there is one and the other fields if not.
    pub(crate) fn read(line: &str) -> Result<Envelope, ParseError> {
        let read = |r: &mut Reader<'_>| Ok(Ok(SystemSpec::read(r)?));
        match Envelope::read_fields(&mut Reader::new(line), read) {
            Ok(env) => Ok(env),
            Err(spec_error) => {
                let mut spec_error = Some(spec_error);
                let skip = |r: &mut Reader<'_>| {
                    r.skip()?;
                    Ok(Err(spec_error.take().expect("one \"append\" field")))
                };
                Envelope::read_fields(&mut Reader::new(line), skip)
            }
        }
    }

    /// Reads the whole line, the value of `"append"` with `append`; fails
    /// on a syntax error or an error `append` returns.
    fn read_fields<E: From<ParseError>>(
        r: &mut Reader<'_>,
        mut append: impl FnMut(&mut Reader<'_>) -> Result<Result<SystemSpec, SpecError>, E>,
    ) -> Result<Envelope, E> {
        let mut env = Envelope {
            session: None,
            seq: None,
            op: None,
            append: None,
        };
        if r.peek()? != Kind::Object {
            r.skip()?;
        } else {
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
                    ("append", _) => env.append = Some(append(r)?),
                    _ => r.skip()?,
                }
            }
        }
        r.end()?;
        Ok(env)
    }
}
