//! A JSON-friendly description of composite systems.
//!
//! [`SystemSpec`] lets executions be written down (or logged by an external
//! component system) as plain data and fed to the checker without writing
//! Rust — the `compc-check` CLI consumes exactly this format:
//!
//! ```json
//! {
//!   "version": 1,
//!   "schedules": ["middleware", "db"],
//!   "nodes": [
//!     { "name": "T1", "kind": "root", "home": "middleware" },
//!     { "name": "u1", "kind": "subtx", "parent": "T1", "home": "db" },
//!     { "name": "r1", "kind": "leaf", "parent": "u1" }
//!   ],
//!   "conflicts": [["r1", "r2"]],
//!   "output_weak": [["r1", "r2"]],
//!   "auto_propagate": true
//! }
//! ```
//!
//! The `"version"` field is optional (it defaults to the current version,
//! [`SPEC_VERSION`]) but is rejected when it names a version this build does
//! not understand — forward-incompatible documents fail loudly instead of
//! being misread. Node order matters only in that parents must be declared
//! before their children. All relations refer to nodes by name, and every
//! load error names the offending node or relation entry.

use compc_json::{Kind, ParseError, Reader, Value, Writer};
use compc_model::{
    CompositeSystem, ModelError, NodeId, NodeRole, OrderPair, SchedId, SystemBuilder,
};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

/// The spec format version this build reads and writes.
pub const SPEC_VERSION: u64 = 1;

/// One node of the computational forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Unique display name.
    pub name: String,
    /// `"root"`, `"subtx"` or `"leaf"`.
    pub kind: String,
    /// Required for `subtx` and `leaf`: the parent transaction's name.
    pub parent: Option<String>,
    /// Required for `root` and `subtx`: the home schedule's name.
    pub home: Option<String>,
}

/// A whole composite system as declarative data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemSpec {
    /// Format version (see [`SPEC_VERSION`]).
    pub version: u64,
    /// Schedule names (components).
    pub schedules: Vec<String>,
    /// The forest, parents before children.
    pub nodes: Vec<NodeSpec>,
    /// Conflicting operation pairs (per the pair's common schedule).
    pub conflicts: Vec<(String, String)>,
    /// Weak output-order pairs `a ≺_S b`.
    pub output_weak: Vec<(String, String)>,
    /// Strong output-order pairs `a ≪_S b`.
    pub output_strong: Vec<(String, String)>,
    /// Weak input-order pairs `t → t'`.
    pub input_weak: Vec<(String, String)>,
    /// Strong input-order pairs `t →→ t'`.
    pub input_strong: Vec<(String, String)>,
    /// Weak intra-transaction order pairs `o ≺_t o'`.
    pub tx_weak: Vec<(String, String)>,
    /// Strong intra-transaction order pairs `o ≪_t o'`.
    pub tx_strong: Vec<(String, String)>,
    /// Apply Definition 4.7 automatically after loading (recommended).
    pub auto_propagate: bool,
}

impl Default for SystemSpec {
    fn default() -> Self {
        SystemSpec {
            version: SPEC_VERSION,
            schedules: Vec::new(),
            nodes: Vec::new(),
            conflicts: Vec::new(),
            output_weak: Vec::new(),
            output_strong: Vec::new(),
            input_weak: Vec::new(),
            input_strong: Vec::new(),
            tx_weak: Vec::new(),
            tx_strong: Vec::new(),
            auto_propagate: true,
        }
    }
}

/// Errors when reading or materializing a [`SystemSpec`].
#[derive(Debug)]
pub enum SpecError {
    /// The document is not valid JSON, or a field has the wrong shape. The
    /// message names the offending position or field.
    Parse(String),
    /// The document declares a format version this build does not know.
    UnsupportedVersion(u64),
    /// A name was referenced but never declared; `context` names the
    /// relation entry or node field that referenced it.
    UnknownName {
        /// The undeclared name.
        name: String,
        /// Where it was referenced, e.g. `conflicts[2]` or `nodes[0].home`.
        context: String,
    },
    /// A name was declared twice.
    DuplicateName(String),
    /// A node's kind/parent/home combination is inconsistent; the message
    /// names the node.
    BadNode(String),
    /// The resulting system violates the model; `context` names the
    /// relation entry that triggered the violation.
    Model {
        /// The relation entry, e.g. `output_weak[3] [w1, w2]`, or
        /// `propagate_orders` / `build` for whole-system violations.
        context: String,
        /// The underlying model error.
        source: ModelError,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "spec parse error: {msg}"),
            SpecError::UnsupportedVersion(v) => write!(
                f,
                "unsupported spec version {v} (this build reads version {SPEC_VERSION})"
            ),
            SpecError::UnknownName { name, context } => {
                write!(f, "unknown name \"{name}\" in {context}")
            }
            SpecError::DuplicateName(n) => write!(f, "duplicate name: {n}"),
            SpecError::BadNode(n) => write!(f, "inconsistent node declaration: {n}"),
            SpecError::Model { context, source } => {
                write!(f, "model violation at {context}: {source}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// JSON reading
// ---------------------------------------------------------------------------

fn parse_err(msg: impl Into<String>) -> SpecError {
    SpecError::Parse(msg.into())
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e.to_string())
    }
}

/// Checks that the next value is a `want`. The error context is built only
/// on failure: a load checks a value per node field and pair endpoint.
fn expect(r: &mut Reader<'_>, want: Kind, ctx: impl FnOnce() -> String) -> Result<(), SpecError> {
    let got = r.peek()?;
    if got == want {
        return Ok(());
    }
    let want = match want {
        Kind::Str => "a string",
        Kind::Array => "an array",
        _ => "an object",
    };
    Err(parse_err(format!(
        "{}: expected {want}, got {}",
        ctx(),
        got.name()
    )))
}

fn read_string(r: &mut Reader<'_>, ctx: impl FnOnce() -> String) -> Result<String, SpecError> {
    expect(r, Kind::Str, ctx)?;
    Ok(r.str()?.into_owned())
}

fn read_string_list(r: &mut Reader<'_>, ctx: &str) -> Result<Vec<String>, SpecError> {
    expect(r, Kind::Array, || ctx.to_string())?;
    r.begin_array()?;
    let mut list = Vec::new();
    while r.next_item()? {
        list.push(read_string(r, || format!("{ctx}[{}]", list.len()))?);
    }
    Ok(list)
}

/// Reads `[from, to]` pairs. A pair's length is checked before the types
/// of its names, so a pair is read whole before either is reported.
fn read_pair_list(r: &mut Reader<'_>, ctx: &str) -> Result<Vec<(String, String)>, SpecError> {
    expect(r, Kind::Array, || ctx.to_string())?;
    r.begin_array()?;
    let mut pairs = Vec::new();
    while r.next_item()? {
        let i = pairs.len();
        if r.peek()? != Kind::Array {
            return Err(parse_err(format!("{ctx}[{i}]: expected a [from, to] pair")));
        }
        r.begin_array()?;
        let mut names = [String::new(), String::new()];
        let mut len = 0;
        let mut not_string = None;
        while r.next_item()? {
            match r.peek()? {
                Kind::Str if len < 2 => names[len] = r.str()?.into_owned(),
                kind => {
                    if len < 2 {
                        not_string.get_or_insert((len, kind));
                    }
                    r.skip()?;
                }
            }
            len += 1;
        }
        if len != 2 {
            return Err(parse_err(format!(
                "{ctx}[{i}]: expected exactly 2 names, got {len}"
            )));
        }
        if let Some((j, kind)) = not_string {
            return Err(parse_err(format!(
                "{ctx}[{i}][{j}]: expected a string, got {}",
                kind.name()
            )));
        }
        let [from, to] = names;
        pairs.push((from, to));
    }
    Ok(pairs)
}

fn read_node(r: &mut Reader<'_>, idx: usize) -> Result<NodeSpec, SpecError> {
    let ctx = || format!("nodes[{idx}]");
    expect(r, Kind::Object, ctx)?;
    r.begin_object()?;
    let mut name = None;
    let mut kind = None;
    let mut parent = None;
    let mut home = None;
    while let Some(key) = r.next_key()? {
        let slot = match &*key {
            "name" => &mut name,
            "kind" => &mut kind,
            "parent" => &mut parent,
            "home" => &mut home,
            other => {
                return Err(parse_err(format!("{}: unknown field \"{other}\"", ctx())));
            }
        };
        *slot = Some(read_string(r, || format!("{}.{key}", ctx()))?);
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

impl SystemSpec {
    /// Reads a spec from JSON text in one pass, without building a JSON
    /// tree. Errors carry source positions (for malformed JSON) or the
    /// offending field/entry (for shape problems); a syntax error anywhere
    /// in the text outranks a shape error before it.
    pub fn parse(input: &str) -> Result<SystemSpec, SpecError> {
        let mut r = Reader::new(input);
        Self::read(&mut r)
            .and_then(|spec| Ok(r.end().map(|()| spec)?))
            // On the error path only: a second pass skips the whole text,
            // building nothing, to find the first syntax error, which
            // outranks the error the first pass stopped at.
            .map_err(|e| {
                let mut r = Reader::new(input);
                match r.skip().and_then(|()| r.end()) {
                    Err(syntax) => syntax.into(),
                    Ok(()) => e,
                }
            })
    }

    /// Reads the spec value at the reader's position, stopping at the
    /// first shape error in document order. The reader may not have seen
    /// the rest of the text: whoever owns it decides between that error
    /// and a later syntax error (see [`SystemSpec::parse`]).
    pub fn read(r: &mut Reader<'_>) -> Result<SystemSpec, SpecError> {
        expect(r, Kind::Object, || "top level".into())?;
        r.begin_object()?;
        let mut spec = SystemSpec::default();
        while let Some(key) = r.next_key()? {
            if let Some(at) = RELATIONS.iter().position(|name| *name == key) {
                *spec.relations_mut()[at] = read_pair_list(r, RELATIONS[at])?;
                continue;
            }
            match &*key {
                "version" => {
                    let v = match r.peek()? {
                        Kind::Num => r.u64()?,
                        _ => None,
                    }
                    .ok_or_else(|| parse_err("version: expected a non-negative integer"))?;
                    if v != SPEC_VERSION {
                        return Err(SpecError::UnsupportedVersion(v));
                    }
                    spec.version = v;
                }
                "schedules" => spec.schedules = read_string_list(r, "schedules")?,
                "nodes" => {
                    expect(r, Kind::Array, || "nodes".into())?;
                    r.begin_array()?;
                    while r.next_item()? {
                        spec.nodes.push(read_node(r, spec.nodes.len())?);
                    }
                }
                "auto_propagate" => {
                    if r.peek()? != Kind::Bool {
                        return Err(parse_err("auto_propagate: expected a boolean"));
                    }
                    spec.auto_propagate = r.bool()?;
                }
                other => {
                    return Err(parse_err(format!("top level: unknown field \"{other}\"")));
                }
            }
        }
        Ok(spec)
    }

    /// Reads a spec from an already-parsed JSON value, by writing it out
    /// and reading the text back with [`SystemSpec::parse`].
    pub fn from_json(value: &Value) -> Result<SystemSpec, SpecError> {
        Self::parse(&value.to_compact())
    }

    /// Writes the spec as one JSON object, always stamped with the current
    /// [`SPEC_VERSION`]: `version`, `schedules`, `nodes` (`parent` and
    /// `home` only when set), each relation family that has pairs, then
    /// `auto_propagate`.
    pub fn write(&self, w: &mut Writer<'_>) {
        w.begin_object().key("version").num(SPEC_VERSION as f64);
        w.key("schedules").begin_array();
        for s in &self.schedules {
            w.str(s);
        }
        w.end_array().key("nodes").begin_array();
        for n in &self.nodes {
            w.begin_object().key("name").str(&n.name);
            w.key("kind").str(&n.kind);
            if let Some(p) = &n.parent {
                w.key("parent").str(p);
            }
            if let Some(h) = &n.home {
                w.key("home").str(h);
            }
            w.end_object();
        }
        w.end_array();
        for (key, rel) in [
            ("conflicts", &self.conflicts),
            ("output_weak", &self.output_weak),
            ("output_strong", &self.output_strong),
            ("input_weak", &self.input_weak),
            ("input_strong", &self.input_strong),
            ("tx_weak", &self.tx_weak),
            ("tx_strong", &self.tx_strong),
        ] {
            if !rel.is_empty() {
                w.key(key).begin_array();
                for (a, b) in rel {
                    w.begin_array().str(a).str(b).end_array();
                }
                w.end_array();
            }
        }
        w.key("auto_propagate")
            .bool(self.auto_propagate)
            .end_object();
    }

    /// The spec as compact JSON text ([`SystemSpec::write`]).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::compact(&mut out));
        out
    }

    /// The spec as indented JSON text ([`SystemSpec::write`]).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::pretty(&mut out));
        out
    }

    /// The spec as a JSON tree: [`SystemSpec::write`]'s text, read back.
    pub fn to_json(&self) -> Value {
        compc_json::parse(&self.to_compact()).expect("the writer writes JSON")
    }
}

// ---------------------------------------------------------------------------
// Building the system
// ---------------------------------------------------------------------------

/// A spec's relation families, in the order [`SystemSpec::build`] applies
/// them.
pub(crate) const RELATIONS: [&str; 7] = [
    "conflicts",
    "tx_weak",
    "tx_strong",
    "output_weak",
    "output_strong",
    "input_weak",
    "input_strong",
];

impl SystemSpec {
    /// The relation families in [`RELATIONS`] order.
    pub(crate) fn relations(&self) -> [&Vec<(String, String)>; 7] {
        [
            &self.conflicts,
            &self.tx_weak,
            &self.tx_strong,
            &self.output_weak,
            &self.output_strong,
            &self.input_weak,
            &self.input_strong,
        ]
    }

    fn relations_mut(&mut self) -> [&mut Vec<(String, String)>; 7] {
        [
            &mut self.conflicts,
            &mut self.tx_weak,
            &mut self.tx_strong,
            &mut self.output_weak,
            &mut self.output_strong,
            &mut self.input_weak,
            &mut self.input_strong,
        ]
    }

    /// Builds and validates the composite system this spec describes.
    ///
    /// Every pair is declared first and each order relation closed once.
    /// An error still names the first offending entry in declaration
    /// order: an entry that fails to declare closes the pairs before it
    /// first, and a close error names the entry of the pair that closing
    /// on every pair would have rejected first.
    pub fn build(&self) -> Result<CompositeSystem, SpecError> {
        if self.version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion(self.version));
        }
        let items = Items {
            schedules: self.schedules.iter().collect(),
            nodes: self.nodes.iter().enumerate().collect(),
            relations: self
                .relations()
                .map(|pairs| pairs.iter().enumerate().collect()),
            auto_propagate: self.auto_propagate,
        };
        let mut b = SystemBuilder::new();
        extend(&items, &mut b, &Names::of(self), (0, 0))?;
        b.build().map_err(invalid)
    }
}

/// A validation error, as [`SystemSpec::build`] reports it.
pub(crate) fn invalid(source: ModelError) -> SpecError {
    SpecError::Model {
        context: "build".into(),
        source,
    }
}

/// Entries of one or more specs, borrowed: what [`extend`] declares, and
/// what [`new_items`] finds new in appended fragments. Each node and pair
/// comes with its index in the spec that declares it, which an error
/// names it by.
pub(crate) struct Items<'a> {
    pub(crate) schedules: Vec<&'a String>,
    pub(crate) nodes: Vec<(usize, &'a NodeSpec)>,
    /// The relation families in [`RELATIONS`] order.
    pub(crate) relations: [Vec<(usize, &'a (String, String))>; 7],
    pub(crate) auto_propagate: bool,
}

/// The entries of `fragments` that are not declared yet, each once, in
/// fragment order (each relation family's pairs after all the nodes): the
/// merge rule [`SystemSpec::merge`] and a session share. `node` says
/// whether a node named so is declared already, and if so whether as the
/// fragment declares it; a node declared differently is rejected with
/// nothing changed. `schedule` and `pair` say whether one is declared
/// already (pair by [`RELATIONS`] index). `auto_propagate` is set if any
/// fragment sets it.
pub(crate) fn new_items<'a>(
    fragments: &'a [SystemSpec],
    node: impl Fn(&NodeSpec) -> Option<bool>,
    schedule: impl Fn(&str) -> bool,
    pair: impl Fn(usize, &(String, String)) -> bool,
) -> Result<Items<'a>, SpecError> {
    let mut fresh: HashMap<&str, &NodeSpec> = HashMap::new();
    let mut items = Items {
        schedules: Vec::new(),
        nodes: Vec::new(),
        relations: Default::default(),
        auto_propagate: false,
    };
    let mut names = HashSet::new();
    for fragment in fragments {
        if fragment.version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion(fragment.version));
        }
        for (i, n) in fragment.nodes.iter().enumerate() {
            let same = match node(n).or_else(|| fresh.get(n.name.as_str()).map(|&m| m == n)) {
                Some(same) => same,
                None => {
                    fresh.insert(&n.name, n);
                    items.nodes.push((i, n));
                    true
                }
            };
            if !same {
                return Err(SpecError::BadNode(format!(
                    "append re-declares node \"{}\" differently",
                    n.name
                )));
            }
        }
        for s in &fragment.schedules {
            if !schedule(s) && names.insert(s) {
                items.schedules.push(s);
            }
        }
        items.auto_propagate |= fragment.auto_propagate;
    }
    for (r, add) in items.relations.iter_mut().enumerate() {
        let mut seen = HashSet::new();
        let pairs = fragments
            .iter()
            .flat_map(|f| f.relations()[r].iter().enumerate());
        add.extend(pairs.filter(|&(_, p)| !pair(r, p) && seen.insert(p)));
    }
    Ok(items)
}

/// A relation family's builder method.
type Declare = fn(&mut SystemBuilder, NodeId, NodeId) -> Result<(), ModelError>;

/// The relation families' builder methods, in [`RELATIONS`] order.
pub(crate) const DECLARE: [Declare; 7] = [
    SystemBuilder::conflict,
    SystemBuilder::tx_weak_order,
    SystemBuilder::tx_strong_order,
    SystemBuilder::output_weak,
    SystemBuilder::output_strong,
    SystemBuilder::input_weak,
    SystemBuilder::input_strong,
];

/// Declares `items` into `b`, closes their order pairs and propagates
/// the orders if asked: the whole spec into a fresh builder
/// ([`SystemSpec::build`]), or a session's new items into its system,
/// extended in place. Validation is left to the caller. `b` holds `base`
/// = (schedules, nodes) already, so item node `i` is `NodeId(base.1 + i)`
/// and item schedule `j` is `SchedId(base.0 + j)`; `names` resolves every
/// name of `b` and of `items` to its (first) declaration. A node may name
/// as parent only a node declared before it. Errors name the entry by its
/// index in the spec that declares it. The order pairs close once, after
/// the last entry, as [`SystemSpec::build`] describes.
pub(crate) fn extend<K: Borrow<str> + Hash + Eq>(
    items: &Items<'_>,
    b: &mut SystemBuilder,
    names: &Names<K>,
    base: (usize, usize),
) -> Result<(), SpecError> {
    for (idx, &name) in items.schedules.iter().enumerate() {
        if names.schedule(name) != Some(base.0 + idx) {
            return Err(SpecError::DuplicateName(name.clone()));
        }
        b.schedule(name.clone());
    }
    for (id, &(idx, n)) in (base.1..).zip(&items.nodes) {
        let declared = |name: &String| names.node(name).filter(|&i| i < id);
        // The builder panics (by contract) when a leaf is used as a
        // parent; the data layer must turn that into a typed error.
        if let Some(parent) = &n.parent {
            let leaf = |p: usize| b.system().node(NodeId(p as u32)).role() == NodeRole::Leaf;
            if declared(parent).is_some_and(leaf) {
                return Err(SpecError::BadNode(format!(
                    "nodes[{idx}] (\"{}\"): parent \"{parent}\" is a leaf",
                    n.name
                )));
            }
        }
        let lookup_home = || -> Result<SchedId, SpecError> {
            let home = n.home.as_ref().ok_or_else(|| {
                SpecError::BadNode(format!(
                    "nodes[{idx}] (\"{}\"): kind \"{}\" requires \"home\"",
                    n.name, n.kind
                ))
            })?;
            names
                .schedule(home)
                .map(|s| SchedId(s as u32))
                .ok_or_else(|| SpecError::UnknownName {
                    name: home.clone(),
                    context: format!("nodes[{idx}].home (\"{}\")", n.name),
                })
        };
        let lookup_parent = || -> Result<NodeId, SpecError> {
            let parent = n.parent.as_ref().ok_or_else(|| {
                SpecError::BadNode(format!(
                    "nodes[{idx}] (\"{}\"): kind \"{}\" requires \"parent\"",
                    n.name, n.kind
                ))
            })?;
            declared(parent)
                .map(|p| NodeId(p as u32))
                .ok_or_else(|| SpecError::UnknownName {
                    name: parent.clone(),
                    context: format!("nodes[{idx}].parent (\"{}\")", n.name),
                })
        };
        match n.kind.as_str() {
            "root" => b.root(n.name.clone(), lookup_home()?),
            "subtx" => {
                let parent = lookup_parent()?;
                b.subtx(n.name.clone(), parent, lookup_home()?)
            }
            "leaf" => b.leaf(n.name.clone(), lookup_parent()?),
            other => {
                return Err(SpecError::BadNode(format!(
                    "nodes[{idx}] (\"{}\"): unknown kind \"{other}\"",
                    n.name
                )))
            }
        };
        if names.node(&n.name) != Some(id) {
            return Err(SpecError::DuplicateName(n.name.clone()));
        }
    }

    for (r, pairs) in items.relations.iter().enumerate() {
        for &(i, (x, y)) in pairs {
            let context = || format!("{}[{i}] [{x}, {y}]", RELATIONS[r]);
            let look = |name: &String| -> Result<NodeId, SpecError> {
                names
                    .node(name)
                    .map(|n| NodeId(n as u32))
                    .ok_or_else(|| SpecError::UnknownName {
                        name: name.clone(),
                        context: context(),
                    })
            };
            let declared = look(x).and_then(|a| {
                DECLARE[r](b, a, look(y)?).map_err(|source| SpecError::Model {
                    context: context(),
                    source,
                })
            });
            if let Err(e) = declared {
                close_orders(items, b)?;
                return Err(e);
            }
        }
    }
    close_orders(items, b)?;
    #[cfg(test)]
    assert!(!PANIC_MIDWAY.get(), "injected panic mid-extension");
    if items.auto_propagate {
        b.propagate_orders().map_err(|source| SpecError::Model {
            context: "propagate_orders".into(),
            source,
        })?;
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Makes [`extend`] panic once its order pairs are closed.
    pub(crate) static PANIC_MIDWAY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Closes the order pairs [`extend`] declared into `b` so far, naming a
/// failing pair by its entry.
fn close_orders(items: &Items<'_>, b: &mut SystemBuilder) -> Result<(), SpecError> {
    b.close_orders().map_err(|(mut at, source)| {
        // Pair `at` is the `at`-th order entry; conflicts (family 0)
        // declare no order pair.
        let mut r = 1;
        while at >= items.relations[r].len() {
            at -= items.relations[r].len();
            r += 1;
        }
        let (i, (x, y)) = items.relations[r][at];
        let context = format!("{}[{i}] [{x}, {y}]", RELATIONS[r]);
        SpecError::Model { context, source }
    })
}

/// Whether `sys` already holds the pair `a`, `c` of relation family `r`
/// ([`RELATIONS`] order): a conflict of their schedule, or an order pair
/// its closed relation contains (a strong pair holds a weak one too).
pub(crate) fn holds(sys: &CompositeSystem, r: usize, a: usize, c: usize) -> bool {
    let (a, c) = (NodeId(a as u32), NodeId(c as u32));
    let (x, y) = (sys.node(a), sys.node(c));
    let shared = |p: Option<SchedId>, q: Option<SchedId>| p.filter(|_| p == q);
    let lt = |pair: &OrderPair| match r % 2 {
        0 => pair.strong_lt(a, c),
        _ => pair.weak_lt(a, c),
    };
    match r {
        0 => shared(x.container, y.container)
            .is_some_and(|s| sys.schedule(s).conflicts.conflicts(a, c)),
        1 | 2 => x
            .parent
            .filter(|_| x.parent == y.parent)
            .and_then(|t| sys.transaction(t))
            .is_some_and(|t| lt(&t.intra)),
        3 | 4 => shared(x.container, y.container).is_some_and(|s| lt(&sys.schedule(s).output)),
        _ => shared(x.home, y.home).is_some_and(|s| lt(&sys.schedule(s).input)),
    }
}

/// Where each name is first declared: node `i` is `NodeId(i)`, schedule
/// `j` is `SchedId(j)`. `K` is `&str` for a one-off build and `Box<str>`
/// for the map a session keeps across appends.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names<K> {
    pub(crate) schedules: HashMap<K, u32>,
    pub(crate) nodes: HashMap<K, u32>,
}

impl<K: Borrow<str> + Hash + Eq> Names<K> {
    pub(crate) fn schedule(&self, name: &str) -> Option<usize> {
        self.schedules.get(name).map(|&i| i as usize)
    }

    pub(crate) fn node(&self, name: &str) -> Option<usize> {
        self.nodes.get(name).map(|&i| i as usize)
    }
}

impl<'a> Names<&'a str> {
    fn of(spec: &'a SystemSpec) -> Self {
        let mut names = Names::default();
        for (i, s) in (0..).zip(&spec.schedules) {
            names.schedules.entry(s.as_str()).or_insert(i);
        }
        for (i, n) in (0..).zip(&spec.nodes) {
            names.nodes.entry(n.name.as_str()).or_insert(i);
        }
        names
    }
}

// ---------------------------------------------------------------------------
// Incremental fragments
// ---------------------------------------------------------------------------

impl SystemSpec {
    /// Splits this spec into an ordered sequence of *fragments* — one per
    /// root transaction subtree — whose cumulative [`SystemSpec::merge`]
    /// rebuilds an equivalent spec. Feeding the fragments to a
    /// [`crate::session::SpecSession`] in order replays the system as a
    /// stream of appends: every prefix is itself a valid composite system
    /// (it is the restriction of the full system to complete root subtrees,
    /// with every relation pair over declared nodes included).
    ///
    /// Schedules are declared in the earliest fragment any node references
    /// them from; each relation pair lands in the first fragment where both
    /// endpoints exist (pairs naming undeclared nodes go to the last
    /// fragment, where building reports the same error a batch build
    /// would). Declared order pairs are typically a transitive *reduction*
    /// (see [`SystemSpec::from_system`]), so a pair between early-fragment
    /// endpoints can be mediated by a later-fragment node — restricting to
    /// a prefix would lose the order and violate the model axioms (an
    /// unordered conflicting pair, an unhonored intra-transaction order).
    /// Each order family is therefore emitted as its transitive closure;
    /// closure chains never cross schedules, because every operation (and
    /// transaction) executes in exactly one component. A spec with no nodes
    /// yields itself as the only fragment.
    pub fn into_appends(&self) -> Vec<SystemSpec> {
        // Fragment index per node = its root's ordinal among roots.
        let mut node_frag: BTreeMap<&str, usize> = BTreeMap::new();
        let mut roots = 0usize;
        for n in &self.nodes {
            let frag = match n.parent.as_deref().and_then(|p| node_frag.get(p)) {
                Some(&f) => f,
                None => {
                    roots += 1;
                    roots - 1
                }
            };
            node_frag.insert(n.name.as_str(), frag);
        }
        if roots == 0 {
            return vec![self.clone()];
        }
        let mut frags: Vec<SystemSpec> = (0..roots)
            .map(|_| SystemSpec {
                version: self.version,
                auto_propagate: self.auto_propagate,
                ..SystemSpec::default()
            })
            .collect();
        // Root subtrees may interleave in declaration order, so the first
        // *referencing* node of a schedule is not necessarily in the
        // earliest fragment that needs it — take the minimum. Schedules no
        // node references go to the first fragment.
        let mut sched_frag: BTreeMap<&str, usize> = BTreeMap::new();
        for n in &self.nodes {
            if let Some(home) = &n.home {
                let frag = node_frag[n.name.as_str()];
                sched_frag
                    .entry(home.as_str())
                    .and_modify(|f| *f = (*f).min(frag))
                    .or_insert(frag);
            }
        }
        for s in &self.schedules {
            let frag = sched_frag.get(s.as_str()).copied().unwrap_or(0);
            frags[frag].schedules.push(s.clone());
        }
        for n in &self.nodes {
            frags[node_frag[n.name.as_str()]].nodes.push(n.clone());
        }
        let place = |pair: &(String, String)| -> usize {
            match (
                node_frag.get(pair.0.as_str()),
                node_frag.get(pair.1.as_str()),
            ) {
                (Some(&a), Some(&b)) => a.max(b),
                _ => roots - 1,
            }
        };
        // Transitive closure of an order family (a weak family closes over
        // its strong sub-relation too, mirroring Definition 3's "strong
        // implies weak").
        let close = |families: &[&Vec<(String, String)>]| -> Vec<(String, String)> {
            let mut names: Vec<&str> = Vec::new();
            let mut idx: BTreeMap<&str, usize> = BTreeMap::new();
            for fam in families {
                for (a, b) in fam.iter() {
                    for s in [a.as_str(), b.as_str()] {
                        if !idx.contains_key(s) {
                            idx.insert(s, names.len());
                            names.push(s);
                        }
                    }
                }
            }
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
            for fam in families {
                for (a, b) in fam.iter() {
                    adj[idx[a.as_str()]].push(idx[b.as_str()]);
                }
            }
            let mut out = Vec::new();
            for src in 0..names.len() {
                let mut seen = vec![false; names.len()];
                let mut stack = adj[src].clone();
                while let Some(v) = stack.pop() {
                    if !seen[v] {
                        seen[v] = true;
                        stack.extend(adj[v].iter().copied());
                    }
                }
                for (v, reached) in seen.iter().enumerate() {
                    if *reached && v != src {
                        out.push((names[src].to_string(), names[v].to_string()));
                    }
                }
            }
            out
        };
        let output_weak = close(&[&self.output_weak, &self.output_strong]);
        let output_strong = close(&[&self.output_strong]);
        let input_weak = close(&[&self.input_weak, &self.input_strong]);
        let input_strong = close(&[&self.input_strong]);
        let tx_weak = close(&[&self.tx_weak, &self.tx_strong]);
        let tx_strong = close(&[&self.tx_strong]);
        for (rel, pick) in [
            (&self.conflicts, 0usize),
            (&output_weak, 1),
            (&output_strong, 2),
            (&input_weak, 3),
            (&input_strong, 4),
            (&tx_weak, 5),
            (&tx_strong, 6),
        ] {
            for pair in rel {
                let f = &mut frags[place(pair)];
                let target = match pick {
                    0 => &mut f.conflicts,
                    1 => &mut f.output_weak,
                    2 => &mut f.output_strong,
                    3 => &mut f.input_weak,
                    4 => &mut f.input_strong,
                    5 => &mut f.tx_weak,
                    _ => &mut f.tx_strong,
                };
                target.push(pair.clone());
            }
        }
        frags
    }

    /// Merges an append `fragment` into this spec: new schedules, nodes and
    /// relation pairs are added, already-present entries are skipped
    /// (re-appending a fragment is idempotent). A fragment that re-declares
    /// an existing node differently is rejected, and leaves the spec as it
    /// was — appends may only extend.
    pub fn merge(&mut self, fragment: &SystemSpec) -> Result<(), SpecError> {
        let mut nodes: HashMap<&str, &NodeSpec> = HashMap::new();
        for n in &self.nodes {
            nodes.entry(&n.name).or_insert(n);
        }
        let schedules: HashSet<&str> = self.schedules.iter().map(String::as_str).collect();
        let pairs = self
            .relations()
            .map(|pairs| pairs.iter().collect::<HashSet<_>>());
        let new = new_items(
            std::slice::from_ref(fragment),
            |n| nodes.get(n.name.as_str()).map(|&have| have == n),
            |s| schedules.contains(s),
            |r, pair| pairs[r].contains(pair),
        )?;
        self.schedules.extend(new.schedules.into_iter().cloned());
        self.nodes
            .extend(new.nodes.into_iter().map(|(_, n)| n.clone()));
        for (have, add) in self.relations_mut().into_iter().zip(new.relations) {
            have.extend(add.into_iter().map(|(_, p)| p.clone()));
        }
        self.auto_propagate |= fragment.auto_propagate;
        Ok(())
    }
}

impl SystemSpec {
    /// Extracts a spec from an existing system — the reverse of
    /// [`SystemSpec::build`]. Output orders are emitted as covering pairs
    /// (the transitive reduction), which rebuild the same closures. If node
    /// names are not unique, every name is disambiguated with `#<id>`.
    pub fn from_system(sys: &CompositeSystem) -> SystemSpec {
        use std::collections::BTreeSet;
        let names: Vec<String> = {
            let raw: Vec<&str> = sys.nodes().map(|n| n.name.as_str()).collect();
            let unique: BTreeSet<&str> = raw.iter().copied().collect();
            if unique.len() == raw.len() {
                raw.into_iter().map(str::to_string).collect()
            } else {
                sys.nodes()
                    .map(|n| format!("{}#{}", n.name, n.id.0))
                    .collect()
            }
        };
        let name = |n: NodeId| names[n.index()].clone();
        let mut spec = SystemSpec {
            schedules: sys.schedules().map(|s| s.name.clone()).collect(),
            auto_propagate: false,
            ..SystemSpec::default()
        };
        for info in sys.nodes() {
            spec.nodes.push(NodeSpec {
                name: name(info.id),
                kind: match (info.parent, info.home) {
                    (None, _) => "root",
                    (Some(_), Some(_)) => "subtx",
                    (Some(_), None) => "leaf",
                }
                .into(),
                parent: info.parent.map(name),
                home: info.home.map(|h| sys.schedule(h).name.clone()),
            });
        }
        let pairs = |rel: &compc_graph::PartialOrderRel| -> Vec<(String, String)> {
            rel.covering_pairs()
                .into_iter()
                .map(|(a, b)| (names[a].clone(), names[b].clone()))
                .collect()
        };
        for s in sys.schedules() {
            for (a, b) in s.conflicts.iter() {
                spec.conflicts.push((name(a), name(b)));
            }
            spec.output_weak.extend(pairs(s.output.weak()));
            spec.output_strong.extend(pairs(s.output.strong()));
            spec.input_weak.extend(pairs(s.input.weak()));
            spec.input_strong.extend(pairs(s.input.strong()));
            for t in &s.transactions {
                spec.tx_weak.extend(pairs(t.intra.weak()));
                spec.tx_strong.extend(pairs(t.intra.strong()));
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compc_core::check;

    fn transfer_spec() -> SystemSpec {
        SystemSpec::parse(
            r#"{
                "schedules": ["mw", "db"],
                "nodes": [
                    {"name": "T1", "kind": "root", "home": "mw"},
                    {"name": "T2", "kind": "root", "home": "mw"},
                    {"name": "u1", "kind": "subtx", "parent": "T1", "home": "db"},
                    {"name": "u2", "kind": "subtx", "parent": "T2", "home": "db"},
                    {"name": "w1", "kind": "leaf", "parent": "u1"},
                    {"name": "w2", "kind": "leaf", "parent": "u2"}
                ],
                "conflicts": [["w1", "w2"]],
                "output_weak": [["w1", "w2"]]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn json_spec_builds_and_checks() {
        let sys = transfer_spec().build().unwrap();
        assert_eq!(sys.schedule_count(), 2);
        assert_eq!(sys.order(), 2);
        assert!(check(&sys).is_correct());
    }

    #[test]
    fn unknown_names_rejected_with_context() {
        let mut spec = transfer_spec();
        spec.conflicts.push(("w1".into(), "nope".into()));
        match spec.build() {
            Err(SpecError::UnknownName { name, context }) => {
                assert_eq!(name, "nope");
                assert_eq!(context, "conflicts[1] [w1, nope]");
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut spec = transfer_spec();
        spec.nodes.push(NodeSpec {
            name: "T1".into(),
            kind: "root".into(),
            parent: None,
            home: Some("mw".into()),
        });
        assert!(matches!(spec.build(), Err(SpecError::DuplicateName(_))));
    }

    #[test]
    fn bad_kind_rejected_names_the_node() {
        let mut spec = transfer_spec();
        spec.nodes[0].kind = "banana".into();
        match spec.build() {
            Err(SpecError::BadNode(msg)) => {
                assert!(msg.contains("T1") && msg.contains("banana"), "{msg}");
            }
            other => panic!("expected BadNode, got {other:?}"),
        }
    }

    #[test]
    fn model_violations_name_the_relation() {
        let mut spec = transfer_spec();
        // A second conflicting pair left unordered breaks axiom 1c.
        spec.output_weak.clear();
        match spec.build() {
            Err(SpecError::Model { context, .. }) => {
                // The violation surfaces when the whole system is assembled.
                assert!(!context.is_empty());
            }
            other => panic!("expected Model, got {other:?}"),
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let spec = transfer_spec();
        let json = spec.to_json().to_compact();
        let back = SystemSpec::parse(&json).unwrap();
        assert_eq!(spec, back);
        let pretty = spec.to_json().to_pretty();
        assert_eq!(SystemSpec::parse(&pretty).unwrap(), back);
    }

    #[test]
    fn version_field_accepted_and_gated() {
        let ok = SystemSpec::parse(r#"{"version": 1, "schedules": [], "nodes": []}"#);
        assert!(ok.is_ok());
        let newer = SystemSpec::parse(r#"{"version": 2, "schedules": [], "nodes": []}"#);
        assert!(matches!(newer, Err(SpecError::UnsupportedVersion(2))));
        let junk = SystemSpec::parse(r#"{"version": "one"}"#);
        assert!(matches!(junk, Err(SpecError::Parse(_))));
    }

    #[test]
    fn shape_errors_name_the_offending_entry() {
        let err =
            SystemSpec::parse(r#"{"schedules": ["S"], "nodes": [{"kind": "root"}]}"#).unwrap_err();
        assert!(err.to_string().contains("nodes[0]"), "{err}");

        let err = SystemSpec::parse(
            r#"{"schedules": [], "nodes": [], "conflicts": [["a", "b"], ["only-one"]]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("conflicts[1]"), "{err}");

        let err = SystemSpec::parse(r#"{"schedules": [], "nodes": [], "mystery": 3}"#).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    /// Every error context form `from_json` builds, byte for byte: the
    /// contexts are formatted only on the error path, and must read as
    /// they did when every field and pair endpoint formatted its own.
    #[test]
    fn from_json_error_text_is_pinned() {
        let cases = [
            (r#"{"nodes": 3}"#, "nodes: expected an array, got number"),
            (
                r#"{"nodes": [{"name": "T", "kind": "root", "home": "S"}, 7]}"#,
                "nodes[1]: expected an object, got number",
            ),
            (
                r#"{"nodes": [{"name": 3, "kind": "root"}]}"#,
                "nodes[0].name: expected a string, got number",
            ),
            (
                r#"{"nodes": [{"name": "T", "kind": null}]}"#,
                "nodes[0].kind: expected a string, got null",
            ),
            (
                r#"{"nodes": [{"name": "o", "kind": "leaf", "parent": ["T"]}]}"#,
                "nodes[0].parent: expected a string, got array",
            ),
            (
                r#"{"nodes": [{"name": "T", "kind": "root", "home": false}]}"#,
                "nodes[0].home: expected a string, got boolean",
            ),
            (
                r#"{"nodes": [{"name": "T", "kind": "root", "colour": "red"}]}"#,
                r#"nodes[0]: unknown field "colour""#,
            ),
            (
                r#"{"nodes": [{"kind": "root"}]}"#,
                r#"nodes[0]: missing "name""#,
            ),
            (
                r#"{"nodes": [{"name": "T"}]}"#,
                r#"nodes[0] ("T"): missing "kind""#,
            ),
            (
                r#"{"schedules": "S"}"#,
                "schedules: expected an array, got string",
            ),
            (
                r#"{"schedules": ["S", 5]}"#,
                "schedules[1]: expected a string, got number",
            ),
            (
                r#"{"conflicts": {"a": "b"}}"#,
                "conflicts: expected an array, got object",
            ),
            (
                r#"{"conflicts": [["a", "b"], "c"]}"#,
                "conflicts[1]: expected a [from, to] pair",
            ),
            (
                r#"{"output_weak": [["a", "b", "c"]]}"#,
                "output_weak[0]: expected exactly 2 names, got 3",
            ),
            (
                r#"{"input_strong": [[1, "b"]]}"#,
                "input_strong[0][0]: expected a string, got number",
            ),
            (
                r#"{"tx_weak": [["a", "b"], ["a", {}]]}"#,
                "tx_weak[1][1]: expected a string, got object",
            ),
            (
                r#"{"version": -1}"#,
                "version: expected a non-negative integer",
            ),
            (
                r#"{"auto_propagate": "yes"}"#,
                "auto_propagate: expected a boolean",
            ),
            (r#"{"mystery": 1}"#, r#"top level: unknown field "mystery""#),
            ("[1, 2]", "top level: expected an object, got array"),
            // A syntax error anywhere outranks a shape error before it.
            (
                r#"{"nodes": 3, "schedules": [}"#,
                "JSON parse error at 1:28: unexpected character '}'",
            ),
            (
                r#"[1, 2] x"#,
                "JSON parse error at 1:8: unexpected trailing characters",
            ),
            (
                r#"{"mystery": {"a": 1, "a": 2}}"#,
                r#"JSON parse error at 1:25: duplicate object key "a""#,
            ),
        ];
        for (input, want) in cases {
            let err = SystemSpec::parse(input).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("spec parse error: {want}"),
                "{input}"
            );
        }
    }

    /// A number past the range of `f64` reads as an infinity. The
    /// `from_json` adapter writes it back as a number the reader takes, so
    /// the error names the field, not a position in text it wrote itself.
    #[test]
    fn infinite_numbers_survive_from_json() {
        let request = compc_json::parse(r#"{"append": {"version": 1e400}}"#).unwrap();
        let err = SystemSpec::from_json(request.get("append").unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "spec parse error: version: expected a non-negative integer"
        );
    }

    #[test]
    fn missing_home_names_node_and_kind() {
        let err =
            SystemSpec::parse(r#"{"schedules": ["S"], "nodes": [{"name": "T", "kind": "root"}]}"#)
                .unwrap()
                .build()
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"T\"") && msg.contains("home"), "{msg}");
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use compc_core::check;
    use compc_workload::random::{generate, GenParams, Shape};

    #[test]
    fn system_to_spec_to_system_preserves_verdicts() {
        for seed in 0..40 {
            let sys = generate(&GenParams {
                shape: Shape::General {
                    levels: 3,
                    scheds_per_level: 2,
                },
                roots: 4,
                ops_per_tx: (1, 3),
                conflict_density: 0.5,
                sequential_tx_prob: 0.7,
                client_input_prob: 0.3,
                strong_input_prob: 0.3,
                sound_abstractions: false,
                seed,
            });
            let spec = SystemSpec::from_system(&sys);
            let rebuilt = spec
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: extracted spec must rebuild: {e}"));
            assert_eq!(sys.node_count(), rebuilt.node_count());
            assert_eq!(sys.schedule_count(), rebuilt.schedule_count());
            assert_eq!(
                check(&sys).is_correct(),
                check(&rebuilt).is_correct(),
                "seed {seed}: verdicts must survive the spec round trip"
            );
        }
    }

    #[test]
    fn duplicate_names_get_disambiguated() {
        use compc_model::SystemBuilder;
        let mut b = SystemBuilder::new();
        let s = b.schedule("S");
        let t1 = b.root("T", s);
        let t2 = b.root("T", s); // same display name
        b.leaf("o", t1);
        b.leaf("o", t2);
        let sys = b.build().unwrap();
        let spec = SystemSpec::from_system(&sys);
        let names: std::collections::BTreeSet<&String> =
            spec.nodes.iter().map(|n| &n.name).collect();
        assert_eq!(names.len(), spec.nodes.len());
        assert!(spec.build().is_ok());
    }
}

#[cfg(test)]
mod hardening_tests {
    use super::*;

    #[test]
    fn leaf_as_parent_is_a_typed_error_not_a_panic() {
        let spec = SystemSpec::parse(
            r#"{
                "schedules": ["S"],
                "nodes": [
                    {"name": "T", "kind": "root", "home": "S"},
                    {"name": "o", "kind": "leaf", "parent": "T"},
                    {"name": "x", "kind": "leaf", "parent": "o"}
                ]
            }"#,
        )
        .unwrap();
        assert!(matches!(spec.build(), Err(SpecError::BadNode(_))));
    }
}
