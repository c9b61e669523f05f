//! The dynamic value universe of EventML programs.
//!
//! Nuprl's programming language is an applied, lazy, untyped λ-calculus; the
//! data flowing through generated GPM programs is untyped. [`Value`] plays
//! that role here: every message body, every state-machine state, and every
//! combinator output is a `Value`. Typed protocol layers (consensus, the
//! broadcast service, ShadowDB) encode to and decode from this universe at
//! their boundary.
//!
//! Values are cheap to clone: compound values share their payload through
//! [`std::sync::Arc`].

use shadowdb_loe::Loc;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// An immutable string that is either owned (`Arc<str>`) or a zero-copy
/// UTF-8 view into a shared byte buffer ([`bytes::Bytes`]) — the borrow
/// form the wire decoder produces so string bodies alias the frame they
/// arrived in instead of being copied out of it.
///
/// Equality, ordering, and hashing are all by string content (with a
/// same-storage shortcut), so owned and view strings are interchangeable
/// everywhere a [`Value`] flows.
#[derive(Clone)]
pub struct SharedStr(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Arc<str>),
    View(bytes::Bytes),
}

impl SharedStr {
    /// The string content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Owned(s) => s,
            // SAFETY: validated as UTF-8 at construction, and `Bytes` is
            // immutable — it has no API that writes to storage a view
            // shares.
            Repr::View(b) => unsafe { std::str::from_utf8_unchecked(b) },
        }
    }

    /// Wraps `bytes` as a string view without copying, validating UTF-8
    /// once up front.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `bytes` is not valid UTF-8.
    pub fn from_utf8(bytes: bytes::Bytes) -> Result<SharedStr, std::str::Utf8Error> {
        std::str::from_utf8(&bytes)?;
        Ok(SharedStr(Repr::View(bytes)))
    }

    /// Bytes of storage this string keeps alive: its own length when
    /// owned, the whole frame it is a view of when decoded. Diagnostic/test
    /// hook for asserting what a retained string pins.
    pub fn storage_len(&self) -> usize {
        match &self.0 {
            Repr::Owned(s) => s.len(),
            Repr::View(b) => b.storage_len(),
        }
    }
}

impl std::ops::Deref for SharedStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SharedStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &SharedStr) -> bool {
        match (&self.0, &other.0) {
            // Pointer-equal storage short-circuits the content compare
            // (clones of one interned name, views of one frame).
            (Repr::Owned(a), Repr::Owned(b)) if Arc::ptr_eq(a, b) => true,
            (Repr::View(a), Repr::View(b)) => a == b,
            _ => self.as_str() == other.as_str(),
        }
    }
}
impl Eq for SharedStr {}

impl PartialOrd for SharedStr {
    fn partial_cmp(&self, other: &SharedStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SharedStr {
    fn cmp(&self, other: &SharedStr) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for SharedStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl From<&str> for SharedStr {
    fn from(s: &str) -> SharedStr {
        SharedStr(Repr::Owned(Arc::from(s)))
    }
}

impl From<Arc<str>> for SharedStr {
    fn from(s: Arc<str>) -> SharedStr {
        SharedStr(Repr::Owned(s))
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A dynamically typed value.
///
/// Values are totally ordered (derived lexicographic order on the variant
/// and contents); protocols rely on this to pick canonical representatives
/// ("smallest most frequent value") and to compare ballots.
///
/// # Example
///
/// ```
/// use shadowdb_eventml::Value;
/// let v = Value::pair(Value::from(3), Value::from("ts"));
/// assert_eq!(v.fst().unwrap().as_int(), Some(3));
/// assert_eq!(v.snd().unwrap().as_str(), Some("ts"));
/// ```
// The manual `PartialEq` below only adds an `Arc::ptr_eq` short-circuit on
// top of structural equality, so the derived `Hash` remains consistent:
// pointer-equal values are structurally equal.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Default, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The unit value.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A location (process identity).
    Loc(Loc),
    /// An immutable string (owned or a zero-copy view of a frame buffer).
    Str(SharedStr),
    /// Raw bytes (opaque application payloads).
    Bytes(bytes::Bytes),
    /// An ordered pair.
    Pair(Arc<(Value, Value)>),
    /// A list.
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Builds a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Arc::new((a, b)))
    }

    /// Builds a list.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(SharedStr::from(s))
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean content, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The location content, if this is a `Loc`.
    pub fn as_loc(&self) -> Option<Loc> {
        match self {
            Value::Loc(l) => Some(*l),
            _ => None,
        }
    }

    /// The string content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The byte content, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&bytes::Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The first component, if this is a `Pair`.
    pub fn fst(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(&p.0),
            _ => None,
        }
    }

    /// The second component, if this is a `Pair`.
    pub fn snd(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(&p.1),
            _ => None,
        }
    }

    /// The elements, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Like [`Value::as_int`] but panicking: for protocol code whose message
    /// shapes are established by construction.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int`.
    pub fn int(&self) -> i64 {
        self.as_int()
            .unwrap_or_else(|| panic!("expected Int, got {self:?}"))
    }

    /// Like [`Value::as_loc`] but panicking.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Loc`.
    pub fn loc(&self) -> Loc {
        self.as_loc()
            .unwrap_or_else(|| panic!("expected Loc, got {self:?}"))
    }

    /// Destructures a pair, panicking otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Pair`.
    pub fn unpair(&self) -> (&Value, &Value) {
        match self {
            Value::Pair(p) => (&p.0, &p.1),
            _ => panic!("expected Pair, got {self:?}"),
        }
    }

    /// Destructures a list, panicking otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `List`.
    pub fn elems(&self) -> &[Value] {
        self.as_list()
            .unwrap_or_else(|| panic!("expected List, got {self:?}"))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Loc(a), Value::Loc(b)) => a == b,
            // Compound values are shared through Arcs and mostly compared
            // against clones of themselves (bisimulation, dedup sets), so a
            // pointer check short-circuits the content walk.
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Pair(a), Value::Pair(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Loc(l) => write!(f, "{l}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Pair(p) => write!(f, "<{:?}, {:?}>", p.0, p.1),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Loc> for Value {
    fn from(l: Loc) -> Value {
        Value::Loc(l)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<bytes::Bytes> for Value {
    fn from(b: bytes::Bytes) -> Value {
        Value::Bytes(b)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Value {
        Value::list(iter)
    }
}

/// A message header: the tag that base classes pattern-match on.
///
/// Headers are interned through the global [`Symbol`](crate::symbol::Symbol)
/// table: equality, hashing, and dispatch are integer operations on the
/// symbol, the type is `Copy`, and the canonical name rides along as a
/// `&'static str` so display and the codec never touch the table's lock.
/// Ordering remains lexicographic on the name (protocols pick canonical
/// representatives by comparing values containing headers).
#[derive(Clone, Copy)]
pub struct Header {
    sym: crate::symbol::Symbol,
    name: &'static str,
}

impl Header {
    /// Creates a header with the given name, interning it on first use.
    /// Protocol code on a hot path should cache the result rather than
    /// re-interning per message.
    pub fn new(name: &str) -> Header {
        let (sym, name) = crate::symbol::Symbol::intern(name);
        Header { sym, name }
    }

    /// The header's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The interned symbol (dense index for dispatch tables).
    pub fn symbol(&self) -> crate::symbol::Symbol {
        self.sym
    }
}

impl PartialEq for Header {
    fn eq(&self, other: &Header) -> bool {
        self.sym == other.sym
    }
}

impl Eq for Header {}

impl std::hash::Hash for Header {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl PartialOrd for Header {
    fn partial_cmp(&self, other: &Header) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Header {
    fn cmp(&self, other: &Header) -> std::cmp::Ordering {
        if self.sym == other.sym {
            std::cmp::Ordering::Equal
        } else {
            self.name.cmp(other.name)
        }
    }
}

impl From<&str> for Header {
    fn from(name: &str) -> Header {
        Header::new(name)
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "``{}``", self.name)
    }
}

/// Interns a header name once per call site and yields the cached
/// [`Header`]: the idiom for protocol dispatch, where comparing `msg.header`
/// against `cached_header!(P1A_HEADER)` is a single integer comparison with
/// no table lookup after the first hit.
#[macro_export]
macro_rules! cached_header {
    ($name:expr) => {{
        static __HEADER: ::std::sync::OnceLock<$crate::Header> = ::std::sync::OnceLock::new();
        *__HEADER.get_or_init(|| $crate::Header::new($name))
    }};
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A message: a header plus an untyped body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Msg {
    /// The header recognized by base classes.
    pub header: Header,
    /// The payload.
    pub body: Value,
}

impl Msg {
    /// Creates a message (the `make-Msg` of the paper's ILF).
    pub fn new(header: impl Into<Header>, body: Value) -> Msg {
        Msg {
            header: header.into(),
            body,
        }
    }
}

/// A send instruction: the output of a GPM program.
///
/// `msg'send recipient content` in EventML builds one of these; the optional
/// delay `d` (Fig. 4's "period of time the process must wait before sending")
/// is what timers are built from.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SendInstr {
    /// The destination process.
    pub dest: Loc,
    /// How long to wait before the message leaves the sender.
    pub delay: Duration,
    /// The message to send.
    pub msg: Msg,
}

impl SendInstr {
    /// An immediate send.
    pub fn now(dest: Loc, msg: Msg) -> SendInstr {
        SendInstr {
            dest,
            delay: Duration::ZERO,
            msg,
        }
    }

    /// A delayed send (the basis of timers: a delayed send to oneself).
    pub fn after(delay: Duration, dest: Loc, msg: Msg) -> SendInstr {
        SendInstr { dest, delay, msg }
    }
}

/// The cached `"#send"` tag: cloning it is a refcount bump, and decoding
/// recognizes it by pointer before falling back to a content compare.
fn send_tag() -> &'static Value {
    static TAG: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
    TAG.get_or_init(|| Value::str("#send"))
}

/// Encodes a send instruction as a [`Value`] so combinator programs can emit
/// it: `<"#send", <<dest, delay_us>, <header, body>>>`.
///
/// Allocation-light: the tag and the header-name string are shared (the
/// name through the symbol table), so encoding a send costs only the pair
/// spine.
pub fn send_value(instr: &SendInstr) -> Value {
    Value::pair(
        send_tag().clone(),
        Value::pair(
            Value::pair(
                Value::Loc(instr.dest),
                Value::Int(instr.delay.as_micros() as i64),
            ),
            Value::pair(
                Value::Str(instr.msg.header.symbol().name_shared().into()),
                instr.msg.body.clone(),
            ),
        ),
    )
}

/// Decodes a send instruction from a [`Value`], if it is one.
pub fn as_send_value(v: &Value) -> Option<SendInstr> {
    let (tag, rest) = v.fst().zip(v.snd())?;
    // `Value` equality pointer-shortcuts strings cloned from `send_tag`.
    if tag != send_tag() {
        return None;
    }
    let (addr, msg) = rest.fst().zip(rest.snd())?;
    let dest = addr.fst()?.as_loc()?;
    let delay = Duration::from_micros(addr.snd()?.as_int()?.max(0) as u64);
    let header = Header::new(msg.fst()?.as_str()?);
    let body = msg.snd()?.clone();
    Some(SendInstr {
        dest,
        delay,
        msg: Msg { header, body },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let v = Value::pair(
            Value::from(1),
            Value::list([Value::from(true), Value::Unit]),
        );
        assert_eq!(v.fst().unwrap().int(), 1);
        assert_eq!(v.snd().unwrap().elems().len(), 2);
        assert_eq!(v.snd().unwrap().elems()[0].as_bool(), Some(true));
        assert!(v.as_int().is_none());
    }

    #[test]
    fn values_hash_and_compare() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::pair(Value::from(1), Value::from("a")));
        assert!(set.contains(&Value::pair(Value::from(1), Value::from("a"))));
        assert!(!set.contains(&Value::pair(Value::from(2), Value::from("a"))));
    }

    #[test]
    fn debug_formatting() {
        let v = Value::list([Value::from(1), Value::pair(Value::Unit, Value::from("x"))]);
        assert_eq!(format!("{v:?}"), "[1; <(), \"x\">]");
    }

    #[test]
    fn send_value_roundtrip() {
        let instr = SendInstr::after(
            Duration::from_micros(250),
            Loc::new(3),
            Msg::new("vote", Value::from(42)),
        );
        let v = send_value(&instr);
        assert_eq!(as_send_value(&v), Some(instr));
    }

    #[test]
    fn non_send_values_rejected() {
        assert_eq!(as_send_value(&Value::from(3)), None);
        assert_eq!(
            as_send_value(&Value::pair(Value::str("other"), Value::Unit)),
            None
        );
    }

    #[test]
    fn header_equality_by_name() {
        assert_eq!(Header::new("msg"), Header::from("msg"));
        assert_ne!(Header::new("msg"), Header::new("msG"));
    }

    #[test]
    fn header_order_is_lexicographic() {
        let mut hs = [Header::new("zz"), Header::new("aa"), Header::new("mm")];
        hs.sort();
        let names: Vec<&str> = hs.iter().map(Header::name).collect();
        assert_eq!(names, ["aa", "mm", "zz"]);
        assert_eq!(
            Header::new("aa").cmp(&Header::new("aa")),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn header_symbol_stable() {
        assert_eq!(Header::new("hsym").symbol(), Header::new("hsym").symbol());
        assert_ne!(Header::new("hsym").symbol(), Header::new("hsym2").symbol());
    }

    #[test]
    fn from_iterator_collects() {
        let v: Value = (0..3).map(Value::from).collect();
        assert_eq!(v.elems().len(), 3);
    }
}
