//! The dynamic data model carried by dataflows and stored in state elements.
//!
//! Translated StateLang programs are dynamically typed at TE boundaries, so
//! dataflow items carry [`Value`]s grouped into named [`Record`]s (the live
//! variables crossing a TE boundary, §4.2 step 5 of the paper). State
//! structures that need hashable, totally ordered keys use the [`Key`]
//! subset, which excludes floats.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::{SdgError, SdgResult};

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An immutable, cheaply clonable string.
    Str(Arc<str>),
    /// A list of values (used for `@Collection` arrays, vectors, rows).
    List(Vec<Value>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns a static name for the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::List(_) => "List",
        }
    }

    /// Extracts an integer, or reports a type error.
    pub fn as_int(&self) -> SdgResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(SdgError::type_mismatch("Int", other.type_name())),
        }
    }

    /// Extracts a float; integers are widened.
    pub fn as_float(&self) -> SdgResult<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(SdgError::type_mismatch("Float", other.type_name())),
        }
    }

    /// Extracts a boolean, or reports a type error.
    pub fn as_bool(&self) -> SdgResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SdgError::type_mismatch("Bool", other.type_name())),
        }
    }

    /// Extracts a string slice, or reports a type error.
    pub fn as_str(&self) -> SdgResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(SdgError::type_mismatch("Str", other.type_name())),
        }
    }

    /// Extracts a list, or reports a type error.
    pub fn as_list(&self) -> SdgResult<&[Value]> {
        match self {
            Value::List(v) => Ok(v),
            other => Err(SdgError::type_mismatch("List", other.type_name())),
        }
    }

    /// Returns `true` if the value is considered truthy.
    ///
    /// Only `Bool` carries truthiness; every other type is a type error, so
    /// interpreter conditions stay strict.
    pub fn truthy(&self) -> SdgResult<bool> {
        self.as_bool()
    }

    /// Converts this value to a hashable [`Key`].
    ///
    /// Floats and nulls are rejected because their equality semantics make
    /// them unsuitable as partitioning keys.
    pub fn to_key(&self) -> SdgResult<Key> {
        match self {
            Value::Bool(b) => Ok(Key::Bool(*b)),
            Value::Int(i) => Ok(Key::Int(*i)),
            Value::Str(s) => Ok(Key::Str(s.clone())),
            Value::List(items) => {
                let keys = items.iter().map(Value::to_key).collect::<SdgResult<_>>()?;
                Ok(Key::Composite(keys))
            }
            other => Err(SdgError::type_mismatch(
                "key (Bool|Int|Str|List)",
                other.type_name(),
            )),
        }
    }

    /// Approximates the in-memory footprint in bytes.
    ///
    /// Used for state-size accounting in checkpoints and benchmarks; it does
    /// not need to be exact, only monotone in the real size.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::List(v) => 8 + v.iter().map(Value::approx_size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

impl From<Key> for Value {
    fn from(k: Key) -> Self {
        match k {
            Key::Bool(b) => Value::Bool(b),
            Key::Int(i) => Value::Int(i),
            Key::Str(s) => Value::Str(s),
            Key::Composite(items) => Value::List(items.into_iter().map(Value::from).collect()),
        }
    }
}

/// The hashable, totally ordered subset of [`Value`] usable as a state or
/// partitioning key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// A boolean key.
    Bool(bool),
    /// An integer key.
    Int(i64),
    /// A string key.
    Str(Arc<str>),
    /// A composite key (tuple of keys).
    Composite(Vec<Key>),
}

impl Key {
    /// Builds a string key.
    pub fn str(s: impl AsRef<str>) -> Self {
        Key::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer key.
    pub const fn int(i: i64) -> Self {
        Key::Int(i)
    }

    /// Returns a stable 64-bit hash of the key.
    ///
    /// The hash is FNV-1a over a canonical byte rendering, so it is identical
    /// across processes and runs — a requirement for deterministic
    /// repartitioning during recovery and scale-out.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.feed(&mut h);
        h.finish()
    }

    fn feed(&self, h: &mut Fnv1a) {
        match self {
            Key::Bool(b) => {
                h.write_u8(0);
                h.write_u8(*b as u8);
            }
            Key::Int(i) => {
                h.write_u8(1);
                h.write_bytes(&i.to_le_bytes());
            }
            Key::Str(s) => {
                h.write_u8(2);
                h.write_bytes(s.as_bytes());
            }
            Key::Composite(items) => {
                h.write_u8(3);
                h.write_bytes(&(items.len() as u64).to_le_bytes());
                for item in items {
                    item.feed(h);
                }
            }
        }
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_size(&self) -> usize {
        match self {
            Key::Bool(_) => 1,
            Key::Int(_) => 8,
            Key::Str(s) => s.len() + 8,
            Key::Composite(items) => 8 + items.iter().map(Key::approx_size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Value::from(self.clone()))
    }
}

/// Incremental FNV-1a hasher with a fixed, process-independent seed.
#[derive(Debug)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable FNV-1a hash of an arbitrary byte slice.
///
/// Exposed for checkpoint chunk assignment, which must partition identically
/// during backup and restore even across process restarts.
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Returns the process-wide interned copy of `name`.
///
/// Record field names come from a small, fixed vocabulary: the variables
/// of deployed programs, the names at `record!` sites and the names in
/// decoded records. Each distinct name is leaked once and every later
/// request returns the same `&'static str`, so building, cloning and
/// dropping a record copies name pointers instead of allocating (or
/// freeing, possibly on another thread) a string per field. A
/// thread-local set answers repeat lookups without touching the global
/// lock.
pub fn intern(name: &str) -> &'static str {
    thread_local! {
        static LOCAL: RefCell<NameSet> = RefCell::new(NameSet::default());
    }
    fn global(name: &str) -> &'static str {
        static GLOBAL: OnceLock<Mutex<NameSet>> = OnceLock::new();
        // A panic cannot leave the set half-updated (its one mutation is
        // an insert of a leaked name), so a poisoned lock is still sound.
        let mut set = GLOBAL
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match set.get(name) {
            Some(&interned) => interned,
            None => {
                let interned: &'static str = Box::leak(name.into());
                set.insert(interned);
                interned
            }
        }
    }
    LOCAL
        .try_with(|local| {
            if let Some(&interned) = local.borrow().get(name) {
                return interned;
            }
            let interned = global(name);
            local.borrow_mut().insert(interned);
            interned
        })
        // Thread-local storage is already torn down (a destructor running
        // at thread exit): fall back to the global set.
        .unwrap_or_else(|_| global(name))
}

/// A set of interned names. It keeps std's keyed hasher: decoded
/// records bring names from outside the process.
type NameSet = HashSet<&'static str>;

/// A set of named values: the payload of a dataflow item.
///
/// Records hold the live variables that cross a TE boundary. Field order is
/// insertion order; lookups are linear, which is faster than hashing for the
/// small arity (≤ ~8) of real dataflow edges. Names are [`intern`]ed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    /// Creates a record with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Record {
            fields: Vec::with_capacity(cap),
        }
    }

    /// Appends `name = value` **without** scanning for an existing binding.
    ///
    /// Callers must guarantee `name` is not already present (e.g. when
    /// building a record from a sorted, deduplicated live-variable set).
    pub fn push_unchecked(&mut self, name: &'static str, value: Value) {
        debug_assert!(self.get(name).is_none(), "duplicate field `{name}`");
        self.fields.push((name, value));
    }

    /// Sets `name` to `value`, replacing any existing binding.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) {
        let name = name.as_ref();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((intern(name), value));
        }
    }

    /// Returns the value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Returns the value bound to `name`, or a [`SdgError::NotFound`].
    pub fn require(&self, name: &str) -> SdgResult<&Value> {
        self.get(name)
            .ok_or_else(|| SdgError::NotFound(format!("record field `{name}`")))
    }

    /// Removes the binding for `name`, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.position(name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Returns the number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Value)> {
        self.fields.iter().map(|(n, v)| (*n, v))
    }

    /// Returns the field at `idx` (insertion order), if in bounds.
    pub fn at(&self, idx: usize) -> Option<(&'static str, &Value)> {
        self.fields.get(idx).map(|(n, v)| (*n, v))
    }

    /// Returns the insertion-order index of `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| *n == name)
    }

    /// Returns `true` if the record's fields are exactly `names`, in order.
    ///
    /// Used to skip projection when an edge's live set already equals the
    /// payload's field set (the common case for compiled TEs, whose output
    /// records are built from the sorted live-variable list).
    pub fn fields_match(&self, names: &[impl AsRef<str>]) -> bool {
        self.fields.len() == names.len()
            && self
                .fields
                .iter()
                .zip(names)
                .all(|((n, _), want)| *n == want.as_ref())
    }

    /// Keeps only the fields whose names appear in `names` (the live set).
    pub fn project(&self, names: &[impl AsRef<str>]) -> Record {
        let mut out = Record::with_capacity(names.len());
        for name in names {
            if let Some(v) = self.get(name.as_ref()) {
                out.set(name.as_ref(), v.clone());
            }
        }
        out
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(n, v)| n.len() + v.approx_size() + 16)
            .sum()
    }
}

/// Convenience constructor macro for records: `record!{"a" => Value::Int(1)}`.
///
/// The record is one allocation: its field vector, at exact arity (names
/// are [`intern`]ed). Ingest hands a submitted record to the worker that
/// consumes it, which frees it on its own thread; with glibc malloc,
/// exact-size blocks proved much cheaper to free there than a grown vector
/// with spare capacity, and every extra block is another cross-thread free.
#[macro_export]
macro_rules! record {
    ($($name:expr => $value:expr),* $(,)?) => {{
        let mut r = $crate::value::Record::with_capacity(<[()]>::len(&[$({
            let _ = stringify!($name);
        }),*]));
        $( r.set($name, $value); )*
        r
    }};
}

/// Compares two values with numeric widening, for interpreter comparisons.
///
/// Returns `None` when the types are incomparable (e.g. `Int` vs `Str`).
pub fn compare_values(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::str("x").as_int().is_err());
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert!(Value::Null.truthy().is_err());
    }

    #[test]
    fn keys_reject_floats_and_nulls() {
        assert!(Value::Float(1.0).to_key().is_err());
        assert!(Value::Null.to_key().is_err());
        assert_eq!(Value::Int(3).to_key().unwrap(), Key::Int(3));
        let composite = Value::List(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(
            composite.to_key().unwrap(),
            Key::Composite(vec![Key::Int(1), Key::str("a")])
        );
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let h1 = Key::Int(42).stable_hash();
        let h2 = Key::Int(42).stable_hash();
        assert_eq!(h1, h2);
        assert_ne!(Key::Int(42).stable_hash(), Key::Int(43).stable_hash());
        assert_ne!(Key::Int(42).stable_hash(), Key::str("42").stable_hash());
        // Composite keys hash differently from their flattened parts.
        assert_ne!(
            Key::Composite(vec![Key::Int(1), Key::Int(2)]).stable_hash(),
            Key::Composite(vec![Key::Int(12)]).stable_hash()
        );
    }

    #[test]
    fn record_set_get_replace() {
        let mut r = Record::new();
        r.set("user", Value::Int(1));
        r.set("item", Value::Int(2));
        assert_eq!(r.get("user"), Some(&Value::Int(1)));
        r.set("user", Value::Int(9));
        assert_eq!(r.get("user"), Some(&Value::Int(9)));
        assert_eq!(r.len(), 2);
        assert!(r.require("missing").is_err());
    }

    #[test]
    fn record_projection_keeps_only_live_variables() {
        let r = record! {
            "a" => Value::Int(1),
            "b" => Value::Int(2),
            "c" => Value::Int(3),
        };
        let p = r.project(&["a", "c", "zzz"]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("a"), Some(&Value::Int(1)));
        assert_eq!(p.get("c"), Some(&Value::Int(3)));
        assert_eq!(p.get("b"), None);
    }

    #[test]
    fn intern_returns_one_pointer_per_name_across_threads() {
        let here = intern("intern_test_name");
        assert_eq!(here, "intern_test_name");
        let owned = String::from("intern_test_name");
        assert!(std::ptr::eq(here, intern(&owned)));
        let there: Vec<&'static str> = (0..4)
            .map(|_| std::thread::spawn(|| intern("intern_test_name")))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert!(there.iter().all(|&name| std::ptr::eq(name, here)));
        assert!(!std::ptr::eq(intern("intern_test_other"), here));
    }

    #[test]
    fn record_names_are_interned() {
        let mut r = Record::new();
        r.set(String::from("field"), Value::Int(1));
        assert!(std::ptr::eq(r.at(0).unwrap().0, intern("field")));
    }

    #[test]
    fn record_remove() {
        let mut r = record! {"a" => Value::Int(1), "b" => Value::Int(2)};
        assert_eq!(r.remove("a"), Some(Value::Int(1)));
        assert_eq!(r.remove("a"), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn compare_widens_numerics() {
        use std::cmp::Ordering::*;
        assert_eq!(
            compare_values(&Value::Int(1), &Value::Float(1.5)),
            Some(Less)
        );
        assert_eq!(
            compare_values(&Value::Float(2.0), &Value::Int(2)),
            Some(Equal)
        );
        assert_eq!(
            compare_values(&Value::str("b"), &Value::str("a")),
            Some(Greater)
        );
        assert_eq!(compare_values(&Value::Int(1), &Value::str("1")), None);
    }

    #[test]
    fn display_renders_nested_values() {
        let v = Value::List(vec![Value::Int(1), Value::str("a"), Value::Null]);
        assert_eq!(v.to_string(), "[1, \"a\", null]");
    }

    #[test]
    fn approx_size_is_monotone() {
        let small = Value::str("ab");
        let big = Value::str("abcdefgh");
        assert!(big.approx_size() > small.approx_size());
        let list = Value::List(vec![small.clone(), big.clone()]);
        assert!(list.approx_size() > big.approx_size());
    }
}
