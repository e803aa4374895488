//! SQL values and data types.
//!
//! The DPFS catalog needs integers (sizes, performance numbers), text
//! (names, paths, permissions) and integer lists (brick lists, dimension
//! sizes). `IntList` is first-class because the paper's
//! `DPFS-FILE-DISTRIBUTION.bricklist` column stores a list of brick numbers
//! per server.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{MetaError, Result};

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Text,
    /// Arbitrary bytes.
    Blob,
    /// List of 64-bit integers (brick lists, dimension vectors).
    IntList,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Blob => write!(f, "BLOB"),
            DataType::IntList => write!(f, "INTLIST"),
        }
    }
}

/// A dynamically-typed SQL value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Text value.
    Text(String),
    /// Byte-blob value.
    Blob(Vec<u8>),
    /// Integer-list value.
    IntList(Vec<i64>),
}

impl Value {
    /// The data type of this value, or `None` for NULL (which types as
    /// anything).
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Text(_) => Some(DataType::Text),
            Value::Blob(_) => Some(DataType::Blob),
            Value::IntList(_) => Some(DataType::IntList),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if the value is compatible with `dtype` (NULL matches all).
    pub fn matches(&self, dtype: DataType) -> bool {
        self.dtype().is_none_or(|d| d == dtype)
    }

    /// Extract an integer, or a type error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(MetaError::TypeError(format!("expected INT, got {other}"))),
        }
    }

    /// Extract a string slice, or a type error.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(MetaError::TypeError(format!("expected TEXT, got {other}"))),
        }
    }

    /// Extract an integer list, or a type error.
    pub fn as_int_list(&self) -> Result<&[i64]> {
        match self {
            Value::IntList(v) => Ok(v),
            other => Err(MetaError::TypeError(format!(
                "expected INTLIST, got {other}"
            ))),
        }
    }

    /// Extract a blob, or a type error.
    pub fn as_blob(&self) -> Result<&[u8]> {
        match self {
            Value::Blob(b) => Ok(b),
            other => Err(MetaError::TypeError(format!("expected BLOB, got {other}"))),
        }
    }

    /// SQL three-valued comparison: returns `None` when either side is NULL,
    /// `Some(ordering)` for comparable same-type values, and an error for
    /// cross-type comparisons.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(None),
            (Value::Int(a), Value::Int(b)) => Ok(Some(a.cmp(b))),
            (Value::Text(a), Value::Text(b)) => Ok(Some(a.cmp(b))),
            (Value::Blob(a), Value::Blob(b)) => Ok(Some(a.cmp(b))),
            (Value::IntList(a), Value::IntList(b)) => Ok(Some(a.cmp(b))),
            (a, b) => Err(MetaError::TypeError(format!("cannot compare {a} with {b}"))),
        }
    }

    /// Total order over values used for index keys and ORDER BY: NULL sorts
    /// first, then by type tag, then by value.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Text(_) => 2,
                Value::Blob(_) => 3,
                Value::IntList(_) => 4,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            (Value::IntList(a), Value::IntList(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// `Ord` is [`Value::total_cmp`], the index and ORDER BY order — not SQL
/// comparison, which is three-valued ([`Value::sql_cmp`]). It lets index
/// maps be keyed by `Value` and probed with a borrowed key.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Blob(b) => {
                write!(f, "x'")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                write!(f, "'")
            }
            Value::IntList(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
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

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<Vec<i64>> for Value {
    fn from(v: Vec<i64>) -> Self {
        Value::IntList(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_of_values() {
        assert_eq!(Value::Int(3).dtype(), Some(DataType::Int));
        assert_eq!(Value::Text("x".into()).dtype(), Some(DataType::Text));
        assert_eq!(Value::IntList(vec![1]).dtype(), Some(DataType::IntList));
        assert_eq!(Value::Null.dtype(), None);
    }

    #[test]
    fn null_matches_every_type() {
        for d in [
            DataType::Int,
            DataType::Text,
            DataType::Blob,
            DataType::IntList,
        ] {
            assert!(Value::Null.matches(d));
        }
        assert!(Value::Int(1).matches(DataType::Int));
        assert!(!Value::Int(1).matches(DataType::Text));
    }

    #[test]
    fn sql_cmp_same_type() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Text("b".into())
                .sql_cmp(&Value::Text("a".into()))
                .unwrap(),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn sql_cmp_cross_type_errors() {
        assert!(Value::Int(1).sql_cmp(&Value::Text("1".into())).is_err());
    }

    #[test]
    fn total_cmp_orders_across_types() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Text(String::new())),
            Ordering::Less
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Text("hi".into()).as_text().unwrap(), "hi");
        assert_eq!(Value::IntList(vec![1, 2]).as_int_list().unwrap(), &[1, 2]);
        assert!(Value::Int(7).as_text().is_err());
        assert!(Value::Text("hi".into()).as_int().is_err());
    }

    #[test]
    fn display_round_trip_forms() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Text("abc".into()).to_string(), "'abc'");
        assert_eq!(Value::IntList(vec![0, 2, 6]).to_string(), "[0,2,6]");
        assert_eq!(Value::Blob(vec![0xde, 0xad]).to_string(), "x'dead'");
    }
}
