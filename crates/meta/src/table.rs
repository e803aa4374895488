//! In-memory table: a heap of rows addressed by stable `RowId`s, a unique
//! index on the primary-key column (when declared) and any number of
//! non-unique secondary indexes.
//!
//! Indexes are derived state: `insert`/`update`/`delete` are the only ways a
//! row changes, and each keeps every index in step, so WAL replay, snapshot
//! load and transaction undo (all of which go through those three) never
//! see an index disagree with the heap. Secondary indexes are not logged or
//! snapshotted; whoever wants one declares it after opening the database.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{MetaError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Stable identifier of a row within a table; never reused after delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

/// Key → ids of the rows holding it, ascending (scan order).
type SecondaryIndex = BTreeMap<Value, BTreeSet<RowId>>;

/// A single table: schema + row heap + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: BTreeMap<RowId, Vec<Value>>,
    pk_index: BTreeMap<Value, RowId>,
    /// Secondary indexes by column position.
    indexes: BTreeMap<usize, SecondaryIndex>,
    next_row_id: u64,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: BTreeMap::new(),
            pk_index: BTreeMap::new(),
            indexes: BTreeMap::new(),
            next_row_id: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row; validates schema and primary-key uniqueness. Returns the
    /// new row's id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        let id = RowId(self.next_row_id);
        self.insert_with_id(id, values)?;
        Ok(id)
    }

    /// Insert with a caller-provided row id (used by WAL replay and undo so
    /// ids are stable across recovery).
    pub fn insert_with_id(&mut self, id: RowId, values: Vec<Value>) -> Result<()> {
        self.schema.check_row(&values)?;
        if self.rows.contains_key(&id) {
            return Err(MetaError::Storage(format!("row id {} already live", id.0)));
        }
        if let Some(pk) = self.schema.pk_index() {
            if self.pk_index.contains_key(&values[pk]) {
                return Err(MetaError::DuplicateKey(format!(
                    "{} = {}",
                    self.schema.columns()[pk].name,
                    values[pk]
                )));
            }
            self.pk_index.insert(values[pk].clone(), id);
        }
        for (col, index) in &mut self.indexes {
            index.entry(values[*col].clone()).or_default().insert(id);
        }
        self.next_row_id = self.next_row_id.max(id.0 + 1);
        self.rows.insert(id, values);
        Ok(())
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(&id).map(|v| v.as_slice())
    }

    /// Look up a row id via the primary-key index.
    pub fn find_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Declare a secondary index on column `col`, building it from the live
    /// rows. Declaring an indexed column again is a no-op.
    pub fn create_index(&mut self, col: usize) {
        let rows = &self.rows;
        self.indexes.entry(col).or_insert_with(|| {
            let mut index = SecondaryIndex::new();
            for (id, row) in rows {
                index.entry(row[col].clone()).or_default().insert(*id);
            }
            index
        });
    }

    /// Whether column `col` carries a secondary index.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.contains_key(&col)
    }

    /// Ids of the rows whose column `col` equals `key`, ascending; `None` if
    /// the column is not indexed.
    pub fn find_index(&self, col: usize, key: &Value) -> Option<impl Iterator<Item = RowId> + '_> {
        let index = self.indexes.get(&col)?;
        Some(index.get(key).into_iter().flatten().copied())
    }

    /// Replace the row at `id` with `values`; returns the old values.
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> Result<Vec<Value>> {
        self.schema.check_row(&values)?;
        let old = self
            .rows
            .get(&id)
            .ok_or_else(|| MetaError::Storage(format!("no row with id {}", id.0)))?;
        if let Some(pk) = self.schema.pk_index() {
            if old[pk] != values[pk] {
                if self.pk_index.contains_key(&values[pk]) {
                    return Err(MetaError::DuplicateKey(format!("{}", values[pk])));
                }
                self.pk_index.remove(&old[pk]);
                self.pk_index.insert(values[pk].clone(), id);
            }
        }
        for (col, index) in &mut self.indexes {
            if old[*col] != values[*col] {
                unindex(index, &old[*col], id);
                index.entry(values[*col].clone()).or_default().insert(id);
            }
        }
        Ok(self
            .rows
            .insert(id, values)
            .expect("row was looked up above"))
    }

    /// Remove the row at `id`; returns the removed values.
    pub fn delete(&mut self, id: RowId) -> Result<Vec<Value>> {
        let old = self
            .rows
            .remove(&id)
            .ok_or_else(|| MetaError::Storage(format!("no row with id {}", id.0)))?;
        if let Some(pk) = self.schema.pk_index() {
            self.pk_index.remove(&old[pk]);
        }
        for (col, index) in &mut self.indexes {
            unindex(index, &old[*col], id);
        }
        Ok(old)
    }

    /// Iterate all live rows in row-id order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().map(|(id, v)| (*id, v.as_slice()))
    }

    /// Panic unless every index equals one rebuilt from the rows.
    #[cfg(test)]
    pub(crate) fn assert_indexes_match_rows(&self) {
        let mut fresh = Table::new(self.schema.clone());
        for col in self.indexes.keys() {
            fresh.create_index(*col);
        }
        for (id, row) in &self.rows {
            fresh.insert_with_id(*id, row.clone()).unwrap();
        }
        assert_eq!(self.pk_index, fresh.pk_index, "primary-key index drifted");
        assert_eq!(self.indexes, fresh.indexes, "secondary index drifted");
    }
}

/// Drop `id` from `key`'s entry, and the entry with its last id.
fn unindex(index: &mut SecondaryIndex, key: &Value, id: RowId) {
    if let Some(ids) = index.get_mut(key) {
        ids.remove(&id);
        if ids.is_empty() {
            index.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            Schema::new(vec![
                Column::new("name", DataType::Text).primary_key(),
                Column::new("n", DataType::Int),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn insert_get_scan() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let b = t.insert(vec!["b".into(), Value::Int(2)]).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap()[1], Value::Int(1));
        let names: Vec<_> = t.scan().map(|(_, r)| r[0].clone()).collect();
        assert_eq!(names, vec![Value::from("a"), Value::from("b")]);
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = table();
        t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let err = t.insert(vec!["a".into(), Value::Int(2)]).unwrap_err();
        assert!(matches!(err, MetaError::DuplicateKey(_)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn find_by_pk() {
        let mut t = table();
        let id = t.insert(vec!["k".into(), Value::Int(9)]).unwrap();
        assert_eq!(t.find_pk(&"k".into()), Some(id));
        assert_eq!(t.find_pk(&"missing".into()), None);
    }

    #[test]
    fn update_moves_pk_index() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let old = t.update(id, vec!["z".into(), Value::Int(5)]).unwrap();
        assert_eq!(old[0], Value::from("a"));
        assert_eq!(t.find_pk(&"a".into()), None);
        assert_eq!(t.find_pk(&"z".into()), Some(id));
    }

    #[test]
    fn update_to_existing_pk_rejected() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.insert(vec!["b".into(), Value::Int(2)]).unwrap();
        assert!(t.update(a, vec!["b".into(), Value::Int(3)]).is_err());
        // original row intact
        assert_eq!(t.get(a).unwrap()[0], Value::from("a"));
    }

    #[test]
    fn delete_frees_pk() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.delete(id).unwrap();
        assert_eq!(t.len(), 0);
        // key usable again, id not reused
        let id2 = t.insert(vec!["a".into(), Value::Int(2)]).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn delete_missing_errors() {
        let mut t = table();
        assert!(t.delete(RowId(42)).is_err());
    }

    #[test]
    fn insert_with_id_replay() {
        let mut t = table();
        t.insert_with_id(RowId(7), vec!["a".into(), Value::Int(1)])
            .unwrap();
        // next auto id continues after the replayed one
        let id = t.insert(vec!["b".into(), Value::Int(2)]).unwrap();
        assert_eq!(id, RowId(8));
        assert!(t
            .insert_with_id(RowId(7), vec!["c".into(), Value::Int(3)])
            .is_err());
    }

    fn ids(t: &Table, col: usize, key: &Value) -> Vec<RowId> {
        t.find_index(col, key).unwrap().collect()
    }

    #[test]
    fn secondary_index_follows_insert_update_delete() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        // declared over live rows: built from them
        t.create_index(1);
        assert!(t.has_index(1) && !t.has_index(0));
        assert!(t.find_index(0, &"a".into()).is_none());
        let b = t.insert(vec!["b".into(), Value::Int(1)]).unwrap();
        let c = t.insert(vec!["c".into(), Value::Int(2)]).unwrap();
        assert_eq!(ids(&t, 1, &Value::Int(1)), vec![a, b], "duplicate keys");
        // an update moves the row between keys; the primary key may move too
        t.update(a, vec!["z".into(), Value::Int(2)]).unwrap();
        assert_eq!(ids(&t, 1, &Value::Int(1)), vec![b]);
        assert_eq!(ids(&t, 1, &Value::Int(2)), vec![a, c], "row-id order");
        // a refused update changes no index
        assert!(t.update(b, vec!["c".into(), Value::Int(9)]).is_err());
        assert_eq!(ids(&t, 1, &Value::Int(1)), vec![b]);
        assert!(ids(&t, 1, &Value::Int(9)).is_empty());
        t.delete(b).unwrap();
        assert!(ids(&t, 1, &Value::Int(1)).is_empty());
        // undo of a delete re-inserts under the old id, below newer ones
        t.insert_with_id(b, vec!["b".into(), Value::Int(2)])
            .unwrap();
        assert_eq!(ids(&t, 1, &Value::Int(2)), vec![a, b, c]);
        t.insert(vec!["n".into(), Value::Null]).unwrap();
        t.assert_indexes_match_rows();
        // declaring again keeps the index
        t.create_index(1);
        t.assert_indexes_match_rows();
    }
}
