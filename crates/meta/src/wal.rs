//! Write-ahead log.
//!
//! Redo-only logging: every mutation is appended as a record tagged with its
//! transaction id; a `Commit` record seals the transaction. Recovery replays,
//! in log order, only the operations of transactions that committed — a torn
//! tail (incomplete record, bad CRC) ends replay cleanly, which is exactly
//! the atomic-commit behaviour the paper leans on POSTGRES for.
//!
//! Record framing on disk: `[len: u32][crc32(payload): u32][payload]`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::codec::{self, Reader};
use crate::error::{MetaError, Result};
use crate::schema::Schema;
use crate::table::RowId;
use crate::value::Value;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin { txn: u64 },
    /// Row inserted.
    Insert {
        txn: u64,
        table: String,
        row_id: RowId,
        values: Vec<Value>,
    },
    /// Row replaced (redo image only).
    Update {
        txn: u64,
        table: String,
        row_id: RowId,
        values: Vec<Value>,
    },
    /// Row removed.
    Delete {
        txn: u64,
        table: String,
        row_id: RowId,
    },
    /// Table created.
    CreateTable {
        txn: u64,
        name: String,
        schema: Schema,
    },
    /// Table dropped.
    DropTable { txn: u64, name: String },
    /// Transaction committed; its records become durable.
    Commit { txn: u64 },
}

impl WalRecord {
    /// The transaction id this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::CreateTable { txn, .. }
            | WalRecord::DropTable { txn, .. }
            | WalRecord::Commit { txn } => *txn,
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WalRecord> {
        match r.u8()? {
            1 => Ok(WalRecord::Begin { txn: r.u64()? }),
            2 => Ok(WalRecord::Insert {
                txn: r.u64()?,
                table: r.string()?,
                row_id: RowId(r.u64()?),
                values: codec::get_row(r)?,
            }),
            3 => Ok(WalRecord::Update {
                txn: r.u64()?,
                table: r.string()?,
                row_id: RowId(r.u64()?),
                values: codec::get_row(r)?,
            }),
            4 => Ok(WalRecord::Delete {
                txn: r.u64()?,
                table: r.string()?,
                row_id: RowId(r.u64()?),
            }),
            5 => Ok(WalRecord::CreateTable {
                txn: r.u64()?,
                name: r.string()?,
                schema: codec::get_schema(r)?,
            }),
            6 => Ok(WalRecord::DropTable {
                txn: r.u64()?,
                name: r.string()?,
            }),
            7 => Ok(WalRecord::Commit { txn: r.u64()? }),
            other => Err(MetaError::Storage(format!("bad wal record tag {other}"))),
        }
    }
}

/// Log records encoded and framed as they are made, in the bytes
/// [`WalWriter::append`] writes: the one encoder of every record. A row
/// operation encodes its record from the table's own copy of the row, so
/// the log keeps no copy of the row or of the table's name. Its buffer is
/// reused: [`Redo::clear`] keeps the capacity.
#[derive(Debug, Default)]
pub struct Redo {
    bytes: Vec<u8>,
}

impl Redo {
    pub fn begin(&mut self, txn: u64) {
        self.frame(1, txn, |_| {});
    }

    pub fn insert(&mut self, txn: u64, table: &str, row_id: RowId, values: &[Value]) {
        self.frame(2, txn, |buf| {
            codec::put_str(buf, table);
            codec::put_u64(buf, row_id.0);
            codec::put_row(buf, values);
        });
    }

    /// A row replaced (the redo image only).
    pub fn update(&mut self, txn: u64, table: &str, row_id: RowId, values: &[Value]) {
        self.frame(3, txn, |buf| {
            codec::put_str(buf, table);
            codec::put_u64(buf, row_id.0);
            codec::put_row(buf, values);
        });
    }

    pub fn delete(&mut self, txn: u64, table: &str, row_id: RowId) {
        self.frame(4, txn, |buf| {
            codec::put_str(buf, table);
            codec::put_u64(buf, row_id.0);
        });
    }

    pub fn create_table(&mut self, txn: u64, name: &str, schema: &Schema) {
        self.frame(5, txn, |buf| {
            codec::put_str(buf, name);
            codec::put_schema(buf, schema);
        });
    }

    pub fn drop_table(&mut self, txn: u64, name: &str) {
        self.frame(6, txn, |buf| codec::put_str(buf, name));
    }

    /// Seal transaction `txn`: its records become durable.
    pub fn commit(&mut self, txn: u64) {
        self.frame(7, txn, |_| {});
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Append `other`'s records after these.
    pub fn extend(&mut self, other: &Redo) {
        self.bytes.extend_from_slice(&other.bytes);
    }

    /// Forget every record, keeping the buffer.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// One record: `[len: u32][crc32(payload): u32][payload]`, the payload
    /// its tag, its transaction and what `fields` writes.
    fn frame(&mut self, tag: u8, txn: u64, fields: impl FnOnce(&mut Vec<u8>)) {
        let head = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 8]);
        self.bytes.push(tag);
        codec::put_u64(&mut self.bytes, txn);
        fields(&mut self.bytes);
        let payload = &self.bytes[head + 8..];
        let (len, crc) = (payload.len() as u32, codec::crc32(payload));
        self.bytes[head..head + 4].copy_from_slice(&len.to_le_bytes());
        self.bytes[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Appender for the WAL file.
pub struct WalWriter {
    file: File,
    sync_on_commit: bool,
}

impl WalWriter {
    /// Open (creating if needed) the WAL at `path` for appending.
    pub fn open(path: &Path, sync_on_commit: bool) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file,
            sync_on_commit,
        })
    }

    /// Append a batch of committed transactions; with syncing enabled, the
    /// file is fsynced so the commits are durable.
    pub fn append(&mut self, redo: &Redo) -> Result<()> {
        self.file.write_all(&redo.bytes)?;
        if self.sync_on_commit {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Read every intact record from the WAL at `path`. A torn or corrupt tail
/// ends the scan without error (those records belong to an unfinished
/// transaction by construction); corruption *before* the tail is reported.
pub fn read_wal(path: &Path) -> Result<Vec<WalRecord>> {
    read_intact(path).map(|(records, _)| records)
}

/// [`read_wal`], and the length of the log's intact prefix: the end of its
/// last intact record, where the next append belongs.
pub(crate) fn read_intact(path: &Path) -> Result<(Vec<WalRecord>, u64)> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= raw.len() {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > raw.len() {
            break; // torn tail
        }
        let payload = &raw[pos + 8..pos + 8 + len];
        if codec::crc32(payload) != crc {
            break; // corrupt tail record: stop replay here
        }
        let mut r = Reader::new(payload);
        records.push(WalRecord::decode(&mut r)?);
        pos += 8 + len;
    }
    Ok((records, pos as u64))
}

/// Cut the log at `path` back to its first `intact` bytes, durably. A torn
/// tail left in place would hide every record appended behind it from the
/// next [`read_wal`], which stops where the tail starts.
pub(crate) fn cut_torn_tail(path: &Path, intact: u64) -> Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    if file.metadata()?.len() > intact {
        file.set_len(intact)?;
        file.sync_data()?;
    }
    Ok(())
}

/// The set of transaction ids with a `Commit` record in `records`.
pub fn committed_txns(records: &[WalRecord]) -> std::collections::HashSet<u64> {
    records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    /// A directory of this test's own, removed with its contents when the
    /// test ends, passed or failed.
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir() -> TmpDir {
        let d = std::env::temp_dir().join(format!(
            "dpfs-meta-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        TmpDir(d)
    }

    /// `records`, encoded as the database encodes them.
    fn redo_of(records: &[WalRecord]) -> Redo {
        let mut redo = Redo::default();
        for rec in records {
            match rec {
                WalRecord::Begin { txn } => redo.begin(*txn),
                WalRecord::Insert {
                    txn,
                    table,
                    row_id,
                    values,
                } => redo.insert(*txn, table, *row_id, values),
                WalRecord::Update {
                    txn,
                    table,
                    row_id,
                    values,
                } => redo.update(*txn, table, *row_id, values),
                WalRecord::Delete { txn, table, row_id } => redo.delete(*txn, table, *row_id),
                WalRecord::CreateTable { txn, name, schema } => {
                    redo.create_table(*txn, name, schema)
                }
                WalRecord::DropTable { txn, name } => redo.drop_table(*txn, name),
                WalRecord::Commit { txn } => redo.commit(*txn),
            }
        }
        redo
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::new(vec![Column::new("k", DataType::Text).primary_key()]).unwrap();
        vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::CreateTable {
                txn: 1,
                name: "t".into(),
                schema,
            },
            WalRecord::Insert {
                txn: 1,
                table: "t".into(),
                row_id: RowId(0),
                values: vec!["a".into()],
            },
            WalRecord::Update {
                txn: 1,
                table: "t".into(),
                row_id: RowId(0),
                values: vec!["b".into()],
            },
            WalRecord::Delete {
                txn: 1,
                table: "t".into(),
                row_id: RowId(0),
            },
            WalRecord::DropTable {
                txn: 1,
                name: "t".into(),
            },
            WalRecord::Commit { txn: 1 },
        ]
    }

    #[test]
    fn write_then_read_round_trip() {
        let dir = tmpdir();
        let path = dir.join("rt.wal");
        let _ = std::fs::remove_file(&path);
        let recs = sample_records();
        let mut w = WalWriter::open(&path, true).unwrap();
        w.append(&redo_of(&recs)).unwrap();
        let back = read_wal(&path).unwrap();
        assert_eq!(back, recs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let dir = tmpdir();
        let path = dir.join("nonexistent.wal");
        let _ = std::fs::remove_file(&path);
        assert!(read_wal(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = tmpdir();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        let recs = sample_records();
        let mut w = WalWriter::open(&path, false).unwrap();
        w.append(&redo_of(&recs)).unwrap();
        drop(w);
        // chop off the last 3 bytes: the final record (Commit) is torn
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let back = read_wal(&path).unwrap();
        assert_eq!(back.len(), recs.len() - 1);
        assert!(committed_txns(&back).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_crc_stops_replay() {
        let dir = tmpdir();
        let path = dir.join("crc.wal");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, false).unwrap();
        w.append(&redo_of(&sample_records())).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF; // flip a payload byte of the final record
        std::fs::write(&path, &data).unwrap();
        let back = read_wal(&path).unwrap();
        assert_eq!(back.len(), sample_records().len() - 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn committed_set() {
        let recs = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Commit { txn: 1 },
            WalRecord::Begin { txn: 2 },
        ];
        let set = committed_txns(&recs);
        assert!(set.contains(&1));
        assert!(!set.contains(&2));
    }
}
