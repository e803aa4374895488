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

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                buf.push(1);
                codec::put_u64(buf, *txn);
            }
            WalRecord::Insert {
                txn,
                table,
                row_id,
                values,
            } => {
                buf.push(2);
                codec::put_u64(buf, *txn);
                codec::put_str(buf, table);
                codec::put_u64(buf, row_id.0);
                codec::put_row(buf, values);
            }
            WalRecord::Update {
                txn,
                table,
                row_id,
                values,
            } => {
                buf.push(3);
                codec::put_u64(buf, *txn);
                codec::put_str(buf, table);
                codec::put_u64(buf, row_id.0);
                codec::put_row(buf, values);
            }
            WalRecord::Delete { txn, table, row_id } => {
                buf.push(4);
                codec::put_u64(buf, *txn);
                codec::put_str(buf, table);
                codec::put_u64(buf, row_id.0);
            }
            WalRecord::CreateTable { txn, name, schema } => {
                buf.push(5);
                codec::put_u64(buf, *txn);
                codec::put_str(buf, name);
                codec::put_schema(buf, schema);
            }
            WalRecord::DropTable { txn, name } => {
                buf.push(6);
                codec::put_u64(buf, *txn);
                codec::put_str(buf, name);
            }
            WalRecord::Commit { txn } => {
                buf.push(7);
                codec::put_u64(buf, *txn);
            }
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

    /// Append a batch of records; if the batch ends in `Commit` and syncing
    /// is enabled, the file is fsynced so the commit is durable.
    pub fn append(&mut self, records: &[WalRecord]) -> Result<()> {
        let mut out = Vec::new();
        let mut payload = Vec::new();
        for rec in records {
            payload.clear();
            rec.encode(&mut payload);
            codec::put_u32(&mut out, payload.len() as u32);
            codec::put_u32(&mut out, codec::crc32(&payload));
            out.extend_from_slice(&payload);
        }
        self.file.write_all(&out)?;
        if self.sync_on_commit && matches!(records.last(), Some(WalRecord::Commit { .. })) {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Read every intact record from the WAL at `path`. A torn or corrupt tail
/// ends the scan without error (those records belong to an unfinished
/// transaction by construction); corruption *before* the tail is reported.
pub fn read_wal(path: &Path) -> Result<Vec<WalRecord>> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
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
    Ok(records)
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
        w.append(&recs).unwrap();
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
        w.append(&recs).unwrap();
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
        w.append(&sample_records()).unwrap();
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
