//! Binary encoding for values, rows and schemas, shared by the WAL and the
//! snapshot file. Little-endian, length-prefixed, no external dependencies.

use crate::clmul;
use crate::error::{MetaError, Result};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// Append a u32 little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64 little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an i64 little-endian.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Cursor for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MetaError::Storage(format!(
                "short read: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u8.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| MetaError::Storage("invalid utf-8 in stored string".into()))
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 1,
        DataType::Text => 2,
        DataType::Blob => 3,
        DataType::IntList => 4,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType> {
    match t {
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Blob),
        4 => Ok(DataType::IntList),
        other => Err(MetaError::Storage(format!("bad dtype tag {other}"))),
    }
}

/// Encode one value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_i64(buf, *i);
        }
        Value::Text(s) => {
            buf.push(2);
            put_str(buf, s);
        }
        Value::Blob(b) => {
            buf.push(3);
            put_bytes(buf, b);
        }
        Value::IntList(xs) => {
            buf.push(4);
            put_u32(buf, xs.len() as u32);
            for x in xs {
                put_i64(buf, *x);
            }
        }
    }
}

/// Decode one value.
pub fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Text(r.string()?)),
        3 => Ok(Value::Blob(r.bytes()?.to_vec())),
        4 => {
            let n = r.u32()? as usize;
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(r.i64()?);
            }
            Ok(Value::IntList(xs))
        }
        other => Err(MetaError::Storage(format!("bad value tag {other}"))),
    }
}

/// Encode a row (vector of values).
pub fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

/// Decode a row.
pub fn get_row(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.u32()? as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value(r)?);
    }
    Ok(row)
}

/// Encode a schema.
pub fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_u32(buf, s.columns().len() as u32);
    for c in s.columns() {
        put_str(buf, &c.name);
        buf.push(dtype_tag(c.dtype));
        buf.push(c.nullable as u8);
        buf.push(c.primary_key as u8);
    }
}

/// Decode a schema.
pub fn get_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = r.u32()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let dtype = dtype_from_tag(r.u8()?)?;
        let nullable = r.u8()? != 0;
        let primary_key = r.u8()? != 0;
        cols.push(Column {
            name,
            dtype,
            nullable,
            primary_key,
        });
    }
    Schema::new(cols)
}

/// Slicing tables for [`crc32_update`], generated at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table of the reflected
/// IEEE 802.3 polynomial; `CRC_TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes, which lets one step fold 16 input
/// bytes with 16 independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Fold `data` into a running CRC-32 state (IEEE 802.3 polynomial,
/// reflected — the one WAL records, snapshots and every wire frame
/// version carry, so it can never change). Start from `u32::MAX` and
/// finish with a bitwise NOT, or use [`crc32`] for the one-shot case;
/// folding a buffer in pieces gives the same state as folding it whole.
///
/// Three arms, chosen here and nowhere else, from the input length and the
/// CPU: the whole 16-byte blocks of an input of 256 bytes or more go
/// through the wide carry-less-multiply kernel (`clmul.rs`, x86_64 with
/// VPCLMULQDQ on 512-bit registers, 256 bytes a step), those of an input of
/// 64 bytes or more (or on a CPU without it) through the narrow one
/// (PCLMULQDQ, 64 bytes a step) — about ten times the tables' speed on a
/// large buffer, and the wide one three times that; everything else
/// (shorter inputs, the < 16-byte tail, other CPUs and targets) through
/// slicing-by-16 table lookups. All compute the same function: no caller,
/// file or frame can tell which one ran.
pub fn crc32_update(mut crc: u32, mut data: &[u8]) -> u32 {
    if data.len() >= 64 {
        let (blocks, tail) = data.split_at(data.len() & !15);
        if let Some(folded) = clmul::fold_wide(crc, blocks).or_else(|| clmul::fold(crc, blocks)) {
            (crc, data) = (folded, tail);
        }
    }
    crc32_tables(crc, data)
}

/// The portable arm of [`crc32_update`]: 16 bytes per step with 16
/// independent lookups, then a byte at a time.
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let w = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `data`: detects torn/corrupt records in the WAL and
/// snapshot, and corrupt frames on the wire.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(u32::MAX, data)
}

/// The bit-at-a-time CRC-32 the table version replaced, kept as the test
/// oracle: files and frames it checksummed must stay readable.
#[cfg(test)]
pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
    !crc32_bitwise_update(u32::MAX, data)
}

/// The oracle's running form, from any register state.
#[cfg(test)]
fn crc32_bitwise_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Text("héllo".into()),
            Value::Blob(vec![0, 1, 255]),
            Value::IntList(vec![3, 1, 4, 1, 5]),
        ];
        let mut buf = Vec::new();
        put_row(&mut buf, &vals);
        let mut r = Reader::new(&buf);
        let back = get_row(&mut r).unwrap();
        assert_eq!(back, vals);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn schema_round_trip() {
        let s = Schema::new(vec![
            Column::new("k", DataType::Text).primary_key(),
            Column::new("v", DataType::IntList),
        ])
        .unwrap();
        let mut buf = Vec::new();
        put_schema(&mut buf, &s);
        let back = get_schema(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn short_read_is_error_not_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Text("abcdef".into()));
        buf.truncate(buf.len() - 2);
        assert!(get_value(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn bad_tag_is_error() {
        let buf = vec![9u8];
        assert!(get_value(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (standard check value)
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_tables_follow_the_zero_byte_recurrence() {
        // Table k is table k-1 advanced over one zero byte; pin the first
        // row's textbook entries so the generator cannot drift as a whole.
        assert_eq!(CRC_TABLES[0][1], 0x7707_3096);
        assert_eq!(CRC_TABLES[0][255], 0x2D02_EF8D);
        for k in 1..16 {
            for (&prev, &next) in CRC_TABLES[k - 1].iter().zip(&CRC_TABLES[k]) {
                assert_eq!(next, (prev >> 8) ^ CRC_TABLES[0][(prev & 0xFF) as usize]);
            }
        }
    }

    /// Every arm of `crc32_update`, each called directly, against the
    /// bitwise oracle: lengths on both sides of every loop boundary and
    /// arm switch-over (64, 256, 512, 1024), all 64 start misalignments,
    /// non-trivial starting states, and cuts on both sides of the
    /// switch-overs. On a CPU (or target) without a kernel that kernel must
    /// decline; the test prints which arms ran.
    #[test]
    fn crc32_every_arm_matches_the_bitwise_oracle() {
        #[cfg(target_arch = "x86_64")]
        let (has_narrow, has_wide) = {
            let narrow =
                is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
            let wide = narrow
                && is_x86_feature_detected!("vpclmulqdq")
                && is_x86_feature_detected!("avx512f");
            (narrow, wide)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (has_narrow, has_wide) = (false, false);
        eprintln!(
            "crc32 arms under test: tables{}{}",
            if has_narrow { ", PCLMULQDQ" } else { "" },
            if has_wide {
                ", VPCLMULQDQ (512-bit)"
            } else {
                ""
            }
        );

        const LENS: [usize; 30] = [
            0, 1, 15, 16, 63, 64, 65, 79, 80, 127, 128, 129, 255, 256, 257, 272, 511, 512, 513,
            528, 767, 1023, 1024, 1025, 1040, 4095, 4096, 4097, 65_537, 1_048_576,
        ];
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..1_048_576 + 64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        for (i, &len) in LENS.iter().enumerate() {
            for off in 0..64 {
                let data = &buf[off..off + len];
                let seed = [u32::MAX, 0, 0xDEAD_BEEF, 1][(i + off) % 4];
                let want = crc32_bitwise_update(seed, data);
                assert_eq!(
                    crc32_tables(seed, data),
                    want,
                    "tables, len {len} off {off}"
                );
                assert_eq!(
                    crc32_update(seed, data),
                    want,
                    "update, len {len} off {off}"
                );
                let (blocks, tail) = data.split_at(len & !15);
                if len >= 64 {
                    let folded = clmul::fold(seed, blocks);
                    assert_eq!(folded.is_some(), has_narrow, "kernel iff the CPU has it");
                    if let Some(state) = folded {
                        assert_eq!(
                            crc32_tables(state, tail),
                            want,
                            "narrow kernel, len {len} off {off}"
                        );
                    }
                }
                if len >= 64 {
                    let folded = clmul::fold_wide(seed, blocks);
                    assert_eq!(
                        folded.is_some(),
                        has_wide && len >= 256,
                        "wide kernel iff the CPU has it and the input is a step long"
                    );
                    if let Some(state) = folded {
                        assert_eq!(
                            crc32_tables(state, tail),
                            want,
                            "wide kernel, len {len} off {off}"
                        );
                    }
                }
                for cut in [1, 16, 63, 64, 65, 100, 255, 256, 511, 512, 513] {
                    if cut < len {
                        let piecewise =
                            crc32_update(crc32_update(seed, &data[..cut]), &data[cut..]);
                        assert_eq!(piecewise, want, "split at {cut}, len {len} off {off}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table version is the bitwise oracle, for every length
        /// (block loop, remainder loop, both) and start alignment.
        #[test]
        fn crc32_matches_bitwise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..70_001),
            skew in 0usize..32,
        ) {
            let data = &data[skew.min(data.len())..];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }

        /// Folding a buffer piecewise equals the one-shot value, wherever
        /// the cuts fall (the vectored frame writers depend on it).
        #[test]
        fn crc32_update_folds_over_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..70_001),
            cuts in proptest::collection::vec(0usize..70_001, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut crc = u32::MAX;
            let mut at = 0;
            for cut in cuts {
                crc = crc32_update(crc, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(!crc, crc32_bitwise(&data));
        }
    }

    #[test]
    fn crc32_detects_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
