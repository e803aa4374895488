//! Paper-style API (§6): `DPFS-Open`, `DPFS-Write`, `DPFS-Read`,
//! `DPFS-Close`.
//!
//! Thin, faithful wrappers over [`Dpfs`] and [`FileHandle`] for users
//! porting code written
//! against the paper's C-style interface. New code should use the typed
//! methods directly.

use crate::datatype::Datatype;
use crate::error::Result;
use crate::file::FileHandle;
use crate::fs::Dpfs;
use crate::hints::Hint;

/// Access mode for [`dpfs_open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Open an existing file for reading.
    Read,
    /// Create a new file for writing; requires a hint.
    Write,
}

/// `DPFS-Open()`: open or create a file. "The main arguments include a
/// pointer to DPFS file handle, file name, access mode (read or write) and
/// the suggested number of I/O nodes by the user (for write operation
/// only)." The I/O-node suggestion and file level travel in the `hint`.
pub fn dpfs_open(fs: &Dpfs, name: &str, mode: OpenMode, hint: Option<&Hint>) -> Result<FileHandle> {
    match mode {
        OpenMode::Read => fs.open(name),
        OpenMode::Write => match hint {
            Some(h) => fs.create(name, h),
            None => fs.open(name), // re-open existing file for update
        },
    }
}

/// `DPFS-Write()`: write through a derived datatype anchored at byte
/// `offset`. "The main arguments include an opened DPFS file handle, a
/// buffer holding the data to be written, the derived data type to express
/// non-contiguous data..."
pub fn dpfs_write(
    handle: &mut FileHandle,
    offset: u64,
    datatype: &Datatype,
    buf: &[u8],
) -> Result<()> {
    handle.write_datatype(offset, datatype, buf)
}

/// `DPFS-Read()`: read through a derived datatype anchored at byte
/// `offset`.
pub fn dpfs_read(handle: &mut FileHandle, offset: u64, datatype: &Datatype) -> Result<Vec<u8>> {
    handle.read_datatype(offset, datatype)
}

/// `DPFS-Close()`: close the file (its metadata was persisted as it changed).
pub fn dpfs_close(handle: FileHandle) -> Result<()> {
    handle.close()
}
