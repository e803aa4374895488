//! `dpfs-shell` — the DPFS user interface (paper §7).
//!
//! "Like traditional UNIX file system, DPFS also provides a user interface
//! which provides users with a bunch of commands that can help manage files
//! and directories in the file system. These commands include cp, mkdir,
//! rm, ls, pwd and so on. DPFS also allows data transfer between sequential
//! files and DPFS" — implemented here as `import`/`export`.

#![deny(unsafe_code)]

pub mod commands;
pub mod parse;

pub use commands::Shell;
