//! Helpers shared by the integration tests that start servers of their own.

use std::ops::{Deref, DerefMut};
use std::path::PathBuf;

/// A server or mount together with the directory it keeps its state in:
/// dropping it drops the server or mount first, then removes the directory,
/// so a test run leaves nothing behind in the temp dir.
pub struct Rooted<T> {
    inner: Option<T>,
    pub root: PathBuf,
}

impl<T> Rooted<T> {
    pub fn new(root: PathBuf, inner: T) -> Rooted<T> {
        Rooted {
            inner: Some(inner),
            root,
        }
    }
}

impl<T> Drop for Rooted<T> {
    fn drop(&mut self) {
        self.inner = None;
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl<T> Deref for Rooted<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().unwrap()
    }
}

impl<T> DerefMut for Rooted<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().unwrap()
    }
}
