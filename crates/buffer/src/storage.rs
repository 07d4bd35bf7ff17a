//! Backing stores the buffer pool spills evicted blocks to.

use crate::pool::PageKey;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

/// A key-value store of serialized blocks.
pub trait Storage: Send {
    /// Read the bytes for a key, if present: lent when the store holds them
    /// in memory, owned when it had to read them in.
    fn read(&self, key: PageKey) -> io::Result<Option<Cow<'_, [u8]>>>;
    /// Write (or overwrite) the bytes for a key.
    fn write(&mut self, key: PageKey, data: Vec<u8>) -> io::Result<()>;
    /// Remove a key, if present.
    fn remove(&mut self, key: PageKey) -> io::Result<()>;
    /// Number of stored keys (for tests and accounting).
    fn len(&self) -> usize;
    /// True when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// A boxed store is itself a store, so callers that pick MemStore vs FileStore
// at runtime (the executor's spill pool) can use `BufferPool<Box<dyn Storage>>`.
impl Storage for Box<dyn Storage> {
    fn read(&self, key: PageKey) -> io::Result<Option<Cow<'_, [u8]>>> {
        (**self).read(key)
    }

    fn write(&mut self, key: PageKey, data: Vec<u8>) -> io::Result<()> {
        (**self).write(key, data)
    }

    fn remove(&mut self, key: PageKey) -> io::Result<()> {
        (**self).remove(key)
    }

    fn len(&self) -> usize {
        (**self).len()
    }
}

/// In-memory backing store (default for tests and benchmarks).
#[derive(Debug, Default)]
pub struct MemStore {
    map: HashMap<PageKey, Vec<u8>>,
}

impl Storage for MemStore {
    fn read(&self, key: PageKey) -> io::Result<Option<Cow<'_, [u8]>>> {
        Ok(self.map.get(&key).map(|page| Cow::Borrowed(&page[..])))
    }

    fn write(&mut self, key: PageKey, data: Vec<u8>) -> io::Result<()> {
        self.map.insert(key, data);
        Ok(())
    }

    fn remove(&mut self, key: PageKey) -> io::Result<()> {
        self.map.remove(&key);
        Ok(())
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// On-disk backing store: one file per block under a directory.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    // True when `new` made the directory; only then does drop remove it.
    created_dir: bool,
    keys: std::collections::HashSet<PageKey>,
}

impl FileStore {
    /// Create (or reuse) a spill directory. A directory this call creates
    /// is removed again on drop if it is empty by then; one that already
    /// existed is left in place.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        let created_dir = !dir.is_dir();
        std::fs::create_dir_all(&dir)?;
        Ok(FileStore { dir, created_dir, keys: std::collections::HashSet::new() })
    }

    fn path(&self, key: PageKey) -> PathBuf {
        self.dir.join(format!("m{}_p{}.blk", key.matrix, key.panel))
    }
}

impl Storage for FileStore {
    fn read(&self, key: PageKey) -> io::Result<Option<Cow<'_, [u8]>>> {
        if !self.keys.contains(&key) {
            return Ok(None);
        }
        Ok(Some(Cow::Owned(std::fs::read(self.path(key))?)))
    }

    fn write(&mut self, key: PageKey, data: Vec<u8>) -> io::Result<()> {
        let path = self.path(key);
        match std::fs::write(&path, &data) {
            // Another store that created this directory dropped while it was
            // empty and took it along: it is ours to re-create and remove now.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::create_dir_all(&self.dir)?;
                self.created_dir = true;
                std::fs::write(&path, &data)?;
            }
            other => other?,
        }
        self.keys.insert(key);
        Ok(())
    }

    fn remove(&mut self, key: PageKey) -> io::Result<()> {
        if self.keys.remove(&key) {
            std::fs::remove_file(self.path(key)).ok();
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort cleanup of spill files.
        let keys: Vec<PageKey> = self.keys.iter().copied().collect();
        for k in keys {
            let _ = self.remove(k);
        }
        // Non-recursive, so a directory someone else still writes to
        // survives; a pre-existing one may be shared and is never touched.
        if self.created_dir {
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> PageKey {
        PageKey::new(7, i)
    }

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::default();
        assert!(s.is_empty());
        s.write(key(1), b"abc".to_vec()).unwrap();
        assert_eq!(s.read(key(1)).unwrap().unwrap()[..], b"abc"[..]);
        assert_eq!(s.read(key(2)).unwrap(), None);
        assert_eq!(s.len(), 1);
        s.remove(key(1)).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join("dmml_filestore_test");
        let mut s = FileStore::new(&dir).unwrap();
        s.write(key(3), b"hello".to_vec()).unwrap();
        assert_eq!(s.read(key(3)).unwrap().unwrap()[..], b"hello"[..]);
        assert_eq!(s.read(key(4)).unwrap(), None);
        s.remove(key(3)).unwrap();
        assert_eq!(s.read(key(3)).unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn file_store_overwrite() {
        let dir = std::env::temp_dir().join("dmml_filestore_test2");
        let mut s = FileStore::new(&dir).unwrap();
        s.write(key(1), b"v1".to_vec()).unwrap();
        s.write(key(1), b"v2".to_vec()).unwrap();
        assert_eq!(s.read(key(1)).unwrap().unwrap()[..], b"v2"[..]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_store_cleans_up_on_drop() {
        let dir = std::env::temp_dir().join(format!("dmml_filestore_drop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = FileStore::new(&dir).unwrap();
            s.write(key(9), b"temp".to_vec()).unwrap();
        }
        assert!(!dir.exists(), "a store removes the spill files and the directory it created");

        // A directory that was already there may be shared: emptied of this
        // store's files, but left in place.
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut s = FileStore::new(&dir).unwrap();
            s.write(key(9), b"temp".to_vec()).unwrap();
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "spill files removed on drop");

        // Two stores on one directory, the creator dropping first while the
        // directory is empty: the survivor re-creates it on its next write
        // and removes it in turn.
        std::fs::remove_dir(&dir).unwrap();
        let creator = FileStore::new(&dir).unwrap();
        let mut sharer = FileStore::new(&dir).unwrap();
        drop(creator);
        sharer.write(key(9), b"late".to_vec()).unwrap();
        assert_eq!(sharer.read(key(9)).unwrap().unwrap()[..], b"late"[..]);
        drop(sharer);
        assert!(!dir.exists());

        // A created directory holding someone else's file survives too.
        {
            let _s = FileStore::new(&dir).unwrap();
            std::fs::write(dir.join("foreign"), b"x").unwrap();
        }
        assert!(dir.join("foreign").exists(), "drop never deletes what it did not write");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
