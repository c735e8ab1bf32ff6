//! An in-memory work directory for the daemon.
//!
//! The benchmark may write only inside its own checkout, and the checkout
//! sits on whatever filesystem the host gives it. The memory-bound
//! workloads therefore keep their work directory in this store instead of
//! on tmpfs: it takes the disk out of the picture the way tmpfs does
//! (its barrier is free, like `syncfs` on tmpfs) and behaves like
//! `RealVfs` on every path the daemon takes, so the work tree it holds is
//! byte-identical to a real one (see `tests/identity.rs`).

use mwrepair_service::vfs::tmp_path;
use mwrepair_service::Vfs;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// A file's bytes as the chunks written to it. An append adds a chunk
/// rather than growing one buffer, so the store frees nothing as it grows
/// and holds exactly the bytes written: it leaves the allocator's heap as
/// it found it, which keeps the process's peak memory steady.
#[derive(Debug, Default)]
struct File(Vec<Box<[u8]>>);

impl File {
    fn of(bytes: &[u8]) -> Self {
        File(vec![bytes.into()])
    }

    fn bytes(&self) -> Vec<u8> {
        self.0.concat()
    }

    fn len(&self) -> usize {
        self.0.iter().map(|c| c.len()).sum()
    }
}

#[derive(Debug, Default)]
struct Tree {
    files: HashMap<PathBuf, File>,
    dirs: HashSet<PathBuf>,
}

impl Tree {
    fn parent_exists(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(p) if !p.as_os_str().is_empty() && !self.dirs.contains(p) => Err(not_found(p)),
            _ => Ok(()),
        }
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

/// A whole work directory held in memory.
#[derive(Debug, Default)]
pub struct MemVfs {
    tree: Mutex<Tree>,
}

impl MemVfs {
    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.tree
            .lock()
            .expect("no store operation panics while holding the tree")
    }

    /// Bytes the store holds. On a real filesystem these would be page
    /// cache, outside the process.
    pub fn held_bytes(&self) -> usize {
        self.tree().files.values().map(File::len).sum()
    }

    /// Every file under `root`, by path relative to it.
    pub fn dump(&self, root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let tree = self.tree();
        tree.files
            .iter()
            .filter_map(|(p, f)| Some((p.strip_prefix(root).ok()?.to_path_buf(), f.bytes())))
            .collect()
    }
}

impl Vfs for MemVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for dir in path.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            if !tree.dirs.insert(dir.to_path_buf()) {
                break;
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let tree = self.tree();
        tree.files
            .get(path)
            .map(File::bytes)
            .ok_or_else(|| not_found(path))
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_deferred(path, bytes)
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut tree = self.tree();
        tree.parent_exists(path)?;
        let file = tree.files.entry(path.to_path_buf()).or_default();
        let mut bytes = file.bytes();
        bytes.resize(len as usize, 0);
        *file = File::of(&bytes);
        Ok(())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let tree = self.tree();
        Ok(tree.files.get(path).map_or(0, |f| f.len() as u64))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tree = self.tree();
        tree.parent_exists(path)?;
        tree.files.insert(path.to_path_buf(), File::of(bytes));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        tree.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        if !tree.dirs.contains(path) {
            return Err(not_found(path));
        }
        tree.files.retain(|p, _| !p.starts_with(path));
        tree.dirs.retain(|d| !d.starts_with(path));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let tree = self.tree();
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }

    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tree = self.tree();
        tree.parent_exists(path)?;
        match tree.files.get_mut(path) {
            Some(file) => file.0.push(bytes.into()),
            None => {
                tree.files.insert(path.to_path_buf(), File::of(bytes));
            }
        }
        Ok(())
    }

    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tree = self.tree();
        tree.parent_exists(path)?;
        tree.files.insert(tmp_path(path), File::of(bytes));
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.exists(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn commit_atomic(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        let bytes = tree
            .files
            .remove(&tmp_path(path))
            .ok_or_else(|| not_found(path))?;
        tree.files.insert(path.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>> {
        paths.iter().map(|p| self.sync_file(p)).collect()
    }
}
