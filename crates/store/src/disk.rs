//! The storage seam: how a byte becomes durable.
//!
//! Every operation that creates, writes, syncs, renames or removes a file
//! of a persisted store — WAL segments, checkpoints, the decision log and
//! the `applied-through` watermark — goes through one [`Disk`]. `std::fs`
//! ([`StdDisk`]) is its only production implementation; the builders pass
//! it down, so tests can substitute a disk that records what is durable
//! and crashes or fails at any chosen operation. Reads stay on `std::fs`.
//!
//! Two rules live here and nowhere else:
//!
//! * **A failure is never retried.** The first failed write or sync on a
//!   [`Handle`] (or directory sync on a [`Dir`]) latches its error; every
//!   later write or sync on it returns that error without touching the
//!   disk. After a failed fsync the kernel may already have dropped the
//!   dirty pages, so a second fsync that "succeeds" would promise
//!   durability for bytes that are gone (PostgreSQL's 2018 "fsyncgate").
//! * **A file is durable when its data and its directory entry are.**
//!   [`Dir::replace`] writes a temporary file, syncs its data, renames it
//!   over the target and syncs the directory; segment creation syncs the
//!   directory before any record lands in the segment. A directory that
//!   cannot be opened at all (some filesystems) is the one best-effort
//!   case; a directory sync that fails is an error like any other.

use crate::wal::{io_err, WalError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The file operations a persisted store performs.
pub(crate) trait Disk: Send + Sync + fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
    /// The names of the entries of `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `path` empty (truncating a leftover) for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>>;
    /// Opens `path` for appending after truncating it to `len` bytes.
    fn open(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Makes the creations, renames and removals in `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// An open file of a [`Disk`].
pub(crate) trait DiskFile: Send + Sync + fmt::Debug {
    /// Appends all of `bytes`.
    fn write(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes the file's data durable.
    fn sync_data(&self) -> io::Result<()>;
}

/// The production disk: `std::fs`.
#[derive(Debug)]
pub(crate) struct StdDisk;

/// The production disk, shared.
pub(crate) fn std_disk() -> Arc<dyn Disk> {
    Arc::new(StdDisk)
}

impl Disk for StdDisk {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
            .collect()
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>> {
        // Append mode: every write lands at the (post-truncation) end.
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(len)?;
        Ok(Box::new(file))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            // Some filesystems cannot open directories at all.
            Err(_) => Ok(()),
        }
    }
}

impl DiskFile for File {
    fn write(&self, bytes: &[u8]) -> io::Result<()> {
        (&*self).write_all(bytes)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// Runs `op` unless `latch` holds an earlier failure; latches `op`'s
/// failure, with `path` attached.
fn latched(
    latch: &OnceLock<WalError>,
    path: &Path,
    op: impl FnOnce() -> io::Result<()>,
) -> Result<(), WalError> {
    if let Some(e) = latch.get() {
        return Err(e.clone());
    }
    op().map_err(|e| latch.get_or_init(|| io_err(path, e)).clone())
}

/// An open file and its path. Shared between the WAL writer, which
/// appends, and the group-commit flusher, which syncs.
#[derive(Debug)]
pub(crate) struct Handle {
    path: PathBuf,
    file: Box<dyn DiskFile>,
    failed: OnceLock<WalError>,
}

impl Handle {
    /// The file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends all of `bytes` (see the module docs for the failure latch).
    pub(crate) fn write(&self, bytes: &[u8]) -> Result<(), WalError> {
        latched(&self.failed, &self.path, || self.file.write(bytes))
    }

    /// Makes everything written so far durable.
    pub(crate) fn sync(&self) -> Result<(), WalError> {
        latched(&self.failed, &self.path, || self.file.sync_data())
    }
}

/// A directory of durable files on a [`Disk`]: a log directory, or the
/// decision log's (which also holds the watermark).
#[derive(Debug)]
pub(crate) struct Dir {
    disk: Arc<dyn Disk>,
    path: PathBuf,
    sync_failed: OnceLock<WalError>,
}

impl Dir {
    /// `path` on `disk`; touches nothing.
    pub(crate) fn new(disk: Arc<dyn Disk>, path: impl Into<PathBuf>) -> Self {
        Dir {
            disk,
            path: path.into(),
            sync_failed: OnceLock::new(),
        }
    }

    /// `path` on the production disk.
    pub(crate) fn std(path: impl Into<PathBuf>) -> Self {
        Dir::new(std_disk(), path)
    }

    /// The directory's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Creates the directory (and its parents) if missing.
    pub(crate) fn create(&self) -> Result<(), WalError> {
        self.disk
            .create_dir(&self.path)
            .map_err(|e| io_err(&self.path, e))
    }

    /// The names of the directory's entries.
    pub(crate) fn list(&self) -> Result<Vec<String>, WalError> {
        self.disk
            .list(&self.path)
            .map_err(|e| io_err(&self.path, e))
    }

    /// Creates the file `name`, empty.
    pub(crate) fn create_file(&self, name: &str) -> Result<Handle, WalError> {
        self.handle(name, |disk, path| disk.create(path))
    }

    /// Opens the file `name` for appending after truncating it to `len`.
    pub(crate) fn open_file(&self, name: &str, len: u64) -> Result<Handle, WalError> {
        self.handle(name, |disk, path| disk.open(path, len))
    }

    fn handle(
        &self,
        name: &str,
        open: impl FnOnce(&dyn Disk, &Path) -> io::Result<Box<dyn DiskFile>>,
    ) -> Result<Handle, WalError> {
        let path = self.path.join(name);
        let file = open(&*self.disk, &path).map_err(|e| io_err(&path, e))?;
        Ok(Handle {
            path,
            file,
            failed: OnceLock::new(),
        })
    }

    /// Removes the file `name`. Durable at the next [`sync`](Self::sync).
    pub(crate) fn remove(&self, name: &str) -> Result<(), WalError> {
        let path = self.path.join(name);
        self.disk.remove(&path).map_err(|e| io_err(&path, e))
    }

    /// Makes the directory's creations, renames and removals durable.
    pub(crate) fn sync(&self) -> Result<(), WalError> {
        latched(&self.sync_failed, &self.path, || {
            self.disk.sync_dir(&self.path)
        })
    }

    /// Atomically replaces the file `name` with `bytes` — temporary file,
    /// data sync, rename, directory sync — and returns its path. A crash
    /// leaves either the old file or the new one, never a mix.
    pub(crate) fn replace(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, WalError> {
        let tmp = self.create_file(&format!("{name}.tmp"))?;
        tmp.write(bytes)?;
        tmp.sync()?;
        let path = self.path.join(name);
        self.disk
            .rename(tmp.path(), &path)
            .map_err(|e| io_err(&path, e))?;
        self.sync()?;
        Ok(path)
    }
}

/// The entries of `names` spelled `{prefix}{n}{suffix}`, as `(n, name)`
/// sorted by `n`.
pub(crate) fn numbered<'a>(names: &'a [String], prefix: &str, suffix: &str) -> Vec<(u64, &'a str)> {
    let mut out: Vec<(u64, &str)> = names
        .iter()
        .filter_map(|name| {
            let n = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            Some((n.parse().ok()?, name.as_str()))
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
pub(crate) mod testing {
    //! A [`Disk`] for crash and I/O-error tests, after ALICE (Pillai et
    //! al., OSDI 2014). It performs every operation on a real directory —
    //! so the store runs unchanged — and keeps a model of what a power
    //! loss would leave: each file's bytes as of its last `sync_data`, and
    //! each directory's entries as of its last directory sync. Operations
    //! are numbered from 1; the [`Plan`] freezes the durable image after
    //! operation `k`, or fails operation `k`. Data syncs are modelled, not
    //! performed. Creating a directory counts as durable at once (the
    //! parent directory's sync is not modelled).

    use super::{Disk, DiskFile};
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt;
    use std::fs::{File, OpenOptions};
    use std::io::{self, Write};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// What the disk does to one chosen operation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Plan {
        /// Nothing: record the operations.
        Record,
        /// Freeze the durable image after operation `k` (0: before any).
        CrashAfter(usize),
        /// Fail operation `k` with the fault.
        Fail(usize, Fault),
    }

    /// An injected failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// An I/O error; the operation has no effect.
        Eio,
        /// The disk is full; a write stores its first half, then fails.
        Enospc,
    }

    impl Fault {
        fn error(self) -> io::Error {
            // Linux errno values.
            io::Error::from_raw_os_error(match self {
                Fault::Eio => 5,
                Fault::Enospc => 28,
            })
        }
    }

    /// The kinds of operations the disk numbers.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum OpKind {
        CreateDir,
        Create,
        Open,
        Write,
        Sync,
        Rename,
        Remove,
        SyncDir,
    }

    impl OpKind {
        /// The faults an operation of this kind can meet.
        pub(crate) fn faults(self) -> &'static [Fault] {
            match self {
                OpKind::Write => &[Fault::Eio, Fault::Enospc],
                OpKind::Sync | OpKind::SyncDir => &[Fault::Eio],
                _ => &[],
            }
        }
    }

    /// One numbered operation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct Op {
        pub(crate) kind: OpKind,
        pub(crate) path: PathBuf,
    }

    #[derive(Default)]
    struct Inode {
        live: Vec<u8>,
        durable: Vec<u8>,
        sync_failed: bool,
    }

    /// Directory → entry name → inode.
    type Entries = BTreeMap<PathBuf, BTreeMap<String, usize>>;

    struct State {
        plan: Plan,
        ops: Vec<Op>,
        inodes: Vec<Inode>,
        live: Entries,
        durable: Entries,
        dir_sync_failed: BTreeSet<PathBuf>,
        frozen: Option<Image>,
        failed: Option<Op>,
        resynced: Vec<Op>,
        hold: Option<PathBuf>,
        /// Whether a sync is waiting at the hold.
        holding: bool,
    }

    impl State {
        fn image(&self) -> Image {
            let mut image = Image::default();
            for (dir, entries) in &self.durable {
                image.dirs.push(dir.clone());
                for (name, &ino) in entries {
                    let inode = &self.inodes[ino];
                    image
                        .files
                        .push((dir.join(name), inode.durable.clone(), inode.live.clone()));
                }
            }
            image
        }
    }

    /// What a crash leaves: every durable directory, and every durable
    /// entry's synced bytes beside its live ones (for tearing).
    #[derive(Clone, Debug, Default)]
    pub(crate) struct Image {
        dirs: Vec<PathBuf>,
        files: Vec<(PathBuf, Vec<u8>, Vec<u8>)>,
    }

    impl Image {
        /// Writes the image under `to`, re-rooted from `root`. Of a file
        /// whose live bytes extend its synced ones by `n`, `tail(n)` more
        /// bytes survive: 0 for a clean power loss, a prefix for a torn
        /// one.
        pub(crate) fn write_to(&self, root: &Path, to: &Path, tail: impl Fn(usize) -> usize) {
            let at = |p: &Path| to.join(p.strip_prefix(root).expect("image paths lie under root"));
            for dir in &self.dirs {
                std::fs::create_dir_all(at(dir)).expect("creates an image directory");
            }
            for (path, durable, live) in &self.files {
                let mut bytes = durable.clone();
                if live.len() > durable.len() && live.starts_with(durable) {
                    let n = tail(live.len() - durable.len());
                    bytes.extend_from_slice(&live[durable.len()..durable.len() + n]);
                }
                std::fs::write(at(path), bytes).expect("writes an image file");
            }
        }
    }

    struct Inner {
        state: Mutex<State>,
        released: Condvar,
    }

    impl Inner {
        fn state(&self) -> MutexGuard<'_, State> {
            self.state.lock().expect("test disk poisoned")
        }

        /// Numbers one operation on `path` and runs it: `act` applies it to
        /// the real directory and the model, given the fault the plan
        /// injects here (if any). The first data sync of a file under a
        /// held directory waits for [`TestDisk::release`]; later ones pass.
        fn step<R>(
            &self,
            kind: OpKind,
            path: &Path,
            act: impl FnOnce(&mut State, Option<Fault>) -> io::Result<R>,
        ) -> io::Result<R> {
            let mut st = self.state();
            if kind == OpKind::Sync
                && !st.holding
                && st.hold.as_ref().is_some_and(|d| path.starts_with(d))
            {
                st.holding = true;
                while st.hold.is_some() {
                    st = self.released.wait(st).expect("test disk poisoned");
                }
                st.holding = false;
            }
            let op = Op {
                kind,
                path: path.to_path_buf(),
            };
            st.ops.push(op.clone());
            let k = st.ops.len();
            let fault = match st.plan {
                Plan::Fail(at, f) if at == k && kind.faults().contains(&f) => Some(f),
                _ => None,
            };
            if fault.is_some() {
                st.failed = Some(op);
            }
            let result = act(&mut st, fault);
            if st.plan == Plan::CrashAfter(k) {
                st.frozen = Some(st.image());
            }
            result
        }
    }

    fn split(path: &Path) -> (PathBuf, String) {
        let dir = path.parent().expect("a file lies in a directory");
        let name = path.file_name().expect("a file has a name");
        (dir.to_path_buf(), name.to_string_lossy().into_owned())
    }

    /// The test disk; see the module docs.
    pub(crate) struct TestDisk {
        inner: Arc<Inner>,
    }

    impl fmt::Debug for TestDisk {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("TestDisk").finish_non_exhaustive()
        }
    }

    impl TestDisk {
        pub(crate) fn new(plan: Plan) -> Arc<TestDisk> {
            Arc::new(TestDisk {
                inner: Arc::new(Inner {
                    state: Mutex::new(State {
                        plan,
                        ops: Vec::new(),
                        inodes: Vec::new(),
                        live: Entries::new(),
                        durable: Entries::new(),
                        dir_sync_failed: BTreeSet::new(),
                        frozen: (plan == Plan::CrashAfter(0)).then(Image::default),
                        failed: None,
                        resynced: Vec::new(),
                        hold: None,
                        holding: false,
                    }),
                    released: Condvar::new(),
                }),
            })
        }

        /// Replaces the plan: what happens at a later operation.
        pub(crate) fn set_plan(&self, plan: Plan) {
            self.inner.state().plan = plan;
        }

        /// Every operation so far, in order.
        pub(crate) fn ops(&self) -> Vec<Op> {
            self.inner.state().ops.clone()
        }

        /// How many operations ran so far.
        pub(crate) fn op_count(&self) -> usize {
            self.inner.state().ops.len()
        }

        /// Whether the crash point has passed: nothing after it counts.
        pub(crate) fn frozen(&self) -> bool {
            self.inner.state().frozen.is_some()
        }

        /// What a crash leaves: the image frozen at the crash point, or
        /// the current durable state.
        pub(crate) fn image(&self) -> Image {
            let st = self.inner.state();
            st.frozen.clone().unwrap_or_else(|| st.image())
        }

        /// The operation the plan failed, once it has.
        pub(crate) fn failed(&self) -> Option<Op> {
            self.inner.state().failed.clone()
        }

        /// Syncs that reached the disk after a sync of the same file or
        /// directory had failed.
        pub(crate) fn resynced(&self) -> Vec<Op> {
            self.inner.state().resynced.clone()
        }

        /// Makes the next data sync of a file under `dir` wait for
        /// [`release`](Self::release).
        pub(crate) fn hold_syncs(&self, dir: &Path) {
            self.inner.state().hold = Some(dir.to_path_buf());
        }

        /// Whether a sync is waiting at the hold.
        pub(crate) fn holding(&self) -> bool {
            self.inner.state().holding
        }

        /// Lets the held sync proceed.
        pub(crate) fn release(&self) {
            self.inner.state().hold = None;
            self.inner.released.notify_all();
        }

        fn file(&self, path: &Path, ino: usize, file: File) -> Box<dyn DiskFile> {
            Box::new(TestFile {
                disk: Arc::clone(&self.inner),
                path: path.to_path_buf(),
                ino,
                file,
            })
        }
    }

    impl Disk for TestDisk {
        fn create_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.step(OpKind::CreateDir, dir, |st, _| {
                std::fs::create_dir_all(dir)?;
                st.live.entry(dir.to_path_buf()).or_default();
                st.durable.entry(dir.to_path_buf()).or_default();
                Ok(())
            })
        }

        /// Listing is a read: it goes to the real directory, which holds
        /// the live entries.
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            super::StdDisk.list(dir)
        }

        fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
            let ino = self.inner.step(OpKind::Create, path, |st, _| {
                let ino = st.inodes.len();
                st.inodes.push(Inode::default());
                let (dir, name) = split(path);
                st.live.entry(dir).or_default().insert(name, ino);
                Ok(ino)
            })?;
            Ok(self.file(path, ino, File::create(path)?))
        }

        fn open(&self, path: &Path, len: u64) -> io::Result<Box<dyn DiskFile>> {
            let ino = self.inner.step(OpKind::Open, path, |st, _| {
                let (dir, name) = split(path);
                let ino = *st
                    .live
                    .get(&dir)
                    .and_then(|entries| entries.get(&name))
                    .expect("the test disk opens only files it created");
                st.inodes[ino].live.truncate(len as usize);
                Ok(ino)
            })?;
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(len)?;
            Ok(self.file(path, ino, file))
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.step(OpKind::Rename, to, |st, _| {
                std::fs::rename(from, to)?;
                let (from_dir, from_name) = split(from);
                let ino = st
                    .live
                    .get_mut(&from_dir)
                    .and_then(|entries| entries.remove(&from_name))
                    .expect("renames a file the disk created");
                let (dir, name) = split(to);
                st.live.entry(dir).or_default().insert(name, ino);
                Ok(())
            })
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.step(OpKind::Remove, path, |st, _| {
                std::fs::remove_file(path)?;
                let (dir, name) = split(path);
                st.live.entry(dir).or_default().remove(&name);
                Ok(())
            })
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.step(OpKind::SyncDir, dir, |st, fault| {
                if st.dir_sync_failed.contains(dir) {
                    let op = st.ops.last().expect("numbered").clone();
                    st.resynced.push(op);
                }
                if let Some(f) = fault {
                    st.dir_sync_failed.insert(dir.to_path_buf());
                    return Err(f.error());
                }
                let entries = st.live.get(dir).cloned().unwrap_or_default();
                st.durable.insert(dir.to_path_buf(), entries);
                Ok(())
            })
        }
    }

    struct TestFile {
        disk: Arc<Inner>,
        path: PathBuf,
        ino: usize,
        file: File,
    }

    impl fmt::Debug for TestFile {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("TestFile")
                .field("path", &self.path)
                .finish_non_exhaustive()
        }
    }

    impl DiskFile for TestFile {
        fn write(&self, bytes: &[u8]) -> io::Result<()> {
            self.disk.step(OpKind::Write, &self.path, |st, fault| {
                let n = match fault {
                    None => bytes.len(),
                    Some(Fault::Enospc) => bytes.len() / 2,
                    Some(Fault::Eio) => 0,
                };
                (&self.file).write_all(&bytes[..n])?;
                st.inodes[self.ino].live.extend_from_slice(&bytes[..n]);
                fault.map_or(Ok(()), |f| Err(f.error()))
            })
        }

        fn sync_data(&self) -> io::Result<()> {
            self.disk.step(OpKind::Sync, &self.path, |st, fault| {
                if st.inodes[self.ino].sync_failed {
                    let op = st.ops.last().expect("numbered").clone();
                    st.resynced.push(op);
                }
                let inode = &mut st.inodes[self.ino];
                if let Some(f) = fault {
                    inode.sync_failed = true;
                    return Err(f.error());
                }
                inode.durable = inode.live.clone();
                Ok(())
            })
        }
    }
}
