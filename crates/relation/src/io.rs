//! Pluggable file I/O for the durability layer.
//!
//! Everything the snapshot and write-ahead-log code does to disk goes
//! through the [`Io`] trait — eight primitive operations (read, write,
//! append, truncate, sync, rename, remove, exists) that are trivial to
//! implement for the real filesystem ([`StdIo`]), an in-memory map
//! ([`MemIo`]), and — the reason the seam exists — a deterministic
//! fault injector ([`FailpointIo`]) that makes the writer "crash" at any
//! chosen byte offset, leaving exactly the partial state a real power
//! loss would.
//!
//! The failpoint model is *fuel*: every written byte costs one unit and
//! every metadata operation (sync, rename, truncate, remove) costs one
//! unit. When the fuel runs out mid-write the prefix that fit is still
//! applied — a torn write — and the operation returns an error the caller
//! treats as a crash. Sweeping the fuel budget from 0 to the total
//! consumption of a recorded run therefore simulates a crash at *every*
//! point of the write sequence, which is how the recovery property suite
//! in `pfd_core` proves that recovery never loses an acknowledged record
//! and never panics.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What [`Io::read_shared`] returns: an owned byte vector.
///
/// Every load decodes from an owned buffer, so this is a plain alias. It
/// remains only because the benchmark harness (`cleanbench/src/openloop.rs`)
/// names it in its `Io::read_shared` override; the next change to the
/// benchmark deletes that override, and then this alias and the trait
/// method.
pub type SharedBytes = Vec<u8>;

/// The primitive file operations the durability layer is written against.
///
/// Contracts the implementations uphold:
///
/// * [`write`](Io::write) creates or replaces the whole file;
/// * [`append`](Io::append) creates the file when missing;
/// * [`rename`](Io::rename) replaces an existing destination atomically
///   (POSIX semantics);
/// * [`sync`](Io::sync) makes previously written bytes durable;
/// * none of the operations panic on missing files — they report
///   [`io::Error`]s the caller can turn into recovery decisions.
pub trait Io {
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or replaces the file at `path` with `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to the file at `path`, creating it when missing.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Truncates the file at `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Forces previously written bytes of `path` to durable storage.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`, replacing `to` if present.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// True when a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Creates `path` and any missing parents as directories. The default
    /// is a no-op for backends with a flat namespace (e.g. [`MemIo`],
    /// where any path is writable directly); real filesystems override it.
    /// The multi-tenant server uses this to lay out one directory per
    /// tenant before checkpointing into it.
    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
    /// Reads the whole file at `path`, exactly as [`read`](Io::read) does;
    /// no backend overrides it. It remains only because the benchmark
    /// harness's `CountingIo` (`cleanbench/src/openloop.rs`) implements it;
    /// the next change to the benchmark deletes that override, and then
    /// this method and [`SharedBytes`].
    fn read_shared(&self, path: &Path) -> io::Result<SharedBytes> {
        self.read(path)
    }
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// The real filesystem. Stateless — share one instance freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdIo;

impl Io for StdIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// In-memory filesystem
// ---------------------------------------------------------------------------

/// An in-memory filesystem: a shared `path → bytes` map.
///
/// Clones share the same storage, so a test can hand a clone to the writer
/// under fault injection and later inspect (or recover from) the surviving
/// state through the original handle. Since there is no page cache, every
/// applied write is already "durable" — which makes the fault-injection
/// crash model exact: what the map holds is what a recovering process sees.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>,
}

impl MemIo {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paths currently present, in sorted order.
    pub fn paths(&self) -> Vec<PathBuf> {
        self.files().keys().cloned().collect()
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl Io for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = self.files();
        let file = files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.truncate(len as usize);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        if self.files().contains_key(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let data = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Wraps another [`Io`] and fails deterministically once a *fuel* budget is
/// exhausted.
///
/// Costs: one unit per written byte ([`write`](Io::write) /
/// [`append`](Io::append)), one unit per metadata operation
/// ([`truncate`](Io::truncate), [`sync`](Io::sync), [`rename`](Io::rename),
/// [`remove`](Io::remove)). Reads are free. A data write that exceeds the
/// remaining fuel applies only the prefix that fits — a torn write — and
/// then errors; a metadata operation with no fuel left errors without any
/// effect. Every operation after exhaustion keeps failing, so a crashed
/// writer cannot accidentally make progress.
///
/// [`consumed`](FailpointIo::consumed) after an unlimited run measures the
/// total fuel a write sequence needs; sweeping budgets `0..=total` then
/// simulates a crash at every byte and every metadata boundary.
#[derive(Debug)]
pub struct FailpointIo<I> {
    inner: I,
    fuel: AtomicU64,
    consumed: AtomicU64,
}

/// The error kind every injected failure reports.
pub const CRASH_ERROR_KIND: io::ErrorKind = io::ErrorKind::Other;

impl<I: Io> FailpointIo<I> {
    /// Fault injector with `fuel` units of budget over `inner`.
    pub fn with_fuel(inner: I, fuel: u64) -> Self {
        FailpointIo {
            inner,
            fuel: AtomicU64::new(fuel),
            consumed: AtomicU64::new(0),
        }
    }

    /// No failures — used to measure the fuel a run consumes.
    pub fn unlimited(inner: I) -> Self {
        Self::with_fuel(inner, u64::MAX)
    }

    /// Fuel consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// The wrapped I/O.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Takes `want` units, returning how many were actually available.
    fn charge(&self, want: u64) -> u64 {
        let mut have = self.fuel.load(Ordering::Relaxed);
        loop {
            let take = want.min(have);
            match self.fuel.compare_exchange(
                have,
                have - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.consumed.fetch_add(take, Ordering::Relaxed);
                    return take;
                }
                Err(actual) => have = actual,
            }
        }
    }

    fn crash(op: &str, path: &Path) -> io::Error {
        io::Error::new(
            CRASH_ERROR_KIND,
            format!("injected crash during {op} of {}", path.display()),
        )
    }

    /// Charges one unit for a metadata op; `Ok` when it may proceed.
    fn charge_op(&self, op: &str, path: &Path) -> io::Result<()> {
        if self.charge(1) == 1 {
            Ok(())
        } else {
            Err(Self::crash(op, path))
        }
    }
}

impl<I: Io> Io for FailpointIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let allowed = self.charge(data.len() as u64) as usize;
        // Even the torn prefix must land: that is precisely the state a
        // power loss mid-write leaves behind.
        self.inner.write(path, &data[..allowed])?;
        if allowed < data.len() {
            return Err(Self::crash("write", path));
        }
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let allowed = self.charge(data.len() as u64) as usize;
        self.inner.append(path, &data[..allowed])?;
        if allowed < data.len() {
            return Err(Self::crash("append", path));
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.charge_op("truncate", path)?;
        self.inner.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.charge_op("sync", path)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.charge_op("rename", from)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.charge_op("remove", path)?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.charge_op("create_dir_all", path)?;
        self.inner.create_dir_all(path)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_behaves_like_a_filesystem() {
        let io = MemIo::new();
        let a = Path::new("/a");
        let b = Path::new("/b");
        assert!(!io.exists(a));
        assert!(io.read(a).is_err());
        io.write(a, b"hello").unwrap();
        io.append(a, b" world").unwrap();
        assert_eq!(io.read(a).unwrap(), b"hello world");
        io.truncate(a, 5).unwrap();
        assert_eq!(io.read(a).unwrap(), b"hello");
        io.rename(a, b).unwrap();
        assert!(!io.exists(a));
        assert_eq!(io.read(b).unwrap(), b"hello");
        // Clones share storage.
        let clone = io.clone();
        clone.write(a, b"x").unwrap();
        assert!(io.exists(a));
        io.remove(a).unwrap();
        assert!(io.remove(a).is_err());
        io.sync(b).unwrap();
        assert!(io.sync(a).is_err());
    }

    #[test]
    fn failpoint_tears_writes_at_the_byte_budget() {
        let mem = MemIo::new();
        let io = FailpointIo::with_fuel(mem.clone(), 3);
        let p = Path::new("/f");
        assert!(io.write(p, b"hello").is_err());
        assert_eq!(mem.read(p).unwrap(), b"hel", "torn prefix must land");
        // Fuel is exhausted: nothing further applies.
        assert!(io.append(p, b"x").is_err());
        assert!(io.sync(p).is_err());
        assert!(io.rename(p, Path::new("/g")).is_err());
        assert_eq!(mem.read(p).unwrap(), b"hel");
    }

    #[test]
    fn failpoint_charges_one_unit_per_metadata_op() {
        let mem = MemIo::new();
        mem.write(Path::new("/f"), b"data").unwrap();
        let io = FailpointIo::with_fuel(mem.clone(), 2);
        io.sync(Path::new("/f")).unwrap();
        io.rename(Path::new("/f"), Path::new("/g")).unwrap();
        assert!(io.remove(Path::new("/g")).is_err(), "fuel exhausted");
        assert!(mem.exists(Path::new("/g")), "failed remove has no effect");
        assert_eq!(io.consumed(), 2);
    }

    #[test]
    fn unlimited_failpoint_measures_consumption() {
        let io = FailpointIo::unlimited(MemIo::new());
        let p = Path::new("/f");
        io.write(p, b"12345").unwrap();
        io.sync(p).unwrap();
        io.append(p, b"67").unwrap();
        assert_eq!(io.consumed(), 5 + 1 + 2);
    }

    #[test]
    fn std_io_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("pfd-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-std-io", std::process::id()));
        let io = StdIo;
        io.write(&path, b"abc").unwrap();
        io.append(&path, b"def").unwrap();
        io.sync(&path).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"abcdef");
        io.truncate(&path, 4).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"abcd");
        let dest = dir.join(format!("{}-std-io-renamed", std::process::id()));
        io.rename(&path, &dest).unwrap();
        assert!(io.exists(&dest) && !io.exists(&path));
        io.remove(&dest).unwrap();
        assert!(!io.exists(&dest));
    }
}
