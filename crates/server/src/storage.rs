//! The storage abstraction every durable byte goes through.
//!
//! All WAL and checkpoint I/O in `hem-server` flows through the
//! [`Storage`] trait — a deliberately small, path-based vocabulary of
//! whole operations (`read`, `append`, `write`, `sync`, `truncate`,
//! `rename`, `remove`, `list`, …). Two implementations exist:
//!
//! * [`RealStorage`] maps each operation 1:1 onto `std::fs`;
//! * [`ChaosStorage`] is a deterministic in-memory filesystem that
//!   injects the failure modes real disks exhibit — torn writes, short
//!   reads, dropped fsyncs, `ENOSPC`, and whole-machine crashes at an
//!   exact operation index — all derived from a seeded fnv stream, so
//!   every failure is reproducible from `(seed, op index)` alone.
//!
//! The chaos model is the classic two-image one: every file has a
//! *current* image (what reads observe now) and a *durable* image (what
//! survives a power cut). `sync` promotes current to durable; a crash
//! resets current to durable **plus a deterministic prefix of the
//! unsynced suffix** — the "lazy flush debris" that produces exactly
//! the torn tails WAL recovery must truncate. `rename` after a `sync`
//! is modeled atomic-and-durable, matching the rename-after-fsync
//! guarantee of journalled filesystems that the checkpoint procedure
//! relies on. Directory entries are modeled durable once the file is
//! synced; `sync_dir` participates in op counting and fault injection
//! but adds no extra persistence in the model.
//!
//! Because every operation is counted, "crash at op K" enumerates the
//! *complete* space of crash points for a workload: the harness in
//! [`chaos`](crate::chaos) runs the same scripted session once per
//! index and machine-checks the recovery contract at each one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::Bound;
use std::path::Path;
use std::sync::{Arc, Mutex};

use hem_obs::{Counter, RecorderHandle};

use crate::hash::fnv1a64;

/// The filesystem vocabulary of the serving layer.
///
/// Every method is a *whole* operation: it either fully succeeds or
/// returns an error (real partial effects are modeled only by
/// [`ChaosStorage`], which is the point — the caller's contract is the
/// same either way, and recovery code must tolerate any prefix of an
/// operation having reached the disk before a crash).
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Reads the entire file. `NotFound` if it does not exist.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The file's current length in bytes. `NotFound` if absent.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Appends `data` to the file, creating it if absent. Not durable
    /// until [`Storage::sync`].
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Creates or replaces the file with `data`. Not durable until
    /// [`Storage::sync`].
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Creates or replaces the file with the bytes `fill` writes, as
    /// one [`Storage::write`] (`fill` runs at most once). The default
    /// collects the bytes and calls `write`; real storage streams them
    /// to the file, so large content is never held whole in memory.
    fn write_from(
        &self,
        path: &Path,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut data = Vec::new();
        fill(&mut data)?;
        self.write(path, &data)
    }
    /// Forces the file's current content to stable storage (`fsync`).
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file. `NotFound` if absent.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`, sorted.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `dir` and its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Forces the directory entry table to stable storage — the step
    /// that makes a preceding `rename` durable on a real filesystem.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Offers the storage a metrics handle (used by [`ChaosStorage`] to
    /// count injected faults; a no-op for real storage).
    fn attach_recorder(&self, _recorder: RecorderHandle) {}
}

/// [`Storage`] over the real filesystem, 1:1 with `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealStorage;

impl Storage for RealStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        file.write_all(data)?;
        file.flush()
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn write_from(
        &self,
        path: &Path,
        fill: &mut dyn FnMut(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut file = io::BufWriter::new(File::create(path)?);
        fill(&mut file)?;
        file.flush()
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// Configuration of the deterministic chaos model.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Seed of the fnv stream every injected decision derives from.
    pub seed: u64,
    /// Crash the "machine" at exactly this operation index (0-based):
    /// the op applies a deterministic partial effect, then this and
    /// every later operation fails until [`ChaosStorage::power_cycle`].
    pub crash_at_op: Option<u64>,
    /// Inject a transient fault roughly every N operations (an op `k`
    /// faults when `fnv(seed, k)` lands in the 1-in-N residue). `0`
    /// disables transient faults.
    pub fault_every: u64,
}

impl ChaosOptions {
    /// A quiet model: no crashes, no transient faults — useful for
    /// counting the operations of a workload before enumerating it.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        ChaosOptions {
            seed,
            crash_at_op: None,
            fault_every: 0,
        }
    }
}

/// What kind of operation an op index landed on (drives which fault is
/// injectable there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Sync,
    Meta,
}

/// Files and directories are keyed by their path's bytes: comparing
/// bytes costs the same whatever the path's length, where `PathBuf`
/// compares component by component. Paths are therefore not
/// normalized: `d/a` and `d//a` name different files, so callers join
/// paths the same way each time (the server always uses `Path::join`).
#[derive(Debug, Default)]
struct ChaosFs {
    /// What reads observe now.
    current: BTreeMap<Vec<u8>, Vec<u8>>,
    /// What survives a power cut.
    durable: BTreeMap<Vec<u8>, Vec<u8>>,
    dirs: BTreeSet<Vec<u8>>,
}

/// The path separator as a byte of a [`ChaosFs`] key.
const SEP: u8 = std::path::MAIN_SEPARATOR as u8;

/// The [`ChaosFs`] key of `path`.
fn key(path: &Path) -> &[u8] {
    path.as_os_str().as_encoded_bytes()
}

#[derive(Debug)]
struct ChaosInner {
    opts: ChaosOptions,
    fs: ChaosFs,
    ops: u64,
    injected: u64,
    crashed: bool,
    recorder: Option<RecorderHandle>,
}

/// A deterministic in-memory filesystem with seeded fault injection.
///
/// Cloning shares the underlying "disk": the enumeration harness keeps
/// one handle while handing another (as `Arc<dyn Storage>`) to the
/// server under test, so it can crash and power-cycle the disk from
/// outside.
#[derive(Debug, Clone)]
pub struct ChaosStorage {
    inner: Arc<Mutex<ChaosInner>>,
}

fn inject_err(kind: io::ErrorKind, what: &str, op: u64) -> io::Error {
    io::Error::new(kind, format!("injected {what} at storage op {op}"))
}

fn crashed_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "storage crashed; power_cycle before further I/O",
    )
}

impl ChaosStorage {
    /// Creates a chaos disk with the given fault plan.
    #[must_use]
    pub fn new(opts: ChaosOptions) -> Self {
        ChaosStorage {
            inner: Arc::new(Mutex::new(ChaosInner {
                opts,
                fs: ChaosFs::default(),
                ops: 0,
                injected: 0,
                crashed: false,
                recorder: None,
            })),
        }
    }

    /// Total storage operations observed so far (including faulted and
    /// crashed ones).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Transient faults injected so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.lock().injected
    }

    /// Whether the modeled machine is currently crashed.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Arms (or disarms) the crash point for subsequent operations.
    pub fn set_crash_at_op(&self, crash_at_op: Option<u64>) {
        self.lock().opts.crash_at_op = crash_at_op;
    }

    /// The durable image of a file — what a power cut would preserve.
    /// `None` if the file was never synced into existence.
    #[must_use]
    pub fn durable_image(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().fs.durable.get(key(path)).cloned()
    }

    /// Sum of current file sizes — the disk footprint a `du` would see.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.lock()
            .fs
            .current
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }

    /// Models a power cut and reboot: every file falls back to its
    /// durable image **plus a deterministic prefix of the unsynced
    /// suffix** (lazy-flush debris — the source of torn WAL tails).
    /// Clears the crashed flag; the consumed crash point stays
    /// disarmed so the restarted run proceeds fault-free unless
    /// re-armed.
    pub fn power_cycle(&self) {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        let op = inner.ops;
        let mut rebooted: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (path, current) in &inner.fs.current {
            let base = inner.fs.durable.get(path).cloned().unwrap_or_default();
            let image = if current.len() > base.len() && current.starts_with(&base) {
                // Unsynced append suffix: a prefix of it may have been
                // lazily flushed before the cut.
                let extra = &current[base.len()..];
                let salt = format!("debris:{}", String::from_utf8_lossy(path));
                let debris = (chaos_hash(seed, op, &salt) as usize) % (extra.len() + 1);
                let mut image = base;
                image.extend_from_slice(&extra[..debris]);
                image
            } else {
                // Rewritten or truncated without a sync: the durable
                // image wins (truncates "resurrect" until synced).
                base
            };
            rebooted.insert(path.clone(), image);
        }
        // Files that exist only durably (current entry lost to an
        // unsynced remove cannot happen — removes hit both images — but
        // keep the durable side authoritative regardless).
        for (path, bytes) in &inner.fs.durable {
            rebooted
                .entry(path.clone())
                .or_insert_with(|| bytes.clone());
        }
        inner.fs.durable = rebooted.clone();
        inner.fs.current = rebooted;
        inner.crashed = false;
        inner.opts.crash_at_op = None;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Books one operation: decides normal / transient fault / crash.
    /// Returns `Ok(op_index)` for a normal op, or the error to surface
    /// after `partial` effects were applied by the caller via
    /// [`OpDecision`].
    fn begin(inner: &mut ChaosInner, kind: OpKind) -> Result<u64, OpDecision> {
        if inner.crashed {
            return Err(OpDecision::Dead);
        }
        let op = inner.ops;
        inner.ops += 1;
        if inner.opts.crash_at_op == Some(op) {
            inner.crashed = true;
            return Err(OpDecision::Crash { op });
        }
        let every = inner.opts.fault_every;
        if every > 0 && chaos_hash(inner.opts.seed, op, "fault") % every == 0 {
            inner.injected += 1;
            if let Some(recorder) = &inner.recorder {
                recorder.add(Counter::InjectedFaults, 1);
            }
            return Err(OpDecision::Fault { op, kind });
        }
        Ok(op)
    }
}

/// How a booked operation must fail (the caller applies partial
/// effects, then surfaces the mapped error).
enum OpDecision {
    /// The machine is already crashed: everything fails until
    /// [`ChaosStorage::power_cycle`].
    Dead,
    /// This op *is* the crash point.
    Crash { op: u64 },
    /// A transient injected fault; the machine stays up.
    Fault { op: u64, kind: OpKind },
}

impl OpDecision {
    fn error(&self) -> io::Error {
        match self {
            OpDecision::Dead => crashed_err(),
            OpDecision::Crash { op } => inject_err(io::ErrorKind::BrokenPipe, "crash", *op),
            OpDecision::Fault { op, kind } => match kind {
                OpKind::Read => inject_err(io::ErrorKind::Interrupted, "short read", *op),
                OpKind::Sync => inject_err(io::ErrorKind::Other, "dropped fsync", *op),
                OpKind::Write => {
                    if chaos_hash(0x1d, *op, "enospc") & 1 == 0 {
                        inject_err(io::ErrorKind::Other, "ENOSPC", *op)
                    } else {
                        inject_err(io::ErrorKind::WriteZero, "torn write", *op)
                    }
                }
                OpKind::Meta => inject_err(io::ErrorKind::Other, "metadata fault", *op),
            },
        }
    }
}

/// One fnv-derived decision, keyed by `(seed, op index, salt)`.
fn chaos_hash(seed: u64, op: u64, salt: &str) -> u64 {
    fnv1a64(format!("{seed}:{op}:{salt}").as_bytes())
}

/// Deterministic number of bytes (`0..=len`) of a write that reach the
/// current image when the op is torn by a fault or crash.
fn partial_len(seed: u64, op: u64, len: usize) -> usize {
    (chaos_hash(seed, op, "partial") as usize) % (len + 1)
}

/// Whether an atomic op (sync/truncate/rename/remove) completed just
/// *before* the crash point rather than not at all — both serializations
/// are legal crash outcomes, and enumerating with a deterministic coin
/// covers each at different indices.
fn applied_before_crash(seed: u64, op: u64) -> bool {
    chaos_hash(seed, op, "applied") & 1 == 1
}

impl Storage for ChaosStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut inner = self.lock();
        match ChaosStorage::begin(&mut inner, OpKind::Read) {
            Ok(_) => inner.fs.current.get(key(path)).cloned().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
            }),
            Err(d) => Err(d.error()),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let mut inner = self.lock();
        match ChaosStorage::begin(&mut inner, OpKind::Read) {
            Ok(_) => inner
                .fs
                .current
                .get(key(path))
                .map(|v| v.len() as u64)
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
                }),
            Err(d) => Err(d.error()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are not counted as storage ops: they map to
        // metadata cache hits, and letting them consume crash indices
        // would only dilute the enumeration with no-ops.
        let inner = self.lock();
        inner.fs.current.contains_key(key(path)) || inner.fs.dirs.contains(key(path))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        match ChaosStorage::begin(&mut inner, OpKind::Write) {
            Ok(_) => {
                inner
                    .fs
                    .current
                    .entry(key(path).to_vec())
                    .or_default()
                    .extend_from_slice(data);
                Ok(())
            }
            Err(d) => {
                if let OpDecision::Crash { op } | OpDecision::Fault { op, .. } = d {
                    let torn = partial_len(seed, op, data.len());
                    inner
                        .fs
                        .current
                        .entry(key(path).to_vec())
                        .or_default()
                        .extend_from_slice(&data[..torn]);
                }
                Err(d.error())
            }
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        match ChaosStorage::begin(&mut inner, OpKind::Write) {
            Ok(_) => {
                inner.fs.current.insert(key(path).to_vec(), data.to_vec());
                Ok(())
            }
            Err(d) => {
                if let OpDecision::Crash { op } | OpDecision::Fault { op, .. } = d {
                    let torn = partial_len(seed, op, data.len());
                    inner
                        .fs
                        .current
                        .insert(key(path).to_vec(), data[..torn].to_vec());
                }
                Err(d.error())
            }
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        match ChaosStorage::begin(&mut inner, OpKind::Sync) {
            Ok(_) => {
                if let Some(bytes) = inner.fs.current.get(key(path)).cloned() {
                    inner.fs.durable.insert(key(path).to_vec(), bytes);
                    Ok(())
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("{}", path.display()),
                    ))
                }
            }
            Err(d) => {
                if let OpDecision::Crash { op } = d {
                    if applied_before_crash(seed, op) {
                        if let Some(bytes) = inner.fs.current.get(key(path)).cloned() {
                            inner.fs.durable.insert(key(path).to_vec(), bytes);
                        }
                    }
                }
                // A transiently dropped fsync promotes nothing.
                Err(d.error())
            }
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        let apply = |inner: &mut ChaosInner| -> io::Result<()> {
            let file = inner.fs.current.get_mut(key(path)).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
            })?;
            file.truncate(len as usize);
            Ok(())
        };
        match ChaosStorage::begin(&mut inner, OpKind::Meta) {
            Ok(_) => apply(&mut inner),
            Err(d) => {
                if let OpDecision::Crash { op } = d {
                    if applied_before_crash(seed, op) {
                        let _ = apply(&mut inner);
                    }
                }
                Err(d.error())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        let apply = |inner: &mut ChaosInner| -> io::Result<()> {
            let bytes = inner.fs.current.remove(key(from)).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{}", from.display()))
            })?;
            inner.fs.current.insert(key(to).to_vec(), bytes);
            // Rename-after-fsync is atomic and durable on a journalled
            // fs: if the source content was durable, it is durable at
            // the new name (and gone from the old one).
            if let Some(durable) = inner.fs.durable.remove(key(from)) {
                inner.fs.durable.insert(key(to).to_vec(), durable);
            }
            Ok(())
        };
        match ChaosStorage::begin(&mut inner, OpKind::Meta) {
            Ok(_) => apply(&mut inner),
            Err(d) => {
                if let OpDecision::Crash { op } = d {
                    if applied_before_crash(seed, op) {
                        let _ = apply(&mut inner);
                    }
                }
                Err(d.error())
            }
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let seed = inner.opts.seed;
        let apply = |inner: &mut ChaosInner| -> io::Result<()> {
            if inner.fs.current.remove(key(path)).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{}", path.display()),
                ));
            }
            inner.fs.durable.remove(key(path));
            Ok(())
        };
        match ChaosStorage::begin(&mut inner, OpKind::Meta) {
            Ok(_) => apply(&mut inner),
            Err(d) => {
                if let OpDecision::Crash { op } = d {
                    if applied_before_crash(seed, op) {
                        let _ = apply(&mut inner);
                    }
                }
                Err(d.error())
            }
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut inner = self.lock();
        match ChaosStorage::begin(&mut inner, OpKind::Read) {
            Ok(_) => {
                // The directory's files are the keys that extend its
                // bytes by a separator: one contiguous, sorted range.
                let mut prefix = key(dir).to_vec();
                if !prefix.is_empty() && prefix.last() != Some(&SEP) {
                    prefix.push(SEP);
                }
                let names = inner
                    .fs
                    .current
                    .range::<[u8], _>((Bound::Included(&prefix[..]), Bound::Unbounded))
                    .map(|(path, _)| path)
                    .take_while(|path| path.starts_with(&prefix))
                    .map(|path| &path[prefix.len()..])
                    .filter(|name| !name.contains(&SEP))
                    .map(|name| String::from_utf8_lossy(name).into_owned())
                    .collect();
                Ok(names)
            }
            Err(d) => Err(d.error()),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        match ChaosStorage::begin(&mut inner, OpKind::Meta) {
            Ok(_) => {
                let mut cur = dir.to_path_buf();
                loop {
                    inner.fs.dirs.insert(key(&cur).to_vec());
                    match cur.parent() {
                        Some(parent) if parent != Path::new("") => cur = parent.to_path_buf(),
                        _ => break,
                    }
                }
                Ok(())
            }
            Err(d) => Err(d.error()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        match ChaosStorage::begin(&mut inner, OpKind::Sync) {
            Ok(_) => {
                let _ = dir;
                Ok(())
            }
            Err(d) => Err(d.error()),
        }
    }

    fn attach_recorder(&self, recorder: RecorderHandle) {
        self.lock().recorder = Some(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_appends_survive_only_as_deterministic_debris() {
        let disk = ChaosStorage::new(ChaosOptions::quiet(7));
        disk.append(&p("d/a.wal"), b"synced-part").expect("append");
        disk.sync(&p("d/a.wal")).expect("sync");
        disk.append(&p("d/a.wal"), b"unsynced-suffix")
            .expect("append");
        disk.power_cycle();
        let after = disk.read(&p("d/a.wal")).expect("read");
        assert!(after.starts_with(b"synced-part"));
        assert!(after.len() <= b"synced-part".len() + b"unsynced-suffix".len());
        // Determinism: an identical history reboots to an identical image.
        let disk2 = ChaosStorage::new(ChaosOptions::quiet(7));
        disk2.append(&p("d/a.wal"), b"synced-part").expect("append");
        disk2.sync(&p("d/a.wal")).expect("sync");
        disk2
            .append(&p("d/a.wal"), b"unsynced-suffix")
            .expect("append");
        disk2.power_cycle();
        assert_eq!(after, disk2.read(&p("d/a.wal")).expect("read"));
    }

    #[test]
    fn crash_at_op_fails_that_op_and_everything_after() {
        let disk = ChaosStorage::new(ChaosOptions {
            seed: 3,
            crash_at_op: Some(1),
            fault_every: 0,
        });
        disk.append(&p("x"), b"zero").expect("op 0 is clean");
        let err = disk.append(&p("x"), b"one").expect_err("op 1 crashes");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(disk.crashed());
        assert!(disk.read(&p("x")).is_err(), "dead until power_cycle");
        disk.power_cycle();
        // Nothing was ever synced: the whole file is debris-bounded.
        let after = disk.read(&p("x")).unwrap_or_default();
        assert!(after.len() <= b"zeroone".len());
    }

    #[test]
    fn dropped_fsync_promotes_nothing() {
        // fault_every=1 faults every op; op 0 is the append (torn), so
        // probe sync behavior directly with a targeted plan instead.
        let disk = ChaosStorage::new(ChaosOptions::quiet(11));
        disk.append(&p("f"), b"abc").expect("append");
        // Arm a crash on the sync op and take the not-applied branch or
        // the applied branch — either way the error surfaces.
        disk.set_crash_at_op(Some(disk.ops()));
        let err = disk.sync(&p("f")).expect_err("sync crashes");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        disk.power_cycle();
        let after = disk.read(&p("f")).unwrap_or_default();
        assert!(after.len() <= 3);
    }

    #[test]
    fn rename_after_sync_is_durable() {
        let disk = ChaosStorage::new(ChaosOptions::quiet(5));
        disk.write(&p("d/t.tmp"), b"checkpoint").expect("write");
        disk.sync(&p("d/t.tmp")).expect("sync");
        disk.rename(&p("d/t.tmp"), &p("d/c.ckpt")).expect("rename");
        disk.power_cycle();
        assert_eq!(disk.read(&p("d/c.ckpt")).expect("read"), b"checkpoint");
        assert!(!disk.exists(&p("d/t.tmp")));
    }

    #[test]
    fn list_does_not_depend_on_directory_name_length() {
        let listing = |dir: &str| {
            let disk = ChaosStorage::new(ChaosOptions::quiet(1));
            let dir = p(dir);
            // Neighbours of `dir` in byte order: a sibling sharing its
            // name as a prefix, a nested directory, and the parent.
            let sibling = PathBuf::from(format!("{}x", dir.display()));
            for (at, name) in [
                (&dir, "b.wal"),
                (&dir, "a.ckpt"),
                (&sibling, "c.wal"),
                (&dir.join("sub"), "d.wal"),
                (&p("/tmp"), "e.wal"),
            ] {
                disk.write(&at.join(name), b"x").expect("write");
            }
            let names = disk.list(&dir).expect("list");
            assert_eq!(
                disk.list(&p(&format!("{}/", dir.display()))).expect("list"),
                names
            );
            names
        };
        let short = listing("/tmp/d");
        assert_eq!(short, ["a.ckpt", "b.wal"]);
        assert_eq!(listing(&format!("/tmp/{}", "d".repeat(200))), short);
    }

    #[test]
    fn transient_faults_are_counted_and_survivable() {
        let disk = ChaosStorage::new(ChaosOptions {
            seed: 9,
            crash_at_op: None,
            fault_every: 2,
        });
        let mut failures = 0;
        for i in 0..32u32 {
            if disk.append(&p("w"), &i.to_le_bytes()).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "a 1-in-2 plan must fault some appends");
        assert!(!disk.crashed(), "transient faults never crash the machine");
        assert_eq!(disk.injected_faults(), failures);
    }
}
