//! A [`Storage`] that forwards every call to [`RealStorage`] and times
//! the calls that make up the serving layer's durability cost.
//!
//! Calls are bucketed by what they serve:
//!
//! * `append` on a WAL → `storage.append_*`,
//! * `sync` on a WAL → `storage.sync_*`, except the sync that completes
//!   a compaction truncate,
//! * everything on a checkpoint file (`*.ckpt.*`), the data-directory
//!   sync of the checkpoint protocol, and the WAL compaction
//!   (truncate + sync) → `checkpoint.*`.
//!
//! The wrapper changes no bytes: a test below replays a session through
//! it and through `RealStorage` and compares the data directories.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hem_obs::RecorderHandle;
use hem_server::{RealStorage, Storage};

/// Accumulated call counts and wall time (nanoseconds).
#[derive(Debug, Default)]
pub struct StorageTimes {
    /// WAL appends.
    pub append_count: AtomicU64,
    /// Time in WAL appends.
    pub append_ns: AtomicU64,
    /// WAL syncs (acknowledgement fsyncs).
    pub sync_count: AtomicU64,
    /// Time in WAL syncs.
    pub sync_ns: AtomicU64,
    /// Time in checkpoint-file calls and WAL compaction.
    pub checkpoint_ns: AtomicU64,
}

/// The timing wrapper.
#[derive(Debug, Default)]
pub struct TimedStorage {
    inner: RealStorage,
    /// The accumulated times.
    pub times: StorageTimes,
    /// The WAL last truncated, whose next sync belongs to compaction.
    truncated: Mutex<Option<PathBuf>>,
}

fn is_checkpoint(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().contains(".ckpt"))
}

fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

impl TimedStorage {
    /// Snapshot of `(append_count, append_ns, sync_count, sync_ns,
    /// checkpoint_ns)`.
    #[must_use]
    pub fn snapshot(&self) -> [u64; 5] {
        let t = &self.times;
        [
            t.append_count.load(Ordering::Relaxed),
            t.append_ns.load(Ordering::Relaxed),
            t.sync_count.load(Ordering::Relaxed),
            t.sync_ns.load(Ordering::Relaxed),
            t.checkpoint_ns.load(Ordering::Relaxed),
        ]
    }
}

impl Storage for TimedStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if is_checkpoint(path) {
            return timed(&self.times.checkpoint_ns, || self.inner.append(path, data));
        }
        self.times.append_count.fetch_add(1, Ordering::Relaxed);
        timed(&self.times.append_ns, || self.inner.append(path, data))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if is_checkpoint(path) {
            return timed(&self.times.checkpoint_ns, || self.inner.write(path, data));
        }
        self.inner.write(path, data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let compaction = {
            let mut last = self.truncated.lock().expect("storage lock");
            if last.as_deref() == Some(path) {
                *last = None;
                true
            } else {
                false
            }
        };
        if compaction || is_checkpoint(path) {
            return timed(&self.times.checkpoint_ns, || self.inner.sync(path));
        }
        self.times.sync_count.fetch_add(1, Ordering::Relaxed);
        timed(&self.times.sync_ns, || self.inner.sync(path))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if len == 0 {
            *self.truncated.lock().expect("storage lock") = Some(path.to_path_buf());
            return timed(&self.times.checkpoint_ns, || self.inner.truncate(path, len));
        }
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        timed(&self.times.checkpoint_ns, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        timed(&self.times.checkpoint_ns, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        timed(&self.times.checkpoint_ns, || self.inner.sync_dir(dir))
    }

    fn attach_recorder(&self, recorder: RecorderHandle) {
        self.inner.attach_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use hem_server::{CoreOptions, ServerCore};

    const SCENARIO: &str = "cpu c\nbus b bit_time=1\nframe F bus=b type=direct payload=2 prio=1\n  signal s triggering periodic:1000\ntask T cpu=c cet=100 prio=1 activation=F/s\n";

    /// Drives one session (enough mutations to checkpoint twice) and
    /// returns every file the data directory holds afterwards.
    fn drive(dir: &Path, storage: Arc<dyn Storage>) -> BTreeMap<String, Vec<u8>> {
        let _ = std::fs::remove_dir_all(dir);
        {
            let core = ServerCore::with_options(
                CoreOptions::new(dir)
                    .storage(storage)
                    .checkpoint_bytes(2048),
            )
            .expect("core");
            let open = format!(
                "{{\"op\":\"open\",\"session\":\"s\",\"scenario\":{}}}",
                hem_obs::json::escaped(SCENARIO)
            );
            assert!(core.handle_line(&open).starts_with("{\"ok\":true"));
            for i in 0..60 {
                let line = format!(
                    "{{\"op\":\"mutate\",\"session\":\"s\",\"event\":{{\"type\":\"set_task\",\"task\":\"T\",\"bcet\":50,\"wcet\":{}}}}}",
                    90 + i % 7
                );
                assert!(core.handle_line(&line).starts_with("{\"ok\":true"));
            }
            assert!(core
                .handle_line("{\"op\":\"analyze\",\"session\":\"s\"}")
                .starts_with("{\"ok\":true"));
        }
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(dir).expect("data dir") {
            let path = entry.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(&path).expect("file"));
        }
        std::fs::remove_dir_all(dir).expect("cleanup");
        files
    }

    #[test]
    fn timed_storage_leaves_wal_and_checkpoint_bytes_identical() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(crate::DATA_DIR)
            .join(format!("storage-test-{}", std::process::id()));
        let real = drive(&base.join("real"), Arc::new(RealStorage));
        let timed_storage = Arc::new(TimedStorage::default());
        let timed = drive(&base.join("timed"), timed_storage.clone());
        let _ = std::fs::remove_dir_all(&base);
        assert!(
            real.keys().any(|k| k.contains(".ckpt.")),
            "{:?}",
            real.keys()
        );
        assert!(real.contains_key("s.wal"));
        assert_eq!(real, timed);
        let [appends, _, syncs, _, checkpoint_ns] = timed_storage.snapshot();
        assert_eq!(appends, 61, "open + 60 mutations");
        assert_eq!(syncs, 61, "one acknowledgement fsync per append");
        assert!(checkpoint_ns > 0);
    }
}
