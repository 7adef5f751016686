//! Crash-safe WAL checkpointing and compaction.
//!
//! A checkpoint is a snapshot of a session's materialized event log —
//! every [`LogEntry`] from seq 0 through a *base* sequence — written as
//! one file so the WAL tail before the base can be truncated away.
//! Without it, a session's WAL grows forever; with it, the on-disk
//! footprint is bounded by one snapshot plus the mutations since.
//!
//! # File format
//!
//! A checkpoint reuses the WAL's checksummed record framing
//! (`[u32 len][u32 crc32][payload]`, see [`wal`](crate::wal)):
//!
//! * record 0 is a header — `{"v":1,"generation":G,"base_seq":S,"entries":N}`;
//! * records 1..=N are the canonical JSON of entries seq `0..=S`.
//!
//! A checkpoint is **valid** iff the whole file scans with no
//! corruption, the header parses with the expected generation, exactly
//! `N` entry records follow, and they decode to contiguous sequences
//! `0..=S` (each entry's content-hash ID is re-verified by
//! [`LogEntry::decode`]). Anything less is treated as if the file did
//! not exist — never as partial data.
//!
//! # Write protocol (crash-safe by construction)
//!
//! 1. build the image and write it to `<name>.ckpt.tmp`;
//! 2. `fsync` the temp file;
//! 3. atomically rename it to `<name>.ckpt.<generation>`;
//! 4. `fsync` the directory (making the rename durable);
//! 5. truncate the WAL to empty (compaction) and `fsync` that;
//! 6. prune generations older than the previous one (keep 2).
//!
//! A crash at any step loses nothing: before the rename the checkpoint
//! does not exist and the WAL is whole; after it, recovery prefers the
//! new generation and ignores the stale WAL prefix. Checkpoint errors
//! are never fatal to the session — the data is already safe in the
//! WAL, so a failed checkpoint is simply retried at the next append.
//!
//! # Recovery
//!
//! [`recover_log`] scans the WAL, lists generations newest-first, and
//! returns the first generation that is valid **and** splices with the
//! WAL tail without a sequence gap; on corruption it falls back a
//! generation, and with no usable checkpoint it falls back to the WAL
//! alone. Overlapping entries (a WAL whose truncation never became
//! durable) are cross-checked against the checkpoint by content-hash
//! ID, so a divergent history is detected rather than silently merged.

use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hem_obs::json::{self, JsonValue};

use crate::event::LogEntry;
use crate::session::SessionError;
use crate::storage::Storage;
use crate::wal::{encode_record, scan, Recovered, Wal, WalError};

/// Current checkpoint format version.
pub const FORMAT_VERSION: u64 = 1;

/// How many checkpoint generations are retained after a new one lands.
pub const KEEP_GENERATIONS: u64 = 2;

/// The temp-file path a checkpoint is staged at before its rename.
#[must_use]
pub fn tmp_path(data_dir: &Path, name: &str) -> PathBuf {
    data_dir.join(format!("{name}.ckpt.tmp"))
}

/// The final path of generation `generation` for session `name`.
#[must_use]
pub fn generation_path(data_dir: &Path, name: &str, generation: u64) -> PathBuf {
    data_dir.join(format!("{name}.ckpt.{generation:08}"))
}

/// A decoded, validated checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// The generation number (from the header, matching the filename).
    pub generation: u64,
    /// The highest sequence the snapshot covers.
    pub base_seq: u64,
    /// Entries seq `0..=base_seq`.
    pub entries: Vec<LogEntry>,
}

fn io_err<'a>(path: &'a Path, op: &'static str) -> impl FnOnce(std::io::Error) -> WalError + 'a {
    move |source| WalError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

/// Encodes the checkpoint image of `entries` — the log's entries seq
/// `0..=base_seq`, in order — one framed record at a time, handing
/// each to `sink`, and returns the image's length. The entries may be
/// borrowed or built on the fly, so neither the image nor the log as
/// [`LogEntry`]s ever has to be held whole.
///
/// Fails only when a single record exceeds the WAL's record bound, or
/// with what `sink` returns.
fn encode_records<I>(
    generation: u64,
    entries: I,
    mut sink: impl FnMut(&[u8]) -> Result<(), WalError>,
) -> Result<u64, WalError>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Borrow<LogEntry>,
{
    let entries = entries.into_iter();
    let count = entries.len();
    let base_seq = count.saturating_sub(1);
    let header = format!(
        "{{\"v\":{FORMAT_VERSION},\"generation\":{generation},\"base_seq\":{base_seq},\"entries\":{count}}}"
    );
    let mut len = 0;
    let mut put = |payload: &[u8]| {
        let record = encode_record(payload)?;
        len += record.len() as u64;
        sink(&record)
    };
    put(header.as_bytes())?;
    for entry in entries {
        put(entry.borrow().canonical_json().as_bytes())?;
    }
    Ok(len)
}

/// Writes generation `generation` covering `entries` (seq `0..=S`, in
/// order), following the crash-safe temp → fsync → rename → dir-fsync
/// protocol, then prunes generations older than
/// `generation - KEEP_GENERATIONS + 1`. The image is streamed into the
/// temp file ([`Storage::write_from`]) as it is encoded.
///
/// Does **not** touch the WAL — compaction is the caller's step, so a
/// crash between the rename and the truncation leaves a recoverable
/// (merely redundant) state.
///
/// # Errors
///
/// On any storage failure; the session's WAL is untouched either way,
/// so the caller can safely swallow the error and retry later.
pub fn write<I>(
    storage: &Arc<dyn Storage>,
    data_dir: &Path,
    name: &str,
    generation: u64,
    entries: I,
) -> Result<u64, WalError>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Borrow<LogEntry>,
{
    let _span = crate::trace::span("checkpoint_io");
    let tmp = tmp_path(data_dir, name);
    let target = generation_path(data_dir, name, generation);
    let mut entries = Some(entries);
    let mut encoded = Ok(0);
    let written = storage.write_from(&tmp, &mut |out| {
        let entries = entries.take().expect("a storage fills a file once");
        encoded = encode_records(generation, entries, |record| {
            out.write_all(record)
                .map_err(io_err(&tmp, "checkpoint_write"))
        });
        match &encoded {
            Ok(_) => Ok(()),
            Err(_) => Err(std::io::Error::other("checkpoint image not encoded")),
        }
    });
    // An encoding or sink failure is the more precise error.
    let len = encoded?;
    written.map_err(io_err(&tmp, "checkpoint_write"))?;
    storage
        .sync(&tmp)
        .map_err(io_err(&tmp, "checkpoint_sync"))?;
    storage
        .rename(&tmp, &target)
        .map_err(io_err(&target, "checkpoint_rename"))?;
    storage
        .sync_dir(data_dir)
        .map_err(io_err(data_dir, "checkpoint_sync_dir"))?;
    // Retention: best-effort — a leftover old generation is only disk
    // space, and recovery ignores anything older than the newest valid.
    if let Ok(generations) = list_generations(storage, data_dir, name) {
        for old in generations {
            if old + KEEP_GENERATIONS <= generation {
                let _ = storage.remove(&generation_path(data_dir, name, old));
            }
        }
    }
    Ok(len)
}

/// Existing checkpoint generations for `name`, newest first.
///
/// # Errors
///
/// On a storage `list` failure (a missing directory is an empty list).
pub fn list_generations(
    storage: &Arc<dyn Storage>,
    data_dir: &Path,
    name: &str,
) -> Result<Vec<u64>, WalError> {
    let prefix = format!("{name}.ckpt.");
    let names = match storage.list(data_dir) {
        Ok(names) => names,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(data_dir, "checkpoint_list")(e)),
    };
    let mut generations: Vec<u64> = names
        .iter()
        .filter_map(|n| n.strip_prefix(&prefix))
        .filter_map(|suffix| suffix.parse::<u64>().ok())
        .collect();
    generations.sort_unstable_by(|a, b| b.cmp(a));
    Ok(generations)
}

/// Loads and validates one generation file. Any corruption — a failed
/// scan, a bad header, a count or sequence mismatch, an ID that does
/// not re-verify — yields `None` (the caller falls back a generation),
/// never partial data.
#[must_use]
pub fn load(storage: &Arc<dyn Storage>, path: &Path, generation: u64) -> Option<Checkpoint> {
    let bytes = storage.read(path).ok()?;
    let scanned = scan(&bytes);
    if scanned.corruption.is_some() || scanned.records.is_empty() {
        return None;
    }
    let header = json::parse(std::str::from_utf8(&scanned.records[0]).ok()?).ok()?;
    let field = |key: &str| {
        header
            .get(key)
            .and_then(JsonValue::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
    };
    if field("v") != Some(FORMAT_VERSION) || field("generation") != Some(generation) {
        return None;
    }
    let base_seq = field("base_seq")?;
    let count = field("entries")?;
    if count as usize != scanned.records.len() - 1 {
        return None;
    }
    let mut entries = Vec::with_capacity(count as usize);
    for (i, payload) in scanned.records[1..].iter().enumerate() {
        let entry = LogEntry::decode(payload).ok()?;
        if entry.seq != i as u64 {
            return None;
        }
        entries.push(entry);
    }
    if entries.last().map(|e| e.seq) != Some(base_seq) {
        return None;
    }
    Some(Checkpoint {
        generation,
        base_seq,
        entries,
    })
}

/// A session log recovered from newest-valid checkpoint + WAL tail.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The WAL, opened for appending.
    pub wal: Wal,
    /// The full entry sequence, seq `0..`.
    pub entries: Vec<LogEntry>,
    /// Whether the WAL had a torn tail (truncated during open).
    pub torn: bool,
    /// The checkpoint generation recovery restored from, if any.
    pub checkpoint: Option<u64>,
    /// The generation number the *next* checkpoint should use.
    pub next_generation: u64,
}

/// Splices checkpoint entries with the WAL's decoded entries.
///
/// The WAL may hold a stale prefix (its compaction truncate never
/// became durable): entries at or below the base must *match the
/// checkpoint by ID*; entries above it must continue contiguously from
/// the base. Returns `None` when the splice has a gap or a divergent
/// overlap — the caller falls back a generation.
fn splice(checkpoint: &Checkpoint, wal_entries: &[LogEntry]) -> Option<Vec<LogEntry>> {
    let base = checkpoint.base_seq;
    for entry in wal_entries.iter().filter(|e| e.seq <= base) {
        if checkpoint.entries[entry.seq as usize].id != entry.id {
            return None;
        }
    }
    let tail: Vec<LogEntry> = wal_entries
        .iter()
        .filter(|e| e.seq > base)
        .cloned()
        .collect();
    if let Some(first) = tail.first() {
        if first.seq != base + 1 {
            return None;
        }
    }
    let mut entries = checkpoint.entries.clone();
    entries.extend(tail);
    Some(entries)
}

/// Recovers a session's full entry log: WAL scan + newest-valid
/// checkpoint, falling back a generation on corruption and to the WAL
/// alone when no checkpoint is usable. An absent session recovers as
/// an empty log (no entries, no checkpoint).
///
/// # Errors
///
/// On storage I/O failure, an undecodable WAL record, or a log that no
/// candidate can make contiguous from seq 0 ([`SessionError::Corrupt`]
/// — explicit refusal, never invented records).
pub fn recover_log(
    storage: &Arc<dyn Storage>,
    data_dir: &Path,
    name: &str,
) -> Result<RecoveredLog, SessionError> {
    let wal_file = crate::session::wal_path(data_dir, name);
    let Recovered { wal, records, torn } = Wal::open(storage.clone(), &wal_file)?;
    let mut wal_entries = Vec::with_capacity(records.len());
    for payload in &records {
        let entry = LogEntry::decode(payload)?;
        if let Some(prev) = wal_entries.last() {
            let prev: &LogEntry = prev;
            if entry.seq != prev.seq + 1 {
                return Err(SessionError::Corrupt(format!(
                    "wal jumps from seq {} to {}",
                    prev.seq, entry.seq
                )));
            }
        }
        wal_entries.push(entry);
    }
    // A crash between a checkpoint's write and rename can strand the
    // temp file; it is dead weight, never read.
    let tmp = tmp_path(data_dir, name);
    if storage.exists(&tmp) {
        let _ = storage.remove(&tmp);
    }
    let generations = list_generations(storage, data_dir, name)?;
    let next_generation = generations.first().map_or(1, |g| g + 1);
    for &generation in &generations {
        let path = generation_path(data_dir, name, generation);
        let Some(checkpoint) = load(storage, &path, generation) else {
            continue; // corrupt or unreadable: fall back a generation
        };
        if let Some(entries) = splice(&checkpoint, &wal_entries) {
            return Ok(RecoveredLog {
                wal,
                entries,
                torn,
                checkpoint: Some(generation),
                next_generation,
            });
        }
    }
    // No usable checkpoint: the WAL must stand on its own.
    if wal_entries.first().is_some_and(|e| e.seq != 0) {
        return Err(SessionError::Corrupt(format!(
            "wal starts at seq {} and no checkpoint generation is usable",
            wal_entries[0].seq
        )));
    }
    Ok(RecoveredLog {
        wal,
        entries: wal_entries,
        torn,
        checkpoint: None,
        next_generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SessionEvent;
    use crate::storage::{ChaosOptions, ChaosStorage};

    fn entries(n: u64) -> Vec<LogEntry> {
        let mut out = vec![LogEntry::new(
            0,
            SessionEvent::Open {
                scenario: "cpu cpu0\ntask t0 cpu=cpu0 cet=10 prio=1 activation=periodic:100\n"
                    .into(),
            },
        )];
        for seq in 1..=n {
            out.push(LogEntry::new(
                seq,
                SessionEvent::SetTask {
                    task: "t0".into(),
                    bcet: None,
                    wcet: Some(10 + seq as i64),
                    priority: None,
                },
            ));
        }
        out
    }

    fn disk() -> (ChaosStorage, Arc<dyn Storage>) {
        let chaos = ChaosStorage::new(ChaosOptions::quiet(1));
        let arc: Arc<dyn Storage> = Arc::new(chaos.clone());
        (chaos, arc)
    }

    #[test]
    fn write_then_recover_round_trips() {
        let (_, storage) = disk();
        let dir = Path::new("data");
        let log = entries(5);
        write(&storage, dir, "s", 1, &log).expect("checkpoint");
        let recovered = recover_log(&storage, dir, "s").expect("recover");
        assert_eq!(recovered.checkpoint, Some(1));
        assert_eq!(recovered.next_generation, 2);
        assert_eq!(recovered.entries.len(), 6);
        assert_eq!(
            recovered.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            log.iter().map(|e| e.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_previous() {
        let (_, storage) = disk();
        let dir = Path::new("data");
        write(&storage, dir, "s", 1, entries(3)).expect("gen 1");
        write(&storage, dir, "s", 2, entries(5)).expect("gen 2");
        // Flip a bit in the middle of gen 2.
        let path = generation_path(dir, "s", 2);
        let mut bytes = storage.read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        storage.write(&path, &bytes).expect("re-write");
        let recovered = recover_log(&storage, dir, "s").expect("recover");
        assert_eq!(recovered.checkpoint, Some(1), "fell back one generation");
        assert_eq!(recovered.entries.len(), 4);
        // The next write must not collide with the (corrupt) gen 2.
        assert_eq!(recovered.next_generation, 3);
    }

    #[test]
    fn stale_wal_overlap_is_cross_checked_not_duplicated() {
        let (_, storage) = disk();
        let dir = Path::new("data");
        let log = entries(4);
        // The WAL still holds everything (its compaction truncate "never
        // became durable") *and* a checkpoint covers seq 0..=2.
        let wal_file = crate::session::wal_path(dir, "s");
        let mut opened = Wal::open(storage.clone(), &wal_file).expect("wal");
        for entry in &log {
            opened
                .wal
                .append(entry.canonical_json().as_bytes(), true)
                .expect("append");
        }
        write(&storage, dir, "s", 1, &log[..3]).expect("checkpoint");
        let recovered = recover_log(&storage, dir, "s").expect("recover");
        assert_eq!(recovered.checkpoint, Some(1));
        assert_eq!(recovered.entries.len(), 5, "overlap spliced, not doubled");
        assert_eq!(
            recovered.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn gap_between_checkpoint_and_tail_refuses_rather_than_invents() {
        let (_, storage) = disk();
        let dir = Path::new("data");
        let log = entries(6);
        // Checkpoint covers 0..=2 but the WAL only holds seqs 5..=6:
        // entries 3-4 are lost to a (modeled) retention bug. Recovery
        // must refuse, not bridge the gap.
        write(&storage, dir, "s", 1, &log[..3]).expect("checkpoint");
        let wal_file = crate::session::wal_path(dir, "s");
        let mut opened = Wal::open(storage.clone(), &wal_file).expect("wal");
        for entry in &log[5..] {
            opened
                .wal
                .append(entry.canonical_json().as_bytes(), true)
                .expect("append");
        }
        let err = recover_log(&storage, dir, "s").expect_err("must refuse");
        assert_eq!(err.kind(), "corrupt_log");
    }

    #[test]
    fn retention_keeps_two_generations() {
        let (_, storage) = disk();
        let dir = Path::new("data");
        for generation in 1..=4 {
            write(&storage, dir, "s", generation, entries(generation)).expect("checkpoint");
        }
        let generations = list_generations(&storage, dir, "s").expect("list");
        assert_eq!(generations, vec![4, 3]);
    }
}
