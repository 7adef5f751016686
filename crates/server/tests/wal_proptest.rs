//! Property tests for WAL recovery (ISSUE 6 satellite).
//!
//! The contract under test: for *any* byte-level damage to a log image
//! — truncation at an arbitrary offset, bit flips at arbitrary
//! positions, appended garbage, or combinations — recovery yields
//! either a **prefix** of the originally appended records or an
//! explicit [`WalError`], and never panics or invents records. This is
//! the exact corruption model of `kill -9` mid-write plus disk-level
//! bit rot, and it is what makes the "replay the log → identical
//! state" recovery story sound: a recovered log can be *shorter* than
//! what was acknowledged, never *different*.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use hem_server::checkpoint;
use hem_server::event::{LogEntry, SessionEvent};
use hem_server::session;
use hem_server::storage::{ChaosOptions, ChaosStorage};
use hem_server::wal::{encode_record, scan, Wal};
use hem_server::{RealStorage, Storage};

/// Deterministic helper RNG (same idiom as the system-level proptest
/// suites: the proptest case provides coarse randomness, this expands
/// it).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A log of `n` realistic entry payloads (what sessions actually
/// append), plus some adversarially shaped ones: empty payloads and
/// payloads containing header-like byte runs.
fn payloads(rng: &mut Rng, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| match rng.pick(4) {
            0 => Vec::new(),
            1 => {
                // Bytes that could be mistaken for a plausible header.
                let mut v = (7u32).to_le_bytes().to_vec();
                v.extend_from_slice(&(rng.next() as u32).to_le_bytes());
                v.extend_from_slice(b"payload");
                v
            }
            _ => LogEntry::new(
                i as u64,
                SessionEvent::SetTask {
                    task: format!("t{}", rng.pick(8)),
                    bcet: None,
                    wcet: Some(10 + rng.pick(1000) as i64),
                    priority: Some(rng.pick(16) as u32),
                },
            )
            .canonical_json()
            .into_bytes(),
        })
        .collect()
}

fn image(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        out.extend_from_slice(&encode_record(p).expect("bounded payload"));
    }
    out
}

fn is_prefix(recovered: &[Vec<u8>], original: &[Vec<u8>]) -> bool {
    recovered.len() <= original.len() && recovered.iter().zip(original).all(|(r, o)| r == o)
}

/// A contiguous entry log seq `0..=n` of decodable [`LogEntry`]s (what
/// checkpoints and WAL tails actually hold).
fn log_entries(rng: &mut Rng, n: u64) -> Vec<LogEntry> {
    (0..=n)
        .map(|seq| {
            LogEntry::new(
                seq,
                SessionEvent::SetTask {
                    task: format!("t{}", rng.pick(6)),
                    bcet: None,
                    wcet: Some(10 + rng.pick(500) as i64),
                    priority: Some(rng.pick(8) as u32),
                },
            )
        })
        .collect()
}

/// Which on-disk file the checkpoint-recovery proptest damages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    None,
    Wal,
    NewestCkpt,
    OlderCkpt,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at *any* byte offset recovers a prefix.
    #[test]
    fn truncation_recovers_a_prefix(seed in 0u64..1 << 48, n in 0usize..12) {
        let mut rng = Rng(seed ^ 0x7A11);
        let originals = payloads(&mut rng, n);
        let img = image(&originals);
        let cut = (rng.pick(img.len() as u64 + 1)) as usize;
        let scanned = scan(&img[..cut]);
        prop_assert!(is_prefix(&scanned.records, &originals),
            "truncation at {cut} produced a non-prefix");
        // A cut strictly inside the image must flag corruption unless it
        // landed exactly on a record boundary.
        if cut == img.len() {
            prop_assert_eq!(scanned.corruption, None);
        }
        prop_assert!(scanned.valid_len <= cut as u64);
    }

    /// Bit flips anywhere yield a prefix — the flipped record (and its
    /// successors) are discarded, never silently altered.
    #[test]
    fn bit_flips_recover_a_prefix(seed in 0u64..1 << 48, n in 1usize..12, flips in 1usize..6) {
        let mut rng = Rng(seed ^ 0xB1F5);
        let originals = payloads(&mut rng, n);
        let mut img = image(&originals);
        prop_assume!(!img.is_empty());
        for _ in 0..flips {
            let byte = rng.pick(img.len() as u64) as usize;
            let bit = rng.pick(8) as u8;
            img[byte] ^= 1 << bit;
        }
        let scanned = scan(&img);
        // Every recovered record must be one of the originals, in
        // order, from the start: a strict prefix property. (A flip can
        // corrupt record k; nothing after k may survive, because scan
        // stops at the first damage.)
        prop_assert!(is_prefix(&scanned.records, &originals),
            "bit flips produced a non-prefix of the original log");
    }

    /// Arbitrary garbage appended after a valid log never destroys the
    /// valid records, and scanning arbitrary garbage alone never
    /// panics.
    #[test]
    fn appended_garbage_keeps_the_log(seed in 0u64..1 << 48, n in 0usize..8, garbage_len in 0usize..64) {
        let mut rng = Rng(seed ^ 0x6A5B);
        let originals = payloads(&mut rng, n);
        let mut img = image(&originals);
        let garbage: Vec<u8> = (0..garbage_len).map(|_| rng.next() as u8).collect();
        img.extend_from_slice(&garbage);
        let scanned = scan(&img);
        // Garbage may *accidentally* parse as further records (it is
        // random bytes), but the real records must all survive.
        prop_assert!(scanned.records.len() >= originals.len(),
            "appended garbage destroyed valid records");
        for (r, o) in scanned.records.iter().zip(&originals) {
            prop_assert_eq!(r, o);
        }
        // Pure garbage scans are total as well.
        let _ = scan(&garbage);
    }

    /// End-to-end through the filesystem: write, damage, reopen — the
    /// file recovers to a prefix and is immediately appendable again,
    /// and a second reopen sees the prefix plus the new record (the
    /// torn tail was truncated away, not resurrected).
    #[test]
    fn damaged_file_recovers_and_accepts_appends(seed in 0u64..1 << 48, n in 1usize..8) {
        let mut rng = Rng(seed ^ 0xF11E);
        let originals = payloads(&mut rng, n);
        let dir = std::env::temp_dir()
            .join(format!("hem-wal-prop-{}-{}", std::process::id(), seed & 0xffff_ffff));
        std::fs::create_dir_all(&dir).expect("mk tempdir");
        let path = dir.join("prop.wal");
        let _ = std::fs::remove_file(&path);
        let storage: Arc<dyn Storage> = Arc::new(RealStorage);
        {
            let mut rec = Wal::open(storage.clone(), &path).expect("fresh open");
            for p in &originals {
                rec.wal.append(p, false).expect("append");
            }
        }
        // Damage: truncate, flip a bit, or both.
        let mut img = std::fs::read(&path).expect("read image");
        if rng.pick(2) == 0 && !img.is_empty() {
            img.truncate(rng.pick(img.len() as u64 + 1) as usize);
        }
        if rng.pick(2) == 0 && !img.is_empty() {
            let byte = rng.pick(img.len() as u64) as usize;
            img[byte] ^= 1 << rng.pick(8);
        }
        std::fs::write(&path, &img).expect("write damage");

        let recovered = Wal::open(storage.clone(), &path).expect("recovery open");
        prop_assert!(is_prefix(&recovered.records, &originals));
        let before = recovered.records.clone();
        let mut wal = recovered.wal;
        wal.append(b"after-recovery", true).expect("append after recovery");
        drop(wal);

        let reread = Wal::open(storage.clone(), &path).expect("second open");
        prop_assert_eq!(reread.records.len(), before.len() + 1);
        prop_assert!(!reread.torn, "append after recovery left a torn file");
        prop_assert_eq!(reread.records.last().expect("appended"), &b"after-recovery".to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint + WAL-tail recovery under damage (ISSUE 7 satellite):
    /// for arbitrary truncation or bit flips of *either* file — and
    /// across generation rollbacks — `recover_log` yields entries
    /// bit-identical to a prefix of the full-log replay, recovers the
    /// *complete* history whenever an undamaged candidate chain covers
    /// it, and refuses with an explicit error (never invented records)
    /// when none does.
    #[test]
    fn checkpoint_and_tail_recovery_matches_full_replay(seed in 0u64..1 << 48, n in 1u64..14) {
        let mut rng = Rng(seed ^ 0xC4E7);
        let full = log_entries(&mut rng, n); // seqs 0..=n
        let storage: Arc<dyn Storage> =
            Arc::new(ChaosStorage::new(ChaosOptions::quiet(seed)));
        let dir = Path::new("data");
        let name = "s";

        // Generation chain: gen 1 always exists; sometimes a newer
        // gen 2 covering at least as much (the rollback candidate).
        let b1 = rng.pick(n + 1);
        checkpoint::write(&storage, dir, name, 1, &full[..=b1 as usize]).expect("gen 1");
        let two_gens = rng.pick(2) == 0;
        let b2 = if two_gens { b1 + rng.pick(n - b1 + 1) } else { b1 };
        if two_gens {
            checkpoint::write(&storage, dir, name, 2, &full[..=b2 as usize]).expect("gen 2");
        }
        let newest_gen = if two_gens { 2 } else { 1 };
        let newest_base = b2;

        // WAL tail: starts anywhere that splices with the newest
        // generation (including a stale overlap all the way back to
        // seq 0), runs to the end of history.
        let s = rng.pick(newest_base + 2) as usize; // 0..=newest_base+1
        let wal_file = session::wal_path(dir, name);
        let mut wal_img = Vec::new();
        for entry in &full[s..] {
            wal_img.extend_from_slice(
                &encode_record(entry.canonical_json().as_bytes()).expect("bounded"),
            );
        }
        storage.write(&wal_file, &wal_img).expect("wal image");

        // Damage exactly one file (or none): truncate strictly inside
        // it, or flip one bit. Either guarantees a checkpoint file no
        // longer validates and a WAL recovers a (possibly shorter)
        // prefix.
        let mut target = match rng.pick(4) {
            0 => Target::None,
            1 => Target::Wal,
            _ if rng.pick(2) == 0 && two_gens => Target::OlderCkpt,
            _ => Target::NewestCkpt,
        };
        let damage_path = match target {
            Target::None => None,
            Target::Wal => Some(wal_file.clone()),
            Target::NewestCkpt => Some(checkpoint::generation_path(dir, name, newest_gen)),
            Target::OlderCkpt => Some(checkpoint::generation_path(dir, name, 1)),
        };
        if let Some(path) = damage_path {
            let mut bytes = storage.read(&path).expect("read target");
            if bytes.is_empty() {
                target = Target::None; // an empty WAL has nothing to damage
            } else {
                if rng.pick(2) == 0 {
                    bytes.truncate(rng.pick(bytes.len() as u64) as usize);
                } else {
                    let byte = rng.pick(bytes.len() as u64) as usize;
                    bytes[byte] ^= 1 << rng.pick(8);
                }
                storage.write(&path, &bytes).expect("write damage");
            }
        }

        let result = checkpoint::recover_log(&storage, dir, name);

        // Universal invariant first: whatever comes back is
        // bit-identical to a prefix of the full replay.
        if let Ok(rec) = &result {
            prop_assert!(rec.entries.len() <= full.len(), "recovery invented records");
            for (r, o) in rec.entries.iter().zip(&full) {
                prop_assert_eq!(r.canonical_json(), o.canonical_json());
                prop_assert_eq!(r.id, o.id);
            }
        }

        match target {
            Target::None => {
                // Undamaged: complete history through the newest gen.
                let rec = result.expect("undamaged state must recover");
                prop_assert_eq!(rec.entries.len(), full.len());
                prop_assert_eq!(rec.checkpoint, Some(newest_gen));
            }
            Target::Wal => {
                // The checkpoint bounds the loss: everything through
                // the newest base survives no matter what the WAL lost.
                let rec = result.expect("checkpoint must bound wal damage");
                prop_assert!(rec.entries.len() as u64 > newest_base,
                    "wal damage reached below the newest checkpoint base");
                prop_assert_eq!(rec.checkpoint, Some(newest_gen));
            }
            Target::NewestCkpt => {
                // Generation rollback: the damaged newest gen must be
                // rejected whole. Recovery succeeds iff the older gen
                // (or the WAL alone) still covers a contiguous history.
                let older_covers = two_gens && (s as u64) <= b1 + 1;
                if older_covers || s == 0 {
                    let rec = result.expect("rollback candidate must recover");
                    prop_assert_eq!(rec.entries.len(), full.len(),
                        "rollback chain covered the history but lost entries");
                    prop_assert_ne!(rec.checkpoint, Some(newest_gen));
                } else {
                    let err = result.expect_err("gapped history must refuse");
                    prop_assert_eq!(err.kind(), "corrupt_log");
                }
            }
            Target::OlderCkpt => {
                // The newest gen is intact and splices with the tail:
                // damage to a superseded generation is irrelevant.
                let rec = result.expect("newest generation must recover");
                prop_assert_eq!(rec.entries.len(), full.len());
                prop_assert_eq!(rec.checkpoint, Some(newest_gen));
            }
        }
    }
}
