//! The in-memory form of a session's log.
//!
//! A session keeps every entry for as long as it lives: idempotent
//! replays are checked against the stored IDs, and every checkpoint
//! writes the whole history. What one entry costs in memory is
//! therefore what a long-lived session grows by per mutation.
//! [`History`] stores an entry as its ID plus its event encoded in a
//! byte log — a tag, interned name indices and LEB128 varints, about
//! six bytes for a re-timed source where a [`LogEntry`] takes 80 bytes
//! plus one heap allocation per name — and rebuilds [`LogEntry`]s only
//! while a checkpoint streams them out.

use std::collections::HashMap;

use crate::event::{LogEntry, SessionEvent};

/// A session's log entries `0..len()`, compactly.
#[derive(Debug, Default)]
pub(crate) struct History {
    /// Content-hash ID of each entry, by sequence number.
    ids: Vec<u64>,
    /// Every entry's event, encoded back to back in sequence order.
    log: Vec<u8>,
    /// Scenario texts of `open` events, by index.
    scenarios: Vec<Box<str>>,
    /// Interned names (tasks, frames, signals, buses), by index.
    names: Vec<Box<str>>,
    /// Name → index into `names`.
    interned: HashMap<Box<str>, u32>,
}

/// Event tags of the byte log.
const OPEN: u8 = 0;
const SET_TASK: u8 = 1;
const SET_SOURCE: u8 = 2;
const SET_BUS: u8 = 3;
const SET_PAYLOAD: u8 = 4;

/// Presence bits of a `set_task` event's optional fields.
const HAS_BCET: u8 = 1;
const HAS_WCET: u8 = 2;
const HAS_PRIORITY: u8 = 4;

fn put_u64(log: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        log.push((v as u8) | 0x80);
        v >>= 7;
    }
    log.push(v as u8);
}

/// Zigzag-encodes a signed value, so small magnitudes stay short.
fn put_i64(log: &mut Vec<u8>, v: i64) {
    put_u64(log, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads the byte log from a position.
struct Reader<'h> {
    log: &'h [u8],
    pos: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.log[self.pos];
        self.pos += 1;
        b
    }

    fn u64(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn i64(&mut self) -> i64 {
        let v = self.u64();
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    fn index(&mut self) -> usize {
        self.u64() as usize
    }
}

impl History {
    /// Appends `entry`, which must carry the next sequence number.
    pub(crate) fn push(&mut self, entry: LogEntry) {
        debug_assert_eq!(entry.seq, self.ids.len() as u64, "history is contiguous");
        match entry.event {
            SessionEvent::Open { scenario } => {
                self.log.push(OPEN);
                put_u64(&mut self.log, self.scenarios.len() as u64);
                self.scenarios.push(scenario.into());
            }
            SessionEvent::SetTask {
                task,
                bcet,
                wcet,
                priority,
            } => {
                let task = self.intern(task);
                let flags = (if bcet.is_some() { HAS_BCET } else { 0 })
                    | (if wcet.is_some() { HAS_WCET } else { 0 })
                    | (if priority.is_some() { HAS_PRIORITY } else { 0 });
                self.log.extend([SET_TASK, flags]);
                put_u64(&mut self.log, task);
                for v in [bcet, wcet].into_iter().flatten() {
                    put_i64(&mut self.log, v);
                }
                if let Some(p) = priority {
                    put_u64(&mut self.log, u64::from(p));
                }
            }
            SessionEvent::SetSource {
                frame,
                signal,
                period,
                jitter,
            } => {
                let (frame, signal) = (self.intern(frame), self.intern(signal));
                self.log.push(SET_SOURCE);
                put_u64(&mut self.log, frame);
                put_u64(&mut self.log, signal);
                put_i64(&mut self.log, period);
                put_i64(&mut self.log, jitter);
            }
            SessionEvent::SetBus { bus, bit_time } => {
                let bus = self.intern(bus);
                self.log.push(SET_BUS);
                put_u64(&mut self.log, bus);
                put_i64(&mut self.log, bit_time);
            }
            SessionEvent::SetPayload { frame, payload } => {
                let frame = self.intern(frame);
                self.log.push(SET_PAYLOAD);
                put_u64(&mut self.log, frame);
                self.log.push(payload);
            }
        }
        self.ids.push(entry.id);
    }

    /// The index of `name` in the interned names.
    fn intern(&mut self, name: String) -> u64 {
        if let Some(&index) = self.interned.get(name.as_str()) {
            return u64::from(index);
        }
        let index = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
        let name: Box<str> = name.into();
        self.names.push(name.clone());
        self.interned.insert(name, index);
        u64::from(index)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The content-hash ID of entry `seq`.
    pub(crate) fn id(&self, seq: usize) -> u64 {
        self.ids[seq]
    }

    /// The entries `0..len()`, rebuilt one at a time.
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = LogEntry> + '_ {
        let mut reader = Reader {
            log: &self.log,
            pos: 0,
        };
        self.ids.iter().enumerate().map(move |(seq, &id)| LogEntry {
            seq: seq as u64,
            id,
            event: self.event(&mut reader),
        })
    }

    /// Decodes the event at the reader's position.
    fn event(&self, reader: &mut Reader<'_>) -> SessionEvent {
        let name = |index: usize| self.names[index].to_string();
        match reader.byte() {
            OPEN => SessionEvent::Open {
                scenario: self.scenarios[reader.index()].to_string(),
            },
            SET_TASK => {
                let flags = reader.byte();
                let task = name(reader.index());
                let bcet = (flags & HAS_BCET != 0).then(|| reader.i64());
                let wcet = (flags & HAS_WCET != 0).then(|| reader.i64());
                let priority = (flags & HAS_PRIORITY != 0).then(|| reader.u64() as u32);
                SessionEvent::SetTask {
                    task,
                    bcet,
                    wcet,
                    priority,
                }
            }
            SET_SOURCE => SessionEvent::SetSource {
                frame: name(reader.index()),
                signal: name(reader.index()),
                period: reader.i64(),
                jitter: reader.i64(),
            },
            SET_BUS => SessionEvent::SetBus {
                bus: name(reader.index()),
                bit_time: reader.i64(),
            },
            SET_PAYLOAD => SessionEvent::SetPayload {
                frame: name(reader.index()),
                payload: reader.byte(),
            },
            tag => unreachable!("history log holds only known tags, got {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> Vec<LogEntry> {
        let events = [
            SessionEvent::Open {
                scenario: "cpu c\n".into(),
            },
            SessionEvent::SetTask {
                task: "T1".into(),
                bcet: Some(3),
                wcet: None,
                priority: Some(2),
            },
            SessionEvent::SetSource {
                frame: "F1".into(),
                signal: "s3".into(),
                period: 4500,
                jitter: 7,
            },
            SessionEvent::SetBus {
                bus: "can".into(),
                bit_time: 2,
            },
            SessionEvent::SetPayload {
                frame: "F1".into(),
                payload: 6,
            },
            SessionEvent::SetSource {
                frame: "F1".into(),
                signal: "s3".into(),
                period: 5000,
                jitter: 0,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| LogEntry::new(seq as u64, event))
            .collect()
    }

    #[test]
    fn entries_round_trip() {
        let log = log();
        let mut history = History::default();
        for entry in log.clone() {
            history.push(entry);
        }
        assert_eq!(history.len(), log.len());
        assert_eq!(history.id(2), log[2].id);
        assert_eq!(history.entries().len(), log.len());
        assert_eq!(history.entries().collect::<Vec<_>>(), log);
        // "F1" and "s3" are stored once however often they recur.
        assert_eq!(history.names.len(), 4);
    }

    #[test]
    fn stored_events_stay_small() {
        let mut history = History::default();
        for entry in log() {
            history.push(entry);
        }
        let before = history.log.len();
        history.push(LogEntry::new(
            6,
            SessionEvent::SetSource {
                frame: "F1".into(),
                signal: "s3".into(),
                period: 11_990,
                jitter: 0,
            },
        ));
        assert!(history.log.len() - before <= 8);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut history = History::default();
        let log: Vec<LogEntry> = [
            SessionEvent::SetTask {
                task: "t".into(),
                bcet: Some(i64::MIN),
                wcet: Some(i64::MAX),
                priority: Some(u32::MAX),
            },
            SessionEvent::SetTask {
                task: "t".into(),
                bcet: None,
                wcet: Some(-1),
                priority: None,
            },
            SessionEvent::SetSource {
                frame: "F".into(),
                signal: "s".into(),
                period: -5,
                jitter: 1 << 40,
            },
            SessionEvent::SetPayload {
                frame: "F".into(),
                payload: u8::MAX,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(seq, event)| LogEntry::new(seq as u64, event))
        .collect();
        for entry in log.clone() {
            history.push(entry);
        }
        assert_eq!(history.entries().collect::<Vec<_>>(), log);
    }
}
