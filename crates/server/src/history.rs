//! The in-memory form of a session's log.
//!
//! A session keeps every entry for as long as it lives: idempotent
//! replays are checked against the stored IDs, and every checkpoint
//! writes the whole history. What one entry costs in memory is
//! therefore what a long-lived session grows by per mutation.
//! [`History`] stores an entry as its ID plus a 32-byte event whose
//! names are interned — a [`LogEntry`] takes 80 bytes plus one heap
//! allocation per name — and rebuilds [`LogEntry`]s only while a
//! checkpoint streams them out.

use std::collections::HashMap;

use crate::event::{LogEntry, SessionEvent};

/// A session's log entries `0..len()`, compactly.
#[derive(Debug, Default)]
pub(crate) struct History {
    /// Content-hash ID of each entry, by sequence number.
    ids: Vec<u64>,
    /// Each entry's event, by sequence number.
    events: Vec<StoredEvent>,
    /// Interned names (tasks, frames, signals, buses), by index.
    names: Vec<Box<str>>,
    /// Name → index into `names`.
    interned: HashMap<Box<str>, u32>,
}

/// A [`SessionEvent`] with its names interned.
#[derive(Debug)]
enum StoredEvent {
    Open(Box<str>),
    /// Boxed: the one variant that would otherwise double the size of
    /// every stored event.
    SetTask(Box<TaskEdit>),
    SetSource {
        frame: u32,
        signal: u32,
        period: i64,
        jitter: i64,
    },
    SetBus {
        bus: u32,
        bit_time: i64,
    },
    SetPayload {
        frame: u32,
        payload: u8,
    },
}

#[derive(Debug)]
struct TaskEdit {
    task: u32,
    bcet: Option<i64>,
    wcet: Option<i64>,
    priority: Option<u32>,
}

impl History {
    /// Appends `entry`, which must carry the next sequence number.
    pub(crate) fn push(&mut self, entry: LogEntry) {
        debug_assert_eq!(entry.seq, self.ids.len() as u64, "history is contiguous");
        let event = match entry.event {
            SessionEvent::Open { scenario } => StoredEvent::Open(scenario.into()),
            SessionEvent::SetTask {
                task,
                bcet,
                wcet,
                priority,
            } => StoredEvent::SetTask(Box::new(TaskEdit {
                task: self.intern(task),
                bcet,
                wcet,
                priority,
            })),
            SessionEvent::SetSource {
                frame,
                signal,
                period,
                jitter,
            } => StoredEvent::SetSource {
                frame: self.intern(frame),
                signal: self.intern(signal),
                period,
                jitter,
            },
            SessionEvent::SetBus { bus, bit_time } => StoredEvent::SetBus {
                bus: self.intern(bus),
                bit_time,
            },
            SessionEvent::SetPayload { frame, payload } => StoredEvent::SetPayload {
                frame: self.intern(frame),
                payload,
            },
        };
        self.ids.push(entry.id);
        self.events.push(event);
    }

    fn intern(&mut self, name: String) -> u32 {
        if let Some(&index) = self.interned.get(name.as_str()) {
            return index;
        }
        let index = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
        let name: Box<str> = name.into();
        self.names.push(name.clone());
        self.interned.insert(name, index);
        index
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
        self.ids
            .iter()
            .zip(&self.events)
            .enumerate()
            .map(|(seq, (&id, event))| LogEntry {
                seq: seq as u64,
                id,
                event: self.event(event),
            })
    }

    fn event(&self, stored: &StoredEvent) -> SessionEvent {
        let name = |index: u32| self.names[index as usize].to_string();
        match stored {
            StoredEvent::Open(scenario) => SessionEvent::Open {
                scenario: scenario.to_string(),
            },
            StoredEvent::SetTask(edit) => SessionEvent::SetTask {
                task: name(edit.task),
                bcet: edit.bcet,
                wcet: edit.wcet,
                priority: edit.priority,
            },
            &StoredEvent::SetSource {
                frame,
                signal,
                period,
                jitter,
            } => SessionEvent::SetSource {
                frame: name(frame),
                signal: name(signal),
                period,
                jitter,
            },
            &StoredEvent::SetBus { bus, bit_time } => SessionEvent::SetBus {
                bus: name(bus),
                bit_time,
            },
            &StoredEvent::SetPayload { frame, payload } => SessionEvent::SetPayload {
                frame: name(frame),
                payload,
            },
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
        assert!(std::mem::size_of::<StoredEvent>() <= 32);
    }
}
