//! An event-sourced analysis session: log, spec, materialized result.
//!
//! A session is three views of the same truth, kept consistent in one
//! place:
//!
//! 1. the **log** — the WAL-backed sequence of [`LogEntry`]s, the only
//!    durable state;
//! 2. the **spec** — the [`SystemSpec`] obtained by replaying the log,
//!    mutated in place so untouched external models keep their `Arc`
//!    identity (the handle `analyze_incremental` diffs against);
//! 3. the **materialized result** — the rendered JSON of the last
//!    *converged* analysis, plus the warm-start snapshot that makes the
//!    next analysis pay only for the damage cone.
//!
//! Crash recovery is nothing special: reopen the WAL (torn tails are
//! truncated), replay the entries through the same
//! [`SessionEvent::apply`] path as live traffic, re-analyze. Because
//! the engine is bit-for-bit deterministic and warm starts are
//! bit-identical to cold runs, a recovered session's materialized
//! state cannot be told apart from an uninterrupted one — the property
//! the recovery tests pin down byte for byte.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hem_analysis::AnalysisBudget;
use hem_obs::{Counter, RecorderHandle};
use hem_system::{
    analyze_incremental, dsl, AnalysisMode, ConvergenceStatus, RobustAnalysis, StopReason,
    SystemConfig, SystemError, SystemSpec, WarmStart,
};

use crate::checkpoint::{self, RecoveredLog};
use crate::event::{entry_id, EventError, LogEntry, SessionEvent};
use crate::hash::id_hex;
use crate::history::History;
use crate::storage::Storage;
use crate::wal::{Wal, WalError};

/// The environment a session does its I/O in: where, through what
/// storage, and under which durability policy.
#[derive(Debug, Clone)]
pub struct SessionEnv {
    /// The storage all WAL and checkpoint I/O goes through.
    pub storage: Arc<dyn Storage>,
    /// Directory holding one WAL (plus checkpoints) per session.
    pub data_dir: PathBuf,
    /// Whether appends `fsync` before the mutation is acknowledged.
    /// On by default: an acked mutation survives a power cut.
    pub sync_appends: bool,
    /// WAL size (bytes) that triggers a checkpoint + compaction after
    /// an append. `0` disables checkpointing.
    pub checkpoint_bytes: u64,
    /// Counter sink for durability events (fsync failures, checkpoints,
    /// compacted bytes).
    pub metrics: RecorderHandle,
}

/// A session-layer failure with a stable machine-readable kind.
#[derive(Debug)]
pub enum SessionError {
    /// The write-ahead log failed.
    Wal(WalError),
    /// An event failed to decode or apply.
    Event(EventError),
    /// The opening scenario failed to parse.
    Scenario(dsl::ParseError),
    /// The spec itself is invalid (dangling references etc.).
    Analysis(SystemError),
    /// A resent event disagrees with the stored entry at its sequence
    /// number — same position, different content.
    Conflict {
        /// The contested log position.
        seq: u64,
        /// ID already stored at that position.
        stored: u64,
        /// ID of the conflicting resend.
        got: u64,
    },
    /// An explicit sequence number skipped ahead of the log.
    Gap {
        /// The next position the log will accept.
        expected: u64,
        /// The position the client asked for.
        got: u64,
    },
    /// A recovered log is structurally unusable (e.g. does not start
    /// with `open`).
    Corrupt(String),
}

impl SessionError {
    /// Stable lower-snake error kind for protocol responses.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SessionError::Wal(_) => "wal",
            SessionError::Event(e) => e.kind,
            SessionError::Scenario(_) => "bad_scenario",
            SessionError::Analysis(_) => "bad_spec",
            SessionError::Conflict { .. } => "conflict",
            SessionError::Gap { .. } => "gap",
            SessionError::Corrupt(_) => "corrupt_log",
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Wal(e) => write!(f, "{e}"),
            SessionError::Event(e) => write!(f, "{e}"),
            SessionError::Scenario(e) => write!(f, "scenario: {e}"),
            SessionError::Analysis(e) => write!(f, "spec: {e}"),
            SessionError::Conflict { seq, stored, got } => write!(
                f,
                "conflicting resend at seq {seq}: stored {}, got {}",
                id_hex(*stored),
                id_hex(*got)
            ),
            SessionError::Gap { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            SessionError::Corrupt(msg) => write!(f, "corrupt log: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<WalError> for SessionError {
    fn from(e: WalError) -> Self {
        SessionError::Wal(e)
    }
}

impl From<EventError> for SessionError {
    fn from(e: EventError) -> Self {
        SessionError::Event(e)
    }
}

/// The last converged, rendered analysis of a session.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// Log position the result reflects (last seq applied before the
    /// analysis ran).
    pub seq: u64,
    /// The deterministic result JSON body.
    pub body: String,
}

/// How an append was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// A new entry was written and applied.
    Applied {
        /// Its log position.
        seq: u64,
        /// Its content-hash ID.
        id: u64,
    },
    /// The event was already in the log — an idempotent resend.
    Duplicate {
        /// The existing entry's position.
        seq: u64,
        /// The existing entry's ID.
        id: u64,
    },
}

/// What `analyze` served, per the degradation contract.
#[derive(Debug, Clone)]
pub enum Analyzed {
    /// A fresh converged result; the materialized state was updated.
    Fresh {
        /// Rendered result body.
        body: String,
        /// Resources re-analysed vs. replayed from the warm snapshot.
        replayed: u64,
    },
    /// The deadline expired before convergence; the last materialized
    /// result is served instead, marked stale.
    Stale {
        /// The previous materialized body.
        body: String,
        /// Log position that body reflects (behind the current log).
        seq: u64,
    },
    /// The run stopped short of convergence and no materialized result
    /// exists to fall back on: the partial salvage, marked incomplete.
    Partial {
        /// Rendered partial body (`"complete":false`).
        body: String,
    },
}

/// How a session came back from disk.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Entries replayed from the WAL.
    pub replayed: usize,
    /// Whether a torn tail was detected and truncated.
    pub torn: bool,
}

/// One live analysis session.
#[derive(Debug)]
pub struct Session {
    env: SessionEnv,
    name: String,
    wal: Wal,
    history: History,
    spec: SystemSpec,
    warm: Option<WarmStart>,
    materialized: Option<Materialized>,
    /// Generation number the next checkpoint will be written as.
    next_generation: u64,
}

/// The WAL path of a session inside a data directory.
#[must_use]
pub fn wal_path(data_dir: &Path, name: &str) -> PathBuf {
    data_dir.join(format!("{name}.wal"))
}

/// Whether a session name is acceptable as a file stem.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl Session {
    /// Opens a session: recovers an existing WAL or starts a fresh log
    /// whose first entry is `open` with `scenario`.
    ///
    /// Opening an existing session with the *same* scenario is
    /// idempotent; a different scenario is a [`SessionError::Conflict`]
    /// — the log, not the request, owns the topology.
    ///
    /// # Errors
    ///
    /// On WAL I/O failure, an unparsable scenario, or a scenario
    /// conflict with an existing log.
    pub fn open(
        env: &SessionEnv,
        name: &str,
        scenario: &str,
    ) -> Result<(Self, RecoveryReport), SessionError> {
        let recovered = checkpoint::recover_log(&env.storage, &env.data_dir, name)?;
        if recovered.entries.is_empty() {
            let spec = dsl::parse(scenario).map_err(SessionError::Scenario)?;
            let entry = LogEntry::new(
                0,
                SessionEvent::Open {
                    scenario: scenario.to_string(),
                },
            );
            let torn = recovered.torn;
            let mut session = Session {
                env: env.clone(),
                name: name.to_string(),
                wal: recovered.wal,
                history: History::default(),
                spec,
                warm: None,
                materialized: None,
                next_generation: recovered.next_generation,
            };
            session.append_record(&entry)?;
            session.history.push(entry);
            Ok((session, RecoveryReport { replayed: 0, torn }))
        } else {
            let torn = recovered.torn;
            let session = Self::from_recovered(env, name, recovered)?;
            let open_id = entry_id(
                0,
                &SessionEvent::Open {
                    scenario: scenario.to_string(),
                },
            );
            if session.history.id(0) != open_id {
                return Err(SessionError::Conflict {
                    seq: 0,
                    stored: session.history.id(0),
                    got: open_id,
                });
            }
            let replayed = session.history.len();
            Ok((session, RecoveryReport { replayed, torn }))
        }
    }

    /// Rebuilds a session purely from its durable state (checkpoint +
    /// WAL), without needing the scenario — the quarantine path after a
    /// panic, and the restart path after a crash.
    ///
    /// Returns `Ok(None)` when no log exists (nothing to recover).
    ///
    /// # Errors
    ///
    /// On WAL I/O failure or a structurally unusable log.
    pub fn recover(
        env: &SessionEnv,
        name: &str,
    ) -> Result<Option<(Self, RecoveryReport)>, SessionError> {
        let recovered = checkpoint::recover_log(&env.storage, &env.data_dir, name)?;
        if recovered.entries.is_empty() {
            return Ok(None);
        }
        let torn = recovered.torn;
        let session = Self::from_recovered(env, name, recovered)?;
        let replayed = session.history.len();
        Ok(Some((session, RecoveryReport { replayed, torn })))
    }

    fn from_recovered(
        env: &SessionEnv,
        name: &str,
        recovered: RecoveredLog,
    ) -> Result<Self, SessionError> {
        let RecoveredLog {
            wal,
            entries,
            next_generation,
            ..
        } = recovered;
        for (i, entry) in entries.iter().enumerate() {
            if entry.seq != i as u64 {
                return Err(SessionError::Corrupt(format!(
                    "entry {i} carries seq {}",
                    entry.seq
                )));
            }
        }
        let SessionEvent::Open { scenario } = &entries[0].event else {
            return Err(SessionError::Corrupt("log does not start with open".into()));
        };
        let mut spec = dsl::parse(scenario).map_err(SessionError::Scenario)?;
        for entry in &entries[1..] {
            entry.event.apply(&mut spec)?;
        }
        let mut history = History::default();
        for entry in entries {
            history.push(entry);
        }
        Ok(Session {
            env: env.clone(),
            name: name.to_string(),
            wal,
            history,
            spec,
            warm: None,
            materialized: None,
            next_generation,
        })
    }

    /// Appends one entry to the WAL under the session's durability
    /// policy, counting fsync failures.
    fn append_record(&mut self, entry: &LogEntry) -> Result<(), SessionError> {
        let _span = crate::trace::span("wal_append");
        let pre = self.wal.len();
        let result = self
            .wal
            .append(entry.canonical_json().as_bytes(), self.env.sync_appends);
        if let Err(WalError::Io { op: "sync", .. }) = &result {
            self.env.metrics.add(Counter::FsyncFailures, 1);
        }
        if result.is_ok() {
            crate::trace::note_wal_bytes(self.wal.len().saturating_sub(pre));
        }
        result.map_err(SessionError::Wal)
    }

    /// Writes a checkpoint and compacts the WAL when it has outgrown
    /// the configured threshold. Never fatal: every entry is already
    /// durable in the WAL, so a failed checkpoint is simply retried at
    /// the next append.
    fn maybe_checkpoint(&mut self) {
        if self.env.checkpoint_bytes == 0 || self.wal.len() < self.env.checkpoint_bytes {
            return;
        }
        let _span = crate::trace::span("checkpoint_write");
        let generation = self.next_generation;
        if checkpoint::write(
            &self.env.storage,
            &self.env.data_dir,
            &self.name,
            generation,
            self.history.entries(),
        )
        .is_err()
        {
            return;
        }
        crate::trace::note_ckpt_gen(generation);
        self.next_generation = generation + 1;
        self.env.metrics.add(Counter::Checkpoints, 1);
        // If the compaction truncate fails, recovery still prefers the
        // new checkpoint and cross-checks the stale WAL overlap.
        if let Ok(reclaimed) = self.wal.reset() {
            self.env.metrics.add(Counter::CompactedBytes, reclaimed);
        }
    }

    /// The session's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The position of the last applied entry.
    #[must_use]
    pub fn current_seq(&self) -> u64 {
        (self.history.len() - 1) as u64
    }

    /// The content-hash ID of the opening entry — what an `open`
    /// request must match to count as an idempotent re-open.
    #[must_use]
    pub fn open_id(&self) -> u64 {
        self.history.id(0)
    }

    /// Appends a mutation, durably (WAL first) and idempotently.
    ///
    /// `seq: None` assigns the next position. `seq: Some(n)` is the
    /// replay form: `n` at or below the current position must carry the
    /// ID already stored there (→ [`AppendOutcome::Duplicate`], a
    /// no-op); a mismatch is a [`SessionError::Conflict`]; a position
    /// past the next free slot is a [`SessionError::Gap`].
    ///
    /// # Errors
    ///
    /// On conflict, gap, apply failure, or WAL I/O failure.
    pub fn append(
        &mut self,
        seq: Option<u64>,
        event: SessionEvent,
    ) -> Result<AppendOutcome, SessionError> {
        let next = self.history.len() as u64;
        let at = seq.unwrap_or(next);
        if at < next {
            let stored = self.history.id(at as usize);
            let got = entry_id(at, &event);
            return if stored == got {
                Ok(AppendOutcome::Duplicate {
                    seq: at,
                    id: stored,
                })
            } else {
                Err(SessionError::Conflict {
                    seq: at,
                    stored,
                    got,
                })
            };
        }
        if at > next {
            return Err(SessionError::Gap {
                expected: next,
                got: at,
            });
        }
        // Validate against a scratch copy first: an event that fails to
        // apply must reach neither the WAL nor the live spec.
        let mut staged = self.spec.clone();
        event.apply(&mut staged)?;
        let entry = LogEntry::new(at, event);
        self.append_record(&entry)?;
        self.spec = staged;
        let id = entry.id;
        self.history.push(entry);
        self.maybe_checkpoint();
        Ok(AppendOutcome::Applied { seq: at, id })
    }

    /// Bytes currently in the session's WAL (post-compaction tail).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// The generation of the newest checkpoint written, if any.
    #[must_use]
    pub fn checkpoint_generation(&self) -> Option<u64> {
        (self.next_generation > 1).then_some(self.next_generation - 1)
    }

    /// Runs (or re-runs) the analysis under `budget`, per the
    /// degradation contract: a converged run refreshes the
    /// materialized result; an exhausted budget serves the previous
    /// materialized result marked stale (keeping the warm snapshot for
    /// a retry); any other incomplete stop yields the partial salvage.
    ///
    /// # Errors
    ///
    /// Only on genuine spec errors surfaced by the engine.
    pub fn analyze(&mut self, budget: AnalysisBudget) -> Result<Analyzed, SessionError> {
        let _span = crate::trace::span("engine_analyze");
        let config = SystemConfig::new(AnalysisMode::Hierarchical)
            .with_threads(1)
            .with_budget(budget);
        let outcome = analyze_incremental(&self.spec, &config, self.warm.as_ref())
            .map_err(SessionError::Analysis)?;
        let replayed = outcome.reuse.replayed_results;
        if outcome.analysis.results.is_complete() {
            self.warm = outcome.snapshot;
            let body = render_result(&outcome.analysis);
            self.materialized = Some(Materialized {
                seq: self.current_seq(),
                body: body.clone(),
            });
            return Ok(Analyzed::Fresh { body, replayed });
        }
        if outcome.analysis.diagnostics.budget_exhausted() {
            if let Some(m) = &self.materialized {
                return Ok(Analyzed::Stale {
                    body: m.body.clone(),
                    seq: m.seq,
                });
            }
        }
        Ok(Analyzed::Partial {
            body: render_result(&outcome.analysis),
        })
    }

    /// The last materialized result, if any, with its staleness: stale
    /// means mutations were appended after it was computed.
    #[must_use]
    pub fn last_result(&self) -> Option<(&Materialized, bool)> {
        self.materialized
            .as_ref()
            .map(|m| (m, m.seq < self.current_seq()))
    }
}

fn status_name(status: Option<ConvergenceStatus>) -> String {
    match status {
        Some(ConvergenceStatus::Converged) => "converged".into(),
        Some(ConvergenceStatus::Growing { streak }) => format!("growing:{streak}"),
        Some(ConvergenceStatus::Unsettled) => "unsettled".into(),
        Some(ConvergenceStatus::Failed) => "failed".into(),
        None | Some(ConvergenceStatus::Unknown) => "unknown".into(),
    }
}

fn stop_name(stop: &StopReason) -> String {
    match stop {
        StopReason::Converged => "converged".into(),
        StopReason::DivergenceDetected { entity, streak } => {
            format!("divergence:{entity}:{streak}")
        }
        StopReason::LocalAnalysisFailed { entity, .. } => format!("local_failed:{entity}"),
        StopReason::BudgetExhausted => "budget_exhausted".into(),
        StopReason::IterationLimitReached => "iteration_limit".into(),
    }
}

/// Renders an analysis into the deterministic result body.
///
/// Deliberately excludes anything wall-clock (elapsed time, replay
/// savings): two runs of the same log must render byte-identically, on
/// any machine, warm or cold — that equality *is* the recovery
/// guarantee the smoke test asserts.
#[must_use]
pub fn render_result(analysis: &RobustAnalysis) -> String {
    use std::collections::BTreeMap;
    let results = &analysis.results;
    let mut out = String::with_capacity(256);
    out.push_str("{\"complete\":");
    out.push_str(if results.is_complete() {
        "true"
    } else {
        "false"
    });
    out.push_str(&format!(
        ",\"iterations\":{},\"stop\":\"{}\"",
        results.iterations(),
        stop_name(&analysis.diagnostics.stop)
    ));
    for (section, items, status_of) in [
        ("tasks", results.tasks().collect::<BTreeMap<_, _>>(), true),
        (
            "frames",
            results.frames().collect::<BTreeMap<_, _>>(),
            false,
        ),
    ] {
        out.push_str(&format!(",\"{section}\":{{"));
        for (i, (name, r)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let status = if status_of {
                results.task_convergence(name)
            } else {
                results.frame_convergence(name)
            };
            hem_obs::json::write_escaped(&mut out, name);
            out.push_str(&format!(
                ":{{\"r_minus\":{},\"r_plus\":{},\"busy_activations\":{},\"status\":\"{}\"}}",
                r.response.r_minus.ticks(),
                r.response.r_plus.ticks(),
                r.busy_activations,
                status_name(status)
            ));
        }
        out.push('}');
    }
    out.push('}');
    out
}
