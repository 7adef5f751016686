//! Crash-safe analysis-as-a-service for the HEM engine.
//!
//! Serves the compositional fixed-point analysis ([`hem_system`]) as a
//! long-lived multi-session service: clients open a session from a
//! textual scenario ([`hem_system::dsl`]), append timing mutations, and
//! re-analyze — each re-analysis paying only for the damage cone via
//! `analyze_incremental` warm starts.
//!
//! The design is event sourcing end to end:
//!
//! * a session's only durable state is its **log** of mutation events
//!   ([`event`]), each carrying a deterministic content-hash ID so
//!   replays are idempotent;
//! * the log lives in a **checksummed WAL** ([`wal`]) with torn-write
//!   detection: after `kill -9`, recovery truncates the torn tail and
//!   replays the intact prefix into a state bit-identical to an
//!   uninterrupted run;
//! * everything else — the spec, the warm-start snapshot, the
//!   materialized result ([`session`]) — is a cache, rebuilt from the
//!   log on demand (including after a request panic, which quarantines
//!   the session instead of taking down the server, [`core`]);
//! * overload is explicit: a bounded queue ([`queue`]) sheds with
//!   retry-after hints, and per-request deadlines degrade to the last
//!   materialized result with a staleness marker rather than failing;
//! * serving is observable end to end: every request carries a
//!   deterministic trace id through a logical-tick span tree
//!   ([`trace`], exported Perfetto-loadable via `--trace-out`), live
//!   gauges and latency histograms are scraped with the `metrics` op,
//!   and a bounded **flight recorder** ([`flight`]) dumps the recent
//!   request history on panic, WAL recovery, and shutdown.
//!
//! The wire protocol (newline-delimited JSON over TCP, [`net`]) is
//! documented in `docs/SERVING.md`; the telemetry is documented in
//! `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod core;
pub mod event;
pub mod flight;
pub mod hash;
mod history;
pub mod net;
pub mod queue;
pub mod session;
pub mod storage;
pub mod trace;
pub mod wal;

pub use crate::core::{CoreOptions, ServerCore};
pub use event::{EventError, LogEntry, SessionEvent};
pub use flight::{FlightRecord, FlightRecorder, FLIGHT_FILE};
pub use queue::{Shed, WorkQueue};
pub use session::{Analyzed, AppendOutcome, Session, SessionError};
pub use storage::{ChaosOptions, ChaosStorage, RealStorage, Storage};
pub use wal::{Corruption, Wal, WalError};
