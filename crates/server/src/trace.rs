//! Deterministic per-request tracing for the serving layer.
//!
//! Wall clocks make traces non-reproducible, so request spans are
//! timed on a **logical tick clock** instead: every span begin and
//! every span end consumes one tick. A request's spans therefore nest
//! exactly like the call tree that produced them — and two runs of the
//! same request sequence produce byte-identical traces, on any
//! machine, at any thread count (the property the chaos tier-1 test
//! pins down).
//!
//! The scope lives in a thread-local installed by
//! [`begin_request`] and collected by [`finish_request`]; in between,
//! instrumented code anywhere down the call stack
//! ([`session`](crate::session), [`wal`](crate::wal),
//! [`checkpoint`](crate::checkpoint)) opens spans with [`span`]
//! without any plumbing. Span guards close LIFO on drop — including
//! during a panic unwind into the core's `catch_unwind` — so every
//! emitted trace has balanced, properly nested slices even when the
//! request died half-way.

use std::cell::RefCell;

use hem_obs::TraceEvent;

use crate::hash::fnv1a64;

/// The lane (`tid`) request slices render on in a trace viewer.
pub const REQUEST_LANE: u32 = 1;

/// One still-open span frame.
struct Frame {
    name: &'static str,
    start_tick: u64,
}

/// The per-request trace scope.
struct Scope {
    trace_id: u64,
    clock: u64,
    stack: Vec<Frame>,
    /// Whether closed spans are materialized into [`TraceEvent`]s.
    /// Off when the core has no trace sink: the tick clock and the
    /// span stack still run identically (`ticks` lands in the flight
    /// recorder either way), but nothing is built just to be thrown
    /// away.
    collect: bool,
    /// Closed spans, in close order (children before parents).
    events: Vec<TraceEvent>,
    wal_bytes: u64,
    ckpt_gen: Option<u64>,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Everything a finished request's scope collected.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Closed spans with request-local tick timestamps; the caller
    /// offsets them onto the server-wide tick clock before emission.
    /// Empty when the scope was begun with `collect` false.
    pub events: Vec<TraceEvent>,
    /// Logical ticks the request consumed (2 per span).
    pub ticks: u64,
    /// WAL bytes appended while handling the request.
    pub wal_bytes: u64,
    /// Checkpoint generation written during the request, if any.
    pub ckpt_gen: Option<u64>,
}

/// The deterministic trace id of a request: fnv1a64 over
/// `"<session>/<seq>"` with `-` for a session-less request and seq 0
/// when the request carries none. Stable across runs, machines, and
/// thread counts by construction.
#[must_use]
pub fn trace_id(session: Option<&str>, seq: u64) -> u64 {
    let key = format!("{}/{seq}", session.unwrap_or("-"));
    fnv1a64(key.as_bytes())
}

/// Installs a fresh scope for the current thread and opens the root
/// span (named after the op). With `collect` false the scope only
/// runs the tick clock (no [`TraceEvent`]s are built — see
/// [`RequestTrace::events`]). Replaces any scope a previous request
/// leaked (it cannot happen through `handle_line`, which always
/// finishes, but a replaced scope must not poison the next request).
pub fn begin_request(id: u64, op: &'static str, collect: bool) {
    SCOPE.with(|scope| {
        let mut scope = scope.borrow_mut();
        let mut fresh = Scope {
            trace_id: id,
            clock: 0,
            stack: Vec::with_capacity(8),
            collect,
            events: Vec::new(),
            wal_bytes: 0,
            ckpt_gen: None,
        };
        fresh.stack.push(Frame {
            name: op,
            start_tick: 0,
        });
        fresh.clock = 1;
        *scope = Some(fresh);
    });
}

/// Closes the current thread's scope and returns what it collected.
/// Any spans still open (the root; inner ones only if a guard was
/// forgotten) are closed LIFO first so the trace stays balanced.
pub fn finish_request() -> Option<RequestTrace> {
    SCOPE.with(|scope| {
        let mut slot = scope.borrow_mut();
        let mut s = slot.take()?;
        while let Some(frame) = s.stack.pop() {
            let end = s.clock;
            s.clock += 1;
            if s.collect {
                s.events.push(
                    TraceEvent::complete(
                        frame.name,
                        "request",
                        frame.start_tick,
                        end - frame.start_tick,
                        REQUEST_LANE,
                    )
                    .arg("trace_id", format!("{:016x}", s.trace_id)),
                );
            }
        }
        Some(RequestTrace {
            events: s.events,
            ticks: s.clock,
            wal_bytes: s.wal_bytes,
            ckpt_gen: s.ckpt_gen,
        })
    })
}

/// Opens a span on the current request's scope. Outside a scope (no
/// tracing, or code driven without a request — e.g. recovery at
/// startup) the guard is inert and the call is two thread-local reads.
#[must_use = "a span measures until dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    let armed = SCOPE.with(|scope| {
        let mut scope = scope.borrow_mut();
        if let Some(s) = scope.as_mut() {
            let start_tick = s.clock;
            s.clock += 1;
            s.stack.push(Frame { name, start_tick });
            true
        } else {
            false
        }
    });
    SpanGuard { armed }
}

/// Records WAL bytes appended on behalf of the current request.
pub fn note_wal_bytes(bytes: u64) {
    SCOPE.with(|scope| {
        if let Some(s) = scope.borrow_mut().as_mut() {
            s.wal_bytes += bytes;
        }
    });
}

/// Records a checkpoint generation written during the current request.
pub fn note_ckpt_gen(generation: u64) {
    SCOPE.with(|scope| {
        if let Some(s) = scope.borrow_mut().as_mut() {
            s.ckpt_gen = Some(generation);
        }
    });
}

/// Closes its span on drop — LIFO with all other live guards, which is
/// what keeps the emitted slices properly nested (Rust drops locals in
/// reverse declaration order, and unwinding drops them the same way).
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SCOPE.with(|scope| {
            let mut scope = scope.borrow_mut();
            if let Some(s) = scope.as_mut() {
                if let Some(frame) = s.stack.pop() {
                    let end = s.clock;
                    s.clock += 1;
                    if s.collect {
                        s.events.push(TraceEvent::complete(
                            frame.name,
                            "request",
                            frame.start_tick,
                            end - frame.start_tick,
                            REQUEST_LANE,
                        ));
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id(Some("s1"), 3), trace_id(Some("s1"), 3));
        assert_ne!(trace_id(Some("s1"), 3), trace_id(Some("s1"), 4));
        assert_ne!(trace_id(Some("s1"), 3), trace_id(Some("s2"), 3));
        assert_eq!(trace_id(None, 0), fnv1a64(b"-/0"));
    }

    #[test]
    fn spans_nest_and_balance_on_logical_ticks() {
        begin_request(7, "mutate", true);
        {
            let _outer = span("wal_append");
            let _inner = span("storage_write");
        }
        let trace = finish_request().expect("scope installed");
        assert_eq!(trace.ticks, 6); // 3 spans × (begin + end)
        assert_eq!(trace.events.len(), 3);
        // Close order: inner, outer, root.
        assert_eq!(trace.events[0].name, "storage_write");
        assert_eq!(trace.events[1].name, "wal_append");
        assert_eq!(trace.events[2].name, "mutate");
        // Proper containment: child [2,3) inside parent [1,4) inside
        // root [0,5).
        let (inner, outer, root) = (&trace.events[0], &trace.events[1], &trace.events[2]);
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert!(root.ts_us <= outer.ts_us);
        assert!(outer.ts_us + outer.dur_us <= root.ts_us + root.dur_us);
    }

    #[test]
    fn spans_outside_a_scope_are_inert() {
        let guard = span("orphan");
        assert!(!guard.armed);
        drop(guard);
        assert!(finish_request().is_none());
        note_wal_bytes(10); // must not panic
    }

    #[test]
    fn notes_accumulate_on_the_scope() {
        begin_request(1, "mutate", true);
        note_wal_bytes(10);
        note_wal_bytes(5);
        note_ckpt_gen(3);
        let trace = finish_request().expect("scope");
        assert_eq!(trace.wal_bytes, 15);
        assert_eq!(trace.ckpt_gen, Some(3));
    }

    #[test]
    fn unbalanced_guards_are_closed_by_finish() {
        begin_request(1, "analyze", true);
        let guard = span("engine_analyze");
        std::mem::forget(guard); // worst case: a leaked guard
        let trace = finish_request().expect("scope");
        // finish closed both the leaked span and the root, LIFO.
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].name, "engine_analyze");
        assert_eq!(trace.events[1].name, "analyze");
    }
}
