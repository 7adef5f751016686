//! Request lines and response fields of the server protocol, as the
//! benchmark's clients speak it.

use hem_obs::json::{self, JsonValue};
use hem_server::{ServerCore, SessionEvent};

/// An `open` request.
#[must_use]
pub fn open(session: &str, scenario: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"scenario\":{}}}",
        json::escaped(scenario)
    )
}

/// A `mutate` request carrying `event`.
#[must_use]
pub fn mutate(session: &str, event: &SessionEvent) -> String {
    format!(
        "{{\"op\":\"mutate\",\"session\":\"{session}\",\"event\":{}}}",
        event.canonical_json()
    )
}

/// A request with only an op and a session (`analyze`, `result`,
/// `close`).
#[must_use]
pub fn simple(op: &str, session: &str) -> String {
    format!("{{\"op\":\"{op}\",\"session\":\"{session}\"}}")
}

/// Whether a response acknowledges success.
#[must_use]
pub fn ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// The `"result"` body of an `analyze`/`result` response.
#[must_use]
pub fn result_body(response: &str) -> Option<&str> {
    let start = response.find("\"result\":")? + "\"result\":".len();
    response.get(start..response.len().checked_sub(1)?)
}

/// Scrapes the core's metrics snapshot through the `metrics` op.
///
/// # Errors
///
/// When the response is not a metrics snapshot.
pub fn scrape(core: &ServerCore) -> Result<JsonValue, String> {
    let response = core.handle_line("{\"op\":\"metrics\"}");
    let parsed = json::parse(&response).map_err(|e| format!("metrics response: {e}"))?;
    parsed
        .get("snapshot")
        .cloned()
        .ok_or_else(|| "metrics response lacks a snapshot".to_string())
}

/// A counter of a scraped snapshot (0 when absent).
#[must_use]
pub fn counter(snapshot: &JsonValue, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// A summary field (`p50`, `p99`, `count`, `sum`, …) of a scraped
/// histogram (0 when absent).
#[must_use]
pub fn histogram(snapshot: &JsonValue, name: &str, field: &str) -> f64 {
    snapshot
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_body_strips_the_envelope() {
        let r = "{\"ok\":true,\"op\":\"analyze\",\"seq\":3,\"stale\":false,\"replayed\":0,\"result\":{\"complete\":true}}";
        assert_eq!(result_body(r), Some("{\"complete\":true}"));
        assert_eq!(result_body("{\"ok\":false}"), None);
    }
}
