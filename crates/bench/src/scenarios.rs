//! Access to the committed scenario corpus under
//! `crates/bench/scenarios/`, and to the fixtures under
//! `crates/bench/fixtures/` that the analysis gates iterate next to it.
//!
//! The corpus is the shared fixture set for every directory-iterating
//! gate: the workspace-level scenario tests, the differential
//! sim-vs-analysis harness, and the bench-crate corpus tests all load
//! it through [`corpus`] so that adding a `.hem` file automatically
//! enrolls it everywhere. Loading is strict — an unreadable or
//! unparseable file panics with its path, because a broken fixture
//! must fail loudly rather than silently shrink the corpus.

use std::path::{Path, PathBuf};

use hem_system::dsl::{parse_scenario, Scenario};

/// One parsed corpus file.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem (`paper`, `gateway_chain2`, …), used in messages.
    pub name: String,
    /// Raw file text, exactly as committed.
    pub text: String,
    /// Parsed AST; derive a spec per use via [`Scenario::to_spec`].
    pub scenario: Scenario,
}

/// The on-disk location of the corpus.
#[must_use]
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Loads every `.hem` file of the corpus, sorted by file name.
///
/// # Panics
///
/// Panics if the directory cannot be read or any file fails to parse.
#[must_use]
pub fn corpus() -> Vec<CorpusEntry> {
    load_dir(&corpus_dir())
}

/// Loads the `.hem` fixtures under `crates/bench/fixtures/`, sorted by
/// file name: scenarios that the corpus gates (mode dominance, fast-path
/// determinism, sim-vs-analysis) iterate next to [`corpus`], but that
/// the corpus itself does not hold yet, because perfbench's `corpus`
/// workload expects a row for every corpus file.
///
/// # Panics
///
/// Panics if the directory cannot be read or any file fails to parse.
#[must_use]
pub fn fixtures() -> Vec<CorpusEntry> {
    load_dir(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
}

fn load_dir(dir: &Path) -> Vec<CorpusEntry> {
    let mut entries: Vec<CorpusEntry> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "hem"))
        .map(|path| {
            let name = path
                .file_stem()
                .expect("scenario files have a stem")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let scenario =
                parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            CorpusEntry {
                name,
                text,
                scenario,
            }
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_loads_and_is_sorted() {
        let entries = corpus();
        assert!(entries.len() >= 50, "corpus has {} files", entries.len());
        assert!(entries.windows(2).all(|w| w[0].name < w[1].name));
        assert!(entries.iter().any(|e| e.name == "paper"));
        let fixtures = fixtures();
        assert!(fixtures.iter().any(|e| e.name == "relay_chain"));
        assert!(fixtures
            .iter()
            .all(|f| entries.iter().all(|e| e.name != f.name)));
    }
}
