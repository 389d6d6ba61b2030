//! The checkpoint journal: terminal cell outcomes, persisted with an
//! atomic temp-file+rename writer.
//!
//! The journal is append-only in content — records are only ever added
//! — but each flush rewrites the file in full through a `.tmp` sibling
//! followed by `fs::rename`. POSIX rename is atomic within a
//! filesystem, so a kill at any instant leaves either the previous
//! journal or the new one on disk, never a torn mixture. That contract
//! is what makes resume safe, and smartlint rule `C1` pins it: the two
//! annotated writes below are the only file-writing sites allowed in
//! this crate.
//!
//! Each record is rendered to its JSON line once, when it enters the
//! journal (at `insert`, or at `load` from the parsed record), so a
//! flush only concatenates cached lines and never serializes a record
//! a second time.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use smartbalance::JobResult;

use crate::flight::{AttemptOutcome, FlightRecord};
use crate::job::canonical_json;

/// One terminal cell outcome, as stored on disk (one JSON line each).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The cell ran to completion (possibly after retries).
    Completed {
        /// Content-addressed cell identity.
        id: String,
        /// Grid index the cell completed at. Reports take the index
        /// from the current grid instead, so a reordered grid places
        /// replayed cells where they now sit.
        index: usize,
        /// Total tries consumed (1 = first-try success).
        attempts: u32,
        /// The measurements, exactly as the suite produced them
        /// (boxed: a `JobResult` dwarfs the `Quarantined` variant).
        result: Box<JobResult>,
    },
    /// The cell exhausted its retry ladder and was quarantined.
    Quarantined {
        /// Content-addressed cell identity.
        id: String,
        /// Grid index the cell failed at (reports use the current
        /// grid's index, as for `Completed`).
        index: usize,
        /// Total tries consumed (always `max_retries + 1`).
        attempts: u32,
        /// The final failure: panic payload or budget violation.
        error: String,
        /// Every rung of the retry ladder, in attempt order. `None`
        /// only when the record was replayed from a pre-v2 journal
        /// (the mini-serde deserializer maps a missing key to `None`).
        attempts_log: Option<Vec<AttemptOutcome>>,
        /// Flight-recorder forensics from the final failed attempt.
        /// `None` only on records replayed from a pre-v2 journal.
        flight: Option<Box<FlightRecord>>,
    },
}

impl JournalRecord {
    /// The record's content-addressed identity.
    pub fn id(&self) -> &str {
        match self {
            JournalRecord::Completed { id, .. } | JournalRecord::Quarantined { id, .. } => id,
        }
    }

    /// The record's grid index.
    pub fn index(&self) -> usize {
        match self {
            JournalRecord::Completed { index, .. } | JournalRecord::Quarantined { index, .. } => {
                *index
            }
        }
    }

    /// Total tries the cell consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            JournalRecord::Completed { attempts, .. }
            | JournalRecord::Quarantined { attempts, .. } => *attempts,
        }
    }
}

/// The on-disk checkpoint state of one campaign, keyed by cell
/// identity (a `BTreeMap`, so the serialized line order is
/// deterministic regardless of completion order).
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    records: BTreeMap<String, Entry>,
    skipped_lines: usize,
}

/// A record and its JSONL line (newline included), rendered once.
#[derive(Debug)]
struct Entry {
    record: JournalRecord,
    line: String,
}

impl Entry {
    fn new(record: JournalRecord) -> Self {
        let mut line = canonical_json(&record);
        line.push('\n');
        Entry { record, line }
    }
}

impl CheckpointJournal {
    /// Opens the journal at `path`, replaying any existing records. A
    /// missing file is an empty journal (fresh campaign); a line that
    /// does not parse — a torn tail left by a non-atomic foreign
    /// writer (one that may split a multi-byte character, so the line
    /// is not UTF-8), nesting past the parser's depth limit, or
    /// hand-edited damage — is skipped and counted in
    /// [`CheckpointJournal::skipped_lines`] rather than aborting the
    /// resume, because every record is self-contained. Each line is
    /// re-rendered from its parsed record, so the next flush writes
    /// pre-v2 lines in today's shape.
    pub fn load(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records = BTreeMap::new();
        let mut skipped_lines = 0;
        for line in bytes.split(|&b| b == b'\n') {
            let parsed = match std::str::from_utf8(line) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => serde_json::from_str::<JournalRecord>(line).ok(),
                Err(_) => None,
            };
            match parsed {
                Some(rec) => {
                    records.insert(rec.id().to_owned(), Entry::new(rec));
                }
                None => skipped_lines += 1,
            }
        }
        Ok(CheckpointJournal {
            path,
            records,
            skipped_lines,
        })
    }

    /// Where this journal persists.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a terminal outcome for `id` is already checkpointed.
    pub fn contains(&self, id: &str) -> bool {
        self.records.contains_key(id)
    }

    /// The checkpointed outcome for `id`, if any.
    pub fn get(&self, id: &str) -> Option<&JournalRecord> {
        self.records.get(id).map(|e| &e.record)
    }

    /// Adds (or overwrites) a terminal outcome in memory and renders
    /// its JSON line; call [`CheckpointJournal::flush`] to persist.
    pub fn insert(&mut self, record: JournalRecord) {
        self.records
            .insert(record.id().to_owned(), Entry::new(record));
    }

    /// Number of checkpointed cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Unparseable lines skipped during [`CheckpointJournal::load`].
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The records in identity order.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records.values().map(|e| &e.record)
    }

    /// Persists the journal atomically: concatenates every record's
    /// cached JSON line, writes the whole byte string to a `.tmp`
    /// sibling, syncs it to stable storage, then renames it over the
    /// live path. The rename is the commit point — a crash before it
    /// leaves the previous journal intact, a crash after it leaves the
    /// new one. Returns the number of bytes committed (feeds the live
    /// plane's flush stats).
    pub fn flush(&self) -> io::Result<usize> {
        let buf: String = self.records.values().map(|e| e.line.as_str()).collect();
        let tmp = tmp_sibling(&self.path);
        {
            // smartlint: allow(checkpoint-write, "this is the sanctioned atomic writer: the bytes go to the .tmp sibling, never the live journal")
            let mut file = fs::File::create(&tmp)?;
            // smartlint: allow(checkpoint-write, "writes the .tmp sibling opened above; the rename below is the commit point")
            file.write_all(buf.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(buf.len())
    }
}

/// `<path>.tmp`, kept next to the journal so the rename never crosses
/// a filesystem boundary (cross-device renames are not atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, index: usize) -> JournalRecord {
        JournalRecord::Quarantined {
            id: id.to_owned(),
            index,
            attempts: 3,
            error: "boom".to_owned(),
            attempts_log: Some(vec![
                AttemptOutcome {
                    attempt: 1,
                    error: "boom".to_owned(),
                },
                AttemptOutcome {
                    attempt: 2,
                    error: "boom".to_owned(),
                },
                AttemptOutcome {
                    attempt: 3,
                    error: "boom".to_owned(),
                },
            ]),
            flight: Some(Box::new(FlightRecord::default())),
        }
    }

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("campaign-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        dir.join(name)
    }

    #[test]
    fn round_trips_records_through_disk() {
        let path = temp_journal("roundtrip.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        assert!(j.is_empty());
        j.insert(record("aaaa", 0));
        j.insert(record("bbbb", 1));
        j.flush().expect("flush");

        let j2 = CheckpointJournal::load(&path).expect("reload");
        assert_eq!(j2.len(), 2);
        assert!(j2.contains("aaaa") && j2.contains("bbbb"));
        assert_eq!(j2.get("bbbb").map(JournalRecord::index), Some(1));
        assert_eq!(j2.skipped_lines(), 0);
    }

    /// Writes one flushed record followed by `tail` at `name`.
    fn journal_with_tail(name: &str, tail: &[u8]) -> PathBuf {
        let path = temp_journal(name);
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        j.insert(record("cccc", 0));
        j.flush().expect("flush");
        let mut bytes = fs::read(&path).expect("read back");
        bytes.extend_from_slice(tail);
        fs::write(&path, bytes).expect("append the tail");
        path
    }

    #[test]
    fn torn_tail_lines_are_skipped_not_fatal() {
        // Simulate a kill mid-append by a non-atomic writer.
        let path = journal_with_tail("torn.jsonl", b"{\"Completed\":{\"id\":\"dddd\",\"ind");
        let j2 = CheckpointJournal::load(&path).expect("reload tolerates tail");
        assert_eq!(j2.len(), 1, "the intact record survives");
        assert_eq!(j2.skipped_lines(), 1, "the torn line is counted");
    }

    #[test]
    fn a_line_nested_too_deep_is_skipped_not_fatal() {
        let path = journal_with_tail("deep.jsonl", "[".repeat(1 << 20).as_bytes());
        let j = CheckpointJournal::load(&path).expect("reload tolerates the line");
        assert_eq!(j.len(), 1, "the intact record survives");
        assert_eq!(j.skipped_lines(), 1, "the deep line is counted");
    }

    #[test]
    fn a_torn_tail_that_splits_a_character_is_skipped_not_fatal() {
        let path = journal_with_tail("torn-utf8.jsonl", b"{\"Completed\":{\"id\":\"caf\xc3");
        let j = CheckpointJournal::load(&path).expect("reload tolerates invalid UTF-8");
        assert_eq!(j.len(), 1, "the intact record survives");
        assert_eq!(j.skipped_lines(), 1, "the torn line is counted");
    }

    #[test]
    fn negative_zero_survives_a_reload() {
        let path = temp_journal("negative-zero.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        let mut rec = record("abcd", 0);
        if let JournalRecord::Quarantined {
            flight: Some(flight),
            ..
        } = &mut rec
        {
            flight.spans.push(telemetry::EpochObs {
                anneal_objective: -0.0,
                ..telemetry::EpochObs::default()
            });
        }
        j.insert(rec);
        j.flush().expect("flush");
        let written = fs::read_to_string(&path).expect("read back");

        let j2 = CheckpointJournal::load(&path).expect("reload");
        match j2.get("abcd") {
            Some(JournalRecord::Quarantined {
                flight: Some(flight),
                ..
            }) => assert_eq!(
                flight.spans[0].anneal_objective.to_bits(),
                (-0.0f64).to_bits()
            ),
            other => panic!("record lost in round trip: {other:?}"),
        }
        j2.flush().expect("re-flush");
        let rewritten = fs::read_to_string(&path).expect("read back");
        assert_eq!(rewritten, written, "the reload re-renders -0 as -0");
    }

    #[test]
    fn pre_v2_quarantine_lines_still_parse() {
        // A Quarantined line exactly as schema-1 journals wrote it: no
        // attempts_log, no flight. Resume must replay it rather than
        // recompute the cell.
        let line =
            r#"{"Quarantined":{"id":"0123456789abcdef","index":4,"attempts":3,"error":"boom"}}"#;
        let rec: JournalRecord = serde_json::from_str(line).expect("old line parses");
        match rec {
            JournalRecord::Quarantined {
                attempts,
                attempts_log,
                flight,
                ..
            } => {
                assert_eq!(attempts, 3);
                assert!(attempts_log.is_none(), "missing key maps to None");
                assert!(flight.is_none(), "missing key maps to None");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn quarantine_forensics_round_trip_through_disk() {
        let path = temp_journal("forensics.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        j.insert(record("ffff", 2));
        j.flush().expect("flush");
        let j2 = CheckpointJournal::load(&path).expect("reload");
        match j2.get("ffff").expect("record present") {
            JournalRecord::Quarantined {
                attempts_log: Some(log),
                flight: Some(flight),
                ..
            } => {
                assert_eq!(log.len(), 3);
                assert_eq!(log[0].attempt, 1);
                assert_eq!(log[2].error, "boom");
                assert!(flight.spans.is_empty());
            }
            other => panic!("forensics lost in round trip: {other:?}"),
        }
    }

    /// What a flush must write: a fresh rendering of every record, in
    /// id order, one per line.
    fn rendered(j: &CheckpointJournal) -> String {
        j.records()
            .map(|r| serde_json::to_string(r).expect("record serializes") + "\n")
            .collect()
    }

    #[test]
    fn flush_writes_a_fresh_rendering_of_every_record() {
        // A line replayed from a pre-v2 journal, fresh inserts and an id
        // inserted twice: the flushed bytes are today's rendering of
        // exactly the records in memory.
        let path = temp_journal("render-once.jsonl");
        let pre_v2 =
            r#"{"Quarantined":{"id":"0123456789abcdef","index":4,"attempts":3,"error":"boom"}}"#;
        fs::write(&path, format!("{pre_v2}\n")).expect("seed a pre-v2 journal");
        let mut j = CheckpointJournal::load(&path).expect("load");
        j.insert(record("bbbb", 1));
        j.insert(record("aaaa", 2));
        let bytes = j.flush().expect("first flush");
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(text, rendered(&j));
        assert_eq!(bytes, text.len(), "flush reports the committed bytes");
        assert!(!text.contains(pre_v2), "the pre-v2 line is re-rendered");

        j.insert(record("aaaa", 7));
        j.flush().expect("second flush");
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(text, rendered(&j));
        assert_eq!(text.lines().count(), 3, "one line per id");
        assert_eq!(j.get("aaaa").map(JournalRecord::index), Some(7));
    }

    #[test]
    fn flush_leaves_no_tmp_residue_and_is_idempotent() {
        let path = temp_journal("residue.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load");
        j.insert(record("eeee", 4));
        j.flush().expect("first flush");
        j.flush().expect("second flush");
        assert!(!tmp_sibling(&path).exists(), "tmp is always renamed away");
        let a = fs::read_to_string(&path).expect("read");
        j.flush().expect("third flush");
        let b = fs::read_to_string(&path).expect("read again");
        assert_eq!(a, b, "re-flushing identical state is byte-identical");
    }
}
