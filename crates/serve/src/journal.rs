//! Write-ahead job journal: the daemon's crash-recovery record.
//!
//! Every job transition is appended to `jobs.journal` *before* it takes
//! effect, so a SIGTERM or hard kill at any instant loses at most the
//! transition being written. On restart the journal is replayed: accepted
//! jobs that never reached a terminal state are re-enqueued (resuming from
//! their checkpoints), finished jobs keep their recorded summaries, and the
//! single-flight registry is rebuilt — zero lost accepted jobs, zero
//! duplicated results.
//!
//! Format: a [`fidelity_obs::record_log`], like the campaign checkpoint, so
//! a torn final line is dropped and any other damage is refused with its
//! line number. Each record's payload is one event:
//!
//! ```text
//! fidelity-journal v1
//! <fnv64-hex> submit <id> <canonical job-spec JSON>
//! <fnv64-hex> start <id>
//! <fnv64-hex> done <id> <summary JSON>
//! <fnv64-hex> fail <id> <escaped reason>
//! <fnv64-hex> cancel <id>
//! <fnv64-hex> expire <id>
//! <fnv64-hex> shed <id>
//! ```

use std::path::Path;

use fidelity_obs::record_log::{self, RecordLog};

/// Journal format magic + version line.
pub const HEADER: &str = "fidelity-journal v1";

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A job was accepted; carries the canonical spec JSON.
    Submit {
        /// Job id (spec fingerprint, hex).
        id: String,
        /// Canonical [`crate::JobSpec`] JSON.
        spec_json: String,
    },
    /// A worker picked the job up.
    Start {
        /// Job id.
        id: String,
    },
    /// The job finished; carries the result-summary JSON.
    Done {
        /// Job id.
        id: String,
        /// Result summary JSON (restored verbatim on recovery).
        summary_json: String,
    },
    /// The job exhausted its retries.
    Fail {
        /// Job id.
        id: String,
        /// Why (JSON-escaped on disk).
        reason: String,
    },
    /// The job was cancelled via the API or a shutdown drain.
    Cancel {
        /// Job id.
        id: String,
    },
    /// The job's deadline expired.
    Expire {
        /// Job id.
        id: String,
    },
    /// The job was shed under overload.
    Shed {
        /// Job id.
        id: String,
    },
}

impl JournalEvent {
    /// The payload text after the checksum column.
    fn payload(&self) -> String {
        match self {
            JournalEvent::Submit { id, spec_json } => format!("submit {id} {spec_json}"),
            JournalEvent::Start { id } => format!("start {id}"),
            JournalEvent::Done { id, summary_json } => format!("done {id} {summary_json}"),
            JournalEvent::Fail { id, reason } => {
                let mut s = format!("fail {id} ");
                fidelity_obs::json::escape_into(&mut s, reason);
                s
            }
            JournalEvent::Cancel { id } => format!("cancel {id}"),
            JournalEvent::Expire { id } => format!("expire {id}"),
            JournalEvent::Shed { id } => format!("shed {id}"),
        }
    }

    /// The job id the event concerns.
    pub fn id(&self) -> &str {
        match self {
            JournalEvent::Submit { id, .. }
            | JournalEvent::Start { id }
            | JournalEvent::Done { id, .. }
            | JournalEvent::Fail { id, .. }
            | JournalEvent::Cancel { id }
            | JournalEvent::Expire { id }
            | JournalEvent::Shed { id } => id,
        }
    }

    fn parse_payload(payload: &str) -> Option<JournalEvent> {
        let (kind, rest) = payload.split_once(' ')?;
        let ev = match kind {
            "submit" => {
                let (id, spec_json) = rest.split_once(' ')?;
                JournalEvent::Submit {
                    id: id.to_owned(),
                    spec_json: spec_json.to_owned(),
                }
            }
            "start" => JournalEvent::Start {
                id: word_only(rest)?,
            },
            "done" => {
                let (id, summary_json) = rest.split_once(' ')?;
                JournalEvent::Done {
                    id: id.to_owned(),
                    summary_json: summary_json.to_owned(),
                }
            }
            "fail" => {
                let (id, reason_json) = rest.split_once(' ')?;
                let reason = fidelity_obs::json::parse(reason_json)
                    .ok()?
                    .as_str()?
                    .to_owned();
                JournalEvent::Fail {
                    id: id.to_owned(),
                    reason,
                }
            }
            "cancel" => JournalEvent::Cancel {
                id: word_only(rest)?,
            },
            "expire" => JournalEvent::Expire {
                id: word_only(rest)?,
            },
            "shed" => JournalEvent::Shed {
                id: word_only(rest)?,
            },
            _ => return None,
        };
        Some(ev)
    }
}

/// `rest` as a single bare word (trailing fields reject the line).
fn word_only(rest: &str) -> Option<String> {
    if rest.is_empty() || rest.contains(' ') {
        None
    } else {
        Some(rest.to_owned())
    }
}

/// Append-only journal writer: the typed [`JournalEvent`] encoder over a
/// [`RecordLog`]. Every append flushes, so an accepted job's `submit` record
/// is with the OS before the client sees 202.
#[derive(Debug)]
pub struct Journal(RecordLog);

impl Journal {
    /// Creates a fresh journal at `path` (truncating), writing the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn create(path: &Path) -> Result<Journal, String> {
        RecordLog::create(path, HEADER).map(Journal).map_err(io_err)
    }

    /// Opens `path` for appending (the recovery path: replay first, then
    /// reopen to continue the log).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn append_to(path: &Path) -> Result<Journal, String> {
        RecordLog::append_to(path).map(Journal).map_err(io_err)
    }

    /// Durably installs this journal at `dest`: the boot-time compaction's
    /// [`RecordLog::commit_rename`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text; on error `dest` is left as it was.
    pub fn commit_rename(&mut self, dest: &Path) -> Result<(), String> {
        self.0.commit_rename(dest).map_err(io_err)
    }

    /// Appends one event and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn append(&mut self, ev: &JournalEvent) -> Result<(), String> {
        self.0.append(&ev.payload()).map_err(io_err)
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("journal {e}")
}

/// Replays a journal from raw bytes. A torn tail is dropped: the
/// transition it recorded never took effect anywhere else. Every other
/// record must verify and parse. (The supervisor rewrites the journal on
/// boot, so a dropped tail is physically truncated before any new record
/// is appended.)
///
/// # Errors
///
/// Returns a message naming the offending line on corruption, and a
/// missing or damaged header.
pub fn replay_bytes(bytes: &[u8]) -> Result<Vec<JournalEvent>, String> {
    let corrupt = |e: String| format!("corrupt journal: {e}");
    let (header, records) = record_log::read(bytes).ok_or_else(|| corrupt("no header".into()))?;
    if header != HEADER {
        // A header cut short is still a bad journal: nothing was recovered
        // from it, so refusing is safe and honest.
        return Err(corrupt("bad header".into()));
    }
    records
        .map(|record| {
            let (line, payload) = record.map_err(corrupt)?;
            JournalEvent::parse_payload(payload)
                .ok_or_else(|| corrupt(format!("unparseable event at line {line}")))
        })
        .collect()
}

/// Replays the journal at `path`. A missing file is an empty journal (first
/// boot).
///
/// # Errors
///
/// Propagates I/O errors and corruption as text.
pub fn replay_file(path: &Path) -> Result<Vec<JournalEvent>, String> {
    match std::fs::read(path) {
        Ok(bytes) => replay_bytes(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("journal read failed for {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Submit {
                id: "ab12".to_owned(),
                spec_json: r#"{"network":"lstm","samples":4}"#.to_owned(),
            },
            JournalEvent::Start {
                id: "ab12".to_owned(),
            },
            JournalEvent::Fail {
                id: "ab12".to_owned(),
                reason: "worker panic: boom\nwith newline".to_owned(),
            },
            JournalEvent::Cancel {
                id: "ab12".to_owned(),
            },
            JournalEvent::Expire {
                id: "ab12".to_owned(),
            },
            JournalEvent::Shed {
                id: "cd34".to_owned(),
            },
            JournalEvent::Done {
                id: "ab12".to_owned(),
                summary_json: r#"{"masked":3}"#.to_owned(),
            },
        ]
    }

    fn write_journal(events: &[JournalEvent]) -> Vec<u8> {
        let dir =
            std::env::temp_dir().join(format!("fidelity-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("j-{:p}.journal", events));
        let mut j = Journal::create(&path).unwrap();
        for ev in events {
            j.append(ev).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample_events();
        let bytes = write_journal(&events);
        assert_eq!(replay_bytes(&bytes).unwrap(), events);
    }

    #[test]
    fn torn_tail_is_dropped_everywhere_else_errors() {
        let events = sample_events();
        let bytes = write_journal(&events);
        // Truncation mid-final-line drops only that record.
        let cut = bytes.len() - 4;
        let replayed = replay_bytes(&bytes[..cut]).unwrap();
        assert_eq!(replayed.len(), events.len() - 1);
        // Flipping a byte in an *interior* line is corruption, not a tear.
        let mut evil = bytes.clone();
        let idx = bytes.iter().position(|&b| b == b'\n').unwrap() + 2;
        evil[idx] ^= 0x40;
        let err = replay_bytes(&evil).unwrap_err();
        assert!(err.contains("line 2"), "unexpected error: {err}");
    }

    #[test]
    fn missing_file_is_empty_first_boot() {
        let path = std::env::temp_dir().join("fidelity-journal-does-not-exist.journal");
        assert!(replay_file(&path).unwrap().is_empty());
    }

    #[test]
    fn append_to_continues_an_existing_log() {
        let dir =
            std::env::temp_dir().join(format!("fidelity-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&JournalEvent::Start { id: "x".to_owned() })
            .unwrap();
        drop(j);
        let mut j = Journal::append_to(&path).unwrap();
        j.append(&JournalEvent::Done {
            id: "x".to_owned(),
            summary_json: "{}".to_owned(),
        })
        .unwrap();
        drop(j);
        let events = replay_file(&path).unwrap();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
