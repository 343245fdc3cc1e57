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
//! Format (line-oriented, like the campaign checkpoint):
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
//!
//! Each line carries an FNV-1a checksum of its payload. A final line that is
//! truncated, checksum-broken, or missing its newline is a *torn tail* from
//! a killed writer and is dropped; the same damage anywhere earlier means
//! real corruption and replay refuses with the offending line number rather
//! than recovering wrong state.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use fidelity_obs::fnv::fnv64;

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

/// Append-only journal writer. Every append flushes, so an accepted job's
/// `submit` record is on disk before the client sees 202.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating), writing the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn create(path: &Path) -> Result<Journal, String> {
        let file = File::create(path).map_err(|e| io_err(path, "create", &e))?;
        let mut writer = BufWriter::new(file);
        writeln!(writer, "{HEADER}").map_err(|e| io_err(path, "header write", &e))?;
        writer.flush().map_err(|e| io_err(path, "flush", &e))?;
        Ok(Journal {
            writer,
            path: path.to_owned(),
        })
    }

    /// Opens `path` for appending (the recovery path: replay first, then
    /// reopen to continue the log).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn append_to(path: &Path) -> Result<Journal, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open", &e))?;
        Ok(Journal {
            writer: BufWriter::new(file),
            path: path.to_owned(),
        })
    }

    /// Durably installs this journal at `dest`: flushes and syncs the file,
    /// then atomically renames it into place. The boot-time compaction path
    /// uses this so a crash mid-rewrite can never leave a half-written
    /// journal — until the rename lands, the old file at `dest` is
    /// untouched. Appends continue on the same handle afterwards (the
    /// rename moves the file, not its descriptor).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text; on error `dest` is left as it was.
    pub fn commit_rename(&mut self, dest: &Path) -> Result<(), String> {
        self.writer
            .flush()
            .map_err(|e| io_err(&self.path, "flush", &e))?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(|e| io_err(&self.path, "sync", &e))?;
        std::fs::rename(&self.path, dest).map_err(|e| io_err(&self.path, "rename", &e))?;
        self.path = dest.to_owned();
        Ok(())
    }

    /// Appends one event and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn append(&mut self, ev: &JournalEvent) -> Result<(), String> {
        let payload = ev.payload();
        let mut line = String::with_capacity(payload.len() + 20);
        let _ = write!(line, "{:016x} {payload}", fnv64(payload.as_bytes()));
        writeln!(self.writer, "{line}").map_err(|e| io_err(&self.path, "append", &e))?;
        self.writer
            .flush()
            .map_err(|e| io_err(&self.path, "flush", &e))
    }
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> String {
    format!("journal {what} failed for {}: {e}", path.display())
}

/// Replays a journal from raw bytes.
///
/// A final fragment without its newline is the torn tail of a killed writer
/// and is dropped — the transition it recorded never took effect anywhere
/// else, so dropping it costs nothing. Every newline-terminated line must
/// verify; damage there is corruption, and replay refuses with the 1-based
/// line number rather than recovering wrong state. (The supervisor rewrites
/// the journal on boot, so a dropped tail is physically truncated before
/// any new record is appended.)
///
/// # Errors
///
/// Returns a message naming the offending line on corruption.
pub fn replay_bytes(bytes: &[u8]) -> Result<Vec<JournalEvent>, String> {
    // Split into newline-terminated lines; a final fragment without `\n`
    // is torn by construction (the writer always appends whole lines).
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // The popped final piece is either the empty slice after a clean
    // trailing newline or a torn fragment; both are dropped unparsed.
    lines.pop();
    if lines.is_empty() {
        return Err("corrupt journal: empty file".to_owned());
    }
    if lines[0] != HEADER.as_bytes() {
        // A header cut short is still a bad journal: nothing was recovered
        // from it, so refusing is safe and honest.
        return Err("corrupt journal: bad header".to_owned());
    }
    let mut events = Vec::new();
    for (i, raw) in lines[1..].iter().enumerate() {
        let lineno = i + 2;
        match parse_line(raw) {
            Ok(ev) => events.push(ev),
            Err(why) => {
                return Err(format!("corrupt journal: {why} at line {lineno}"));
            }
        }
    }
    Ok(events)
}

fn parse_line(raw: &[u8]) -> Result<JournalEvent, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "invalid UTF-8".to_owned())?;
    let (crc_hex, payload) = text
        .split_once(' ')
        .ok_or_else(|| "missing checksum column".to_owned())?;
    let crc = u64::from_str_radix(crc_hex, 16).map_err(|_| "bad checksum field".to_owned())?;
    if crc != fnv64(payload.as_bytes()) {
        return Err("checksum mismatch".to_owned());
    }
    JournalEvent::parse_payload(payload).ok_or_else(|| "unparseable event".to_owned())
}

/// Replays the journal at `path`. A missing file is an empty journal (first
/// boot).
///
/// # Errors
///
/// Propagates I/O errors and corruption as text.
pub fn replay_file(path: &Path) -> Result<Vec<JournalEvent>, String> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err(path, "read", &e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(path, "open", &e)),
    }
    replay_bytes(&bytes)
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
