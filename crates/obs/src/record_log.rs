//! The append-only record log under the campaign wave log and the serve
//! journal: a plain header line, then one `<016x fnv64(payload)> <payload>`
//! line per record.
//!
//! Writers append whole lines only, so one rule tells a crash from
//! corruption: a final fragment without its `\n` is the torn tail of a
//! killed writer and is dropped, and every newline-terminated record must
//! verify. FNV-1a catches any change confined to one byte of a payload
//! (each step of the hash is a bijection of its state), so a flipped bit
//! never passes as data.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::fnv::fnv64;

/// Writes the header line.
///
/// # Errors
///
/// Propagates I/O errors; a header holding a newline is refused.
pub fn write_header<W: Write>(w: &mut W, header: &str) -> io::Result<()> {
    writeln!(w, "{}", one_line(header)?)
}

/// Appends one framed record (checksum, space, payload, newline) without
/// flushing.
///
/// # Errors
///
/// Propagates I/O errors; a payload holding a newline is refused.
pub fn write_record<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    writeln!(
        w,
        "{:016x} {}",
        fnv64(payload.as_bytes()),
        one_line(payload)?
    )
}

fn one_line(text: &str) -> io::Result<&str> {
    if text.contains('\n') {
        let e = "record log line holds a newline";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
    }
    Ok(text)
}

/// Splits a log into its header line, lossily decoded so a damaged one can
/// still be named, and its records, torn tail dropped. `None` means the
/// file holds no complete header line: its writer committed nothing.
pub fn read(bytes: &[u8]) -> Option<(Cow<'_, str>, Records<'_>)> {
    let end = bytes.iter().position(|&b| b == b'\n')?;
    let body = &bytes[end + 1..];
    let whole = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let records = Records {
        rest: &body[..whole],
        line: 1,
    };
    Some((String::from_utf8_lossy(&bytes[..end]), records))
}

/// A log's newline-terminated records, in order, as `(line, payload)`
/// with 1-based line numbers (the header is line 1). A record that fails
/// its checksum is a `checksum mismatch at line N` error.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    rest: &'a [u8],
    line: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<(usize, &'a str), String>;

    fn next(&mut self) -> Option<Self::Item> {
        let end = self.rest.iter().position(|&b| b == b'\n')?;
        let (raw, rest) = (&self.rest[..end], &self.rest[end + 1..]);
        self.rest = rest;
        self.line += 1;
        let payload = raw
            .get(17..)
            .filter(|payload| raw[..17] == *format!("{:016x} ", fnv64(payload)).as_bytes());
        Some(
            payload
                .and_then(|p| std::str::from_utf8(p).ok())
                .map(|p| (self.line, p))
                .ok_or_else(|| format!("checksum mismatch at line {}", self.line)),
        )
    }
}

/// An open record log file. Bytes written through its [`Write`] impl must
/// be records framed by [`write_record`]; [`RecordLog::append`] frames and
/// flushes one.
#[derive(Debug)]
pub struct RecordLog {
    out: BufWriter<File>,
    path: PathBuf,
}

impl RecordLog {
    /// Creates (truncating) the log at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, naming the path.
    pub fn create(path: &Path, header: &str) -> io::Result<RecordLog> {
        let file = File::create(path).map_err(|e| context("create", path, &e))?;
        let mut log = RecordLog {
            out: BufWriter::new(file),
            path: path.to_owned(),
        };
        write_header(&mut log, header)?;
        log.flush()?;
        Ok(log)
    }

    /// Opens the log at `path` to append after its last record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, naming the path.
    pub fn append_to(path: &Path) -> io::Result<RecordLog> {
        let file = OpenOptions::new().append(true).open(path);
        Ok(RecordLog {
            out: BufWriter::new(file.map_err(|e| context("open", path, &e))?),
            path: path.to_owned(),
        })
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, naming the path.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        write_record(self, payload)?;
        self.flush()
    }

    /// Durably installs this log at `dest`: flushes and syncs the file,
    /// then renames it over `dest`, so a crash mid-rewrite leaves `dest` as
    /// it was. Appends continue on the same handle (the rename moves the
    /// file, not its descriptor).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, naming the path; `dest` is then untouched.
    pub fn commit_rename(&mut self, dest: &Path) -> io::Result<()> {
        self.flush()?;
        let sync = self.out.get_ref().sync_all();
        sync.and_then(|()| std::fs::rename(&self.path, dest))
            .map_err(|e| context("commit", &self.path, &e))?;
        self.path = dest.to_owned();
        Ok(())
    }
}

impl Write for RecordLog {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out
            .write(buf)
            .map_err(|e| context("write", &self.path, &e))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out
            .flush()
            .map_err(|e| context("flush", &self.path, &e))
    }
}

fn context(what: &str, path: &Path, e: &io::Error) -> io::Error {
    let message = format!("{what} failed for {}: {e}", path.display());
    io::Error::new(e.kind(), message)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "test-log v1";

    fn log_of(payloads: &[&str]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf, HEADER).unwrap();
        for p in payloads {
            write_record(&mut buf, p).unwrap();
        }
        buf
    }

    /// The payloads of `bytes`; `None` without a header.
    fn payloads(bytes: &[u8]) -> Option<Result<Vec<String>, String>> {
        let (header, records) = read(bytes)?;
        assert_eq!(header, HEADER);
        Some(records.map(|r| r.map(|(_, p)| p.to_owned())).collect())
    }

    #[test]
    fn framing_is_checksum_space_payload() {
        let bytes = log_of(&["a", ""]);
        let want = format!("{HEADER}\n{:016x} a\n{:016x} \n", fnv64(b"a"), fnv64(b""));
        assert_eq!(String::from_utf8(bytes.clone()).unwrap(), want);
        assert_eq!(payloads(&bytes).unwrap().unwrap(), ["a", ""]);
    }

    #[test]
    fn a_cut_anywhere_drops_only_the_torn_record() {
        let records = ["first", "second record", "third"];
        let bytes = log_of(&records);
        let header_end = HEADER.len() + 1;
        for cut in 0..=bytes.len() {
            let got = payloads(&bytes[..cut]);
            if cut < header_end {
                assert!(got.is_none(), "cut {cut}");
                continue;
            }
            let whole = bytes[header_end..cut].iter().filter(|&&b| b == b'\n');
            let whole = whole.count();
            assert_eq!(got.unwrap().unwrap(), records[..whole], "cut {cut}");
        }
    }

    #[test]
    fn any_flipped_bit_in_a_terminated_record_names_its_line() {
        let bytes = log_of(&["one", "two", "three"]);
        let header_end = HEADER.len() + 1;
        for i in header_end..bytes.len() - 1 {
            let line = 2 + bytes[header_end..i].iter().filter(|&&b| b == b'\n').count();
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                let err = payloads(&evil).unwrap().unwrap_err();
                assert_eq!(err, format!("checksum mismatch at line {line}"), "byte {i}");
            }
        }
    }

    #[test]
    fn the_checksum_column_is_canonical_lowercase_hex() {
        let bytes = log_of(&["abc"]);
        let mut upper = bytes.clone();
        let start = HEADER.len() + 1;
        upper[start..start + 16].make_ascii_uppercase();
        assert_ne!(upper, bytes, "the checksum has a hex letter");
        assert!(payloads(&upper).unwrap().is_err());
    }

    #[test]
    fn newlines_are_refused_by_the_writer() {
        let mut buf = Vec::new();
        assert!(write_record(&mut buf, "a\nb").is_err());
        assert!(write_header(&mut buf, "h\n").is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn commit_rename_installs_a_rewrite_and_keeps_appending() {
        let dir = std::env::temp_dir().join(format!("fidelity-record-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("log");
        let tmp = dir.join("log.tmp");
        std::fs::write(&dest, "old").unwrap();
        let mut log = RecordLog::create(&tmp, HEADER).unwrap();
        log.append("one").unwrap();
        // Until the rename, the old file is untouched.
        assert_eq!(std::fs::read(&dest).unwrap(), b"old");
        log.commit_rename(&dest).unwrap();
        log.append("two").unwrap();
        drop(log);
        assert!(!tmp.exists());
        let mut log = RecordLog::append_to(&dest).unwrap();
        log.append("three").unwrap();
        drop(log);
        let bytes = std::fs::read(&dest).unwrap();
        assert_eq!(payloads(&bytes).unwrap().unwrap(), ["one", "two", "three"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
