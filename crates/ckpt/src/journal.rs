//! Append-only journals: the checkpoint frame layout as a record log
//! (layout in the crate docs). The sweep, fleet, and chaos journals all
//! persist *completed* units of work this way, each record one
//! `Enc`-written payload.
//!
//! Every record is appended as one write of one whole frame, with no
//! fsync, so a SIGKILL loses at most the frame being written. Reading
//! keeps the longest prefix of frames that verify: a torn tail or a
//! flipped bit ends the journal at the damaged frame, so damage costs
//! recomputation of that record and everything after it but never
//! replays a changed value. A file whose magic, header frame, kind,
//! version, or fingerprint does not match — including a version 1 text
//! journal — is not read at all and the journal starts fresh.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::{push_frame, read_frame, CkptError, Dec, Enc};

/// Identifies a journal file; the first 8 bytes on disk.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DMTRJRNL";

/// On-disk journal version, carried in the header frame. Version 1 was
/// the retired line-per-record text format, which this build never reads.
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

/// The identity in a journal's first frame: which journal family wrote
/// it, in which format version, for which run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The journal family (`sweep`, `fleet`, `fleet-chaos`).
    pub kind: String,
    /// Format version the file was written in.
    pub version: u32,
    /// Fingerprint of the run the records belong to.
    pub fingerprint: u64,
}

impl JournalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.bytes(self.kind.as_bytes());
        enc.u32(self.version);
        enc.u64(self.fingerprint);
        enc.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::new(payload);
        let kind = String::from_utf8(dec.bytes()?.to_vec())
            .map_err(|_| CkptError::Malformed("journal kind is not UTF-8".into()))?;
        let version = dec.u32()?;
        let fingerprint = dec.u64()?;
        dec.finish()?;
        Ok(JournalHeader {
            kind,
            version,
            fingerprint,
        })
    }
}

/// What a read-only pass over journal bytes found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// The header frame.
    pub header: JournalHeader,
    /// Payloads of the record frames that verify, in write order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past each verified record frame, parallel to
    /// `records`.
    pub record_ends: Vec<usize>,
    /// Length of the verifying prefix. When it is shorter than the
    /// input, it is the offset of the first frame that fails to verify.
    pub valid_len: usize,
}

/// Reads journal bytes: the magic, the header frame, then record frames
/// up to the first one that fails to verify or the end of the input.
///
/// # Errors
///
/// [`CkptError::BadMagic`] when the bytes are not a journal (a version 1
/// text journal included), and the header frame's `Truncated`,
/// `ChecksumMismatch`, or `Malformed` error when it does not verify. A
/// damaged record frame is not an error: it ends the scan.
pub fn scan_journal(bytes: &[u8]) -> Result<JournalScan, CkptError> {
    let rest = bytes
        .strip_prefix(&JOURNAL_MAGIC)
        .ok_or(CkptError::BadMagic)?;
    let (payload, mut rest) = read_frame(rest)?;
    let header = JournalHeader::decode(payload)?;
    let mut scan = JournalScan {
        header,
        records: Vec::new(),
        record_ends: Vec::new(),
        valid_len: bytes.len() - rest.len(),
    };
    while let Ok((payload, after)) = read_frame(rest) {
        rest = after;
        scan.valid_len = bytes.len() - rest.len();
        scan.records.push(payload.to_vec());
        scan.record_ends.push(scan.valid_len);
    }
    Ok(scan)
}

/// An open journal file that records are appended to.
///
/// I/O failures never fail the run that journals: they print a warning
/// and disable journaling, so the run completes without crash
/// resumability.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// `None` once an I/O error has disabled journaling.
    file: Mutex<Option<File>>,
}

impl Journal {
    /// Opens the journal at `path` for the run identified by `kind` and
    /// `fingerprint`, and returns it with the records to replay.
    ///
    /// With `resume`, a file whose header matches keeps its longest
    /// verifying prefix: those records are returned, the file is
    /// truncated after them, and new records append there. Otherwise —
    /// no `resume`, no file, or a file with another header — the file is
    /// truncated and starts over with a fresh header.
    pub fn open(
        path: &Path,
        kind: &str,
        fingerprint: u64,
        resume: bool,
    ) -> (Journal, Vec<Vec<u8>>) {
        let header = JournalHeader {
            kind: kind.to_string(),
            version: JOURNAL_FORMAT_VERSION,
            fingerprint,
        };
        let scan = if resume {
            fs::read(path).ok().and_then(|bytes| scan_journal(&bytes).ok())
        } else {
            None
        };
        let (keep, records) = match scan {
            Some(scan) if scan.header == header => (scan.valid_len, scan.records),
            _ => (0, Vec::new()),
        };
        let file = match open_after(path, &header, keep) {
            Ok(file) => Some(file),
            Err(err) => {
                eprintln!(
                    "warning: cannot open journal {}: {err}; journaling disabled",
                    path.display()
                );
                None
            }
        };
        let journal = Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        };
        (journal, records)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single write of one whole frame, with no
    /// fsync. Thread-safe; workers append in completion order.
    pub fn append(&self, record: &[u8]) {
        let mut frame = Vec::with_capacity(record.len() + 12);
        push_frame(&mut frame, record);
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = guard.as_mut() {
            if let Err(err) = file.write_all(&frame) {
                eprintln!("warning: journal write failed ({err}); journaling disabled");
                *guard = None;
            }
        }
    }
}

/// Opens `path` for appending after its first `keep` bytes; with `keep`
/// 0 the file starts over with the magic and `header`.
fn open_after(path: &Path, header: &JournalHeader, keep: usize) -> std::io::Result<File> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.set_len(keep as u64)?;
    if keep == 0 {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        push_frame(&mut bytes, &header.encode());
        file.write_all(&bytes)?;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dimetrodon_journal_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("unit.journal")
    }

    fn records() -> Vec<Vec<u8>> {
        (0..4u64)
            .map(|i| {
                let mut enc = Enc::new();
                enc.u64(i);
                enc.f64(i as f64 * 0.5 - 0.75);
                enc.bytes(&vec![b'x'; i as usize]);
                enc.into_bytes()
            })
            .collect()
    }

    fn written(name: &str) -> (PathBuf, Vec<u8>) {
        let path = scratch(name);
        let (journal, replay) = Journal::open(&path, "unit", 0xfeed, false);
        assert!(replay.is_empty());
        for record in records() {
            journal.append(&record);
        }
        let bytes = fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn resume_replays_every_record_and_appends_after_them() {
        let (path, bytes) = written("resume");
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.records, records());
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.record_ends.last(), Some(&bytes.len()));

        let (journal, replay) = Journal::open(&path, "unit", 0xfeed, true);
        assert_eq!(replay, records());
        journal.append(b"fifth");
        let (_, replay) = Journal::open(&path, "unit", 0xfeed, true);
        assert_eq!(replay.len(), 5);
        assert_eq!(replay[4], b"fifth");
    }

    #[test]
    fn a_fresh_open_or_another_identity_starts_over() {
        let (path, _) = written("identity");
        for (kind, fingerprint) in [("other", 0xfeed), ("unit", 0xbeef)] {
            let (_, replay) = Journal::open(&path, kind, fingerprint, true);
            assert!(replay.is_empty(), "{kind}/{fingerprint:x} must not replay");
        }
        // The mismatched opens rewrote the file under their own header.
        let (_, replay) = Journal::open(&path, "unit", 0xfeed, true);
        assert!(replay.is_empty());
        let (path, _) = written("fresh");
        let (_, replay) = Journal::open(&path, "unit", 0xfeed, false);
        assert!(replay.is_empty());
        assert_eq!(
            scan_journal(&fs::read(&path).unwrap())
                .unwrap()
                .records
                .len(),
            0
        );
    }

    #[test]
    fn a_version_1_text_journal_is_not_read() {
        let path = scratch("v1");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(
            &path,
            "# dimetrodon fleet journal v1 config 00000000deadbeef\n",
        )
        .unwrap();
        assert_eq!(
            scan_journal(&fs::read(&path).unwrap()),
            Err(CkptError::BadMagic)
        );
        let (journal, replay) = Journal::open(&path, "unit", 0xfeed, true);
        assert!(replay.is_empty());
        journal.append(b"one");
        let scan = scan_journal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.header.version, JOURNAL_FORMAT_VERSION);
        assert_eq!(scan.records, vec![b"one".to_vec()]);
    }

    #[test]
    fn damage_keeps_exactly_the_whole_records_before_it() {
        let (path, bytes) = written("damage");
        let ends = scan_journal(&bytes).unwrap().record_ends;
        let before = |offset: usize| ends.iter().filter(|&&end| end <= offset).count();
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            for (damaged, intact) in [
                (flipped, before(offset)),
                (bytes[..offset].to_vec(), before(offset)),
            ] {
                fs::write(&path, &damaged).unwrap();
                let (journal, replay) = Journal::open(&path, "unit", 0xfeed, true);
                assert_eq!(replay, records()[..intact], "damage at byte {offset}");
                // The damaged tail is gone: an append lands right after
                // the intact prefix and is read back.
                journal.append(b"next");
                let (_, replay) = Journal::open(&path, "unit", 0xfeed, true);
                assert_eq!(
                    replay.len(),
                    intact + 1,
                    "append after damage at byte {offset}"
                );
            }
        }
    }
}
