//! Append-only journals: the checkpoint frame layout as a record log
//! (layout in the crate docs). The sweep, fleet, and chaos journals all
//! persist *completed* units of work this way, each record a `u64` key
//! followed by one [`State`] value's declared fields.
//!
//! Every record is appended as one write of one whole frame, with no
//! fsync, so a SIGKILL loses at most the frame being written. Reading
//! keeps the longest prefix of frames that verify: a torn tail or a
//! flipped bit ends the journal at the damaged frame, so damage costs
//! recomputation of that record and everything after it but never
//! replays a changed value. A file whose magic, header frame, kind,
//! version, or fingerprint does not match — including a version 1 text
//! journal, and a journal of another record layout, whose
//! [`State::SCHEMA`] is folded into the header fingerprint — is not read
//! at all and the journal starts fresh, with a warning that says why.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::{read_frame, schema_fold, write_frame, CkptError, Dec, Enc, State};

/// Identifies a journal file; the first 8 bytes on disk.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DMTRJRNL";

/// On-disk journal container version, carried in the header frame:
/// the magic, header frame and framing. What a record holds is versioned
/// by its [`State::SCHEMA`] instead, through the header fingerprint.
/// Version 1 was the retired line-per-record text format and version 2
/// the sweep records without their temperature series; this build reads
/// neither.
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// The identity in a journal's first frame: which journal family wrote
/// it, in which format version, for which run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The journal family (`sweep`, `fleet`, `fleet-chaos`).
    pub kind: String,
    /// Format version the file was written in.
    pub version: u32,
    /// Fingerprint of the run the records belong to, folded with the
    /// record type's [`State::SCHEMA`].
    pub fingerprint: u64,
}

impl JournalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.kind.save(&mut enc);
        enc.u32(self.version);
        enc.u64(self.fingerprint);
        enc.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::new(payload);
        let mut kind = String::new();
        kind.load(&mut dec)?;
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

/// The scan of journal `bytes` if their header is `expected`, else why a
/// resume cannot replay them: the scan's error for a damaged magic or
/// header frame, `VersionSkew`, `Malformed` naming another journal kind,
/// or `FingerprintMismatch` for another run or record layout.
fn replayable(bytes: &[u8], expected: &JournalHeader) -> Result<JournalScan, CkptError> {
    let scan = scan_journal(bytes)?;
    let found = &scan.header;
    if found.version != expected.version {
        Err(CkptError::VersionSkew {
            found: found.version,
            expected: expected.version,
        })
    } else if found.kind != expected.kind {
        Err(CkptError::Malformed(format!(
            "a `{}` journal where a `{}` journal belongs",
            found.kind, expected.kind
        )))
    } else if found.fingerprint != expected.fingerprint {
        Err(CkptError::FingerprintMismatch {
            found: found.fingerprint,
            expected: expected.fingerprint,
        })
    } else {
        Ok(scan)
    }
}

/// The file the `kind` journal of the run with `fingerprint` lives in
/// inside `dir`: `{kind}-{fingerprint:016x}.journal`.
pub fn journal_path(dir: &Path, kind: &str, fingerprint: u64) -> PathBuf {
    dir.join(format!("{kind}-{fingerprint:016x}.journal"))
}

/// An open journal of `R` records: the records replayed at open, keyed,
/// and the file new records append to.
///
/// I/O failures never fail the run that journals: they print a warning
/// and disable journaling, so the run completes without crash
/// resumability.
#[derive(Debug)]
pub struct Journal<R> {
    path: PathBuf,
    /// `None` once an I/O error has disabled journaling.
    file: Mutex<Option<File>>,
    replayed: BTreeMap<u64, R>,
}

impl<R: State + Default> Journal<R> {
    /// Opens the `kind` journal of the run with `fingerprint` inside
    /// `dir` (see [`journal_path`]). The header's fingerprint is
    /// `fingerprint` folded with `R`'s schema, so a journal written with
    /// another record layout is never replayed.
    ///
    /// With `resume`, a file whose header matches keeps its longest
    /// verifying prefix: its records replay (a later record for a key
    /// wins; one that does not decode whole is skipped), the file is
    /// truncated after them, and new records append there. Otherwise — no
    /// `resume`, no file, or a file with another header — the file is
    /// truncated and starts over with a fresh header; a file `resume`
    /// cannot replay gets a `warning:` line on stderr that names it and
    /// says why.
    pub fn open(dir: &Path, kind: &str, fingerprint: u64, resume: bool) -> Journal<R> {
        let path = journal_path(dir, kind, fingerprint);
        let header = JournalHeader {
            kind: kind.to_string(),
            version: JOURNAL_FORMAT_VERSION,
            fingerprint: schema_fold(fingerprint, R::SCHEMA),
        };
        let bytes = if resume { fs::read(&path).ok() } else { None };
        let (keep, records) = match bytes.map(|bytes| replayable(&bytes, &header)) {
            Some(Ok(scan)) => (scan.valid_len, scan.records),
            Some(Err(why)) => {
                eprintln!(
                    "warning: journal {} not replayed ({why}); starting it over",
                    path.display()
                );
                (0, Vec::new())
            }
            None => (0, Vec::new()),
        };
        let replayed = records
            .iter()
            .filter_map(|record| load_record(record).ok())
            .collect();
        let file = match open_after(&path, &header, keep) {
            Ok(file) => Some(file),
            Err(err) => {
                eprintln!(
                    "warning: cannot open journal {}: {err}; journaling disabled",
                    path.display()
                );
                None
            }
        };
        Journal {
            path,
            file: Mutex::new(file),
            replayed,
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records replayed at open, one per key.
    pub fn replayed_count(&self) -> usize {
        self.replayed.len()
    }

    /// The replayed record for `key`, if one survived.
    pub fn replayed(&self, key: u64) -> Option<&R> {
        self.replayed.get(&key)
    }

    /// Appends `record` under `key` as a single write of one whole frame,
    /// with no fsync. Thread-safe; workers append in completion order.
    pub fn append(&self, key: u64, record: &R) {
        let mut enc = Enc::new();
        enc.u64(key);
        record.save(&mut enc);
        self.write(&enc.into_bytes());
    }

    /// Appends one frame holding `payload`.
    fn write(&self, payload: &[u8]) {
        let mut frame = Vec::with_capacity(payload.len() + 12);
        let framed = write_frame(&mut frame, payload);
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = guard.as_mut() {
            if let Err(err) = framed.and_then(|()| file.write_all(&frame)) {
                eprintln!("warning: journal write failed ({err}); journaling disabled");
                *guard = None;
            }
        }
    }
}

/// Decodes one [`Journal::append`] payload: the key, then a whole `R`.
fn load_record<R: State + Default>(payload: &[u8]) -> Result<(u64, R), CkptError> {
    let mut dec = Dec::new(payload);
    let key = dec.u64()?;
    let mut record = R::default();
    record.load(&mut dec)?;
    dec.finish()?;
    Ok((key, record))
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
        write_frame(&mut bytes, &header.encode())?;
        file.write_all(&bytes)?;
    }
    Ok(file)
}

/// Keep-last-K retention for a journal directory (`--journal-gc K`):
/// deletes `*.journal` files beyond the `keep` most recently modified,
/// except that a file whose name embeds any of `active_fingerprints`
/// (as [`journal_path`] writes them) is **never** deleted, no matter how
/// old — garbage collection must not eat the journal the current run is
/// appending to or about to resume from. Returns how many files were
/// removed; all I/O errors are best-effort skips, so a GC pass can never
/// fail a run.
pub fn gc_journals(dir: &Path, keep: usize, active_fingerprints: &[u64]) -> usize {
    let active: Vec<String> = active_fingerprints
        .iter()
        .map(|fp| format!("{fp:016x}"))
        .collect();
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "file mtimes order GC candidates only; no result ever observes them"
    )]
    let mut journals: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let name = path.file_name()?.to_str()?;
            if !name.ends_with(".journal") {
                return None;
            }
            if active.iter().any(|hex| name.contains(hex.as_str())) {
                return None;
            }
            let modified = entry.metadata().ok()?.modified().ok()?;
            Some((modified, path))
        })
        .collect();
    // Newest first; ties break on the path so the order is total.
    journals.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut removed = 0;
    for (_, path) in journals.into_iter().skip(keep) {
        if fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose length grows with its key.
    type Sample = (f64, Vec<u64>);

    fn sample(key: u64) -> Sample {
        (key as f64 * 0.5 - 0.75, (0..key).collect())
    }

    fn samples(keys: std::ops::Range<u64>) -> Vec<(u64, Sample)> {
        keys.map(|key| (key, sample(key))).collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dimetrodon_journal_tests")
            .join(format!("{name}-{}", std::process::id()));
        drop(fs::remove_dir_all(&dir));
        dir
    }

    fn open(dir: &Path, resume: bool) -> Journal<Sample> {
        Journal::open(dir, "unit", 0xfeed, resume)
    }

    /// The records a resumed open replays, in key order.
    fn replayed(dir: &Path) -> Vec<(u64, Sample)> {
        open(dir, true).replayed.into_iter().collect()
    }

    /// A journal holding the samples of keys 0..4, and its bytes.
    fn written(name: &str) -> (PathBuf, Vec<u8>) {
        let dir = scratch(name);
        let journal = open(&dir, false);
        for (key, record) in samples(0..4) {
            journal.append(key, &record);
        }
        let bytes = fs::read(journal.path()).unwrap();
        (dir, bytes)
    }

    #[test]
    fn resume_replays_every_record_and_appends_after_them() {
        let (dir, bytes) = written("resume");
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.record_ends.last(), Some(&bytes.len()));
        let journal = open(&dir, true);
        assert_eq!(journal.path(), journal_path(&dir, "unit", 0xfeed));
        assert_eq!(journal.replayed(3), Some(&sample(3)));
        journal.append(9, &sample(9));
        assert_eq!(replayed(&dir), [samples(0..4), samples(9..10)].concat());
    }

    #[test]
    fn a_later_record_wins_and_one_that_does_not_decode_whole_is_skipped() {
        let dir = scratch("later");
        let journal = open(&dir, false);
        journal.append(1, &sample(1));
        journal.append(1, &sample(3));
        // Frames that verify but hold a short record, and a whole record
        // with a byte left over.
        journal.write(&[7, 0, 0, 0, 0, 0, 0, 0, 1]);
        let mut long = Enc::new();
        long.u64(8);
        sample(2).save(&mut long);
        long.u8(0);
        journal.write(&long.into_bytes());
        journal.append(2, &sample(2));
        assert_eq!(replayed(&dir), vec![(1, sample(3)), (2, sample(2))]);
    }

    #[test]
    fn a_fresh_open_or_another_identity_starts_over() {
        let (dir, _) = written("identity");
        for (kind, fingerprint) in [("other", 0xfeed), ("unit", 0xbeef)] {
            let journal: Journal<Sample> = Journal::open(&dir, kind, fingerprint, true);
            assert_eq!(
                journal.replayed_count(),
                0,
                "{kind}/{fingerprint:x} replayed"
            );
        }
        assert_eq!(replayed(&dir), samples(0..4));
        drop(open(&dir, false));
        assert!(replayed(&dir).is_empty());
    }

    #[test]
    fn a_journal_of_one_record_type_is_not_replayed_as_another() {
        let (dir, bytes) = written("schema");
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.header.fingerprint, schema_fold(0xfeed, Sample::SCHEMA));
        // The records would decode as the other type; only its declared
        // schema, folded into the header, tells the journals apart.
        type Other = (f64, Vec<usize>);
        assert!(load_record::<Other>(&scan.records[3]).is_ok());
        let other: Journal<Other> = Journal::open(&dir, "unit", 0xfeed, true);
        assert_eq!(other.path(), journal_path(&dir, "unit", 0xfeed));
        assert_eq!(other.replayed_count(), 0);
        // It started the file over under its own header.
        drop(other);
        assert!(replayed(&dir).is_empty());
    }

    #[test]
    fn a_resume_names_why_it_cannot_replay_a_file() {
        let (_, bytes) = written("why");
        let ours = scan_journal(&bytes).unwrap().header;
        assert!(replayable(&bytes, &ours).is_ok());
        let why = |expected: JournalHeader| replayable(&bytes, &expected).err();
        let version = JOURNAL_FORMAT_VERSION + 1;
        assert_eq!(
            why(JournalHeader {
                version,
                ..ours.clone()
            }),
            Some(CkptError::VersionSkew {
                found: JOURNAL_FORMAT_VERSION,
                expected: version,
            })
        );
        assert!(matches!(
            why(JournalHeader {
                kind: "sweep".to_string(),
                ..ours.clone()
            }),
            Some(CkptError::Malformed(what)) if what.contains("`unit` journal")
        ));
        let other_layout = schema_fold(0xfeed, <(f64, Vec<usize>)>::SCHEMA);
        assert_eq!(
            why(JournalHeader {
                fingerprint: other_layout,
                ..ours.clone()
            }),
            Some(CkptError::FingerprintMismatch {
                found: ours.fingerprint,
                expected: other_layout,
            })
        );
        // A text journal, a header frame cut short, and one flipped bit in
        // the header's payload (past the magic and the 4-byte length).
        let mut flipped = bytes.clone();
        flipped[JOURNAL_MAGIC.len() + 4] ^= 1;
        for (damaged, err) in [
            (&b"# dimetrodon fleet journal v1\n"[..], CkptError::BadMagic),
            (&bytes[..JOURNAL_MAGIC.len() + 6], CkptError::Truncated),
            (&flipped[..], CkptError::ChecksumMismatch),
        ] {
            assert_eq!(replayable(damaged, &ours).err(), Some(err));
        }
    }

    #[test]
    fn a_version_1_text_journal_is_not_read() {
        let dir = scratch("v1");
        let path = journal_path(&dir, "unit", 0xfeed);
        fs::create_dir_all(&dir).unwrap();
        let text = "# dimetrodon fleet journal v1 config 00000000deadbeef\n";
        fs::write(&path, text).unwrap();
        assert_eq!(scan_journal(text.as_bytes()), Err(CkptError::BadMagic));
        open(&dir, true).append(1, &sample(1));
        let scan = scan_journal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.header.version, JOURNAL_FORMAT_VERSION);
        assert_eq!(replayed(&dir), samples(1..2));
    }

    #[test]
    fn damage_keeps_exactly_the_whole_records_before_it() {
        let (dir, bytes) = written("damage");
        let path = journal_path(&dir, "unit", 0xfeed);
        let ends = scan_journal(&bytes).unwrap().record_ends;
        for offset in 0..bytes.len() {
            let intact = ends.iter().filter(|&&end| end <= offset).count() as u64;
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            for damaged in [flipped, bytes[..offset].to_vec()] {
                fs::write(&path, &damaged).unwrap();
                // The damaged tail is cut off: an append lands right after
                // the intact records and is read back with them.
                open(&dir, true).append(9, &sample(9));
                let kept = [samples(0..intact), samples(9..10)].concat();
                assert_eq!(replayed(&dir), kept, "damage at byte {offset}");
            }
        }
    }

    #[test]
    fn journal_gc_keeps_last_k_and_never_deletes_active_fingerprints() {
        let dir = scratch("gc");
        fs::create_dir_all(&dir).unwrap();
        let active_fp: u64 = 0xA11CE;
        // The active journal is the OLDEST file — worst case for an
        // mtime-ordered GC — and the last file is not a journal.
        let mut paths = vec![journal_path(&dir, "sweep", active_fp)];
        paths.extend((1..=4).map(|fp| journal_path(&dir, "fleet", fp)));
        paths.push(dir.join("not-a-journal.txt"));
        let base = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for (age, path) in paths.iter().enumerate() {
            fs::write(path, "journal\n").unwrap();
            let file = File::options().write(true).open(path).unwrap();
            file.set_modified(base + std::time::Duration::from_secs(age as u64))
                .unwrap();
        }

        assert_eq!(
            gc_journals(&dir, 2, &[active_fp]),
            2,
            "4 inactive journals, keep 2"
        );
        // The active journal, the two newest inactive ones and the
        // non-journal survive; the two oldest inactive ones are gone.
        let kept: Vec<bool> = paths.iter().map(|path| path.exists()).collect();
        assert_eq!(kept, [true, false, false, true, true, true]);
        assert_eq!(gc_journals(&dir, 2, &[active_fp]), 0, "GC is idempotent");
        fs::remove_dir_all(&dir).ok();
    }
}
