//! Durable, versioned, checksummed persistence: mid-run checkpoints and
//! append-only journals, both built from one frame layout.
//!
//! The journals ([`Journal`]: sweep, fleet, chaos) make *completed*
//! points crash-resumable; checkpoints make the *in-flight* point
//! durable. Both files are sequences of framed records:
//!
//! ```text
//! checkpoint := magic "DMTRCKPT" (8 bytes) | CKPT_FORMAT_VERSION (u32 LE)
//!               | frame* (header frame first, then state frames)
//! journal    := magic "DMTRJRNL" (8 bytes)
//!               | frame(kind bytes, JOURNAL_FORMAT_VERSION u32, fingerprint u64)
//!               | frame* (one record per completed unit: key u64 | State fields)
//! frame      := len (u32 LE) | payload (len bytes) | fnv1a64(payload) (u64 LE)
//! ```
//!
//! A checkpoint ends at exactly the last frame's checksum — trailing bytes
//! are a format error, which is what makes a shrunken length field
//! structurally detectable rather than probabilistically so. Its mandatory
//! first frame carries the owning run's config fingerprint and the
//! checkpoint sequence number, so a checkpoint can never restore into a
//! different configuration. A journal instead keeps its longest prefix of
//! frames that verify (see [`Journal::open`]). Floats are serialized as
//! IEEE-754 bit patterns (see [`Enc::f64`]), so a decoded value is
//! *bit-identical* to the encoded one.
//!
//! What goes into a state frame or a journal record is declared once per
//! type through the [`State`] protocol (see [`state!`]). A checkpoint's
//! identity is the owning run's config fingerprint folded with the
//! declared [`State::SCHEMA`] of everything it saves, and a journal's is
//! its run's fingerprint folded with its record type's, so
//! [`CKPT_FORMAT_VERSION`] and [`JOURNAL_FORMAT_VERSION`] version only
//! the containers.
//!
//! Corruption tolerance is by construction, not by luck:
//!
//! * every load-path failure is a typed [`CkptError`] — there are no
//!   panics between bytes-on-disk and a restored state;
//! * each FNV-1a64 step is an invertible update of the running hash, so
//!   any single flipped payload bit always changes the stored checksum;
//! * writes go to a temp file in the same directory and are published by
//!   `rename`, so a crash mid-write leaves the previous checkpoint intact;
//! * [`CheckpointStore::load_latest`] walks checkpoints newest-first and
//!   returns the newest one that *verifies*, so a torn or flipped tail
//!   falls back instead of failing the restore.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

mod journal;
mod state;

pub use journal::{
    gc_journals, journal_path, scan_journal, Journal, JournalHeader, JournalScan,
    JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC,
};
#[doc(hidden)]
pub use state::field_schema;
pub use state::{check_len, schema_fold, State};

/// Identifies a checkpoint file; the first 8 bytes on disk.
pub const CKPT_MAGIC: [u8; 8] = *b"DMTRCKPT";

/// On-disk container version: the magic, header frame and frame layout.
/// What the state frames hold is versioned by [`State::SCHEMA`] instead,
/// through the fingerprint.
pub const CKPT_FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash, the workspace's standard content fingerprint.
///
/// Each step XORs one byte into the running hash and multiplies by an odd
/// prime; both operations are invertible on `u64`, so two inputs of equal
/// length differing in any single byte always hash differently — which is
/// why a per-frame FNV checksum catches every single-bit flip. A `const
/// fn`, so [`State::SCHEMA`] hashes are computed at compile time.
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    extend_hash(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a64 hash from `hash` over `bytes`.
const fn extend_hash(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
        i += 1;
    }
    hash
}

/// Every way a checkpoint can fail to load or save.
///
/// Load paths return these instead of panicking: a truncated tail, a
/// flipped bit, a version skew, and a config-fingerprint mismatch are all
/// *expected* states for a file that survived a SIGKILL or a bad disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem-level failure (open, read, write, rename).
    Io(String),
    /// The file does not start with [`CKPT_MAGIC`] (a journal: with
    /// [`JOURNAL_MAGIC`]).
    BadMagic,
    /// The file was written by a different format version.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build reads ([`CKPT_FORMAT_VERSION`]).
        expected: u32,
    },
    /// The file ends mid-frame (torn write, truncated tail).
    Truncated,
    /// A frame's payload does not match its stored FNV-1a64 checksum.
    ChecksumMismatch,
    /// The checkpoint belongs to a different configuration.
    FingerprintMismatch {
        /// Fingerprint found in the header frame.
        found: u64,
        /// Fingerprint of the run attempting to restore.
        expected: u64,
    },
    /// Structurally invalid content (trailing bytes, bad enum tag,
    /// payload shorter or longer than its decoder expects).
    Malformed(String),
    /// Checkpoint files exist but none of them verifies.
    NoVerifiable {
        /// How many candidate files were tried and rejected.
        tried: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(err) => write!(f, "checkpoint I/O error: {err}"),
            CkptError::BadMagic => write!(
                f,
                "checkpoint error: bad magic (not a checkpoint or journal file)"
            ),
            CkptError::VersionSkew { found, expected } => write!(
                f,
                "checkpoint error: version skew (file v{found}, this build reads v{expected})"
            ),
            CkptError::Truncated => write!(f, "checkpoint error: truncated (file ends mid-frame)"),
            CkptError::ChecksumMismatch => {
                write!(f, "checkpoint error: frame checksum mismatch (corrupt payload)")
            }
            CkptError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint error: config fingerprint mismatch \
                 (file {found:016x}, run {expected:016x})"
            ),
            CkptError::Malformed(what) => write!(f, "checkpoint error: malformed ({what})"),
            CkptError::NoVerifiable { tried } => write!(
                f,
                "checkpoint error: {tried} checkpoint file(s) found but none verifies"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

// ----------------------------------------------------------------------
// Typed byte codec
// ----------------------------------------------------------------------

/// Appends typed values to a byte buffer (one frame payload).
///
/// Everything is little-endian; floats go out as raw IEEE-754 bits so a
/// round-trip is bit-exact (NaN payloads and signed zeros included).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// The encoded payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn seq_len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.seq_len(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Reads typed values back out of a frame payload.
///
/// Every read is bounds-checked and returns [`CkptError::Malformed`] on
/// overrun — a frame that passed its checksum but does not parse is an
/// encoder/decoder disagreement, not a disk error.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over one frame payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| CkptError::Malformed("payload overrun".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let bytes = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a length (`u64`) and checks it against a sanity ceiling so a
    /// corrupt length cannot drive an absurd allocation.
    pub fn seq_len(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        // No state in this workspace holds more than a few million
        // elements; anything larger is corruption that slipped past
        // framing (or a decoder bug), not data.
        const CEILING: u64 = 1 << 32;
        if v > CEILING {
            return Err(CkptError::Malformed(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Malformed(format!("bad bool byte {other}"))),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CkptError::Malformed(format!(
                "{} unread byte(s) at end of frame",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ----------------------------------------------------------------------
// Frame layer
// ----------------------------------------------------------------------

/// The mandatory first frame of every checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptHeader {
    /// Fingerprint of the configuration that owns this checkpoint.
    pub fingerprint: u64,
    /// Monotone checkpoint sequence number within the run.
    pub seq: u64,
}

impl CkptHeader {
    /// The header also records the number of state frames that follow,
    /// so a file truncated at an exact frame boundary — which parses
    /// cleanly frame-by-frame — is still rejected instead of silently
    /// restoring a partial state.
    fn encode(&self, state_frames: usize) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.fingerprint);
        enc.u64(self.seq);
        enc.u32(state_frames as u32);
        enc.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<(Self, usize), CkptError> {
        let mut dec = Dec::new(payload);
        let fingerprint = dec.u64()?;
        let seq = dec.u64()?;
        let state_frames = dec.u32()? as usize;
        dec.finish()?;
        Ok((CkptHeader { fingerprint, seq }, state_frames))
    }
}

/// Serializes a whole checkpoint file: magic, version, header frame, then
/// one frame per state payload.
pub fn encode_checkpoint(header: CkptHeader, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    #[expect(clippy::expect_used, reason = "writing into a Vec cannot fail")]
    write_checkpoint(&mut bytes, header, payloads).expect("a Vec takes every write");
    bytes
}

/// Writes the bytes of [`encode_checkpoint`] to `out` piece by piece,
/// never holding the whole image.
fn write_checkpoint(
    out: &mut impl Write,
    header: CkptHeader,
    payloads: &[Vec<u8>],
) -> io::Result<()> {
    out.write_all(&CKPT_MAGIC)?;
    out.write_all(&CKPT_FORMAT_VERSION.to_le_bytes())?;
    write_frame(out, &header.encode(payloads.len()))?;
    payloads.iter().try_for_each(|payload| write_frame(out, payload))
}

/// Writes one frame: the payload's length, the payload, its checksum.
fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&fnv1a64(payload).to_le_bytes())
}

/// Verifies the frame at the front of `bytes` and splits it off: returns
/// its payload and the bytes after it.
fn read_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), CkptError> {
    let (len_bytes, rest) = bytes.split_first_chunk::<4>().ok_or(CkptError::Truncated)?;
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if rest.len() < len {
        return Err(CkptError::Truncated);
    }
    let (payload, rest) = rest.split_at(len);
    let (sum, rest) = rest.split_first_chunk::<8>().ok_or(CkptError::Truncated)?;
    if fnv1a64(payload) != u64::from_le_bytes(*sum) {
        return Err(CkptError::ChecksumMismatch);
    }
    Ok((payload, rest))
}

/// Parses and fully verifies a checkpoint file: magic, version, every
/// frame checksum, and the exact-EOF rule. Returns the header and the
/// state frame payloads (the header frame is not included).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(CkptHeader, Vec<Vec<u8>>), CkptError> {
    if bytes.len() < CKPT_MAGIC.len() + 4 {
        return Err(CkptError::Truncated);
    }
    if bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let mut version_bytes = [0u8; 4];
    version_bytes.copy_from_slice(&bytes[CKPT_MAGIC.len()..CKPT_MAGIC.len() + 4]);
    let version = u32::from_le_bytes(version_bytes);
    if version != CKPT_FORMAT_VERSION {
        return Err(CkptError::VersionSkew {
            found: version,
            expected: CKPT_FORMAT_VERSION,
        });
    }
    let mut rest = &bytes[CKPT_MAGIC.len() + 4..];
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (payload, after) = read_frame(rest)?;
        frames.push(payload.to_vec());
        rest = after;
    }
    let mut iter = frames.into_iter();
    let header_payload = iter.next().ok_or(CkptError::Truncated)?;
    let (header, state_frames) = CkptHeader::decode(&header_payload)?;
    let states: Vec<Vec<u8>> = iter.collect();
    if states.len() != state_frames {
        // Fewer frames than declared is a truncation at a frame
        // boundary; more is garbage appended by something else.
        return Err(CkptError::Truncated);
    }
    Ok((header, states))
}

// ----------------------------------------------------------------------
// Store: retention + newest-verifying fallback
// ----------------------------------------------------------------------

/// A successfully restored checkpoint.
#[derive(Debug)]
pub struct Loaded {
    /// Sequence number of the checkpoint that verified.
    pub seq: u64,
    /// State frame payloads, in the order they were saved.
    pub frames: Vec<Vec<u8>>,
    /// Newer checkpoint files that were skipped because they failed
    /// verification (the fallback ladder in action).
    pub skipped: usize,
}

/// A directory of checkpoints for one `(stem, fingerprint)` run, with
/// keep-last-K retention and newest-verifying-wins restore.
///
/// Files are named `{stem}-{fingerprint:016x}-{seq:010}.ckpt`, so
/// different runs (and different policy variants within a run) never
/// collide, and a changed configuration changes the fingerprint and
/// therefore the filename — stale checkpoints are simply never candidates.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    stem: String,
    fingerprint: u64,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir` for the given stem and config fingerprint,
    /// retaining the newest `keep` checkpoints (minimum 1).
    pub fn new(dir: &Path, stem: &str, fingerprint: u64, keep: usize) -> Self {
        CheckpointStore {
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
            fingerprint,
            keep: keep.max(1),
        }
    }

    /// The file path a given sequence number saves to.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}-{seq:010}.ckpt", self.stem, self.fingerprint))
    }

    /// Saves one checkpoint atomically and prunes past the retention
    /// limit. `seq` must be strictly greater than any previously saved
    /// sequence number for fallback ordering to mean "newest first".
    ///
    /// The frames stream straight into a temp file in the same directory,
    /// which is fsynced and then published by `rename`: a crash at any
    /// point leaves either the old file or the new one, never a torn mix.
    pub fn save(&self, seq: u64, payloads: &[Vec<u8>]) -> Result<(), CkptError> {
        fs::create_dir_all(&self.dir)
            .map_err(|err| CkptError::Io(format!("{}: {err}", self.dir.display())))?;
        let header = CkptHeader {
            fingerprint: self.fingerprint,
            seq,
        };
        let path = self.path_for(seq);
        let io = |err: io::Error| CkptError::Io(format!("{}: {err}", path.display()));
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = fs::File::create(&tmp).map_err(io)?;
        write_checkpoint(&mut file, header, payloads).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        fs::rename(&tmp, &path).map_err(io)?;
        self.prune();
        Ok(())
    }

    /// Every checkpoint file belonging to this store, newest first.
    pub fn candidates(&self) -> Vec<(u64, PathBuf)> {
        let prefix = format!("{}-{:016x}-", self.stem, self.fingerprint);
        let mut found = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return found,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(seq_text) = rest.strip_suffix(".ckpt") {
                    if let Ok(seq) = seq_text.parse::<u64>() {
                        found.push((seq, entry.path()));
                    }
                }
            }
        }
        found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        found
    }

    /// Restores the newest checkpoint that verifies.
    ///
    /// * `Ok(None)` — no checkpoint files exist for this run at all
    ///   (a fresh start, not an error).
    /// * `Ok(Some(loaded))` — the newest verifying checkpoint;
    ///   `loaded.skipped` counts newer files that failed verification
    ///   and were passed over.
    /// * `Err(..)` — files exist but none verifies; the error is
    ///   [`CkptError::NoVerifiable`] so callers can distinguish "nothing
    ///   to restore" from "everything to restore is corrupt".
    pub fn load_latest(&self) -> Result<Option<Loaded>, CkptError> {
        let candidates = self.candidates();
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut skipped = 0usize;
        for (seq, path) in &candidates {
            match self.load_file(path) {
                Ok((header, frames)) => {
                    if header.seq != *seq {
                        // Filename and header disagree: treat as corrupt
                        // and keep walking the ladder.
                        skipped += 1;
                        continue;
                    }
                    return Ok(Some(Loaded {
                        seq: *seq,
                        frames,
                        skipped,
                    }));
                }
                Err(_) => skipped += 1,
            }
        }
        Err(CkptError::NoVerifiable {
            tried: candidates.len(),
        })
    }

    /// Reads and fully verifies one checkpoint file, including the
    /// fingerprint check against this store's configuration.
    pub fn load_file(&self, path: &Path) -> Result<(CkptHeader, Vec<Vec<u8>>), CkptError> {
        let bytes =
            fs::read(path).map_err(|err| CkptError::Io(format!("{}: {err}", path.display())))?;
        let (header, frames) = decode_checkpoint(&bytes)?;
        if header.fingerprint != self.fingerprint {
            return Err(CkptError::FingerprintMismatch {
                found: header.fingerprint,
                expected: self.fingerprint,
            });
        }
        Ok((header, frames))
    }

    /// Deletes every checkpoint beyond the newest `keep`. Best-effort:
    /// a file that cannot be deleted is left for the next prune.
    fn prune(&self) {
        for (_, path) in self.candidates().into_iter().skip(self.keep) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort: a file that cannot be deleted is left for the next prune"
            )]
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dimetrodon_ckpt_tests").join(name);
        drop(fs::remove_dir_all(&dir));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_payloads() -> Vec<Vec<u8>> {
        let mut a = Enc::new();
        a.u64(42);
        a.f64(-0.0);
        a.f64(f64::NAN);
        vec![1.5, 2.5, 3.5].save(&mut a);
        a.bool(true);
        let mut b = Enc::new();
        Some(6.25).save(&mut b);
        None::<f64>.save(&mut b);
        b.bytes(b"nested");
        vec![a.into_bytes(), b.into_bytes()]
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let header = CkptHeader {
            fingerprint: 0xfeed_beef_dead_cafe,
            seq: 7,
        };
        let payloads = sample_payloads();
        let bytes = encode_checkpoint(header, &payloads);
        let (got_header, got_frames) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(got_header, header);
        assert_eq!(got_frames, payloads);
        // And the typed values come back bit-identically.
        let mut dec = Dec::new(&got_frames[0]);
        assert_eq!(dec.u64().unwrap(), 42);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.f64().unwrap().to_bits(), f64::NAN.to_bits());
        let mut floats: Vec<f64> = Vec::new();
        floats.load(&mut dec).unwrap();
        assert_eq!(floats, vec![1.5, 2.5, 3.5]);
        assert!(dec.bool().unwrap());
        dec.finish().unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_rejected_with_a_typed_error() {
        let header = CkptHeader {
            fingerprint: 1,
            seq: 1,
        };
        let bytes = encode_checkpoint(header, &sample_payloads());
        for byte_index in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte_index] ^= 1 << bit;
                let result = decode_checkpoint(&flipped);
                match result {
                    Err(
                        CkptError::BadMagic
                        | CkptError::VersionSkew { .. }
                        | CkptError::Truncated
                        | CkptError::ChecksumMismatch
                        | CkptError::Malformed(_),
                    ) => {}
                    other => panic!(
                        "flip byte {byte_index} bit {bit}: expected a typed \
                         rejection, got {other:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn every_truncation_length_is_rejected_with_a_typed_error() {
        let header = CkptHeader {
            fingerprint: 1,
            seq: 1,
        };
        let bytes = encode_checkpoint(header, &sample_payloads());
        for cut in 0..bytes.len() {
            match decode_checkpoint(&bytes[..cut]) {
                Err(CkptError::Truncated | CkptError::BadMagic) => {}
                other => panic!("truncation to {cut} bytes: got {other:?}"),
            }
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = encode_checkpoint(
            CkptHeader {
                fingerprint: 1,
                seq: 1,
            },
            &[],
        );
        let skewed = CKPT_FORMAT_VERSION + 9;
        bytes[8..12].copy_from_slice(&skewed.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&bytes),
            Err(CkptError::VersionSkew {
                found: skewed,
                expected: CKPT_FORMAT_VERSION
            })
        );
    }

    #[test]
    fn a_saved_file_is_the_encoded_image_byte_for_byte() {
        let dir = scratch("streamed");
        let store = CheckpointStore::new(&dir, "unit", 0xabcd, 2);
        let payloads = sample_payloads();
        store.save(3, &payloads).unwrap();
        let header = CkptHeader {
            fingerprint: 0xabcd,
            seq: 3,
        };
        assert_eq!(
            fs::read(store.path_for(3)).unwrap(),
            encode_checkpoint(header, &payloads)
        );
        assert!(!store.path_for(3).with_extension("ckpt.tmp").exists());
    }

    #[test]
    fn store_restores_newest_and_prunes_to_keep_last_k() {
        let dir = scratch("retention");
        let store = CheckpointStore::new(&dir, "unit", 0xabcd, 2);
        for seq in 1..=5u64 {
            let mut enc = Enc::new();
            enc.u64(seq * 100);
            store.save(seq, &[enc.into_bytes()]).unwrap();
        }
        let remaining = store.candidates();
        assert_eq!(
            remaining.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![5, 4],
            "keep-last-2 retention"
        );
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 5);
        assert_eq!(loaded.skipped, 0);
        let mut dec = Dec::new(&loaded.frames[0]);
        assert_eq!(dec.u64().unwrap(), 500);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_verifying_checkpoint() {
        let dir = scratch("fallback");
        let store = CheckpointStore::new(&dir, "unit", 0xabcd, 3);
        for seq in 1..=3u64 {
            let mut enc = Enc::new();
            enc.u64(seq);
            store.save(seq, &[enc.into_bytes()]).unwrap();
        }
        // Flip a payload bit in the newest file.
        let newest = store.path_for(3);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 2, "fell back past the corrupt newest");
        assert_eq!(loaded.skipped, 1);
    }

    #[test]
    fn all_corrupt_is_a_typed_error_and_missing_is_a_fresh_start() {
        let dir = scratch("exhausted");
        let store = CheckpointStore::new(&dir, "unit", 0xabcd, 3);
        assert!(matches!(store.load_latest(), Ok(None)), "no files = fresh");
        store.save(1, &[vec![1, 2, 3]]).unwrap();
        let path = store.path_for(1);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load_latest().map(|_| ()),
            Err(CkptError::NoVerifiable { tried: 1 })
        );
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let dir = scratch("fingerprint");
        let store = CheckpointStore::new(&dir, "unit", 0x1111, 3);
        store.save(1, &[vec![9]]).unwrap();
        let other = CheckpointStore::new(&dir, "unit", 0x2222, 3);
        // The filename embeds the fingerprint, so the other store never
        // even sees this file as a candidate...
        assert!(matches!(other.load_latest(), Ok(None)));
        // ...but a direct load of the file checks the header fingerprint.
        assert_eq!(
            other.load_file(&store.path_for(1)).map(|_| ()),
            Err(CkptError::FingerprintMismatch {
                found: 0x1111,
                expected: 0x2222
            })
        );
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_checkpoint(
            CkptHeader {
                fingerprint: 1,
                seq: 1,
            },
            &[vec![5, 6]],
        );
        bytes.push(0);
        // One stray byte after the final frame cannot form a frame
        // header, so the exact-EOF rule reports a truncated trailer.
        assert_eq!(decode_checkpoint(&bytes), Err(CkptError::Truncated));
    }

    #[test]
    fn decoder_rejects_overrun_bad_tags_and_unread_tails() {
        let mut enc = Enc::new();
        enc.u8(7);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert!(matches!(dec.u64(), Err(CkptError::Malformed(_))));

        let mut dec = Dec::new(&[2]);
        assert!(matches!(dec.bool(), Err(CkptError::Malformed(_))));

        let mut enc = Enc::new();
        enc.u64(1);
        enc.u64(2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u64().unwrap(), 1);
        assert!(matches!(dec.finish(), Err(CkptError::Malformed(_))));
    }
}
