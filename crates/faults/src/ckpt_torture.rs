//! Deterministic checkpoint and journal corruption: the torture
//! generator behind the durable-checkpoint robustness tests and the
//! `ckpt_tool torture` CLI.
//!
//! A checkpoint's corruption-tolerance claim is universally quantified —
//! *every* single-bit flip and *every* truncation length must be
//! rejected with a typed error — so the generator enumerates the whole
//! corruption space instead of sampling it. For large files a stride
//! thins the bit-flip axis while still covering every frame; truncation
//! is always exhaustive because the dangerous lengths (exact frame
//! boundaries) cannot be predicted from outside the format. A journal's
//! claim is just as universal but has a different shape: every damaged
//! image must replay exactly the whole records before the damage.
//!
//! The corruptions are pure byte manipulation: the generator neither
//! reads the format nor depends on it, which is exactly what makes it a
//! fair adversary. Only the journal check reads the *intact* image, to
//! learn where its records end.

use dimetrodon_ckpt::{decode_checkpoint, scan_journal, CkptError};

/// One way to corrupt a checkpoint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Flip bit `bit` (0–7) of the byte at `offset`.
    BitFlip {
        /// Byte offset into the image.
        offset: usize,
        /// Bit index within the byte, 0 = least significant.
        bit: u8,
    },
    /// Cut the image to its first `len` bytes.
    Truncate {
        /// Retained prefix length, strictly shorter than the image.
        len: usize,
    },
}

impl Corruption {
    /// The corrupted image. Truncation past the end and flips out of
    /// range return the input unchanged (they describe no corruption).
    pub fn apply(self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            Corruption::BitFlip { offset, bit } => {
                if let Some(byte) = out.get_mut(offset) {
                    *byte ^= 1 << (bit & 7);
                }
            }
            Corruption::Truncate { len } => out.truncate(len),
        }
        out
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::BitFlip { offset, bit } => write!(f, "bit-flip @{offset}.{bit}"),
            Corruption::Truncate { len } => write!(f, "truncate to {len}"),
        }
    }
}

/// Every corruption of an image of `bytes` bytes: all 8·n single-bit
/// flips and all n truncation lengths (0..n). `flip_stride` thins the
/// flip axis — stride k flips every bit of every k-th byte (byte 0
/// always included); stride 1 is exhaustive. Truncations are never
/// thinned.
///
/// # Panics
///
/// Panics if `flip_stride` is zero.
pub fn corruptions(bytes: usize, flip_stride: usize) -> Vec<Corruption> {
    assert!(flip_stride > 0, "stride must be positive");
    let mut cases = Vec::new();
    for offset in (0..bytes).step_by(flip_stride) {
        for bit in 0..8 {
            cases.push(Corruption::BitFlip { offset, bit });
        }
    }
    for len in 0..bytes {
        cases.push(Corruption::Truncate { len });
    }
    cases
}

/// The outcome of a torture run over one checkpoint or journal image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TortureReport {
    /// Corruptions applied.
    pub cases: u64,
    /// Corruptions the decoder caught (the good path): a checkpoint
    /// rejected with a typed error, a journal cut back to exactly the
    /// records before the damage.
    pub rejected: u64,
    /// Corruptions that got through — each one a silent-wrong-restore
    /// hazard. The offending cases, capped at 16 for reporting.
    pub accepted: Vec<String>,
}

impl TortureReport {
    /// Whether every corruption was rejected.
    pub fn clean(&self) -> bool {
        self.accepted.is_empty()
    }

    fn record(&mut self, case: Corruption, caught: bool) {
        self.cases += 1;
        if caught {
            self.rejected += 1;
        } else if self.accepted.len() < 16 {
            self.accepted.push(case.to_string());
        }
    }
}

/// Runs every corruption of `image` (bit flips thinned by
/// `flip_stride`) through the checkpoint decoder and reports which, if
/// any, were **not** rejected. The decoder must fail with a typed error
/// on every case; a decode that succeeds under corruption means the
/// format would silently restore wrong state.
pub fn torture_checkpoint(image: &[u8], flip_stride: usize) -> TortureReport {
    let mut report = TortureReport::default();
    for case in corruptions(image.len(), flip_stride) {
        report.record(case, decode_checkpoint(&case.apply(image)).is_err());
    }
    report
}

/// Runs every corruption of an intact journal `image` (bit flips thinned
/// by `flip_stride`) through the journal reader and reports which, if
/// any, did **not** replay exactly the whole records before the damage.
/// A flip damages its byte and a cut damages the byte at the cut, so the
/// records that must survive are those whose frames end at or before
/// that offset, bit-equal to the originals, under the original header;
/// damage in the magic or header frame must leave no records at all.
///
/// # Errors
///
/// The reader's error when `image` is not a journal, and
/// [`CkptError::Malformed`] when it is one with a damaged tail: the
/// expectations are read off the intact image.
pub fn torture_journal(image: &[u8], flip_stride: usize) -> Result<TortureReport, CkptError> {
    let intact = scan_journal(image)?;
    if intact.valid_len != image.len() {
        return Err(CkptError::Malformed(format!(
            "journal fails to verify at byte {}",
            intact.valid_len
        )));
    }
    let mut report = TortureReport::default();
    for case in corruptions(image.len(), flip_stride) {
        let damaged_at = match case {
            Corruption::BitFlip { offset, .. } => offset,
            Corruption::Truncate { len } => len,
        };
        let survivors = intact.record_ends.iter().filter(|&&end| end <= damaged_at).count();
        let replayed = scan_journal(&case.apply(image))
            .ok()
            .filter(|scan| scan.header == intact.header)
            .map(|scan| scan.records)
            .unwrap_or_default();
        report.record(case, replayed == intact.records[..survivors]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_ckpt::{encode_checkpoint, CkptHeader, Enc, Journal, State};

    fn sample_image() -> Vec<u8> {
        let mut a = Enc::new();
        a.u64(7);
        a.f64(1.5);
        let mut b = Enc::new();
        vec![0.25, -0.5, 3.75].save(&mut b);
        encode_checkpoint(
            CkptHeader {
                fingerprint: 0xFEED_BEEF,
                seq: 3,
            },
            &[a.into_bytes(), b.into_bytes()],
        )
    }

    #[test]
    fn enumeration_covers_both_axes_exhaustively_at_stride_one() {
        let cases = corruptions(10, 1);
        let flips = cases
            .iter()
            .filter(|c| matches!(c, Corruption::BitFlip { .. }))
            .count();
        let truncs = cases
            .iter()
            .filter(|c| matches!(c, Corruption::Truncate { .. }))
            .count();
        assert_eq!(flips, 80, "8 bits x 10 bytes");
        assert_eq!(truncs, 10, "every strictly-shorter length");
    }

    #[test]
    fn stride_thins_flips_but_never_truncations() {
        let cases = corruptions(10, 4);
        let flips = cases
            .iter()
            .filter(|c| matches!(c, Corruption::BitFlip { .. }))
            .count();
        let truncs = cases
            .iter()
            .filter(|c| matches!(c, Corruption::Truncate { .. }))
            .count();
        assert_eq!(flips, 24, "bytes 0, 4, 8");
        assert_eq!(truncs, 10);
    }

    #[test]
    fn apply_is_a_pure_single_site_mutation() {
        let image = sample_image();
        let flipped = Corruption::BitFlip { offset: 3, bit: 5 }.apply(&image);
        assert_eq!(flipped.len(), image.len());
        let diff: Vec<usize> = (0..image.len()).filter(|&i| flipped[i] != image[i]).collect();
        assert_eq!(diff, vec![3]);
        assert_eq!(flipped[3] ^ image[3], 1 << 5);
        let cut = Corruption::Truncate { len: 4 }.apply(&image);
        assert_eq!(cut, &image[..4]);
    }

    #[test]
    fn every_corruption_of_a_real_journal_keeps_exactly_the_records_before_it() {
        let dir = std::env::temp_dir().join(format!("dimetrodon-torture-{}", std::process::id()));
        let journal: Journal<Vec<f64>> = Journal::open(&dir, "unit", 0xFEED_BEEF, false);
        for key in 0..3u64 {
            journal.append(key, &vec![0.25, -0.5, 3.75]);
        }
        let image = std::fs::read(journal.path()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let report = torture_journal(&image, 1).unwrap();
        assert_eq!(report.cases, 9 * image.len() as u64);
        assert!(report.clean(), "damage got through: {:?}", report.accepted);
        // A torn image is not a torture subject.
        assert!(torture_journal(&image[..image.len() - 1], 1).is_err());
        assert!(torture_journal(&sample_image(), 1).is_err());
    }

    #[test]
    fn every_corruption_of_a_real_checkpoint_is_rejected() {
        let report = torture_checkpoint(&sample_image(), 1);
        assert!(report.cases > 0);
        assert!(
            report.clean(),
            "corruptions decoded cleanly: {:?}",
            report.accepted
        );
        assert_eq!(report.rejected, report.cases);
    }
}
