//! Checkpoint and journal inspection and corruption: the CI harness
//! around the durable-checkpoint and journal robustness guarantees.
//!
//! ```text
//! cargo run -p dimetrodon-bench --bin ckpt_tool -- info <file>
//! cargo run -p dimetrodon-bench --bin ckpt_tool -- flip <file> <offset> [bit]
//! cargo run -p dimetrodon-bench --bin ckpt_tool -- truncate <file> <len>
//! cargo run -p dimetrodon-bench --bin ckpt_tool -- torture <file> [stride]
//! ```
//!
//! Every command takes a checkpoint (`*.ckpt`) or a journal
//! (`*.journal`), told apart by their magic. `info` verifies and
//! summarizes a checkpoint (exit 1 on any decode error), or prints a
//! journal's kind, version, fingerprint, count of verifying records, and
//! the offset of the first frame that fails to verify (exit 1 only when
//! the magic or header frame does not verify). `flip` and `truncate`
//! corrupt a file **in place** — they exist so CI can damage a real file
//! and assert the restore or resume path copes. `torture` applies every
//! single-bit flip (thinned by the optional stride; default covers every
//! byte of files up to 64 KiB) and every truncation length to an
//! in-memory copy, and exits nonzero if the decoder accepts any
//! corrupted checkpoint, or if any damaged journal replays anything but
//! exactly the whole records before the damage.

use std::process::ExitCode;

use dimetrodon_ckpt::{decode_checkpoint, scan_journal, JOURNAL_MAGIC};
use dimetrodon_faults::{torture_checkpoint, torture_journal, Corruption};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ckpt_tool info <file> | flip <file> <offset> [bit] | \
         truncate <file> <len> | torture <file> [stride]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) => {
            eprintln!("ckpt_tool: read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let journal = bytes.starts_with(&JOURNAL_MAGIC);
    match cmd.as_str() {
        "info" if journal => match scan_journal(&bytes) {
            Ok(scan) => {
                let first_bad = if scan.valid_len < bytes.len() {
                    scan.valid_len.to_string()
                } else {
                    "none".to_string()
                };
                println!(
                    "{path}: journal kind {} version {} fingerprint {:016x} records {} \
                     first-bad-frame {first_bad} ({} bytes)",
                    scan.header.kind,
                    scan.header.version,
                    scan.header.fingerprint,
                    scan.records.len(),
                    bytes.len()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("ckpt_tool: {path}: journal header: {err}");
                ExitCode::FAILURE
            }
        },
        "info" => match decode_checkpoint(&bytes) {
            Ok((header, frames)) => {
                println!(
                    "{path}: fingerprint {:016x} seq {} state-frames {} ({} bytes)",
                    header.fingerprint,
                    header.seq,
                    frames.len(),
                    bytes.len()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("ckpt_tool: {path}: {err}");
                ExitCode::FAILURE
            }
        },
        "flip" => {
            let Some(offset) = args.get(2).and_then(|s| s.parse::<usize>().ok()) else {
                return usage();
            };
            let bit: u8 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);
            if offset >= bytes.len() || bit > 7 {
                eprintln!(
                    "ckpt_tool: flip out of range ({} bytes, bit {bit})",
                    bytes.len()
                );
                return ExitCode::FAILURE;
            }
            let corrupted = Corruption::BitFlip { offset, bit }.apply(&bytes);
            if let Err(err) = std::fs::write(path, corrupted) {
                eprintln!("ckpt_tool: write {path}: {err}");
                return ExitCode::FAILURE;
            }
            println!("{path}: flipped bit {bit} of byte {offset}");
            ExitCode::SUCCESS
        }
        "truncate" => {
            let Some(len) = args.get(2).and_then(|s| s.parse::<usize>().ok()) else {
                return usage();
            };
            if len >= bytes.len() {
                eprintln!(
                    "ckpt_tool: truncate length {len} is not shorter than the file ({} bytes)",
                    bytes.len()
                );
                return ExitCode::FAILURE;
            }
            let corrupted = Corruption::Truncate { len }.apply(&bytes);
            if let Err(err) = std::fs::write(path, corrupted) {
                eprintln!("ckpt_tool: write {path}: {err}");
                return ExitCode::FAILURE;
            }
            println!("{path}: truncated to {len} bytes");
            ExitCode::SUCCESS
        }
        "torture" => {
            let stride = match args.get(2).and_then(|s| s.parse::<usize>().ok()) {
                Some(stride) if stride > 0 => stride,
                Some(_) => return usage(),
                // Exhaustive up to 64 KiB, then thinned to keep CI fast
                // while still covering every frame.
                None => (bytes.len() / 65_536).max(1),
            };
            let report = if journal {
                torture_journal(&bytes, stride)
            } else {
                decode_checkpoint(&bytes).map(|_| torture_checkpoint(&bytes, stride))
            };
            let report = match report {
                Ok(report) => report,
                Err(err) => {
                    eprintln!(
                        "ckpt_tool: {path} does not verify clean ({err}); torture needs a valid image"
                    );
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{path}: {} corruption(s), {} rejected, {} accepted",
                report.cases,
                report.rejected,
                report.accepted.len()
            );
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                for case in &report.accepted {
                    eprintln!("ckpt_tool: ACCEPTED corrupt image: {case}");
                }
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
