//! Property tests for the checkpoint codec: *any* sequence of typed
//! values (`Enc`/`Dec` primitives and `State` containers) round-trips
//! bit-for-bit through a full encode/decode cycle
//! (container framing included), and any randomly chosen corruption of
//! the container — a bit flip or a truncation — is rejected with a typed
//! error, never a panic or a silently wrong decode.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use dimetrodon_ckpt::{
    decode_checkpoint, encode_checkpoint, CkptError, CkptHeader, Dec, Enc, State,
};
use proptest::prelude::*;

/// One typed codec value, mirroring the `Enc`/`Dec` surface and the
/// `State` vectors. Floats are
/// generated as raw bit patterns so NaN payloads, infinities, signed
/// zeros, and subnormals are all in-domain.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    U8(u8),
    U32(u32),
    U64(u64),
    Bool(bool),
    F64Bits(u64),
    F64Slice(Vec<u64>),
    U64Slice(Vec<u64>),
    BoolSlice(Vec<bool>),
    Bytes(Vec<u8>),
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        any::<u8>().prop_map(Item::U8),
        any::<u32>().prop_map(Item::U32),
        any::<u64>().prop_map(Item::U64),
        any::<bool>().prop_map(Item::Bool),
        any::<u64>().prop_map(Item::F64Bits),
        prop::collection::vec(any::<u64>(), 0..8).prop_map(Item::F64Slice),
        prop::collection::vec(any::<u64>(), 0..8).prop_map(Item::U64Slice),
        prop::collection::vec(any::<bool>(), 0..8).prop_map(Item::BoolSlice),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(Item::Bytes),
    ]
}

/// A payload is any sequence of items; a checkpoint is any sequence of
/// payloads (empty payloads and zero state frames included).
fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<Item>>> {
    prop::collection::vec(prop::collection::vec(item_strategy(), 0..10), 0..4)
}

fn encode_items(items: &[Item]) -> Vec<u8> {
    let mut enc = Enc::new();
    for item in items {
        match item {
            Item::U8(v) => enc.u8(*v),
            Item::U32(v) => enc.u32(*v),
            Item::U64(v) => enc.u64(*v),
            Item::Bool(v) => enc.bool(*v),
            Item::F64Bits(bits) => enc.f64(f64::from_bits(*bits)),
            Item::F64Slice(bits) => {
                let vs: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
                vs.save(&mut enc);
            }
            Item::U64Slice(vs) => vs.save(&mut enc),
            Item::BoolSlice(vs) => vs.save(&mut enc),
            Item::Bytes(vs) => enc.bytes(vs),
        }
    }
    enc.into_bytes()
}

/// Decodes one payload back into items using the shape of the originals
/// as the schema, comparing bit patterns along the way.
fn assert_items_round_trip(payload: &[u8], items: &[Item]) {
    let mut dec = Dec::new(payload);
    for item in items {
        match item {
            Item::U8(v) => assert_eq!(dec.u8().unwrap(), *v),
            Item::U32(v) => assert_eq!(dec.u32().unwrap(), *v),
            Item::U64(v) => assert_eq!(dec.u64().unwrap(), *v),
            Item::Bool(v) => assert_eq!(dec.bool().unwrap(), *v),
            Item::F64Bits(bits) => assert_eq!(dec.f64().unwrap().to_bits(), *bits),
            Item::F64Slice(bits) => {
                let mut got: Vec<f64> = Vec::new();
                got.load(&mut dec).unwrap();
                let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
                assert_eq!(&got, bits);
            }
            Item::U64Slice(vs) => {
                let mut got: Vec<u64> = Vec::new();
                got.load(&mut dec).unwrap();
                assert_eq!(&got, vs);
            }
            Item::BoolSlice(vs) => {
                let mut got: Vec<bool> = Vec::new();
                got.load(&mut dec).unwrap();
                assert_eq!(&got, vs);
            }
            Item::Bytes(vs) => assert_eq!(dec.bytes().unwrap(), vs.as_slice()),
        }
    }
    dec.finish().unwrap();
}

proptest! {
    /// Any typed payload sequence survives the full container round
    /// trip bit-for-bit: header, frame count, and every value.
    #[test]
    fn any_checkpoint_round_trips_bit_for_bit(
        fingerprint in any::<u64>(),
        seq in any::<u64>(),
        item_payloads in payloads_strategy(),
    ) {
        let header = CkptHeader { fingerprint, seq };
        let payloads: Vec<Vec<u8>> =
            item_payloads.iter().map(|items| encode_items(items)).collect();
        let bytes = encode_checkpoint(header, &payloads);
        let (got_header, got_frames) = decode_checkpoint(&bytes).unwrap();
        prop_assert_eq!(got_header, header);
        prop_assert_eq!(&got_frames, &payloads);
        for (payload, items) in got_frames.iter().zip(&item_payloads) {
            assert_items_round_trip(payload, items);
        }
    }

    /// Flipping any single bit of any generated checkpoint image is
    /// rejected with a typed error (the exhaustive unit test covers one
    /// fixed image; this covers the image *space*).
    #[test]
    fn any_single_bit_flip_of_any_checkpoint_is_rejected(
        fingerprint in any::<u64>(),
        seq in any::<u64>(),
        item_payloads in payloads_strategy(),
        pick in any::<u64>(),
    ) {
        let header = CkptHeader { fingerprint, seq };
        let payloads: Vec<Vec<u8>> =
            item_payloads.iter().map(|items| encode_items(items)).collect();
        let mut bytes = encode_checkpoint(header, &payloads);
        let bit = (pick as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match decode_checkpoint(&bytes) {
            Err(
                CkptError::BadMagic
                | CkptError::VersionSkew { .. }
                | CkptError::Truncated
                | CkptError::ChecksumMismatch
                | CkptError::Malformed(_),
            ) => {}
            other => prop_assert!(false, "bit {bit}: expected typed rejection, got {other:?}"),
        }
    }

    /// Truncating any generated checkpoint image at any interior point
    /// is rejected with a typed error.
    #[test]
    fn any_truncation_of_any_checkpoint_is_rejected(
        fingerprint in any::<u64>(),
        seq in any::<u64>(),
        item_payloads in payloads_strategy(),
        pick in any::<u64>(),
    ) {
        let header = CkptHeader { fingerprint, seq };
        let payloads: Vec<Vec<u8>> =
            item_payloads.iter().map(|items| encode_items(items)).collect();
        let bytes = encode_checkpoint(header, &payloads);
        let cut = (pick as usize) % bytes.len();
        match decode_checkpoint(&bytes[..cut]) {
            Err(CkptError::Truncated | CkptError::BadMagic) => {}
            other => prop_assert!(false, "cut {cut}: expected typed rejection, got {other:?}"),
        }
    }
}
