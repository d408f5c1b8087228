//! The state protocol: one declared codec per stateful type.
//!
//! A [`State`] value saves its persisted fields into a frame payload and
//! loads them back *in place*, into a value freshly built from the same
//! configuration. Derived fields — configuration, `Arc` topology, node
//! indices, scratch — are never written: the constructor already rebuilt
//! them. Every check on decoded content (enum tags, lengths against the
//! configured shape, value ranges) runs inside `load`, so a payload that
//! passed its frame checksum still restores into a typed [`CkptError`]
//! rather than a value that panics later. In-memory copies are plain
//! `#[derive(Clone)]`.
//!
//! Structs declare their fields once, with [`state!`](crate::state); the
//! macro names every field exactly once, so a field added to the struct
//! but to neither list does not build, and it folds the persisted field
//! names into [`State::SCHEMA`], which checkpoint and journal
//! fingerprints include.

use crate::{fnv1a64, extend_hash, CkptError, Dec, Enc};

/// A value a checkpoint saves, and restores in place into a value freshly
/// built from the same configuration; a journal record, loaded into
/// `Default::default()`.
pub trait State {
    /// Compile-time hash of the persisted layout: the type's name and
    /// persisted field names, folded with each field type's own schema.
    /// Mixed into checkpoint and journal fingerprints, so a file written
    /// under another field set is never restored or replayed.
    const SCHEMA: u64;

    /// Appends the persisted state to a frame payload.
    fn save(&self, enc: &mut Enc);

    /// Overwrites the persisted state with the next value in `dec`.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] when the payload is short or its content
    /// could never have been saved by this configuration; never panics.
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError>;
}

/// Folds one part into a running schema hash (FNV-1a over its bytes).
pub const fn schema_fold(hash: u64, part: u64) -> u64 {
    extend_hash(hash, &part.to_le_bytes())
}

/// The schema of the field a projection selects; lets [`state!`]
/// (crate::state) name a field's type without spelling it.
#[doc(hidden)]
pub const fn field_schema<S, F: State>(_field: fn(&S) -> &F) -> u64 {
    F::SCHEMA
}

/// `Malformed` unless a restored collection has the configured length.
///
/// # Errors
///
/// Returns [`CkptError::Malformed`] naming `what` on a mismatch.
pub fn check_len(what: &str, got: usize, want: usize) -> Result<(), CkptError> {
    if got == want {
        Ok(())
    } else {
        Err(CkptError::Malformed(format!(
            "{what}: {got} restored where the configuration has {want}"
        )))
    }
}

macro_rules! primitive {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl State for $ty {
            const SCHEMA: u64 = fnv1a64(stringify!($ty).as_bytes());
            fn save(&self, enc: &mut Enc) {
                enc.$put(*self);
            }
            fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
                *self = dec.$get()?;
                Ok(())
            }
        }
    )*};
}

primitive! {
    u64 => u64, u64;
    f64 => f64, f64;
    bool => bool, bool;
}

impl State for usize {
    const SCHEMA: u64 = fnv1a64(b"usize");
    fn save(&self, enc: &mut Enc) {
        enc.u64(*self as u64);
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let v = dec.u64()?;
        *self =
            usize::try_from(v).map_err(|_| CkptError::Malformed(format!("{v} overflows usize")))?;
        Ok(())
    }
}

/// Length-prefixed UTF-8 bytes; any other bytes are `Malformed`.
impl State for String {
    const SCHEMA: u64 = fnv1a64(b"String");
    fn save(&self, enc: &mut Enc) {
        enc.bytes(self.as_bytes());
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let text = std::str::from_utf8(dec.bytes()?)
            .map_err(|_| CkptError::Malformed("string is not UTF-8".into()))?;
        self.clear();
        self.push_str(text);
        Ok(())
    }
}

/// A tag byte (0 = `None`, 1 = `Some`), then the value.
impl<T: State + Default> State for Option<T> {
    const SCHEMA: u64 = schema_fold(fnv1a64(b"Option"), T::SCHEMA);
    fn save(&self, enc: &mut Enc) {
        match self {
            Some(v) => {
                enc.u8(1);
                v.save(enc);
            }
            None => enc.u8(0),
        }
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        match dec.u8()? {
            0 => *self = None,
            1 => self.get_or_insert_with(T::default).load(dec)?,
            tag => return Err(CkptError::Malformed(format!("bad option tag {tag}"))),
        }
        Ok(())
    }
}

/// A length, then the elements. The restored vector takes the saved
/// length; a new element is decoded before it is pushed, so a corrupt
/// length runs out of payload instead of memory. Owners whose vectors
/// have a configured shape check it after loading.
impl<T: State + Default> State for Vec<T> {
    const SCHEMA: u64 = schema_fold(fnv1a64(b"Vec"), T::SCHEMA);
    fn save(&self, enc: &mut Enc) {
        enc.seq_len(self.len());
        for v in self {
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let n = dec.seq_len()?;
        self.truncate(n);
        for v in self.iter_mut() {
            v.load(dec)?;
        }
        while self.len() < n {
            let mut v = T::default();
            v.load(dec)?;
            self.push(v);
        }
        Ok(())
    }
}

/// A length, then the elements, restored in place: a boxed slice keeps
/// the length its constructor gave it, and any other saved length is
/// `Malformed`.
impl<T: State> State for Box<[T]> {
    const SCHEMA: u64 = schema_fold(fnv1a64(b"Box<[_]>"), T::SCHEMA);
    fn save(&self, enc: &mut Enc) {
        enc.seq_len(self.len());
        for v in self.iter() {
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        check_len("boxed slice", dec.seq_len()?, self.len())?;
        for v in self.iter_mut() {
            v.load(dec)?;
        }
        Ok(())
    }
}

impl<T: State, const N: usize> State for [T; N] {
    const SCHEMA: u64 = schema_fold(schema_fold(fnv1a64(b"[_; N]"), N as u64), T::SCHEMA);
    fn save(&self, enc: &mut Enc) {
        for v in self {
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        for v in self {
            v.load(dec)?;
        }
        Ok(())
    }
}

impl<A: State, B: State> State for (A, B) {
    const SCHEMA: u64 = schema_fold(schema_fold(fnv1a64(b"(_, _)"), A::SCHEMA), B::SCHEMA);
    fn save(&self, enc: &mut Enc) {
        self.0.save(enc);
        self.1.save(enc);
    }
    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.0.load(dec)?;
        self.1.load(dec)
    }
}

/// Implements [`State`] for a struct from one list of its persisted
/// fields, in payload order, plus the names of its derived fields.
///
/// The generated code destructures `Self` naming every listed field, so
/// a field in neither list — or in both — does not build. An optional
/// `check` runs after the fields load: the place for checks that relate
/// fields to each other or to the configuration.
///
/// ```
/// use dimetrodon_ckpt::{state, CkptError, Dec, Enc, State};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Meter {
///     joules: f64,
///     samples: Vec<u64>,
///     capacity: usize,
/// }
///
/// impl Meter {
///     fn check(&self) -> Result<(), CkptError> {
///         match self.samples.len() <= self.capacity {
///             true => Ok(()),
///             false => Err(CkptError::Malformed("meter over capacity".into())),
///         }
///     }
/// }
///
/// state! {
///     Meter {
///         persisted: joules, samples;
///         derived: capacity;
///         check: Meter::check;
///     }
/// }
///
/// let meter = Meter { joules: 2.5, samples: vec![3, 4], capacity: 8 };
/// let mut enc = Enc::new();
/// meter.save(&mut enc);
/// let bytes = enc.into_bytes();
///
/// let mut fresh = Meter { capacity: 8, ..Meter::default() };
/// fresh.load(&mut Dec::new(&bytes)).unwrap();
/// assert_eq!(fresh, meter);
///
/// let mut small = Meter { capacity: 1, ..Meter::default() };
/// assert!(small.load(&mut Dec::new(&bytes)).is_err());
/// ```
///
/// A field that is neither persisted nor derived fails the build:
///
/// ```compile_fail
/// use dimetrodon_ckpt::state;
///
/// struct Meter {
///     joules: f64,
///     samples: Vec<u64>,
///     capacity: usize,
/// }
///
/// state! {
///     Meter {
///         persisted: joules;
///         derived: capacity;
///     }
/// }
/// ```
#[macro_export]
macro_rules! state {
    (
        $name:ident $(< $($param:ident : $bound:path),+ >)? {
            persisted: $($field:ident),* $(,)?;
            derived: $($derived:ident),* $(,)?;
            $(check: $check:path;)?
        }
    ) => {
        impl $(< $($param: $bound),+ >)? $crate::State for $name $(< $($param),+ >)? {
            const SCHEMA: u64 = {
                let hash = $crate::fnv1a64(
                    concat!(stringify!($name) $(, " ", stringify!($field))*).as_bytes(),
                );
                $(let hash = $crate::schema_fold(
                    hash,
                    $crate::field_schema(|s: &Self| &s.$field),
                );)*
                hash
            };

            fn save(&self, enc: &mut $crate::Enc) {
                let Self { $($field,)* $($derived: _,)* } = self;
                $($crate::State::save($field, enc);)*
            }

            fn load(
                &mut self,
                dec: &mut $crate::Dec<'_>,
            ) -> ::core::result::Result<(), $crate::CkptError> {
                let Self { $($field,)* $($derived: _,)* } = self;
                $($crate::State::load($field, dec)?;)*
                $($check(self)?;)?
                ::core::result::Result::Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    mod v1 {
        #[derive(Debug, Default)]
        pub struct Point {
            pub x: f64,
            pub y: f64,
        }
        crate::state! { Point { persisted: x, y; derived: ; } }
    }

    mod v2 {
        #[derive(Debug, Default)]
        pub struct Point {
            pub x: f64,
            pub z: f64,
        }
        crate::state! { Point { persisted: x, z; derived: ; } }
    }

    #[test]
    fn declarations_differing_in_one_field_name_have_different_schemas() {
        assert_ne!(v1::Point::SCHEMA, v2::Point::SCHEMA);
        // The bytes alone could not tell them apart.
        let mut a = Enc::new();
        v1::Point { x: 1.0, y: 2.0 }.save(&mut a);
        let mut b = Enc::new();
        v2::Point { x: 1.0, z: 2.0 }.save(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn a_checkpoint_saved_under_one_schema_is_never_decoded_under_another() {
        let dir =
            std::env::temp_dir().join(format!("dimetrodon_ckpt_schema_{}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        let config = 0x00C0_FFEE;
        let old =
            crate::CheckpointStore::new(&dir, "point", schema_fold(config, v1::Point::SCHEMA), 2);
        let mut enc = Enc::new();
        v1::Point { x: 1.0, y: 2.0 }.save(&mut enc);
        old.save(1, &[enc.into_bytes()]).unwrap();
        // The same configuration under another field set sees no candidate,
        // and a direct load fails on the fingerprint before any decode.
        let new =
            crate::CheckpointStore::new(&dir, "point", schema_fold(config, v2::Point::SCHEMA), 2);
        assert!(matches!(new.load_latest(), Ok(None)));
        assert!(matches!(
            new.load_file(&old.path_for(1)),
            Err(CkptError::FingerprintMismatch { .. })
        ));
        assert_eq!(old.load_latest().unwrap().unwrap().seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn containers_round_trip_and_resize() {
        let saved: (Vec<Option<u64>>, [usize; 2]) = (vec![Some(7), None, Some(9)], [3, 4]);
        let mut enc = Enc::new();
        saved.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored: (Vec<Option<u64>>, [usize; 2]) = (vec![None; 5], [0, 0]);
        let mut dec = Dec::new(&bytes);
        restored.load(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, saved);
    }

    #[test]
    fn bad_content_is_typed() {
        // An unknown option tag.
        let mut v: Option<u64> = None;
        assert!(matches!(
            v.load(&mut Dec::new(&[2])),
            Err(CkptError::Malformed(_))
        ));
        // A boxed slice keeps its configured length.
        let mut enc = Enc::new();
        vec![1.0f64, 2.0].save(&mut enc);
        let bytes = enc.into_bytes();
        let mut fixed: Box<[f64]> = vec![0.0; 3].into_boxed_slice();
        assert!(matches!(
            fixed.load(&mut Dec::new(&bytes)),
            Err(CkptError::Malformed(_))
        ));
        // A usize that does not fit is never truncated.
        if usize::BITS < 64 {
            let mut enc = Enc::new();
            enc.u64(u64::MAX);
            let mut n = 0usize;
            assert!(n.load(&mut Dec::new(&enc.into_bytes())).is_err());
        }
        // A corrupt length runs out of payload, not memory.
        let mut enc = Enc::new();
        enc.seq_len(1 << 30);
        let mut grown: Vec<u64> = Vec::new();
        assert!(matches!(
            grown.load(&mut Dec::new(&enc.into_bytes())),
            Err(CkptError::Malformed(_))
        ));
    }
}
