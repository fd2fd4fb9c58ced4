//! The [`Checkpointable`] trait and its inductive impls.
//!
//! The paper's compiler plugin "inductively generates an implementation
//! of this trait for types comprised of scalar values and references to
//! other checkpointable types". The impls here are that induction,
//! hand-rolled once for the standard building blocks: scalars, strings,
//! tuples, arrays, `Box`, `Option`, `Vec`, `VecDeque`, maps, `RefCell`
//! and the workspace's non-poisoning [`Mutex`]. User structs get theirs from
//! [`checkpointable!`](crate::checkpointable), and the aliased cases live
//! in [`crate::ckrc`]/[`crate::ckarc`].

use crate::ctx::{CheckpointCtx, RestoreCtx};
use crate::snapshot::{mismatch, Snapshot, SnapshotError};
use rbs_core::sync::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A type whose values can be checkpointed to a [`Snapshot`] and
/// restored from one.
///
/// Unique ownership makes the default story trivial: traverse fields,
/// recurse. Only aliased nodes (`CkRc`/`CkArc`) interact with the
/// context's dedup machinery.
pub trait Checkpointable: Sized {
    /// Copies this value into a snapshot.
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot;

    /// Reconstructs a value from `snap`.
    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Checkpointable for $t {
            fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
                Snapshot::UInt(u64::from(*self))
            }
            fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
                match snap {
                    Snapshot::UInt(v) => <$t>::try_from(*v).map_err(|_| {
                        SnapshotError::TypeMismatch { expected: stringify!($t), found: "uint out of range" }
                    }),
                    other => Err(mismatch(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Checkpointable for $t {
            fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
                Snapshot::Int(i64::from(*self))
            }
            fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
                match snap {
                    Snapshot::Int(v) => <$t>::try_from(*v).map_err(|_| {
                        SnapshotError::TypeMismatch { expected: stringify!($t), found: "int out of range" }
                    }),
                    other => Err(mismatch(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64);

impl Checkpointable for usize {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::UInt(*self as u64)
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::UInt(v) => usize::try_from(*v).map_err(|_| SnapshotError::TypeMismatch {
                expected: "usize",
                found: "uint out of range",
            }),
            other => Err(mismatch("usize", other)),
        }
    }
}

impl Checkpointable for bool {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Bool(*self)
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }
}

impl Checkpointable for char {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Char(*self)
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Char(c) => Ok(*c),
            other => Err(mismatch("char", other)),
        }
    }
}

impl Checkpointable for f64 {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Float(*self)
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Float(v) => Ok(*v),
            other => Err(mismatch("f64", other)),
        }
    }
}

impl Checkpointable for f32 {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Float(f64::from(*self))
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Float(v) => Ok(*v as f32),
            other => Err(mismatch("f32", other)),
        }
    }
}

impl Checkpointable for () {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Unit
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Unit => Ok(()),
            other => Err(mismatch("unit", other)),
        }
    }
}

impl Checkpointable for String {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Str(self.clone())
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Str(s) => Ok(s.clone()),
            other => Err(mismatch("string", other)),
        }
    }
}

impl Checkpointable for Vec<u8> {
    fn checkpoint(&self, _ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Bytes(self.clone())
    }

    fn restore(snap: &Snapshot, _ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Bytes(b) => Ok(b.clone()),
            other => Err(mismatch("bytes", other)),
        }
    }
}

/// Non-`u8` vectors (the `u8` case is specialized to [`Snapshot::Bytes`]
/// above; overlapping impls are avoided by this macro listing types, and
/// a generic fallback via a helper for arbitrary element types).
macro_rules! impl_vec_like {
    ($($elem:ty),*) => {$(
        impl Checkpointable for Vec<$elem> {
            fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
                Snapshot::Seq(self.iter().map(|e| e.checkpoint(ctx)).collect())
            }
            fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
                match snap {
                    Snapshot::Seq(items) => {
                        items.iter().map(|s| Checkpointable::restore(s, ctx)).collect()
                    }
                    other => Err(mismatch("vec", other)),
                }
            }
        }
    )*};
}

// Rust has no specialization on stable, so `Vec<T>` cannot be generic
// while `Vec<u8>` is special-cased. [`VecOf`] below is the generic
// escape hatch; these are the common concrete instantiations.
impl_vec_like!(u16, u32, u64, i8, i16, i32, i64, usize, bool, f32, f64, String);

/// A generic vector wrapper for element types not covered by the
/// concrete `Vec<T>` impls (e.g. vectors of user structs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VecOf<T>(pub Vec<T>);

impl<T: Checkpointable> Checkpointable for VecOf<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(self.0.iter().map(|e| e.checkpoint(ctx)).collect())
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) => Ok(VecOf(
                items
                    .iter()
                    .map(|s| T::restore(s, ctx))
                    .collect::<Result<_, _>>()?,
            )),
            other => Err(mismatch("vec", other)),
        }
    }
}

impl<T: Checkpointable> Checkpointable for VecDeque<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(self.iter().map(|e| e.checkpoint(ctx)).collect())
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) => items.iter().map(|s| T::restore(s, ctx)).collect(),
            other => Err(mismatch("deque", other)),
        }
    }
}

impl<T: Checkpointable> Checkpointable for Option<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Opt(self.as_ref().map(|v| Box::new(v.checkpoint(ctx))))
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Opt(None) => Ok(None),
            Snapshot::Opt(Some(inner)) => Ok(Some(T::restore(inner, ctx)?)),
            other => Err(mismatch("option", other)),
        }
    }
}

impl<T: Checkpointable> Checkpointable for Box<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        // A Box is a unique owner: traverse straight through, no dedup
        // machinery — the sentence §5 is built on.
        (**self).checkpoint(ctx)
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::restore(snap, ctx)?))
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(vec![self.0.checkpoint(ctx), self.1.checkpoint(ctx)])
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) if items.len() == 2 => {
                Ok((A::restore(&items[0], ctx)?, B::restore(&items[1], ctx)?))
            }
            Snapshot::Seq(items) => Err(SnapshotError::WrongLength {
                expected: 2,
                got: items.len(),
            }),
            other => Err(mismatch("pair", other)),
        }
    }
}

impl<A: Checkpointable, B: Checkpointable, C: Checkpointable> Checkpointable for (A, B, C) {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(vec![
            self.0.checkpoint(ctx),
            self.1.checkpoint(ctx),
            self.2.checkpoint(ctx),
        ])
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) if items.len() == 3 => Ok((
                A::restore(&items[0], ctx)?,
                B::restore(&items[1], ctx)?,
                C::restore(&items[2], ctx)?,
            )),
            Snapshot::Seq(items) => Err(SnapshotError::WrongLength {
                expected: 3,
                got: items.len(),
            }),
            other => Err(mismatch("triple", other)),
        }
    }
}

impl<T: Checkpointable, const N: usize> Checkpointable for [T; N] {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Seq(self.iter().map(|e| e.checkpoint(ctx)).collect())
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Seq(items) if items.len() == N => {
                let v: Vec<T> = items
                    .iter()
                    .map(|s| T::restore(s, ctx))
                    .collect::<Result<_, _>>()?;
                v.try_into().map_err(|_| SnapshotError::WrongLength {
                    expected: N,
                    got: usize::MAX,
                })
            }
            Snapshot::Seq(items) => Err(SnapshotError::WrongLength {
                expected: N,
                got: items.len(),
            }),
            other => Err(mismatch("array", other)),
        }
    }
}

impl<K, V> Checkpointable for BTreeMap<K, V>
where
    K: Checkpointable + Ord,
    V: Checkpointable,
{
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Map(
            self.iter()
                .map(|(k, v)| (k.checkpoint(ctx), v.checkpoint(ctx)))
                .collect(),
        )
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Map(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((K::restore(k, ctx)?, V::restore(v, ctx)?)))
                .collect(),
            other => Err(mismatch("map", other)),
        }
    }
}

impl<K, V> Checkpointable for HashMap<K, V>
where
    K: Checkpointable + Eq + std::hash::Hash,
    V: Checkpointable,
{
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        Snapshot::Map(
            self.iter()
                .map(|(k, v)| (k.checkpoint(ctx), v.checkpoint(ctx)))
                .collect(),
        )
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        match snap {
            Snapshot::Map(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((K::restore(k, ctx)?, V::restore(v, ctx)?)))
                .collect(),
            other => Err(mismatch("map", other)),
        }
    }
}

impl<T: Checkpointable> Checkpointable for std::cell::RefCell<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        self.borrow().checkpoint(ctx)
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        Ok(std::cell::RefCell::new(T::restore(snap, ctx)?))
    }
}

/// "When write aliasing is essential ... single ownership can be
/// enforced dynamically by additionally wrapping the object with the
/// Mutex type" (§2) — checkpointing locks the mutex, giving a consistent
/// per-object snapshot even while other threads use the structure. The
/// lock ignores poisoning, so a value whose holder panicked (a domain
/// unwound mid-update, §3) still checkpoints as whatever it held.
impl<T: Checkpointable> Checkpointable for Mutex<T> {
    fn checkpoint(&self, ctx: &mut CheckpointCtx) -> Snapshot {
        self.lock().checkpoint(ctx)
    }

    fn restore(snap: &Snapshot, ctx: &mut RestoreCtx<'_>) -> Result<Self, SnapshotError> {
        Ok(Mutex::new(T::restore(snap, ctx)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{checkpoint, restore};

    fn roundtrip<T: Checkpointable + PartialEq + std::fmt::Debug>(v: T) {
        let cp = checkpoint(&v);
        let back: T = restore(&cp).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-5i32);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip('λ');
        roundtrip(1.5f64);
        roundtrip(());
    }

    #[test]
    fn f32_roundtrips_through_f64() {
        roundtrip(1.25f32);
    }

    #[test]
    fn strings_and_bytes() {
        roundtrip(String::from("firewall"));
        roundtrip(vec![1u8, 2, 3]);
        // Vec<u8> takes the compact Bytes form.
        let cp = checkpoint(&vec![1u8, 2]);
        assert_eq!(cp.root, Snapshot::Bytes(vec![1, 2]));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(vec![String::from("a"), String::from("b")]);
        roundtrip(VecDeque::from([1i64, 2, 3]));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(Box::new(5u8));
        roundtrip((1u8, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip([1u64, 2, 3]);
        roundtrip(BTreeMap::from([(1u32, String::from("one"))]));
        roundtrip(HashMap::from([(String::from("k"), 9i64)]));
        roundtrip(VecOf(vec![(1u8, 2u8), (3, 4)]));
    }

    #[test]
    fn nested_structures() {
        roundtrip(VecOf(vec![vec![1u32], vec![2, 3]]));
        roundtrip(Some(Box::new((1u8, vec![2u32, 3]))));
    }

    #[test]
    fn out_of_range_uint_rejected() {
        let cp = checkpoint(&300u64);
        assert!(matches!(
            restore::<u8>(&cp),
            Err(SnapshotError::TypeMismatch { expected: "u8", .. })
        ));
    }

    #[test]
    fn out_of_range_int_rejected() {
        let cp = checkpoint(&-200i64);
        assert!(restore::<i8>(&cp).is_err());
    }

    #[test]
    fn wrong_arity_tuple_rejected() {
        let cp = checkpoint(&(1u8, 2u8, 3u8));
        assert_eq!(
            restore::<(u8, u8)>(&cp).unwrap_err(),
            SnapshotError::WrongLength {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn wrong_array_length_rejected() {
        let cp = checkpoint(&[1u32, 2]);
        assert_eq!(
            restore::<[u32; 3]>(&cp).unwrap_err(),
            SnapshotError::WrongLength {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn refcell_and_mutex() {
        let cell = std::cell::RefCell::new(5u32);
        let cp = checkpoint(&cell);
        let back: std::cell::RefCell<u32> = restore(&cp).unwrap();
        assert_eq!(*back.borrow(), 5);

        let m = Mutex::new(String::from("locked"));
        let cp = checkpoint(&m);
        let back: Mutex<String> = restore(&cp).unwrap();
        assert_eq!(*back.lock(), "locked");
    }

    #[test]
    fn mutex_whose_holder_panicked_checkpoints_what_it_held() {
        let m = Mutex::new(vec![1u32, 2]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            g.push(3);
            panic!("domain fault mid-update");
        }));
        assert!(unwound.is_err());
        let cp = checkpoint(&m);
        let back: Mutex<Vec<u32>> = restore(&cp).unwrap();
        assert_eq!(*back.lock(), [1, 2, 3]);
        m.lock().push(4);
        assert_eq!(*m.lock(), [1, 2, 3, 4], "the lock is still usable");
    }

    #[test]
    fn mutation_after_checkpoint_does_not_affect_snapshot() {
        let mut v = vec![1u32, 2, 3];
        let cp = checkpoint(&v);
        v.push(4);
        let back: Vec<u32> = restore(&cp).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
