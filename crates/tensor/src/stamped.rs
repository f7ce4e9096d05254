//! The storage behind [`Tensor`](crate::Tensor): a flat `Vec<f32>` paired
//! with a content stamp that every mutable borrow replaces.
//!
//! [`Stamped`]'s fields are private to this module and its [`DerefMut`]
//! is the only way to reach the data mutably, so no mutation path can
//! keep an old stamp. Two values report the same stamp only if one is a
//! clone of the other and neither has been borrowed mutably since, so
//! equal stamps imply equal content. Unequal stamps imply nothing: a
//! write of the same bits still draws a fresh stamp.
//!
//! Stamps are drawn eagerly, on construction and on every mutable
//! borrow, into a plain `u64`. A lazily drawn stamp would need interior
//! mutability, and a `Cell` in `Tensor` costs every kernel that reads
//! through `&Tensor` its no-alias and read-only guarantees.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stamps a thread takes from [`NEXT_BLOCK`] at once: one relaxed
/// atomic add per 2^16 draws, a thread-local increment otherwise.
const STAMP_BLOCK: u64 = 1 << 16;

/// First stamp of the next unclaimed block.
static NEXT_BLOCK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(next, end)`: the unused rest of this thread's current block.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A stamp no other draw in this process returns: blocks are disjoint
/// and each thread hands out its own block in order.
///
/// The `Cell` calls are path-qualified because the workspace call graph
/// (`crates/lint`) resolves a `.get()` method call by name, to every
/// workspace `get`, `Tensor::get` included.
#[inline]
fn fresh_stamp() -> u64 {
    LOCAL.with(|local| {
        let (next, end) = match Cell::get(local) {
            (next, end) if next < end => (next, end),
            _ => claim_block(),
        };
        Cell::set(local, (next + 1, end));
        next
    })
}

/// Claims the next unused block of stamps: `(first, end)`.
#[cold]
fn claim_block() -> (u64, u64) {
    let first = NEXT_BLOCK.fetch_add(STAMP_BLOCK, Ordering::Relaxed);
    (first, first + STAMP_BLOCK)
}

/// A flat `f32` buffer with a content stamp (see the module docs).
/// Equality, cloning and serde see only the data; a clone keeps the
/// stamp, a deserialized buffer draws a fresh one.
#[derive(Clone)]
pub(crate) struct Stamped {
    data: Vec<f32>,
    stamp: u64,
}

impl Stamped {
    /// Wraps `data` under a fresh stamp.
    #[inline]
    pub(crate) fn new(data: Vec<f32>) -> Self {
        Stamped {
            data,
            stamp: fresh_stamp(),
        }
    }

    /// The content stamp: equal stamps imply equal data.
    #[inline]
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Consumes the buffer, returning the data.
    #[inline]
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

impl Deref for Stamped {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for Stamped {
    /// Draws a fresh stamp: the caller may write through the borrow.
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        self.stamp = fresh_stamp();
        &mut self.data
    }
}

impl PartialEq for Stamped {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl serde::Serialize for Stamped {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.data)
    }
}

impl serde::Deserialize for Stamped {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Stamped::new(serde::Deserialize::from_value(v)?))
    }
}
