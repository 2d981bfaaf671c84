//! Dense slab storage with generation-checked keys, intrusive link chains
//! and a fast non-cryptographic hasher.
//!
//! The per-page bookkeeping structures in this workspace (zpool entries,
//! flash slots, LRU nodes, hotness lists) all used to be `HashMap`s keyed by
//! rich identifiers, with `BTreeSet`s maintaining deterministic secondary
//! orders. At simulation scale those probes dominate the profile: every
//! fault, store and kill pays SipHash over multi-word keys plus B-tree node
//! churn. This module provides the dense replacements:
//!
//! * [`Slab`] — a `Vec`-backed arena with a free list. Each occupied slot is
//!   addressed by a [`SlabKey`] carrying a *generation*, so a key held across
//!   a remove/reuse cycle is detected as stale instead of aliasing the new
//!   occupant (the classic ABA hazard of index reuse).
//! * [`Chain`] — an intrusive doubly-linked list threaded *through* slab
//!   slots. Every slot carries two independent link pairs ("channels"), so a
//!   value can sit on two orders at once (e.g. a flash entry on both its
//!   app's chain and its write command's chain). Iteration order is insertion
//!   order, which is exactly the deterministic order the `BTreeSet`-based
//!   indices provided before (handles/slots are allocated in ascending order,
//!   so ascending-key order ≡ insertion order).
//! * [`FxHasher`] — the Firefox/rustc multiply-rotate hash for the hash maps
//!   that must remain (key → slot lookups). It is not DoS-resistant, which is
//!   fine for a simulator hashing its own dense identifiers, and it is
//!   several times cheaper than SipHash-1-3 on small keys.
//!
//! None of this changes any simulated outcome: the structures store the same
//! values and expose the same deterministic orders; only the cost of
//! maintaining them changes. The determinism and oracle-equivalence suites
//! pin that property.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel index meaning "no slot" in intrusive links.
pub const NIL: u32 = u32::MAX;

/// Number of independent intrusive link channels per slot.
pub const CHANNELS: usize = 2;

// ---------------------------------------------------------------------------
// Fast hashing
// ---------------------------------------------------------------------------

/// The multiply-rotate hasher used by rustc ("FxHash").
///
/// Deterministic (no per-process random seed) and very fast on the small
/// fixed-size keys this workspace hashes (`PageId`, `AppId`, handles). Not
/// collision-resistant against adversarial input — do not use for untrusted
/// keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

/// Key addressing an occupied [`Slab`] slot: a dense index plus the slot's
/// generation at insertion time. A stale key (the slot was freed, possibly
/// reused) fails generation validation instead of silently aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// The slot index (dense, reused after removal).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation the slot had when this key was issued.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Pack into a single `u64` (generation in the high half). Useful for
    /// embedding a slab key in an existing `u64` handle type.
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Inverse of [`SlabKey::pack`].
    #[must_use]
    pub fn unpack(raw: u64) -> SlabKey {
        SlabKey {
            index: (raw & 0xffff_ffff) as u32,
            generation: (raw >> 32) as u32,
        }
    }
}

impl fmt::Display for SlabKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab:{}g{}", self.index, self.generation)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Links {
    prev: u32,
    next: u32,
}

const UNLINKED: Links = Links {
    prev: NIL,
    next: NIL,
};

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
    links: [Links; CHANNELS],
}

/// A dense arena with generation-checked keys and per-slot intrusive links.
///
/// ```
/// use ariadne_mem::slab::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(b), Some("beta"));
/// // The freed slot is reused, but the old key no longer resolves:
/// let c = slab.insert("gamma");
/// assert_eq!(c.index(), b.index());
/// assert_eq!(slab.get(b), None);
/// assert_eq!(slab.get(c), Some(&"gamma"));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Create an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Create an empty slab with room for `capacity` values.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, reusing a freed slot if one exists.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free-list slot was occupied");
            slot.value = Some(value);
            slot.links = [UNLINKED; CHANNELS];
            SlabKey {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("slab exceeds u32 indices");
            assert!(index != NIL, "slab full");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
                links: [UNLINKED; CHANNELS],
            });
            SlabKey {
                index,
                generation: 0,
            }
        }
    }

    fn slot(&self, key: SlabKey) -> Option<&Slot<T>> {
        self.slots
            .get(key.index as usize)
            .filter(|s| s.generation == key.generation && s.value.is_some())
    }

    /// Whether `key` addresses a live value (right slot *and* generation).
    #[must_use]
    pub fn contains(&self, key: SlabKey) -> bool {
        self.slot(key).is_some()
    }

    /// The value behind `key`, if it is still live.
    #[must_use]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        self.slot(key).and_then(|s| s.value.as_ref())
    }

    /// Mutable access to the value behind `key`, if it is still live.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        self.slots
            .get_mut(key.index as usize)
            .filter(|s| s.generation == key.generation && s.value.is_some())
            .and_then(|s| s.value.as_mut())
    }

    /// Remove the value behind `key`. The slot's generation is bumped so any
    /// outstanding copy of `key` turns stale. The caller must have unlinked
    /// the slot from every [`Chain`] first (checked in debug builds).
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation || slot.value.is_none() {
            return None;
        }
        debug_assert!(
            slot.links.iter().all(|l| *l == UNLINKED),
            "removing a slot still linked on a chain"
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.len -= 1;
        self.free.push(key.index);
        slot.value.take()
    }

    /// The value at raw `index`, ignoring generations. Intended for chain
    /// traversal, where the chain invariant guarantees liveness.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    #[must_use]
    pub fn value_at(&self, index: u32) -> &T {
        self.slots[index as usize]
            .value
            .as_ref()
            .expect("chained slot is occupied")
    }

    /// Mutable variant of [`Slab::value_at`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn value_at_mut(&mut self, index: u32) -> &mut T {
        self.slots[index as usize]
            .value
            .as_mut()
            .expect("chained slot is occupied")
    }

    /// The current generation-checked key for the occupied slot at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    #[must_use]
    pub fn key_at(&self, index: u32) -> SlabKey {
        let slot = &self.slots[index as usize];
        assert!(slot.value.is_some(), "key_at on a vacant slot");
        SlabKey {
            index,
            generation: slot.generation,
        }
    }

    /// Iterate over occupied slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    SlabKey {
                        index: i as u32,
                        generation: s.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Drop every value and reset the free list (generations are kept so
    /// keys issued before the clear stay stale).
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.value.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                slot.links = [UNLINKED; CHANNELS];
                self.free.push(i as u32);
            }
        }
        self.len = 0;
    }

    fn links(&self, index: u32, channel: usize) -> Links {
        self.slots[index as usize].links[channel]
    }

    fn links_mut(&mut self, index: u32, channel: usize) -> &mut Links {
        &mut self.slots[index as usize].links[channel]
    }
}

// ---------------------------------------------------------------------------
// Intrusive chains
// ---------------------------------------------------------------------------

/// An intrusive doubly-linked list threaded through [`Slab`] slots on one of
/// the [`CHANNELS`] link channels.
///
/// The chain stores raw indices (no generations): the owner guarantees that
/// every linked slot is live, and [`Slab::remove`] asserts (in debug builds)
/// that a slot leaves every chain before it is freed. Iteration runs
/// head→tail, i.e. insertion order under pure [`Chain::push_back`] use —
/// the deterministic order that replaced the ascending-key `BTreeSet`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for Chain {
    fn default() -> Self {
        Self::new()
    }
}

impl Chain {
    /// An empty chain.
    #[must_use]
    pub const fn new() -> Self {
        Chain {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked slots.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// First (oldest under `push_back`) linked slot index.
    #[must_use]
    pub fn head(self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Last (newest under `push_back`) linked slot index.
    #[must_use]
    pub fn tail(self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Append the slot at `index` to the tail.
    pub fn push_back<T>(&mut self, slab: &mut Slab<T>, channel: usize, index: u32) {
        *slab.links_mut(index, channel) = Links {
            prev: self.tail,
            next: NIL,
        };
        if self.tail != NIL {
            slab.links_mut(self.tail, channel).next = index;
        } else {
            self.head = index;
        }
        self.tail = index;
        self.len += 1;
    }

    /// Prepend the slot at `index` to the head.
    pub fn push_front<T>(&mut self, slab: &mut Slab<T>, channel: usize, index: u32) {
        *slab.links_mut(index, channel) = Links {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            slab.links_mut(self.head, channel).prev = index;
        } else {
            self.tail = index;
        }
        self.head = index;
        self.len += 1;
    }

    /// Unlink the slot at `index` from the chain.
    pub fn unlink<T>(&mut self, slab: &mut Slab<T>, channel: usize, index: u32) {
        let Links { prev, next } = slab.links(index, channel);
        if prev != NIL {
            slab.links_mut(prev, channel).next = next;
        } else {
            debug_assert_eq!(self.head, index, "unlinking a slot not on this chain");
            self.head = next;
        }
        if next != NIL {
            slab.links_mut(next, channel).prev = prev;
        } else {
            debug_assert_eq!(self.tail, index, "unlinking a slot not on this chain");
            self.tail = prev;
        }
        *slab.links_mut(index, channel) = UNLINKED;
        self.len -= 1;
    }

    /// Move an already-linked slot to the head (LRU "touch").
    pub fn move_front<T>(&mut self, slab: &mut Slab<T>, channel: usize, index: u32) {
        if self.head == index {
            return;
        }
        self.unlink(slab, channel, index);
        self.push_front(slab, channel, index);
    }

    /// Move an already-linked slot to the tail.
    pub fn move_back<T>(&mut self, slab: &mut Slab<T>, channel: usize, index: u32) {
        if self.tail == index {
            return;
        }
        self.unlink(slab, channel, index);
        self.push_back(slab, channel, index);
    }

    /// Iterate slot indices head→tail.
    pub fn indices<'a, T>(self, slab: &'a Slab<T>, channel: usize) -> ChainIndices<'a, T> {
        ChainIndices {
            slab,
            channel,
            cursor: self.head,
            rev_cursor: self.tail,
            done: self.len == 0,
        }
    }
}

/// Iterator over the slot indices of a [`Chain`], head→tail (reversible).
pub struct ChainIndices<'a, T> {
    slab: &'a Slab<T>,
    channel: usize,
    cursor: u32,
    rev_cursor: u32,
    done: bool,
}

impl<T> Iterator for ChainIndices<'_, T> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.done {
            return None;
        }
        let index = self.cursor;
        if index == self.rev_cursor {
            self.done = true;
        } else {
            self.cursor = self.slab.links(index, self.channel).next;
        }
        Some(index)
    }
}

impl<T> DoubleEndedIterator for ChainIndices<'_, T> {
    fn next_back(&mut self) -> Option<u32> {
        if self.done {
            return None;
        }
        let index = self.rev_cursor;
        if index == self.cursor {
            self.done = true;
        } else {
            self.rev_cursor = self.slab.links(index, self.channel).prev;
        }
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert(10u32);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn generation_detects_aba() {
        let mut slab = Slab::new();
        let stale = slab.insert("first");
        slab.remove(stale);
        let fresh = slab.insert("second");
        assert_eq!(fresh.index(), stale.index(), "slot is reused");
        assert_ne!(fresh.generation(), stale.generation());
        assert!(!slab.contains(stale));
        assert_eq!(slab.get(stale), None);
        assert_eq!(slab.get(fresh), Some(&"second"));
        assert_eq!(slab.remove(stale), None);
        assert_eq!(slab.remove(fresh), Some("second"));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut slab = Slab::new();
        let first = slab.insert(0u8);
        slab.remove(first);
        let key = slab.insert(1u8);
        assert!(key.generation() > 0);
        assert_eq!(SlabKey::unpack(key.pack()), key);
    }

    #[test]
    fn key_at_matches_iter() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(keys[2]);
        let listed: Vec<_> = slab.iter().map(|(k, _)| k).collect();
        assert_eq!(listed.len(), 4);
        for key in listed {
            assert_eq!(slab.key_at(key.index()), key);
        }
    }

    #[test]
    fn chain_preserves_insertion_order() {
        let mut slab = Slab::new();
        let mut chain = Chain::new();
        let keys: Vec<_> = (0..4).map(|i| slab.insert(i * 10)).collect();
        for key in &keys {
            chain.push_back(&mut slab, 0, key.index());
        }
        let order: Vec<_> = chain.indices(&slab, 0).map(|i| *slab.value_at(i)).collect();
        assert_eq!(order, vec![0, 10, 20, 30]);
        assert_eq!(chain.head(), Some(keys[0].index()));
        assert_eq!(chain.tail(), Some(keys[3].index()));
    }

    #[test]
    fn chain_unlink_middle_and_ends() {
        let mut slab = Slab::new();
        let mut chain = Chain::new();
        let keys: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        for key in &keys {
            chain.push_back(&mut slab, 0, key.index());
        }
        chain.unlink(&mut slab, 0, keys[2].index()); // middle
        chain.unlink(&mut slab, 0, keys[0].index()); // head
        chain.unlink(&mut slab, 0, keys[4].index()); // tail
        let left: Vec<_> = chain.indices(&slab, 0).map(|i| *slab.value_at(i)).collect();
        assert_eq!(left, vec![1, 3]);
        assert_eq!(chain.len(), 2);
        // The unlinked slots can now be removed.
        assert_eq!(slab.remove(keys[2]), Some(2));
    }

    #[test]
    fn two_channels_are_independent() {
        let mut slab = Slab::new();
        let mut by_insert = Chain::new();
        let mut by_touch = Chain::new();
        let keys: Vec<_> = (0..3).map(|i| slab.insert(i)).collect();
        for key in &keys {
            by_insert.push_back(&mut slab, 0, key.index());
            by_touch.push_back(&mut slab, 1, key.index());
        }
        by_touch.move_front(&mut slab, 1, keys[2].index());
        let insert_order: Vec<_> = by_insert
            .indices(&slab, 0)
            .map(|i| *slab.value_at(i))
            .collect();
        let touch_order: Vec<_> = by_touch
            .indices(&slab, 1)
            .map(|i| *slab.value_at(i))
            .collect();
        assert_eq!(insert_order, vec![0, 1, 2]);
        assert_eq!(touch_order, vec![2, 0, 1]);
    }

    #[test]
    fn chain_reverse_iteration() {
        let mut slab = Slab::new();
        let mut chain = Chain::new();
        for i in 0..4 {
            let key = slab.insert(i);
            chain.push_back(&mut slab, 0, key.index());
        }
        let rev: Vec<_> = chain
            .indices(&slab, 0)
            .rev()
            .map(|i| *slab.value_at(i))
            .collect();
        assert_eq!(rev, vec![3, 2, 1, 0]);
    }

    #[test]
    fn clear_invalidates_keys() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..3).map(|i| slab.insert(i)).collect();
        slab.clear();
        assert!(slab.is_empty());
        for key in keys {
            assert!(!slab.contains(key));
        }
        let fresh = slab.insert(9);
        assert_eq!(slab.get(fresh), Some(&9));
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(0x1234_5678_u64);
        let b = build.hash_one(0x1234_5678_u64);
        let c = build.hash_one(0x1234_5679_u64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Byte-slice and integer paths both terminate and differ per input.
        let d = build.hash_one([1u8, 2, 3, 4, 5, 6, 7, 8, 9].as_slice());
        let e = build.hash_one([1u8, 2, 3, 4, 5, 6, 7, 8, 10].as_slice());
        assert_ne!(d, e);
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&999), Some(&1998));
        let mut set: FxHashSet<u32> = FxHashSet::default();
        set.insert(7);
        assert!(set.contains(&7));
    }
}
