//! Word-wide (SWAR) scan primitives shared by the compression kernels.
//!
//! The LZ4 and LZO match loops and the BDI segment scans all reduce to one
//! primitive: "how many leading bytes do two regions have in common?". The
//! scalar codecs answered it one byte at a time; the kernels in this crate
//! now answer it eight bytes at a time with `u64` reads and
//! `trailing_zeros` to locate the first mismatching byte. The result is the
//! *same number* the byte loop would produce — the SWAR form only changes
//! how fast the answer is computed, never what it is — which is what lets
//! the compressed streams stay byte-identical to the scalar reference
//! codecs (pinned by `tests/kernel_equivalence.rs`).
//!
//! The LZ4 and LZO matchers also share one [`PositionTable`], the per-thread
//! hash table of input positions that a new compress pass empties in O(1).
//!
//! Everything here is safe code: the slice-indexing bounds checks on the
//! word loads compile down to a single comparison per iteration, and
//! `u64::from_le_bytes` on a 8-byte slice is recognised by LLVM as an
//! unaligned load.

/// Read a little-endian `u64` starting at `pos`. Panics (bounds check) if
/// fewer than 8 bytes remain — callers guarantee the room.
#[inline]
pub(crate) fn read_u64_le(data: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8-byte slice"))
}

/// Length of the common prefix of `data[a..a + max]` and `data[b..b + max]`,
/// exactly as the scalar loop
/// `while len < max && data[a + len] == data[b + len] { len += 1 }` would
/// compute it, but comparing eight bytes per step.
///
/// Callers must guarantee `a + max <= data.len()` and `b + max <= data.len()`
/// (the word loads stay inside those bounds; a violation panics on the
/// bounds check rather than reading out of range).
#[inline]
pub(crate) fn common_prefix(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max {
        let xor = read_u64_le(data, a + len) ^ read_u64_le(data, b + len);
        if xor != 0 {
            // The first differing byte is the lowest non-zero byte of the
            // XOR on a little-endian read.
            return len + (xor.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// A hash table of input positions, reused across compress calls through a
/// `thread_local` so the hot path never allocates or clears the table.
///
/// Each slot holds an absolute position: the position in the current input
/// plus a per-pass `base`. Every pass starts its base where the previous
/// pass's positions ended, so a slot is live exactly when its value is at
/// least the base, and `begin_pass` invalidates every slot in O(1). The
/// slots are re-zeroed only when the next pass's positions would overflow
/// a `u32`, once every four GiB of compressed input.
///
/// The base makes a stamp per slot unnecessary, so a slot is four bytes.
/// Reading a stale slot returns `usize::MAX`, the "empty" sentinel the
/// scalar codecs used for freshly allocated tables, so lookups observe
/// exactly the state a per-call `vec![usize::MAX; N]` would hold.
#[derive(Debug)]
pub(crate) struct PositionTable {
    slots: Vec<u32>,
    /// The absolute value of position 0 in the current pass.
    base: u32,
    /// One past the largest absolute value the current pass can store.
    end: u32,
}

impl PositionTable {
    /// Create a table with `slots` entries, all empty.
    pub(crate) fn new(slots: usize) -> Self {
        PositionTable {
            slots: vec![0; slots],
            base: 1,
            end: 1,
        }
    }

    /// Empty every slot, starting a pass over an input of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit the `u32` positions (4 GiB), far beyond
    /// any compression unit in the workspace (chunks top out at 128 KiB).
    pub(crate) fn begin_pass(&mut self, len: usize) {
        assert!(
            len < u32::MAX as usize,
            "input overflows the u32 position table"
        );
        let len = len as u32;
        (self.base, self.end) = match self.end.checked_add(len) {
            Some(end) => (self.end, end),
            None => {
                // Zeroed slots read empty under any base of at least 1.
                self.slots.fill(0);
                (1, 1 + len)
            }
        };
    }

    /// The absolute value of `pos` in the current pass.
    #[inline]
    fn value(&self, pos: usize) -> u32 {
        debug_assert!(
            pos < (self.end - self.base) as usize,
            "position beyond the pass"
        );
        self.base + pos as u32
    }

    /// Store `pos` in `slot`.
    #[inline]
    pub(crate) fn set(&mut self, slot: usize, pos: usize) {
        self.slots[slot] = self.value(pos);
    }

    /// Store `pos` in `slot` and return the position it displaced, or
    /// `usize::MAX` if the slot was empty: one slot access for the insert
    /// path, which runs once per input position.
    #[inline]
    pub(crate) fn replace(&mut self, slot: usize, pos: usize) -> usize {
        let value = self.value(pos);
        let old = std::mem::replace(&mut self.slots[slot], value);
        if old >= self.base {
            (old - self.base) as usize
        } else {
            usize::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_prefix_matches_the_scalar_loop() {
        let mut data: Vec<u8> = (0..64u8).collect();
        data.extend((0..64u8).map(|i| if i == 37 { 0xFF } else { i }));
        for max in 0..=64usize {
            let scalar = {
                let mut len = 0;
                while len < max && data[len] == data[64 + len] {
                    len += 1;
                }
                len
            };
            assert_eq!(common_prefix(&data, 0, 64, max), scalar, "max {max}");
        }
    }

    #[test]
    fn common_prefix_handles_mismatch_in_every_byte_lane() {
        for lane in 0..24usize {
            let a: Vec<u8> = vec![7u8; 48];
            let mut data = a.clone();
            data.extend_from_slice(&a);
            data[48 + lane] = 9;
            assert_eq!(common_prefix(&data, 0, 48, 48), lane, "lane {lane}");
        }
    }

    #[test]
    fn position_table_is_empty_after_begin_pass() {
        let mut table = PositionTable::new(8);
        table.begin_pass(32);
        assert_eq!(table.replace(3, 17), usize::MAX);
        assert_eq!(table.replace(3, 5), 17);
        table.begin_pass(32);
        assert_eq!(
            table.replace(3, 9),
            usize::MAX,
            "new pass must not see old slots"
        );
    }

    #[test]
    fn position_table_clears_when_the_base_would_overflow() {
        let mut table = PositionTable::new(2);
        table.end = u32::MAX - 40;
        table.begin_pass(30); // fits: positions end 10 below u32::MAX
        table.set(0, 29);
        assert_eq!(table.replace(0, 29), 29);
        table.begin_pass(30); // would overflow: slots cleared, base back to 1
        assert_eq!(table.base, 1);
        assert_eq!(table.replace(0, 0), usize::MAX);
        assert_eq!(table.replace(1, 7), usize::MAX);
        assert_eq!(table.replace(0, 3), 0);
    }
}
