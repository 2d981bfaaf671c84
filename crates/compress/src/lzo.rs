//! An LZO-class codec: lazy matching over hash chains.
//!
//! The Linux kernel's LZO1X is the default ZRAM compressor on the Google
//! Pixel 7. Compared with LZ4 it spends more effort finding matches (and so
//! achieves a better ratio at lower speed). This module reproduces that
//! design point with a from-scratch codec: a hash-chain matcher with one-step
//! lazy evaluation, emitting a compact token stream. The output format is our
//! own (we do not need binary compatibility with LZO1X streams), but the
//! speed/ratio trade-off relative to [`crate::Lz4`] mirrors the kernel pair.
//!
//! # Stream format
//!
//! A sequence of tokens:
//!
//! * `0x00..=0x7F` — literal run: `(token & 0x7F) + 1` literal bytes follow.
//! * `0x80..=0xFF` — match: length `(token & 0x7F) + 4`, followed by a
//!   2-byte little-endian back-reference distance (1-based). Runs longer
//!   than 131 bytes are split across several match tokens.

use crate::algorithm::Codec;
use crate::error::CompressError;
use crate::swar::{common_prefix, PositionTable};
use std::cell::RefCell;

thread_local! {
    /// Per-thread hash-chain scratch (head table + `prev` links), reused
    /// across compress calls. The scalar codec allocated a 128 KiB head
    /// table plus an `n`-entry chain vector per call; the 64 KiB position
    /// table invalidates in O(1) and `prev` only grows. Stale `prev`
    /// contents are harmless: a chain walk only reaches positions inserted
    /// during the current pass, and every insertion writes `prev[p]` first.
    /// Links are `u32` (positions are bounded by the head table anyway),
    /// which halves the chain's cache traffic — every input position is
    /// inserted exactly once, so the insert path is the hottest loop in the
    /// codec.
    static CHAIN_SCRATCH: RefCell<(PositionTable, Vec<u32>)> =
        RefCell::new((PositionTable::new(1 << HASH_LOG), Vec::new()));
}

const MIN_MATCH: usize = 4;
const MAX_MATCH_TOKEN: usize = 0x7F + MIN_MATCH; // 131
const MAX_LITERAL_TOKEN: usize = 0x80; // 128 literals per token
const MAX_DISTANCE: usize = 65535;
const HASH_LOG: usize = 14;
/// How many hash-chain candidates are examined per position. Higher values
/// find better matches (higher ratio) at the cost of more CPU work — the
/// LZO-versus-LZ4 trade-off.
const MAX_CHAIN: usize = 16;

/// LZO-class codec (lazy matching, hash chains).
///
/// ```
/// use ariadne_compress::{Codec, Lzo};
///
/// # fn main() -> Result<(), ariadne_compress::CompressError> {
/// let codec = Lzo::new();
/// let data: Vec<u8> = (0..4096u32).map(|i| (i / 16) as u8).collect();
/// let packed = codec.compress(&data)?;
/// assert!(packed.len() < data.len());
/// assert_eq!(codec.decompress(&packed, data.len())?, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lzo {
    _private: (),
}

impl Lzo {
    /// Create a new LZO-class codec.
    #[must_use]
    pub fn new() -> Self {
        Lzo { _private: () }
    }

    #[inline]
    fn hash(data: &[u8], pos: usize) -> usize {
        // A single 4-byte slice load (one bounds check) — this runs once per
        // input position, on the insert path.
        let word = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte slice"));
        ((word.wrapping_mul(2_654_435_761)) >> (32 - HASH_LOG)) as usize
    }

    /// Find the longest match for `pos` by walking the hash chain from
    /// `candidate` (the head the insertion of `pos` displaced), keeping only
    /// matches strictly longer than `floor` (callers pass `MIN_MATCH - 1`,
    /// or the length a candidate must displace).
    ///
    /// The floor doubles as a cheap rejection filter: a candidate whose byte
    /// at the current-best offset differs from `input[pos + best]` cannot
    /// have a common prefix longer than the best, so the word-wide compare
    /// is skipped. The same candidates are walked in the same order and the
    /// running best evolves through the same strict improvements, so the
    /// match returned — and therefore the emitted stream — is identical to
    /// the unfiltered walk.
    fn find_match(
        input: &[u8],
        pos: usize,
        mut candidate: usize,
        prev: &[u32],
        max_len: usize,
        floor: usize,
    ) -> Option<(usize, usize)> {
        if floor >= max_len {
            return None;
        }
        let mut best_len = floor;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        // `best_len < max_len` holds throughout (a best reaching `max_len`
        // breaks out below), so the probe byte is always in bounds.
        let mut probe = input[pos + best_len];
        while candidate != usize::MAX && chain < MAX_CHAIN {
            let dist = pos - candidate;
            if dist > MAX_DISTANCE {
                break;
            }
            if input[candidate + best_len] == probe {
                let len = common_prefix(input, candidate, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == max_len {
                        break;
                    }
                    probe = input[pos + best_len];
                }
            }
            // `u32::MAX` links widen to the `usize::MAX` "end of chain"
            // sentinel (positions never reach either value).
            let link = prev[candidate];
            candidate = if link == u32::MAX {
                usize::MAX
            } else {
                link as usize
            };
            chain += 1;
        }
        if best_dist != 0 {
            Some((best_len, best_dist))
        } else {
            None
        }
    }

    fn emit_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
        while !literals.is_empty() {
            let take = literals.len().min(MAX_LITERAL_TOKEN);
            out.push((take - 1) as u8);
            out.extend_from_slice(&literals[..take]);
            literals = &literals[take..];
        }
    }

    fn emit_match(out: &mut Vec<u8>, mut len: usize, dist: usize) {
        debug_assert!((1..=MAX_DISTANCE).contains(&dist));
        while len >= MIN_MATCH {
            let take = len.min(MAX_MATCH_TOKEN);
            // Never leave a remainder shorter than MIN_MATCH.
            let take = if len - take > 0 && len - take < MIN_MATCH {
                len - MIN_MATCH
            } else {
                take
            };
            out.push(0x80 | ((take - MIN_MATCH) as u8));
            out.extend_from_slice(&(dist as u16).to_le_bytes());
            len -= take;
        }
        debug_assert_eq!(len, 0);
    }
}

impl Codec for Lzo {
    fn compress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        self.compress_into(input, &mut out)?;
        Ok(out)
    }

    fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let n = input.len();
        if n < MIN_MATCH + 1 {
            Self::emit_literals(out, input);
            return Ok(());
        }

        CHAIN_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let (head, prev) = &mut *scratch;
            head.begin_pass(n);
            if prev.len() < n {
                prev.resize(n, u32::MAX);
            }
            self.compress_with_scratch(input, out, head, prev);
        });
        Ok(())
    }

    fn decompress(&self, input: &[u8], decompressed_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(decompressed_len);
        let mut pos = 0usize;
        let n = input.len();
        while pos < n {
            let token = input[pos];
            pos += 1;
            if token & 0x80 == 0 {
                let run = (token & 0x7F) as usize + 1;
                if pos + run > n {
                    return Err(CompressError::corrupt("truncated literal run"));
                }
                out.extend_from_slice(&input[pos..pos + run]);
                pos += run;
            } else {
                let len = (token & 0x7F) as usize + MIN_MATCH;
                if pos + 2 > n {
                    return Err(CompressError::corrupt("truncated match distance"));
                }
                let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                pos += 2;
                if dist == 0 || dist > out.len() {
                    return Err(CompressError::corrupt(format!(
                        "invalid back-reference distance {dist} at output length {}",
                        out.len()
                    )));
                }
                let start = out.len() - dist;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
        }
        if out.len() != decompressed_len {
            return Err(CompressError::corrupt(format!(
                "decoded {} bytes, expected {decompressed_len}",
                out.len()
            )));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "lzo"
    }
}

impl Lzo {
    /// The compress loop proper, operating on borrowed per-thread scratch.
    /// Identical match decisions to the scalar reference: the position table
    /// behaves exactly like a fresh `vec![usize::MAX; _]`, and the word-wide
    /// compare returns the same lengths the byte loop did.
    ///
    /// The reference inserts each walked position right after its chain
    /// walk, which starts from the head that insertion displaces. Inserting
    /// first and walking from the displaced head changes no chain the walk
    /// sees (it only follows links of earlier positions), so each position
    /// costs one hash and one access to its head slot.
    fn compress_with_scratch(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        head: &mut PositionTable,
        prev: &mut [u32],
    ) {
        let n = input.len();
        let hash_limit = n.saturating_sub(MIN_MATCH);

        // Insert `p` and return the head it displaced. The reference skips
        // the last walked position, `hash_limit`; inserting it is harmless,
        // because no walk follows it in this pass.
        let insert = |head: &mut PositionTable, prev: &mut [u32], p: usize| {
            let displaced = head.replace(Self::hash(input, p), p);
            // Truncating the `usize::MAX` empty sentinel yields `u32::MAX`,
            // the chain-end sentinel the walk widens back.
            prev[p] = displaced as u32;
            displaced
        };

        let mut anchor = 0usize;
        let mut pos = 0usize;
        while pos + MIN_MATCH <= n {
            let candidate = insert(head, prev, pos);
            let Some((len, dist)) =
                Self::find_match(input, pos, candidate, prev, n - pos, MIN_MATCH - 1)
            else {
                pos += 1;
                continue;
            };
            // Lazy evaluation: peek one position ahead; if it yields a
            // strictly longer match, emit the current byte as a literal
            // instead.
            let (mut use_len, mut use_dist, mut start) = (len, dist, pos);
            if pos + 1 + MIN_MATCH <= n {
                let candidate = insert(head, prev, pos + 1);
                // A lazy match only displaces the current one when it is
                // strictly longer than `len + 1`; passing that as the floor
                // lets the walk reject non-improving candidates on a single
                // byte probe.
                if let Some((len2, dist2)) =
                    Self::find_match(input, pos + 1, candidate, prev, n - pos - 1, len + 1)
                {
                    debug_assert!(len2 > len + 1);
                    (use_len, use_dist, start) = (len2, dist2, pos + 1);
                }
            }

            Self::emit_literals(out, &input[anchor..start]);
            Self::emit_match(out, use_len, use_dist);

            // Index the rest of the positions the match covers: `pos` and
            // `pos + 1` are in (or past `hash_limit`) already.
            let end = start + use_len;
            for p in pos + 2..end.min(hash_limit) {
                insert(head, prev, p);
            }
            pos = end;
            anchor = end;
        }
        Self::emit_literals(out, &input[anchor..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz4::Lz4;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let codec = Lzo::new();
        let packed = codec.compress(data).unwrap();
        codec.decompress(&packed, data.len()).unwrap()
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
        for len in 1..20usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn constant_page_compresses_well() {
        let data = vec![0x5Au8; 4096];
        let packed = Lzo::new().compress(&data).unwrap();
        assert!(packed.len() < 160, "got {}", packed.len());
        assert_eq!(Lzo::new().decompress(&packed, 4096).unwrap(), data);
    }

    #[test]
    fn structured_data_roundtrips() {
        let data: Vec<u8> = (0..16_384u32)
            .flat_map(|i| (i % 512).to_le_bytes())
            .collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn overlapping_matches_roundtrip() {
        let data: Vec<u8> = b"xyz".iter().cycle().take(700).copied().collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn lzo_ratio_is_at_least_as_good_as_lz4_on_redundant_data() {
        // Repeated 256-byte template with small perturbations: the deeper
        // search of the LZO-class codec should not lose to greedy LZ4.
        let template: Vec<u8> = (0..256u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut data = Vec::new();
        for rep in 0..64u8 {
            let mut block = template.clone();
            block[(rep as usize * 3) % 256] = rep;
            data.extend_from_slice(&block);
        }
        let lzo_len = Lzo::new().compress(&data).unwrap().len();
        let lz4_len = Lz4::new().compress(&data).unwrap().len();
        assert!(
            lzo_len <= lz4_len + lz4_len / 10,
            "lzo {lzo_len} vs lz4 {lz4_len}"
        );
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn incompressible_data_expansion_is_bounded() {
        let mut x = 0x9E3779B9u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let packed = Lzo::new().compress(&data).unwrap();
        // One token byte per 128 literals.
        assert!(packed.len() <= data.len() + data.len() / 64 + 16);
        assert_eq!(Lzo::new().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let codec = Lzo::new();
        // Truncated literal run.
        assert!(codec.decompress(&[0x05, 1, 2], 6).is_err());
        // Bad distance.
        assert!(codec.decompress(&[0x80, 0x10, 0x00], 4).is_err());
        // Wrong expected length.
        let packed = codec.compress(&[9u8; 100]).unwrap();
        assert!(codec.decompress(&packed, 99).is_err());
    }

    #[test]
    fn very_long_match_splits_across_tokens() {
        let mut data = vec![1u8, 2, 3, 4];
        data.extend(std::iter::repeat(7u8).take(5000));
        assert_eq!(roundtrip(&data), data);
    }
}
