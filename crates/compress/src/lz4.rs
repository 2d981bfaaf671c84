//! An LZ4-block-format codec with a greedy, hash-table-based matcher.
//!
//! This is a from-scratch implementation of the LZ4 block format (token byte
//! with 4-bit literal-length / match-length fields, 2-byte little-endian
//! offsets, 255-extension bytes) as used by the Linux kernel's `lz4`
//! crypto-API driver that backs ZRAM on the Pixel 7. It favours speed over
//! ratio: one hash probe per position and greedy match acceptance, exactly
//! the design point of upstream LZ4.

use crate::algorithm::Codec;
use crate::error::CompressError;
use crate::swar::{common_prefix, PositionTable};
use std::cell::RefCell;

thread_local! {
    /// Per-thread match table, reused across compress calls so the hot path
    /// never allocates (the scalar codec paid a 64 KiB `vec!` per call).
    static MATCH_TABLE: RefCell<PositionTable> =
        RefCell::new(PositionTable::new(1 << HASH_LOG));
}

/// Minimum match length encodable by the LZ4 block format.
const MIN_MATCH: usize = 4;
/// Matches may not begin within the final `MF_LIMIT` bytes of the input
/// (mirrors the reference implementation, which keeps the last bytes literal
/// so the decoder's wild copies stay in bounds; ours copies bytewise but we
/// keep the format-compatible restriction).
const MF_LIMIT: usize = 12;
/// log2 of the number of hash-table slots used by the greedy matcher.
const HASH_LOG: usize = 13;
/// Maximum back-reference distance representable with a 2-byte offset.
const MAX_DISTANCE: usize = 65535;

/// LZ4 block-format codec.
///
/// ```
/// use ariadne_compress::{Codec, Lz4};
///
/// # fn main() -> Result<(), ariadne_compress::CompressError> {
/// let codec = Lz4::new();
/// let page = vec![7u8; 4096];
/// let packed = codec.compress(&page)?;
/// assert!(packed.len() < 64);
/// assert_eq!(codec.decompress(&packed, 4096)?, page);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lz4 {
    _private: (),
}

impl Lz4 {
    /// Create a new LZ4 codec.
    #[must_use]
    pub fn new() -> Self {
        Lz4 { _private: () }
    }

    fn hash(word: u32) -> usize {
        // Fibonacci hashing constant used by reference LZ4.
        ((word.wrapping_mul(2_654_435_761)) >> (32 - HASH_LOG)) as usize
    }

    #[inline]
    fn read_u32_le(data: &[u8], pos: usize) -> u32 {
        // A single 4-byte slice load (one bounds check) — this runs once per
        // input byte on the insert path.
        u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte slice"))
    }

    /// Append an LZ4 length using the 15 + 255-extension scheme.
    fn write_length(out: &mut Vec<u8>, mut len: usize) {
        while len >= 255 {
            out.push(255);
            len -= 255;
        }
        out.push(len as u8);
    }

    fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: Option<usize>, offset: u16) {
        let lit_len = literals.len();
        let ml_field = match match_len {
            Some(ml) => {
                debug_assert!(ml >= MIN_MATCH);
                (ml - MIN_MATCH).min(15)
            }
            None => 0,
        };
        let token = (((lit_len.min(15)) as u8) << 4) | ml_field as u8;
        out.push(token);
        if lit_len >= 15 {
            Self::write_length(out, lit_len - 15);
        }
        out.extend_from_slice(literals);
        if let Some(ml) = match_len {
            out.extend_from_slice(&offset.to_le_bytes());
            if ml - MIN_MATCH >= 15 {
                Self::write_length(out, ml - MIN_MATCH - 15);
            }
        }
    }
}

impl Codec for Lz4 {
    fn compress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        self.compress_into(input, &mut out)?;
        Ok(out)
    }

    fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let n = input.len();
        if n == 0 {
            // A block consisting of a single token with zero literals.
            out.push(0);
            return Ok(());
        }
        if n < MF_LIMIT + 1 {
            Self::emit_sequence(out, input, None, 0);
            return Ok(());
        }

        MATCH_TABLE.with(|table| {
            let mut table = table.borrow_mut();
            table.begin_pass(n);
            let match_limit = n - MF_LIMIT;
            let mut anchor = 0usize;
            let mut pos = 0usize;

            while pos < match_limit {
                let word = Self::read_u32_le(input, pos);
                let slot = Self::hash(word);
                let candidate = table.replace(slot, pos);

                let is_match = candidate != usize::MAX
                    && pos - candidate <= MAX_DISTANCE
                    && Self::read_u32_le(input, candidate) == word;
                if !is_match {
                    pos += 1;
                    continue;
                }

                // Extend the match forward as far as possible (but never into
                // the tail that must remain literal). The word-wide scan
                // locates the same first mismatch the byte loop would.
                let max_len = n - pos - 5; // keep last 5 bytes literal
                let mut match_len = MIN_MATCH;
                if max_len > MIN_MATCH {
                    match_len += common_prefix(
                        input,
                        candidate + MIN_MATCH,
                        pos + MIN_MATCH,
                        max_len - MIN_MATCH,
                    );
                }

                let offset = (pos - candidate) as u16;
                Self::emit_sequence(out, &input[anchor..pos], Some(match_len), offset);

                pos += match_len;
                anchor = pos;

                // Seed the table with a couple of positions inside the match
                // so that following matches can still be found quickly.
                if pos < match_limit {
                    let w = Self::read_u32_le(input, pos - 2);
                    table.set(Self::hash(w), pos - 2);
                }
            }

            // Trailing literals.
            Self::emit_sequence(out, &input[anchor..], None, 0);
        });
        Ok(())
    }

    fn decompress(&self, input: &[u8], decompressed_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::with_capacity(decompressed_len);
        let mut pos = 0usize;
        let n = input.len();

        loop {
            if pos >= n {
                return Err(CompressError::corrupt("missing token byte"));
            }
            let token = input[pos];
            pos += 1;

            // Literal run.
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                loop {
                    let b = *input
                        .get(pos)
                        .ok_or_else(|| CompressError::corrupt("truncated literal length"))?;
                    pos += 1;
                    lit_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            if pos + lit_len > n {
                return Err(CompressError::corrupt("truncated literal run"));
            }
            out.extend_from_slice(&input[pos..pos + lit_len]);
            pos += lit_len;

            if pos == n {
                break; // Final sequence carries literals only.
            }

            // Match.
            if pos + 2 > n {
                return Err(CompressError::corrupt("truncated match offset"));
            }
            let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2;
            if offset == 0 || offset > out.len() {
                return Err(CompressError::corrupt(format!(
                    "invalid back-reference offset {offset} at output length {}",
                    out.len()
                )));
            }
            let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
            if (token & 0x0F) == 15 {
                loop {
                    let b = *input
                        .get(pos)
                        .ok_or_else(|| CompressError::corrupt("truncated match length"))?;
                    pos += 1;
                    match_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            let start = out.len() - offset;
            for i in 0..match_len {
                let byte = out[start + i];
                out.push(byte);
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
        "lz4"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let codec = Lz4::new();
        let packed = codec.compress(data).unwrap();
        codec.decompress(&packed, data.len()).unwrap()
    }

    #[test]
    fn empty_input_roundtrips() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn tiny_inputs_roundtrip() {
        for len in 1..32usize {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn constant_page_compresses_well() {
        let data = vec![0xABu8; 4096];
        let packed = Lz4::new().compress(&data).unwrap();
        assert!(
            packed.len() < 100,
            "constant page should shrink, got {}",
            packed.len()
        );
        assert_eq!(Lz4::new().decompress(&packed, 4096).unwrap(), data);
    }

    #[test]
    fn periodic_data_roundtrips() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn pseudo_random_data_roundtrips_without_much_expansion() {
        // xorshift-style noise: mostly incompressible.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let packed = Lz4::new().compress(&data).unwrap();
        assert!(packed.len() <= data.len() + data.len() / 128 + 32);
        assert_eq!(Lz4::new().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn long_literal_runs_use_extension_bytes() {
        // 300 distinct leading bytes force a literal length > 15.
        let mut data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        data.extend(std::iter::repeat(9u8).take(64));
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_matches_use_extension_bytes() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        data.extend(std::iter::repeat(0u8).take(2000));
        data.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn overlapping_match_copy_is_correct() {
        // "abcabcabc..." produces offset-3 matches that overlap the output.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn wrong_expected_length_is_rejected() {
        let codec = Lz4::new();
        let packed = codec.compress(&[5u8; 256]).unwrap();
        assert!(matches!(
            codec.decompress(&packed, 257),
            Err(CompressError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = Lz4::new();
        let packed = codec.compress(&vec![3u8; 1024]).unwrap();
        let truncated = &packed[..packed.len() - 1];
        assert!(codec.decompress(truncated, 1024).is_err());
    }

    #[test]
    fn invalid_offset_is_rejected() {
        // token: 0 literals + match, offset 0xFFFF with empty output history.
        let bogus = [0x04u8, 0xFF, 0xFF];
        assert!(Lz4::new().decompress(&bogus, 8).is_err());
    }
}
