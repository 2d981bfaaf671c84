//! Differential tests: the word-wide (SWAR) kernels must produce streams
//! byte-identical to the scalar reference codecs they replaced.
//!
//! The scalar loops live in `ariadne_compress::reference` (compiled via the
//! `scalar-reference` feature, which this crate's self dev-dependency turns
//! on for tests). Every corpus here is adversarial for a different part of
//! the scan:
//!
//! * splitmix64 noise — incompressible; exercises the no-match fast path and
//!   the hash-table collision behaviour;
//! * flip-loop pages — the lifetime suite's pathological writer: long runs
//!   with periodic single-byte flips, which lands mismatches in every byte
//!   lane of the 8-byte compare windows;
//! * all-zero pages — maximal-length matches and the BDI zeros encoding;
//! * page-tail misalignment — lengths straddling `PAGE_SIZE` and the 8-byte
//!   word size, so the word loop's scalar tail handles 0–7 leftover bytes;
//! * large inputs — 16 KiB (Ariadne's cold chunk, which fills the LZO head
//!   table), one byte past the 64 KiB back-reference limit, and 128 KiB
//!   (the largest chunk), so positions outrun `MAX_DISTANCE`;
//! * far repeats — a noise page repeated exactly at the back-reference
//!   limit and one byte beyond it, so the distance cap decides the stream.

use ariadne_compress::reference::scalar_codec;
use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec, PAGE_SIZE};
use proptest::prelude::*;

/// splitmix64 PRNG — statistically flat output, incompressible by design.
fn splitmix64_bytes(mut state: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A flip-loop page: a repetitive base pattern with one byte XOR-flipped per
/// "loop iteration", at a stride chosen to hit every lane of an 8-byte
/// compare window over successive iterations.
fn flip_loop_page(len: usize, stride: usize, rounds: usize) -> Vec<u8> {
    let mut page: Vec<u8> = (0..len).map(|i| ((i / 32) % 251) as u8).collect();
    let mut at = 0usize;
    for round in 0..rounds {
        if len == 0 {
            break;
        }
        at = (at + stride + round) % len;
        page[at] ^= 0xFF;
    }
    page
}

/// Every adversarial corpus from the issue, with page-tail misalignment
/// represented by lengths straddling PAGE_SIZE and the 8-byte word size.
fn corpora() -> Vec<(String, Vec<u8>)> {
    let mut all = Vec::new();
    for len in [
        0usize,
        1,
        7,
        8,
        9,
        63,
        64,
        65,
        PAGE_SIZE - 7,
        PAGE_SIZE - 1,
        PAGE_SIZE,
        PAGE_SIZE + 1,
        PAGE_SIZE + 9,
        3 * PAGE_SIZE + 5,
        16 * 1024,
        64 * 1024 + 1,
        128 * 1024,
    ] {
        all.push((format!("noise-{len}"), splitmix64_bytes(len as u64, len)));
        all.push((format!("flip-{len}"), flip_loop_page(len, 97, 300)));
        all.push((format!("zeros-{len}"), vec![0u8; len]));
    }
    // Mixed page: compressible head, noise tail crossing the last word.
    let mut mixed = vec![7u8; PAGE_SIZE / 2];
    mixed.extend(splitmix64_bytes(42, PAGE_SIZE / 2 + 3));
    all.push(("mixed-head-tail".to_string(), mixed));
    // A noise page repeated at the 65,535-byte back-reference limit, which
    // may be matched, and one byte past it, which must not.
    for distance in [65_535usize, 65_536] {
        let mut far = splitmix64_bytes(distance as u64, distance);
        far.extend_from_within(..PAGE_SIZE);
        all.push((format!("far-repeat-{distance}"), far));
    }
    all
}

#[test]
fn swar_streams_are_byte_identical_to_the_scalar_reference() {
    for (label, data) in corpora() {
        for algorithm in Algorithm::ALL {
            let swar = algorithm.codec();
            let scalar = scalar_codec(algorithm);
            let fast = swar.compress(&data).unwrap();
            let slow = scalar.compress(&data).unwrap();
            assert_eq!(fast, slow, "{algorithm} diverged on corpus {label}");
            // The appended form must match too (pre-seeded scratch).
            let mut seeded = vec![0xEE, 0xBB];
            swar.compress_into(&data, &mut seeded).unwrap();
            assert_eq!(&seeded[..2], &[0xEE, 0xBB]);
            assert_eq!(&seeded[2..], &fast[..], "{algorithm}/{label} append");
            // And the stream still decodes to the input.
            assert_eq!(swar.decompress(&fast, data.len()).unwrap(), data);
        }
    }
}

#[test]
fn compressed_len_only_matches_a_scalar_per_chunk_sweep() {
    // One page per corpus family keeps the full sweep (3 algorithms × 11
    // chunk sizes × corpora) fast enough for every CI run.
    let corpora = [
        ("noise", splitmix64_bytes(7, 2 * PAGE_SIZE + 11)),
        ("flip", flip_loop_page(2 * PAGE_SIZE + 11, 61, 500)),
        ("zeros", vec![0u8; 2 * PAGE_SIZE + 11]),
    ];
    let mut scratch = Vec::new();
    for (label, data) in &corpora {
        for algorithm in Algorithm::ALL {
            let scalar = scalar_codec(algorithm);
            for chunk in ChunkSize::figure6_sweep() {
                let codec = ChunkedCodec::new(algorithm, chunk);
                let lens = codec.compressed_len_only(data, &mut scratch).unwrap();
                let expected: usize = data
                    .chunks(chunk.bytes())
                    .map(|piece| scalar.compress(piece).unwrap().len().min(piece.len()))
                    .sum();
                assert_eq!(
                    lens.compressed_len, expected,
                    "{algorithm} chunk {chunk} diverged on {label}"
                );
                assert_eq!(lens.original_len, data.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_buffers_compress_identically(
        data in proptest::collection::vec(any::<u8>(), 0..6000),
    ) {
        for algorithm in Algorithm::ALL {
            let fast = algorithm.codec().compress(&data).unwrap();
            let slow = scalar_codec(algorithm).compress(&data).unwrap();
            prop_assert_eq!(&fast, &slow, "{} diverged", algorithm);
        }
    }

    #[test]
    fn random_repetitive_buffers_compress_identically(
        (period, len, seed) in (1usize..96, 0usize..5000, any::<u64>()),
    ) {
        // Periodic data with noise perturbations: dense match candidates,
        // adversarial for the lazy-match and chain-walk order.
        let noise = splitmix64_bytes(seed, len);
        let data: Vec<u8> = (0..len)
            .map(|i| {
                let base = ((i / period) % 7 + i % period) as u8;
                if noise[i] < 12 { noise[i] } else { base }
            })
            .collect();
        for algorithm in Algorithm::ALL {
            let fast = algorithm.codec().compress(&data).unwrap();
            let slow = scalar_codec(algorithm).compress(&data).unwrap();
            prop_assert_eq!(&fast, &slow, "{} diverged", algorithm);
        }
    }
}
