//! The Ariadne benchmark suite. The library itself is empty: the entry
//! points are the `experiments` binary (regenerates every table and figure
//! of the paper via `ariadne-sim`) and the Criterion bench `hot_structures`
//! (micro-benchmarks of the hot structures and the compression kernels). End-to-end host timing and codec throughput are
//! the job of the benchmark in `perfbench/` (declared by `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
