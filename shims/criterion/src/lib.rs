//! Offline stand-in for `criterion` (see `shims/README.md`).
//!
//! Provides the harness surface the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, benchmark groups, per-input
//! benches, throughput annotation — and really measures wall-clock time,
//! printing one line per benchmark: the median and the minimum time per
//! iteration over separately timed samples, so one burst of host load moves
//! one sample rather than the reported figure. It performs none of
//! criterion's other statistical analysis; the numbers are indicative only,
//! which matches how the workspace treats host-side wall-clock (simulated
//! latency comes from the calibrated cost model, not from these benches).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness state, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Accepted for API compatibility; the shim ignores the target time.
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group(id.clone());
        group.bench_with_input(BenchmarkId::from_parameter(""), &(), |b, ()| f(b));
        group.finish();
        self
    }
}

/// Units for reporting throughput alongside time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The routine processes this many bytes per iteration.
    Bytes(u64),
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A two-part id: function name plus parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id distinguished only by its parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// A named collection of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with a per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` with `input`, timing the routine passed to
    /// [`Bencher::iter`].
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: self.criterion.sample_size,
            per_iter: Vec::new(),
        };
        f(&mut bencher, input);
        let mut per_iter = bencher.per_iter;
        per_iter.sort_unstable();
        let median = per_iter
            .get(per_iter.len() / 2)
            .copied()
            .unwrap_or_default();
        let min = per_iter.first().copied().unwrap_or_default();
        self.report(&id, median, min);
        self
    }

    /// Benchmarks `f` with no input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchIdOrName>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().0;
        self.bench_with_input(id, &(), |b, ()| f(b))
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, median: Duration, min: Duration) {
        let rate = match self.throughput {
            Some(Throughput::Bytes(bytes)) if median > Duration::ZERO => {
                let gib_s = bytes as f64 / median.as_secs_f64() / (1u64 << 30) as f64;
                format!("  ({gib_s:.3} GiB/s)")
            }
            Some(Throughput::Elements(n)) if median > Duration::ZERO => {
                let elem_s = n as f64 / median.as_secs_f64();
                format!("  ({elem_s:.0} elem/s)")
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: {:>12.3} µs/iter median, {:>12.3} µs/iter min{}",
            self.name,
            id.label,
            median.as_secs_f64() * 1e6,
            min.as_secs_f64() * 1e6,
            rate
        );
    }
}

/// Adapter so `bench_function` accepts either a string or a [`BenchmarkId`].
pub struct BenchIdOrName(BenchmarkId);

impl From<&str> for BenchIdOrName {
    fn from(s: &str) -> Self {
        BenchIdOrName(BenchmarkId::from_parameter(s))
    }
}

impl From<String> for BenchIdOrName {
    fn from(s: String) -> Self {
        BenchIdOrName(BenchmarkId::from_parameter(s))
    }
}

impl From<BenchmarkId> for BenchIdOrName {
    fn from(id: BenchmarkId) -> Self {
        BenchIdOrName(id)
    }
}

/// Shortest span one sample is timed over: a routine faster than this runs
/// several times per sample, so the clock's own cost stays out of the
/// figure.
const SAMPLE_FLOOR: Duration = Duration::from_micros(100);

/// Passed to the benchmark closure; [`Bencher::iter`] times the routine.
pub struct Bencher {
    samples: usize,
    per_iter: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: a warm-up doubles a batch of runs until one batch
    /// spans 100 µs, then each of `sample_size` samples runs a batch of that
    /// size and is timed on its own. Records each sample's time per
    /// iteration.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let mut iters = 1u32;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            if start.elapsed() >= SAMPLE_FLOOR {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        self.per_iter = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                start.elapsed() / iters
            })
            .collect();
    }
}

/// Opaque value barrier preventing the optimizer from deleting the routine.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Bundles benchmark functions into a group runner, mirroring criterion's
/// macro of the same name. Both the `name/config/targets` and the positional
/// forms are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Generates `fn main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_measures_and_reports() {
        let mut criterion = Criterion::default().sample_size(3);
        let mut group = criterion.benchmark_group("shim_smoke");
        group.throughput(Throughput::Bytes(1024));
        let mut runs = 0u32;
        group.bench_with_input(BenchmarkId::new("count", 1), &7u64, |b, &x| {
            b.iter(|| {
                // One run spans the sample floor, so every batch is one run.
                std::thread::sleep(SAMPLE_FLOOR);
                runs += 1;
                x * 2
            })
        });
        group.finish();
        assert_eq!(runs, 4, "one warm-up plus sample_size iterations");
    }

    #[test]
    fn a_fast_routine_runs_in_batches_and_times_each_sample() {
        let mut bencher = Bencher {
            samples: 5,
            per_iter: Vec::new(),
        };
        let mut runs = 0u64;
        bencher.iter(|| runs += 1);
        assert_eq!(bencher.per_iter.len(), 5);
        // The warm-up ran batches of 1, 2, 4, ..., `batch` (2 * batch - 1
        // runs), then each of the five samples ran one batch.
        let batch = (runs + 1) / 7;
        assert!(batch.is_power_of_two(), "{runs} runs");
        assert_eq!(runs, 7 * batch - 1);
    }

    criterion_group! {
        name = demo_group;
        config = Criterion::default().sample_size(2);
        targets = demo_target
    }

    fn demo_target(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn macro_generated_group_runs() {
        demo_group();
    }
}
