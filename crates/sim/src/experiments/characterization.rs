//! The characterization experiments behind the paper's motivation and
//! insights: Table 1, Figures 4–6 and Table 3.

use super::ExperimentOptions;
use crate::report::{fmt_unit, Table};
use crate::schemes::SchemeSpec;
use crate::system::MobileSystem;
use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec, CompressionRatio, LatencyModel};
use ariadne_mem::{Hotness, PageId, PAGE_SIZE};
use ariadne_trace::{
    measure_consecutive_probability, AppName, PageDataGenerator, TimedScenario, WorkloadBuilder,
};
use ariadne_zram::LruScheme;
use std::collections::HashMap;

/// A ZRAM system under `opts` that keeps the page logs Figure 4 and
/// Table 3 read.
fn logged_zram(opts: &ExperimentOptions) -> MobileSystem {
    let mut system = opts.system(SchemeSpec::Zram, opts.base_config());
    system
        .scheme_mut()
        .as_any_mut()
        .downcast_mut::<LruScheme>()
        .expect("the scheme under test is ZRAM")
        .keep_page_logs();
    system
}

/// The ZRAM scheme `system` runs.
fn zram(system: &MobileSystem) -> &LruScheme {
    system
        .scheme()
        .as_any()
        .downcast_ref()
        .expect("the scheme under test is ZRAM")
}

/// Table 1: anonymous data volume (MB) of five applications, 10 s and 5 min
/// after launch.
#[must_use]
pub fn table1(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Table 1: anonymous data volume (MB)",
        &["app", "10s", "5min"],
    );
    let early = WorkloadBuilder::new(opts.seed)
        .scale(opts.scale)
        .early_volume();
    let steady = WorkloadBuilder::new(opts.seed).scale(opts.scale);
    for app in AppName::REPORTED {
        let mb = |pages: usize| (pages * PAGE_SIZE * opts.scale) as f64 / (1024.0 * 1024.0);
        let at_10s = mb(early.build(app).total_pages());
        let at_5min = mb(steady.build(app).total_pages());
        table.push_row(vec![
            app.to_string(),
            format!("{at_10s:.0}"),
            format!("{at_5min:.0}"),
        ]);
    }
    table
}

/// Figure 4: proportion of hot, warm and cold data in each tenth of the
/// compressed data, ordered by compression time, under the baseline ZRAM.
#[must_use]
pub fn fig4(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 4: hotness share per compression-order decile (ZRAM)",
        &["app", "part", "hot", "warm", "cold"],
    );
    for app in opts.reported_apps() {
        let mut system = logged_zram(opts);
        system.run_timed(&TimedScenario::relaunch_study(app));
        let log = zram(&system).compression_log();
        if log.is_empty() {
            continue;
        }
        // Ground-truth hotness comes from the workloads, per owning app.
        let hotness_of = |page: PageId| -> Hotness {
            let name = AppName::ALL
                .iter()
                .find(|a| a.uid() == page.app().value())
                .copied()
                .unwrap_or(app);
            system
                .workload(name)
                .hotness_of(page)
                .unwrap_or(Hotness::Cold)
        };
        let parts = 10usize;
        let per_part = log.len().div_ceil(parts);
        for (part, chunk) in log.chunks(per_part).enumerate() {
            let mut counts: HashMap<Hotness, usize> = HashMap::new();
            for &page in chunk {
                *counts.entry(hotness_of(page)).or_insert(0) += 1;
            }
            let total = chunk.len().max(1) as f64;
            let share = |h: Hotness| *counts.get(&h).unwrap_or(&0) as f64 / total * 100.0;
            table.push_row(vec![
                app.to_string(),
                part.to_string(),
                fmt_unit(share(Hotness::Hot), "%"),
                fmt_unit(share(Hotness::Warm), "%"),
                fmt_unit(share(Hotness::Cold), "%"),
            ]);
        }
    }
    table
}

/// Figure 5: hot-data similarity and reused-data fraction between
/// consecutive relaunches.
#[must_use]
pub fn fig5(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 5: hot-data similarity and reuse across consecutive relaunches",
        &["app", "hot data similarity", "reused data"],
    );
    let builder = WorkloadBuilder::new(opts.seed).scale(opts.scale);
    for app in opts.reported_apps() {
        let workload = builder.build(app);
        let pairs = workload.relaunches.len().saturating_sub(1).max(1);
        let mut similarity = 0.0;
        let mut reuse = 0.0;
        for i in 0..workload.relaunches.len().saturating_sub(1) {
            similarity += workload.hot_similarity_between(i).unwrap_or(0.0);
            reuse += workload.reuse_between(i).unwrap_or(0.0);
        }
        table.push_row(vec![
            app.to_string(),
            fmt_unit(similarity / pairs as f64 * 100.0, "%"),
            fmt_unit(reuse / pairs as f64 * 100.0, "%"),
        ]);
    }
    table
}

/// Figure 6: compression latency, decompression latency and compression
/// ratio across chunk sizes from 128 B to 128 KiB, for LZ4 and LZO.
///
/// Ratios are measured by genuinely compressing synthetic anonymous data;
/// latencies report what the calibrated cost model predicts for the paper's
/// 576 MB corpus on the Pixel 7 (see [`ariadne_compress::LatencyModel`] for
/// the substitution).
#[must_use]
pub fn fig6(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Figure 6: chunk-size sweep (576 MB equivalent)",
        &["algorithm", "chunk", "CompTime", "DecompTime", "CompRatio"],
    );
    // Sample corpus: pages from several applications, interleaved. One
    // up-front allocation; pages are synthesized in place.
    let sample_pages_per_app = if opts.quick { 64 } else { 512 };
    let generator = PageDataGenerator::new(opts.seed);
    let apps = opts.reported_apps();
    let mut corpus = vec![0u8; apps.len() * sample_pages_per_app * PAGE_SIZE];
    for (app_index, app) in apps.iter().enumerate() {
        let profile = app.profile();
        for pfn in 0..sample_pages_per_app {
            let page = PageId::new(
                ariadne_mem::AppId::new(app.uid()),
                ariadne_mem::Pfn::new(pfn as u64),
            );
            let at = (app_index * sample_pages_per_app + pfn) * PAGE_SIZE;
            let buf: &mut [u8; PAGE_SIZE] = (&mut corpus[at..at + PAGE_SIZE])
                .try_into()
                .expect("page-sized slice");
            generator.fill_page_bytes(&profile, page, buf);
        }
    }

    let model = LatencyModel::pixel7();
    let full_corpus_bytes = 576 * 1024 * 1024usize;
    let sweep = if opts.quick {
        vec![
            ChunkSize::new(128).unwrap(),
            ChunkSize::k4(),
            ChunkSize::k128(),
        ]
    } else {
        ChunkSize::figure6_sweep()
    };
    // Every (algorithm × chunk) pair is an independent sweep point over the
    // shared read-only corpus, so the pairs run on the work-stealing cell
    // runner. Each worker thread reuses one scratch arena across all the
    // points it claims (the 128 B sweep alone is ~80k chunks), and the
    // size-only entry point skips building a CompressedImage. Rows merge in
    // pair order, so the table is byte-identical to the serial sweep.
    let pairs: Vec<(Algorithm, ChunkSize)> = [Algorithm::Lz4, Algorithm::Lzo]
        .into_iter()
        .flat_map(|algorithm| sweep.iter().map(move |&chunk| (algorithm, chunk)))
        .collect();
    let corpus = &corpus;
    let model = &model;
    let rows = super::runner::run_cells(pairs, |(algorithm, chunk)| {
        thread_local! {
            static SWEEP_SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let lens = SWEEP_SCRATCH.with(|scratch| {
            let codec = ChunkedCodec::new(algorithm, chunk);
            codec
                .compressed_len_only(corpus, &mut scratch.borrow_mut())
                .expect("compression cannot fail")
        });
        let ratio = CompressionRatio::from_sizes(lens.original_len, lens.compressed_len).value();
        let comp = model.compression_cost(algorithm, chunk, full_corpus_bytes);
        let decomp = model.decompression_cost(algorithm, chunk, full_corpus_bytes);
        vec![
            algorithm.to_string(),
            chunk.to_string(),
            fmt_unit(comp.as_secs_f64(), "s"),
            fmt_unit(decomp.as_secs_f64(), "s"),
            fmt_unit(ratio, "x"),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Table 3: probability of accessing two or four consecutive zpool pages
/// while swapping in during a relaunch (measured on the ZRAM baseline's
/// swap-in sector trace).
#[must_use]
pub fn table3(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Table 3: probability of consecutive zpool accesses during relaunch",
        &["app", "2 consecutive", "4 consecutive"],
    );
    for app in opts.reported_apps() {
        let mut system = logged_zram(opts);
        system.run_timed(&TimedScenario::relaunch_study(app));
        let trace = zram(&system).swapin_sectors();
        let p2 = measure_consecutive_probability(trace, 2);
        let p4 = measure_consecutive_probability(trace, 4);
        table.push_row(vec![
            app.to_string(),
            format!("{p2:.2}"),
            format!("{p4:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExperimentOptions {
        ExperimentOptions::quick()
    }

    #[test]
    fn table1_reproduces_the_published_volumes_within_scaling_error() {
        let table = table1(&ExperimentOptions {
            scale: 64,
            ..ExperimentOptions::quick()
        });
        assert_eq!(table.row_count(), 5);
        let youtube = table.row_by_key("Youtube").unwrap().to_vec();
        let at_5min: f64 = youtube[2].parse().unwrap();
        assert!((at_5min - 358.0).abs() < 20.0, "5min volume {at_5min}");
    }

    #[test]
    fn fig5_matches_the_papers_averages() {
        let table = fig5(&opts());
        assert!(table.row_count() >= 2);
        for row in table.rows() {
            let similarity = row[1].trim_end_matches('%').parse::<f64>().unwrap();
            let reuse = row[2].trim_end_matches('%').parse::<f64>().unwrap();
            assert!(similarity > 50.0 && similarity < 90.0);
            assert!(reuse > 90.0);
        }
    }

    #[test]
    fn fig6_shows_the_latency_ratio_tradeoff() {
        let table = fig6(&opts());
        // First row is LZ4 at 128 B, last LZO at 128 KiB.
        let small_ratio = table.cell_f64(0, 4).unwrap();
        let rows = table.row_count();
        let large_ratio = table.cell_f64(rows - 1, 4).unwrap();
        assert!(large_ratio > small_ratio, "{large_ratio} vs {small_ratio}");
        let small_time = table.cell_f64(0, 2).unwrap();
        let large_time = table.cell_f64(rows / 2 - 1, 2).unwrap(); // LZ4 at 128K
        assert!(large_time > 20.0 * small_time);
    }

    #[test]
    fn fig4_and_table3_run_on_the_zram_baseline() {
        let table4 = fig4(&opts());
        assert!(table4.row_count() >= 10, "expected at least one decile set");
        let table3 = table3(&opts());
        assert_eq!(table3.row_count(), opts().reported_apps().len());
        for row in table3.rows() {
            let p2: f64 = row[1].parse().unwrap();
            let p4: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&p2));
            assert!(p4 <= p2 + 1e-9);
        }
    }
}
