//! The benchmark's own arithmetic: order statistics, the paper-gap
//! formulas, the output digest and the `VmHWM` parse. Everything here is a
//! pure function so the self-tests below can pin it.

use ariadne_sim::Table;

/// The scheme the paper's headline numbers compare against.
pub const BASELINE: &str = "ZRAM";
/// The Ariadne configuration the paper's headline numbers report.
pub const ARIADNE_EHL: &str = "Ariadne-EHL-1K-2K-16K";
/// The paper's relaunch-latency reduction versus ZRAM, in percent.
pub const PAPER_RELAUNCH_REDUCTION_PCT: f64 = 50.0;
/// The paper's compression/decompression CPU reduction versus ZRAM, in
/// percent.
pub const PAPER_CPU_REDUCTION_PCT: f64 = 15.0;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile together with the number of samples it was
/// taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p / 100 · n)`.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; `None`
/// when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// `|(1 − ariadne ÷ zram) · 100 − paper_pct|`: how many percentage points
/// the simulated reduction misses the paper's reported reduction by.
pub fn paper_gap_pp(ariadne: f64, zram: f64, paper_pct: f64) -> f64 {
    ((1.0 - ariadne / zram) * 100.0 - paper_pct).abs()
}

/// The mean of the numeric cells in the column headed `header` (unit
/// suffixes such as `ms` are ignored); `None` if the column is missing or
/// holds no number.
pub fn column_mean(table: &Table, header: &str) -> Option<f64> {
    let column = table.headers().iter().position(|h| h == header)?;
    let values: Vec<f64> = (0..table.row_count())
        .filter_map(|row| table.cell_f64(row, column))
        .collect();
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// The gap of a wide per-app table (Figure 10 latencies, Figure 11
/// normalized CPU): mean of the Ariadne-EHL column over mean of the ZRAM
/// column, against the paper's reduction `paper_pct`.
pub fn table_gap_pp(table: &Table, paper_pct: f64) -> Option<f64> {
    let ariadne = column_mean(table, ARIADNE_EHL)?;
    let zram = column_mean(table, BASELINE)?;
    Some(paper_gap_pp(ariadne, zram, paper_pct))
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (the `VmHWM:` line, reported by the kernel in kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// A 64-bit FNV-1a digest: stable across processes, builds and toolchains,
/// unlike the standard library's hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Fold a string and a terminator into the digest.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    /// Fold an integer into the digest.
    pub fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_use_nearest_rank_and_report_sample_counts() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&values, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples), (500.0, 1000));
        // Ten of the thousand samples lie above the p99.
        let p99 = percentile(&values, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        // A single sample is every percentile.
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.samples), (7.0, 1));
        // Unsorted input and the p100 edge.
        let max = percentile(&[5.0, 9.0, 1.0], 100.0).unwrap();
        assert_eq!(max.value, 9.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    fn wide_table(title: &str, rows: &[[&str; 4]]) -> Table {
        let mut table = Table::new(
            title,
            &["app", BASELINE, "Ariadne-AL-1K-2K-16K", ARIADNE_EHL],
        );
        for row in rows {
            table.push_row(row.iter().map(|c| (*c).to_string()).collect());
        }
        table
    }

    #[test]
    fn relaunch_gap_from_a_hand_built_figure_10() {
        // ZRAM mean 100 ms, EHL mean 40 ms: a 60 % reduction, 10 pp off the
        // paper's 50 %.
        let fig10 = wide_table(
            "Figure 10: application relaunch latency (ms)",
            &[
                ["Youtube", "120.00ms", "70.00ms", "50.00ms"],
                ["BangDream", "80.00ms", "60.00ms", "30.00ms"],
            ],
        );
        let gap = table_gap_pp(&fig10, PAPER_RELAUNCH_REDUCTION_PCT).unwrap();
        assert!((gap - 10.0).abs() < 1e-9, "gap {gap}");
        // Exactly the paper's reduction is a zero gap; missing it from
        // either side is a positive gap.
        assert!(paper_gap_pp(50.0, 100.0, 50.0).abs() < 1e-12);
        assert!((paper_gap_pp(70.0, 100.0, 50.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_gap_from_a_hand_built_figure_11() {
        // Normalized to ZRAM (1.00): EHL averages 0.75, a 25 % reduction,
        // 10 pp above the paper's 15 %.
        let fig11 = wide_table(
            "Figure 11: compression+decompression CPU usage (normalized to ZRAM)",
            &[
                ["Youtube", "1.00", "0.90", "0.70"],
                ["BangDream", "1.00", "0.95", "0.80"],
            ],
        );
        let gap = table_gap_pp(&fig11, PAPER_CPU_REDUCTION_PCT).unwrap();
        assert!((gap - 10.0).abs() < 1e-9, "gap {gap}");
        assert_eq!(column_mean(&fig11, "DRAM"), None);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(10.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 9000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        // The live process always has a positive high-water mark.
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
