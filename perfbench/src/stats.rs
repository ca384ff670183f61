//! Order statistics, seeded visiting orders and process measurements
//! shared by the workloads.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..100) of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples per block of [`block_percentile`]: p90 of a block then has
/// exactly [`MIN_BEYOND`] samples beyond it.
pub const BLOCK: usize = 100;

/// Percentile `p` of each of the `len / BLOCK` consecutive, equal blocks
/// `values` splits into (in arrival order; each holds at least
/// [`BLOCK`] samples), and the median over blocks, with the block count.
/// A multi-second episode of host interference then moves one block's
/// figure instead of the whole run's tail. `None` when there is no full
/// block.
pub fn block_percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let (n, blocks) = (values.len(), values.len() / BLOCK);
    let per_block: Vec<f64> =
        (0..blocks).filter_map(|b| percentile(&values[b * n / blocks..(b + 1) * n / blocks], p)).collect();
    (!per_block.is_empty()).then(|| (median(&per_block), per_block.len()))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`), or 0 when
/// the kernel does not report it.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Visiting orders drawn from a run's seed: a fresh permutation per call.
pub struct Orders(u64);

impl Orders {
    /// The order stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A permutation of `0..n`.
    pub fn next(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            order.swap(i, (self.0 % (i as u64 + 1)) as usize);
        }
        order
    }
}
