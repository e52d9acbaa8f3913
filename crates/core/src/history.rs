//! The workload history (§4.4.1) and a sorted sliding window for
//! evaluating hundreds of percentile experts cheaply: each percentile is
//! one index read.

use cackle_workload::demand::percentile_of_sorted;

/// Per-second record of the maximum number of concurrently requested task
/// slots. Grows by one sample per second; strategies only ever look back,
/// never forward.
#[derive(Debug, Clone, Default)]
pub struct WorkloadHistory {
    samples: Vec<u32>,
}

impl WorkloadHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the demand sample for the next second.
    pub fn push(&mut self, demand: u32) {
        self.samples.push(demand);
    }

    /// Number of recorded seconds.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing is recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Demand at absolute second `t` (0 if unrecorded).
    pub fn at(&self, t: u64) -> u32 {
        self.samples.get(t as usize).copied().unwrap_or(0)
    }

    /// The most recent sample.
    pub fn latest(&self) -> u32 {
        self.samples.last().copied().unwrap_or(0)
    }

    /// The last `lookback` seconds (shorter if the history is young).
    pub fn window(&self, lookback: usize) -> &[u32] {
        let n = self.samples.len();
        &self.samples[n.saturating_sub(lookback)..]
    }

    /// Nearest-rank percentile over the last `lookback` seconds.
    pub fn percentile(&self, lookback: usize, pct: u8) -> u32 {
        let mut w = self.window(lookback).to_vec();
        w.sort_unstable();
        percentile_of_sorted(&w, pct)
    }

    /// Mean over the last `lookback` seconds.
    pub fn mean(&self, lookback: usize) -> f64 {
        let w = self.window(lookback);
        if w.is_empty() {
            return 0.0;
        }
        w.iter().map(|&x| x as f64).sum::<f64>() / w.len() as f64
    }

    /// All samples.
    pub fn samples(&self) -> &[u32] {
        &self.samples
    }
}

/// Maximum demand value tracked exactly by [`SlidingQuantile`]; larger
/// samples clamp to `QUANTILE_DOMAIN - 1`. The clamp is kept because the
/// experts' targets depend on it (no window percentile exceeds it), not
/// because the sorted window needs a bounded domain.
pub const QUANTILE_DOMAIN: u32 = 1 << 16;

/// A sliding-window order-statistics structure: push one sample per second,
/// read any percentile as one index into the window kept sorted. This is
/// what lets the meta-strategy evaluate 100 percentile experts per
/// lookback without re-sorting.
///
/// A push costs one binary search and one `copy_within` over the samples
/// between the evicted value and the new one; the evicted sample's slot is
/// reused, so a full window never reallocates.
#[derive(Debug, Clone)]
pub struct SlidingQuantile {
    capacity: usize,
    /// Samples in arrival order, oldest first.
    window: std::collections::VecDeque<u32>,
    /// The same samples, ascending.
    sorted: Vec<u32>,
}

impl SlidingQuantile {
    /// A window holding the last `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        SlidingQuantile {
            capacity,
            window: std::collections::VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Push the next sample, evicting the oldest when full.
    pub fn push(&mut self, v: u32) {
        let v = v.min(QUANTILE_DOMAIN - 1);
        if self.window.len() < self.capacity {
            self.window.push_back(v);
            let at = self.sorted.partition_point(|&x| x <= v);
            self.sorted.insert(at, v);
            return;
        }
        let old = self.window.pop_front().expect("full window is non-empty");
        self.window.push_back(v);
        let s = &mut self.sorted;
        if v <= old {
            // Shift the values in (v, old) right over old's first slot.
            let i = s.partition_point(|&x| x < old);
            let j = s[..i].partition_point(|&x| x <= v);
            s.copy_within(j..i, j + 1);
            s[j] = v;
        } else {
            // Shift the values in (old, v) left over old's last slot.
            let i = s.partition_point(|&x| x <= old) - 1;
            let j = i + 1 + s[i + 1..].partition_point(|&x| x < v);
            s.copy_within(i + 1..j, i);
            s[j - 1] = v;
        }
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The `k`-th smallest sample (1-based). Panics if `k` is out of range.
    pub fn kth(&self, k: usize) -> u32 {
        assert!(
            k >= 1 && k <= self.sorted.len(),
            "k={k} of {}",
            self.sorted.len()
        );
        self.sorted[k - 1]
    }

    /// Nearest-rank percentile (0–100) of the current window; 0 if empty.
    /// Matches [`percentile_of_sorted`] bit-for-bit on every `(window,
    /// pct)` pair: `pct` 0 is the minimum, not p1 — clamping 0 up to 1
    /// diverges from the true minimum once the window exceeds 100
    /// samples (rank ⌈n/100⌉ instead of rank 1).
    pub fn percentile(&self, pct: u8) -> u32 {
        if self.window.is_empty() {
            return 0;
        }
        let pct = pct.min(100) as usize;
        let rank = (pct * self.window.len()).div_ceil(100).max(1);
        self.kth(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_prng::Pcg32;

    #[test]
    fn history_window_and_percentile() {
        let mut h = WorkloadHistory::new();
        for v in [5u32, 1, 9, 3, 7] {
            h.push(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.latest(), 7);
        assert_eq!(h.window(3), &[9, 3, 7]);
        assert_eq!(h.window(100).len(), 5);
        assert_eq!(h.percentile(5, 100), 9);
        assert_eq!(h.percentile(5, 1), 1);
        assert!((h.mean(5) - 5.0).abs() < 1e-12);
        assert_eq!(h.at(2), 9);
        assert_eq!(h.at(99), 0);
    }

    #[test]
    fn sliding_quantile_matches_sorting() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut sq = SlidingQuantile::new(50);
        let mut all: Vec<u32> = Vec::new();
        for i in 0..500 {
            let v = rng.gen_range(0..1000);
            sq.push(v);
            all.push(v);
            if i % 17 == 0 {
                let start = all.len().saturating_sub(50);
                let mut w = all[start..].to_vec();
                w.sort_unstable();
                for pct in [1u8, 25, 50, 80, 99, 100] {
                    assert_eq!(
                        sq.percentile(pct),
                        percentile_of_sorted(&w, pct),
                        "pct {pct} at step {i}"
                    );
                }
            }
        }
        assert_eq!(sq.len(), 50);
    }

    /// Differential sweep between the sorted sliding window and a sorted
    /// brute force over every interesting `(window, pct)` edge: empty
    /// window, partial fill (window shorter than capacity), post-eviction
    /// steady state, capacities above 100 samples, and pct 0 / 1 / 100.
    #[test]
    fn differential_quantile_fenwick_vs_sorted() {
        let mut rng = Pcg32::seed_from_u64(41);
        for capacity in [1usize, 2, 3, 7, 50, 128, 250] {
            let mut sq = SlidingQuantile::new(capacity);
            let mut all: Vec<u32> = Vec::new();
            for pct in [0u8, 1, 50, 100] {
                assert_eq!(sq.percentile(pct), 0, "empty window, pct {pct}");
            }
            // Push past 2× capacity so both fill-up and eviction are hit.
            for step in 0..capacity * 2 + 3 {
                let v = rng.gen_range(0..300);
                sq.push(v);
                all.push(v);
                let start = all.len().saturating_sub(capacity);
                let mut w = all[start..].to_vec();
                w.sort_unstable();
                for pct in [0u8, 1, 2, 25, 49, 50, 51, 99, 100] {
                    // Independent nearest-rank reference: rank
                    // ⌈pct·n/100⌉ floored at 1, so pct 0 is the minimum.
                    let rank = (pct as usize * w.len()).div_ceil(100).max(1);
                    let expect = w[rank - 1];
                    assert_eq!(
                        sq.percentile(pct),
                        expect,
                        "window: cap {capacity} step {step} pct {pct}"
                    );
                    assert_eq!(
                        percentile_of_sorted(&w, pct),
                        expect,
                        "sorted: cap {capacity} step {step} pct {pct}"
                    );
                }
            }
        }
    }

    /// Heavy ties and clamped samples: every order statistic of the
    /// sorted window matches a brute-force sort after every push, whether
    /// the evicted sample is below, equal to or above the new one.
    #[test]
    fn sorted_window_matches_brute_force_under_ties() {
        let mut rng = Pcg32::seed_from_u64(7);
        for capacity in [1usize, 2, 5, 9, 64] {
            let mut sq = SlidingQuantile::new(capacity);
            let mut all: Vec<u32> = Vec::new();
            for _ in 0..capacity * 4 + 10 {
                let v = match rng.gen_range(0..6u32) {
                    5 => QUANTILE_DOMAIN + rng.gen_range(0..3u32),
                    small => small,
                };
                sq.push(v);
                all.push(v.min(QUANTILE_DOMAIN - 1));
                let start = all.len().saturating_sub(capacity);
                let mut w = all[start..].to_vec();
                w.sort_unstable();
                assert_eq!(sq.len(), w.len());
                for (k, &expect) in w.iter().enumerate() {
                    assert_eq!(sq.kth(k + 1), expect, "cap {capacity} k {}", k + 1);
                }
            }
        }
    }

    #[test]
    fn percentile_zero_is_the_window_minimum() {
        // Regression: pct 0 used to clamp up to p1, which on a window
        // larger than 100 samples selects rank ⌈n/100⌉ > 1 instead of
        // the minimum.
        let mut sq = SlidingQuantile::new(250);
        let mut h = WorkloadHistory::new();
        for i in 0..250u32 {
            sq.push(500 - i);
            h.push(500 - i);
        }
        assert_eq!(sq.percentile(0), 251);
        assert_eq!(h.percentile(250, 0), 251);
        // p1 over 250 samples is rank ⌈250/100⌉ = 3 — distinct from min.
        assert_eq!(sq.percentile(1), 253);
        assert_eq!(h.percentile(250, 1), 253);
    }

    #[test]
    fn warm_up_window_is_never_zero_padded() {
        // A lookback longer than the recorded history must yield only
        // real samples (a shorter window), never phantom zeros that drag
        // warm-up percentiles toward zero while the meta-strategy has
        // seen little data.
        let mut h = WorkloadHistory::new();
        assert_eq!(h.window(10), &[] as &[u32]);
        assert_eq!(h.percentile(10, 50), 0);
        h.push(8);
        h.push(6);
        assert_eq!(h.window(10), &[8, 6]);
        assert_eq!(h.window(2), &[8, 6]);
        assert_eq!(h.window(0), &[] as &[u32]);
        assert_eq!(h.percentile(10, 0), 6, "min of real samples, not 0");
        assert_eq!(h.percentile(10, 100), 8);
        assert!((h.mean(10) - 7.0).abs() < 1e-12);
        // Absolute reads: in-range exact, unrecorded seconds are 0, and
        // a huge `t` is out-of-range rather than wrapping.
        assert_eq!(h.at(0), 8);
        assert_eq!(h.at(1), 6);
        assert_eq!(h.at(2), 0);
        assert_eq!(h.at(u64::MAX), 0);
    }

    #[test]
    fn sliding_quantile_eviction() {
        let mut sq = SlidingQuantile::new(3);
        for v in [10, 20, 30, 40] {
            sq.push(v);
        }
        // 10 evicted.
        assert_eq!(sq.kth(1), 20);
        assert_eq!(sq.kth(3), 40);
        assert_eq!(sq.percentile(100), 40);
    }

    #[test]
    fn domain_clamping() {
        let mut sq = SlidingQuantile::new(2);
        sq.push(10_000_000);
        assert_eq!(sq.percentile(100), QUANTILE_DOMAIN - 1);
    }

    #[test]
    fn empty_quantile_is_zero() {
        let sq = SlidingQuantile::new(4);
        assert_eq!(sq.percentile(50), 0);
        assert!(sq.is_empty());
    }
}
