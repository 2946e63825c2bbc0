//! Property tests for the integer [`Histogram`] behind the windowed SLO
//! time-series.
//!
//! The percentile edge cases (empty, single bucket, p0/p1000) are pinned
//! because the window exporter calls them on sparse windows where
//! single-observation histograms are the common case.

use accl_sim::stats::Histogram;
use proptest::prelude::*;

fn from_values(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Percentiles are monotone in `p`, bracketed by min/max, and p1000
    /// is exactly the max. Out-of-range `p` clamps to 1000.
    #[test]
    fn percentiles_are_monotone_and_bracketed(
        vals in proptest::collection::vec(any::<u64>(), 1..128),
        p_lo in 0u64..1001,
        p_hi in 0u64..1001,
    ) {
        let h = from_values(&vals);
        let (lo, hi) = (p_lo.min(p_hi), p_lo.max(p_hi));
        let at_lo = h.percentile_permille(lo).unwrap();
        let at_hi = h.percentile_permille(hi).unwrap();
        prop_assert!(at_lo <= at_hi, "p{lo}={at_lo} > p{hi}={at_hi}");
        let min = h.min().unwrap();
        let max = h.max().unwrap();
        prop_assert!(at_lo >= min && at_hi <= max);
        prop_assert_eq!(h.percentile_permille(1000).unwrap(), max);
        prop_assert_eq!(h.percentile_permille(u64::MAX), h.percentile_permille(1000));
    }

    /// A single observation answers every percentile with itself — the
    /// sparse-window common case the SLO exporter leans on.
    #[test]
    fn single_observation_answers_every_percentile(v in any::<u64>(), p in 0u64..1001) {
        let h = from_values(&[v]);
        prop_assert_eq!(h.percentile_permille(p), Some(v));
        prop_assert_eq!(h.min(), Some(v));
        prop_assert_eq!(h.max(), Some(v));
        prop_assert_eq!(h.count(), 1);
    }

    /// Values confined to one power-of-two bucket clamp to the observed
    /// min/max, never to the bucket's theoretical bounds.
    #[test]
    fn single_bucket_percentiles_stay_within_observations(
        bucket in 1usize..64,
        offsets in proptest::collection::vec(0u64..1024, 1..32),
        p in 0u64..1001,
    ) {
        let floor = Histogram::bucket_floor(bucket);
        let width = floor; // bucket i spans [2^(i-1), 2^i)
        let vals: Vec<u64> = offsets.iter().map(|o| floor + o % width.max(1)).collect();
        let h = from_values(&vals);
        let got = h.percentile_permille(p).unwrap();
        prop_assert!(got >= h.min().unwrap() && got <= h.max().unwrap());
    }
}

#[test]
fn empty_histogram_has_no_percentiles() {
    let h = Histogram::new();
    for p in [0, 1, 500, 999, 1000, u64::MAX] {
        assert_eq!(h.percentile_permille(p), None);
    }
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.mean(), None);
    assert_eq!(h.count(), 0);
}

#[test]
fn p0_and_p1_hit_the_first_observation_rank() {
    // p=0 still ranks at least one observation (rank clamps to 1), so it
    // answers the smallest bucket's clamped ceiling, never `None`.
    let mut h = Histogram::new();
    h.observe(10);
    h.observe(1000);
    let p0 = h.percentile_permille(0).unwrap();
    let p1 = h.percentile_permille(1).unwrap();
    assert!(
        (10..1000).contains(&p0),
        "p0 ranks the first observation: {p0}"
    );
    assert_eq!(p0, p1, "rank 1 for both at this count");
    assert_eq!(h.percentile_permille(1000), Some(1000));
}
