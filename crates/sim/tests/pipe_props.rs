//! Property tests for the fixed-point [`Pipe`] arithmetic.
//!
//! The load-bearing property is *segmentation neutrality*: splitting a
//! transfer into arbitrary back-to-back pieces must end at exactly the
//! instant the unsplit transfer would. POE segmentation relies on this:
//! cutting a message into MTU packets must not move its last byte on the
//! wire.

use accl_sim::pipe::Pipe;
use accl_sim::time::Time;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reserving_n_equals_two_halves_back_to_back(
        tenth_gbps in 1u64..4_000,
        n in 1u64..2_000_000,
        split_ppm in 0u64..1_000_000,
    ) {
        let gbps = tenth_gbps as f64 / 10.0;
        let k = ((n as u128 * split_ppm as u128) / 1_000_000) as u64;

        let mut whole = Pipe::gbps(gbps);
        let (ws, we) = whole.reserve(Time::ZERO, n);

        let mut halves = Pipe::gbps(gbps);
        let (hs, _) = halves.reserve(Time::ZERO, k);
        let (_, he) = halves.reserve(Time::ZERO, n - k);

        prop_assert_eq!(ws, hs);
        prop_assert_eq!(we, he, "gbps={} n={} k={}", gbps, n, k);
        prop_assert_eq!(whole.busy_time(), halves.busy_time());
        prop_assert_eq!(whole.bytes_moved(), halves.bytes_moved());
    }

    #[test]
    fn many_way_splits_are_also_exact(
        tenth_gbps in 1u64..4_000,
        n in 64u64..1_000_000,
        pieces in 2u64..64,
    ) {
        let gbps = tenth_gbps as f64 / 10.0;
        let mut whole = Pipe::gbps(gbps);
        let (_, we) = whole.reserve(Time::ZERO, n);

        let mut split = Pipe::gbps(gbps);
        let each = n / pieces;
        let mut sent = 0;
        let mut end = Time::ZERO;
        for _ in 0..pieces - 1 {
            end = split.reserve(Time::ZERO, each).1;
            sent += each;
        }
        end = end.max(split.reserve(Time::ZERO, n - sent).1);

        prop_assert_eq!(we, end, "gbps={} n={} pieces={}", gbps, n, pieces);
    }
}
