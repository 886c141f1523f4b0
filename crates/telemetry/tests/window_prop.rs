//! Property test: the telemetry epoch ring merges like one flat
//! histogram while nothing has expired.

use lockbind_obs::LogLinearHistogram;
use lockbind_telemetry::WindowedHistogram;
use proptest::prelude::*;

proptest! {
    #[test]
    fn windowed_merge_equals_flat_histogram(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        // Recording across an epoch rotation (without expiry) yields
        // the same merged snapshot as one flat histogram.
        let w = WindowedHistogram::new(4);
        let flat = LogLinearHistogram::new();
        for &v in &a {
            w.record(v);
            flat.record(v);
        }
        w.rotate();
        for &v in &b {
            w.record(v);
            flat.record(v);
        }
        prop_assert_eq!(w.snapshot(), flat.snapshot());
    }
}
