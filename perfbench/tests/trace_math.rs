//! The arithmetic the reports rest on: self time from spans, and the
//! block median every latency percentile is reported as.

use perfbench::stats::block_quantile;
use perfbench::trace::Tracer;

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut t = Tracer::new();
    let root = t.record("request", 1, 0, 0, 100_000);
    // Overlapping children cover 10..50 µs; the last one sticks out past
    // its parent and only 90..100 µs of it counts.
    t.record("child", 1, root, 10_000, 30_000);
    t.record("child", 1, root, 20_000, 50_000);
    t.record("child", 1, root, 90_000, 120_000);
    let self_times = t.self_times_us();
    assert_eq!(self_times["request"], vec![50.0]);
    assert_eq!(self_times["child"], vec![20.0, 30.0, 30.0]);
    assert_eq!(t.durations_us("request"), vec![100.0]);
}

#[test]
fn block_median_ignores_a_spoiled_block() {
    let mut samples: Vec<f64> = (0..500).map(|i| 1.0 + f64::from(i % 100) / 100.0).collect();
    // One second of stalls: every sample of the third block is late.
    for s in &mut samples[200..300] {
        *s += 50.0;
    }
    let p99 = block_quantile(&samples, 5, 0.99).expect("five nonempty blocks");
    assert!((p99 - 1.98).abs() < 1e-12, "p99 {p99}");
    assert_eq!(block_quantile(&samples[..3], 5, 0.5), None);
}
