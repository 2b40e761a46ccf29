//! Property-based tests on the virtual timeline and the performance
//! model: scheduling invariants that every backend implicitly relies on.

use proptest::prelude::*;

use gpu_model::perf::{kernel_time, occupancy_factor, wave_utilization, LaunchProfile};
use gpu_model::specs::DeviceSpec;
use gpu_model::timeline::{StreamId, Timeline};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Items on one stream never overlap and preserve FIFO order.
    #[test]
    fn single_stream_is_fifo_and_non_overlapping(durations in prop::collection::vec(0.0f64..1e4, 1..50)) {
        let mut tl = Timeline::new();
        let mut last_end = 0.0;
        for d in durations {
            let (s, e) = tl.schedule(StreamId::DEFAULT, d).unwrap();
            prop_assert!(s >= last_end - 1e-9);
            prop_assert!((e - s - d).abs() < 1e-9);
            last_end = e;
        }
        prop_assert!((tl.synchronize() - last_end).abs() < 1e-9);
    }

    /// The device makespan equals the max over per-stream busy spans when
    /// streams are independent.
    #[test]
    fn independent_streams_overlap_fully(
        a in prop::collection::vec(0.0f64..1e3, 1..20),
        b in prop::collection::vec(0.0f64..1e3, 1..20),
    ) {
        let mut tl = Timeline::new();
        let s2 = tl.create_stream();
        for &d in &a { tl.schedule(StreamId::DEFAULT, d).unwrap(); }
        for &d in &b { tl.schedule(s2, d).unwrap(); }
        let total_a: f64 = a.iter().sum();
        let total_b: f64 = b.iter().sum();
        prop_assert!((tl.synchronize() - total_a.max(total_b)).abs() < 1e-6);
    }

    /// Kernel time is monotone in both bytes and flops, and never less
    /// than the launch latency.
    #[test]
    fn kernel_time_is_monotone(
        bytes in 0.0f64..1e12,
        flops in 0.0f64..1e14,
        extra in 1.0f64..3.0,
        tpb in prop::sample::select(vec![32u32, 64, 128, 256]),
        blocks in 1u64..1_000_000,
    ) {
        for spec in [DeviceSpec::a100(), DeviceSpec::mi250x_gcd(), DeviceSpec::epyc_trento()] {
            if tpb > spec.max_threads_per_block { continue; }
            let p = LaunchProfile { bytes, flops, blocks, threads_per_block: tpb, double_precision: false };
            let t = kernel_time(&spec, &p);
            prop_assert!(t >= spec.launch_latency_us * 1e-6 - 1e-15);
            let t_more_bytes = kernel_time(&spec, &LaunchProfile { bytes: bytes * extra, ..p });
            let t_more_flops = kernel_time(&spec, &LaunchProfile { flops: flops * extra, ..p });
            prop_assert!(t_more_bytes + 1e-15 >= t);
            prop_assert!(t_more_flops + 1e-15 >= t);
        }
    }

    /// Wavefront utilization is in (0, 1] and 1 at multiples of the width.
    #[test]
    fn utilization_bounds(tpb in 1u32..2048, width in prop::sample::select(vec![8u32, 32, 64])) {
        let u = wave_utilization(tpb, width);
        prop_assert!(u > 0.0 && u <= 1.0);
        if tpb % width == 0 {
            prop_assert!((u - 1.0).abs() < 1e-12);
        }
    }

    /// Occupancy is in (0, 1] and non-decreasing in block count.
    #[test]
    fn occupancy_bounds(blocks in 1u64..10_000_000) {
        let spec = DeviceSpec::mi250x_gcd();
        let o = occupancy_factor(&spec, blocks);
        prop_assert!(o > 0.0 && o <= 1.0);
        prop_assert!(occupancy_factor(&spec, blocks + 1) + 1e-15 >= o);
    }
}

#[test]
fn double_precision_never_faster_for_same_work() {
    for spec in [DeviceSpec::a100(), DeviceSpec::mi250x_gcd(), DeviceSpec::epyc_trento()] {
        let p = LaunchProfile {
            bytes: 1e9,
            flops: 1e11,
            blocks: 1 << 20,
            threads_per_block: 64,
            double_precision: false,
        };
        let sp = kernel_time(&spec, &p);
        let dp = kernel_time(&spec, &LaunchProfile { double_precision: true, ..p });
        assert!(dp + 1e-15 >= sp, "{}", spec.name);
    }
}
