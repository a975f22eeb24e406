//! Property-based tests for the scheduler and the engine.

use proptest::prelude::*;
use seaice_mapreduce::simsched::{makespan, makespan_detailed, HostModel};
use seaice_mapreduce::{ClusterSpec, CostModel, Session};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn makespan_respects_lower_and_upper_bounds(
        costs in proptest::collection::vec(0.0f64..10.0, 0..60),
        slots in 1usize..12,
    ) {
        let total: f64 = costs.iter().sum();
        let longest = costs.iter().copied().fold(0.0, f64::max);
        let m = makespan(&costs, slots);
        // Lower bounds: work conservation and the critical task.
        prop_assert!(m >= total / slots as f64 - 1e-9);
        prop_assert!(m >= longest - 1e-9);
        // Upper bound: list scheduling is within (total/slots + longest).
        prop_assert!(m <= total / slots as f64 + longest + 1e-9);
        // Never worse than serial.
        prop_assert!(m <= total + 1e-9);
    }

    #[test]
    fn schedule_conserves_work(
        costs in proptest::collection::vec(0.0f64..5.0, 1..40),
        slots in 1usize..8,
    ) {
        let s = makespan_detailed(&costs, slots);
        let busy: f64 = s.slot_busy.iter().sum();
        let total: f64 = costs.iter().sum();
        prop_assert!((busy - total).abs() < 1e-9);
        prop_assert_eq!(s.assignment.len(), costs.len());
        prop_assert!(s.assignment.iter().all(|&a| a < slots));
        prop_assert!(s.slot_busy.iter().all(|&b| b <= s.makespan + 1e-9));
    }

    #[test]
    fn host_model_speedup_is_monotone_and_bounded(
        serial in 0.1f64..100.0,
        w1 in 1usize..16,
        w2 in 1usize..16,
    ) {
        let host = HostModel::paper_i5();
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let t_lo = host.parallel_time(serial, lo);
        let t_hi = host.parallel_time(serial, hi);
        prop_assert!(t_hi <= t_lo + 1e-9, "more workers never slower");
        prop_assert!(t_hi >= serial * host.serial_fraction - 1e-9, "Amdahl floor");
    }

    #[test]
    fn cost_model_load_is_monotone_in_resources(
        bytes in 1e3f64..1e10,
        e1 in 1usize..5, c1 in 1usize..5,
    ) {
        let m = CostModel::gcd_n2();
        let base = m.load_time(&ClusterSpec::new(e1, c1).unwrap(), bytes);
        let more_exec = m.load_time(&ClusterSpec::new(e1 + 1, c1).unwrap(), bytes);
        let more_cores = m.load_time(&ClusterSpec::new(e1, c1 + 1).unwrap(), bytes);
        prop_assert!(more_exec < base);
        prop_assert!(more_cores < base);
    }

    #[test]
    fn engine_map_reduce_equals_fold(
        data in proptest::collection::vec(0i64..1000, 1..200),
        e in 1usize..4, c in 1usize..4,
    ) {
        let session = Session::new(ClusterSpec::new(e, c).unwrap(), CostModel::gcd_n2());
        let (df, _) = session.read(data.clone(), 8.0);
        let (lazy, _) = df.map(&session, |x| x * 3 - 1);
        let (sum, _) = lazy.reduce(&session, |a, b| a + b);
        let expected: i64 = data.iter().map(|x| x * 3 - 1).sum();
        prop_assert_eq!(sum, Some(expected));
    }

    #[test]
    fn engine_collect_preserves_order(
        data in proptest::collection::vec(any::<u32>(), 0..150),
    ) {
        let session = Session::new(ClusterSpec::new(2, 2).unwrap(), CostModel::gcd_n2());
        let (df, _) = session.read(data.clone(), 4.0);
        let (lazy, _) = df.map(&session, |x| x);
        let (out, report) = lazy.collect(&session, 4.0);
        prop_assert_eq!(out, data.clone());
        prop_assert_eq!(report.tasks, data.len());
        prop_assert!(report.simulated_secs >= 0.0);
    }
}
