//! The simulated numbers `reproduce table1` and `reproduce table2` print.
//! Both come from calibrated models of the paper's hardware, fed with
//! host-independent inputs, so every value below is exact on any host:
//! a changed bit is a changed cost model.

use seaice_bench::scale::Scale;
use seaice_bench::{table1, table2};

#[test]
fn table1_simulated_speedups_are_exact_and_match_the_paper_shape() {
    let t = table1::run(Scale::Small);
    assert_eq!(t.rows.len(), 5);
    assert_eq!(t.rows[0].speedup, 1.0);
    // The 8-process row, taken on a unit serial time through the i5
    // host model: Fig. 10's saturation point.
    assert_eq!(t.rows[4].processes, 8);
    assert_eq!(t.rows[4].speedup, 4.480901962201424);
    for (row, &(procs, paper)) in t.rows.iter().zip(&table1::PAPER_SPEEDUPS) {
        assert_eq!(row.processes, procs);
        assert!(
            (row.speedup - paper).abs() / paper < 0.1,
            "{procs} procs: simulated {:.2} vs paper {paper}",
            row.speedup
        );
    }
    assert!(t.rows.windows(2).all(|w| w[1].speedup >= w[0].speedup));
    assert!(t.per_tile_secs > 0.0);
    assert!(t.render().contains("TABLE I"));
}

#[test]
fn table2_simulated_load_and_reduce_are_exact_at_both_grid_corners() {
    let t = table2::run(Scale::Small);
    assert_eq!(t.rows.len(), 9);
    let (first, last) = (&t.rows[0], &t.rows[8]);
    assert_eq!((first.executors, first.cores), (1, 1));
    assert_eq!((last.executors, last.cores), (4, 4));
    // The load bytes and the reduce task set are pinned at the paper's
    // full 4224-tile workload, so neither the scale nor the host moves
    // these: Table II's ~9-fold load and ~16-fold reduce.
    assert_eq!(first.load_secs, 107.85353142857143);
    assert_eq!(last.load_secs, 9.666071088065);
    assert_eq!(last.load_speedup, 11.157949330803243);
    assert_eq!(first.reduce_secs, 398.7248240640299);
    assert_eq!(last.reduce_secs, 25.17982406400004);
    assert_eq!(last.reduce_speedup, 15.83509174053732);
    // Map registration is a model constant and tiny.
    assert!(t.rows.iter().all(|r| r.map_secs < 1.0));
    // Every reduce row tracks the paper within 45 %. (The paper's middle
    // rows are superlinear — 4 cores gave 5.42x — which a
    // work-conserving scheduler cannot produce; its 1x1 and 4x4
    // endpoints agree with linear scaling and match tightly.)
    for (r, &(_, pr)) in t.rows.iter().zip(&table2::PAPER_LOAD_REDUCE) {
        let rel = (r.reduce_secs - pr).abs() / pr;
        assert!(
            rel < 0.45,
            "{}x{} reduce {:.1}s vs paper {pr}s",
            r.executors,
            r.cores,
            r.reduce_secs
        );
    }
}
