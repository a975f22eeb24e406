//! The checked-in `--scale small` fixtures CI's "Reproduce gate" compares
//! against, and the rule that keeps them re-producible: no summary holds a
//! wall-clock value.

use seaice_bench::scale::Scale;
use seaice_obs::bench::{compare_dirs, list_bench_files, Summary};
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/small")
}

const AREAS: [&str; 5] = ["chaos", "label", "mapreduce", "soak", "stream"];

#[test]
fn fixtures_are_clean_against_themselves() {
    let (checked, regs) = compare_dirs(&fixtures(), &fixtures()).expect("fixtures compare");
    assert_eq!(checked, AREAS);
    assert!(regs.is_empty(), "{:?}", regs[0].to_string());
}

#[test]
fn a_broken_determinism_claim_flags_exactly_that_metric() {
    // The fixtures with one bit-identity claim flipped 1 -> 0.
    let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for path in list_bench_files(&fixtures()).expect("list fixtures") {
        let mut s = Summary::load(&path).expect("fixture parses");
        if s.area == "stream" {
            let m = s.metrics.get_mut("deterministic_across_workers");
            m.expect("stream fixture carries the claim").value = 0.0;
        }
        s.write_to_dir(&dir).expect("write");
    }
    let (checked, regs) = compare_dirs(&dir, &fixtures()).expect("compare");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(checked, AREAS);
    let flagged: Vec<String> = regs.iter().map(|r| r.to_string()).collect();
    assert_eq!(
        regs.len(),
        1,
        "only the flipped claim may flag: {flagged:?}"
    );
    assert_eq!(regs[0].area, "stream");
    assert_eq!(regs[0].metric, "deterministic_across_workers");
    assert_eq!(regs[0].current, Some(0.0));
}

#[test]
fn area_summaries_round_trip_and_name_their_files() {
    // The summaries the reproduce targets write must parse back under the
    // common schema and name the files bench-check expects.
    let s = seaice_bench::table1::run(Scale::Small).summary();
    assert_eq!(s.file_name(), "BENCH_label.json");
    let parsed = Summary::from_json(&s.to_json()).expect("label round-trips");
    assert!(parsed.metrics.contains_key("sim_speedup_8p"));
    let wall: Vec<&String> = parsed
        .metrics
        .keys()
        .filter(|k| k.ends_with("_ms"))
        .collect();
    assert!(
        wall.is_empty(),
        "wall-clock metrics in BENCH_label: {wall:?}"
    );
}

#[test]
fn table1_and_table2_summaries_are_byte_stable_across_runs() {
    // Any wall-clock value in these summaries would differ run to run.
    let areas: [fn() -> Summary; 2] = [
        || seaice_bench::table1::run(Scale::Small).summary(),
        || seaice_bench::table2::run(Scale::Small).summary(),
    ];
    for run in areas {
        let (a, b) = (run().to_json(), run().to_json());
        assert_eq!(a, b);
    }
}
