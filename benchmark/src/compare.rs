//! `compare A B`: the verdict on two run-sets — two sets of runs of one
//! commit (is the benchmark steady?) or a parent's against a change's (did
//! anything get worse?).
//!
//! Per workload, one row per end-to-end metric with both medians and
//! quartiles over the sets' runs, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not regressed, but a set's quartiles lie further apart
//!   than the bound and the two sets' runs overlap, so "no change" would
//!   be a guess;
//! * `ok` — otherwise.
//!
//! Values that must repeat exactly (counts, MACs, bytes, simulated seconds,
//! accuracies) are compared between runs of the same workload and seed.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{summarize, Summary};
use seaice_obs::json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worsening(better: Better, a_median: f64, b_median: f64) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a_median - b_median) / a_median.abs(),
        Better::Lower => (b_median - a_median) / a_median.abs(),
    }
}

/// True when the two sets' ranges share no value at all.
fn disjoint(a: &Summary, b: &Summary) -> bool {
    a.max < b.min || b.max < a.min
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    if worsening(metric.better, sa.median, sb.median) > metric.bound {
        return Verdict::Regressed;
    }
    let wide = sa.spread() > metric.bound || sb.spread() > metric.bound;
    if wide && !disjoint(&sa, &sb) {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

type Key = (String, u64);

struct RunSet {
    /// workload → metric → one value per untraced run, in file order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) of untraced runs → exact name → value.
    exact: BTreeMap<Key, BTreeMap<String, f64>>,
    incorrect: usize,
}

fn index(runs: &[Value]) -> RunSet {
    let mut set = RunSet {
        values: BTreeMap::new(),
        exact: BTreeMap::new(),
        incorrect: 0,
    };
    for run in runs {
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        if run.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for (name, m) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
        let seed = run.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let exact = set.exact.entry((workload.to_string(), seed)).or_default();
        for (name, v) in run.get("exact").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(v) = v.as_f64() {
                exact.insert(name.clone(), v);
            }
        }
    }
    set
}

/// The comparison table and whether anything in it fails the comparison
/// (a regression, an exact value that moved, or an incorrect run).
pub fn compare(a_runs: &[Value], b_runs: &[Value]) -> (String, bool) {
    let (a, b) = (index(a_runs), index(b_runs));
    let mut failed = a.incorrect + b.incorrect > 0;
    let mut out = format!(
        "{:<18} {:<12} {:>3} {:>12} {:>12} {:>12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "nA",
        "A q1",
        "A median",
        "A q3",
        "nB",
        "B q1",
        "B median",
        "B q3",
        "worse %",
        "bound",
        "verdict"
    );
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue;
            };
            let (sa, sb) = (summarize(va), summarize(vb));
            let v = verdict(metric, va, vb);
            failed |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{:<18} {:<12} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>8.2} {:>6.0}  {}\n",
                workload,
                metric.name,
                sa.n,
                sa.q1,
                sa.median,
                sa.q3,
                sb.n,
                sb.q1,
                sb.median,
                sb.q3,
                worsening(metric.better, sa.median, sb.median) * 100.0,
                metric.bound * 100.0,
                v.as_str()
            ));
        }
    }
    let mut pairs = 0usize;
    for (key, ea) in &a.exact {
        let Some(eb) = b.exact.get(key) else { continue };
        pairs += 1;
        for (name, va) in ea {
            match eb.get(name) {
                Some(vb) if vb.to_bits() == va.to_bits() => {}
                other => {
                    failed = true;
                    out.push_str(&format!(
                        "exact value moved: {} seed {} {name}: {va} -> {other:?}\n",
                        key.0, key.1
                    ));
                }
            }
        }
    }
    out.push_str(&format!(
        "exact values: {pairs} (workload, seed) pairs present in both sets compared\n"
    ));
    if a.incorrect + b.incorrect > 0 {
        out.push_str(&format!(
            "incorrect runs: {} in A, {} in B\n",
            a.incorrect, b.incorrect
        ));
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throughput that may worsen by a tenth.
    const TILES: EndToEnd = EndToEnd {
        name: "tiles_per_s",
        unit: "tiles/s",
        better: Better::Higher,
        bound: 0.10,
    };

    /// A set-up time that may worsen by 15 %.
    const SETUP: EndToEnd = EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    };

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn tight_sets_within_the_bound_are_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [97.0, 98.0, 96.5, 97.5, 98.5];
        assert_eq!(verdict(&TILES, &a, &b), Verdict::Ok);
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [88.0, 89.0, 87.0, 88.5, 87.5];
        assert_eq!(verdict(&TILES, &a, &b), Verdict::Regressed);
        // setup_s is lower-better: 20 % slower is past its 15 % bound.
        assert_eq!(
            verdict(&SETUP, &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&SETUP, &[1.0, 1.0, 1.0], &[0.8, 0.8, 0.8]),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_sets_are_unresolved_while_their_runs_overlap() {
        let a = [100.0, 80.0, 120.0, 90.0, 110.0];
        let b = [98.0, 79.0, 118.0, 88.0, 111.0];
        assert_eq!(verdict(&TILES, &a, &b), Verdict::Unresolved);
        // Just as wide, but no run of B reads like any run of A.
        let b_better = [200.0, 160.0, 240.0, 180.0, 220.0];
        assert_eq!(verdict(&TILES, &a, &b_better), Verdict::Ok);
    }

    fn run(workload: &str, seed: u64, tiles_per_s: f64, exact_tiles: f64) -> Value {
        let text = format!(
            "{{\"schema\": \"seaice-benchmark/1\", \"workload\": \"{workload}\", \"seed\": {seed}, \
             \"traced\": false, \"correct\": true, \
             \"metrics\": {{\"tiles_per_s\": {{\"value\": {tiles_per_s}, \"unit\": \"tiles/s\"}}}}, \
             \"exact\": {{\"tiles\": {exact_tiles}}}}}"
        );
        seaice_obs::json::parse(&text).unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_moved_exact_values() {
        let a: Vec<Value> = (0..5)
            .map(|s| run("label_cloudy", s, 100.0 + s as f64, 32.0))
            .collect();
        let same: Vec<Value> = (0..5)
            .map(|s| run("label_cloudy", s, 99.0 + s as f64, 32.0))
            .collect();
        let (table, failed) = compare(&a, &same);
        assert!(!failed, "{table}");
        assert!(table.contains("label_cloudy"));
        assert!(table.contains(" ok"));
        assert!(table.contains("5 (workload, seed) pairs"));

        let slow: Vec<Value> = (0..5)
            .map(|s| run("label_cloudy", s, 60.0 + s as f64, 32.0))
            .collect();
        let (table, failed) = compare(&a, &slow);
        assert!(failed && table.contains("regressed"), "{table}");

        let moved: Vec<Value> = (0..5)
            .map(|s| run("label_cloudy", s, 100.0 + s as f64, 31.0))
            .collect();
        let (table, failed) = compare(&a, &moved);
        assert!(failed && table.contains("exact value moved"), "{table}");
    }
}
