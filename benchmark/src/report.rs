//! From an [`Outcome`] to what gets printed and stored: the metric values,
//! the one-line result the driver parses, the full run record `--out`
//! appends to a run-set file, and the human-readable report.

use crate::harness::Outcome;
use crate::json::J;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::noise::Host;
use crate::spans::{render_rollup, RollupRow};
use crate::stats::{median, summarize};
use seaice_obs::json::Value;
use std::path::Path;

pub const SCHEMA: &str = "seaice-benchmark/1";

/// One reported metric.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything about one run of one workload that is not in the `Outcome`.
pub struct RunMeta<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host: &'a Host,
    /// Spans recorded (traced runs).
    pub spans: u64,
    pub rollup: &'a [RollupRow],
}

/// The metrics of this run under their declared names: every end-to-end
/// metric when tracing is off, every per-layer metric when it is on (0 for
/// a layer the workload never enters). A layer value under an undeclared
/// name is a bug in the workload and fails the run.
pub fn reported(out: &mut Outcome, meta: &RunMeta) -> Vec<Reported> {
    if !meta.traced {
        let value = |name: &str| match name {
            // Medians of host-adjusted samples: see README.md, "Noise".
            "tiles_per_s" => median(&out.tiles_per_s),
            "accuracy" => out.accuracy,
            "setup_s" => median(&out.setup_s),
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        return END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: value(m.name),
            })
            .collect();
    }
    out.layers.insert("obs.spans", meta.spans as f64);
    let undeclared: Vec<&str> = out
        .layers
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|m| m.name == **k))
        .copied()
        .collect();
    for name in undeclared {
        out.fail(format!(
            "layer metric `{name}` is not declared in metrics.rs"
        ));
    }
    PER_LAYER
        .iter()
        .map(|m| Reported {
            name: m.name,
            unit: m.unit,
            value: out.layers.get(m.name).copied().unwrap_or(0.0),
        })
        .collect()
}

fn metrics_json(metrics: &[Reported]) -> J {
    J::obj(metrics.iter().map(|m| {
        (
            m.name,
            J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
        )
    }))
}

/// The single line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(out: &Outcome, metrics: &[Reported]) -> String {
    J::obj([
        ("correct", J::Bool(out.failed == 0)),
        ("attempted", J::Num(out.attempted.max(1) as f64)),
        ("failed", J::Num(out.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn sample_json(values: &[f64]) -> J {
    let s = summarize(values);
    J::obj([
        ("n", J::Num(s.n as f64)),
        ("min", J::Num(s.min)),
        ("q1", J::Num(s.q1)),
        ("median", J::Num(s.median)),
        ("q3", J::Num(s.q3)),
        ("max", J::Num(s.max)),
        ("values", J::nums(values)),
    ])
}

/// The wall-clock value behind each host-adjusted sample: a throughput was
/// divided by its adjustment, a time multiplied by it.
fn wall_clock(adjusted: &[f64], adjust: &[f64], is_rate: bool) -> Vec<f64> {
    let undo = |(v, a): (&f64, &f64)| if is_rate { v * a } else { v / a };
    adjusted.iter().zip(adjust).map(undo).collect()
}

/// The sample sets of an untraced run, by name: the two reported ones, their
/// wall-clock twins, and the adjustments (`host_speed ^ exponent`) between.
fn sample_sets(out: &Outcome) -> Vec<(&'static str, Vec<f64>)> {
    [
        ("tiles_per_s", out.tiles_per_s.clone()),
        (
            "tiles_per_s.wall_clock",
            wall_clock(&out.tiles_per_s, &out.rep_adjust, true),
        ),
        ("tiles_per_s.host_adjust", out.rep_adjust.clone()),
        ("setup_s", out.setup_s.clone()),
        (
            "setup_s.wall_clock",
            wall_clock(&out.setup_s, &out.setup_adjust, false),
        ),
        ("setup_s.host_adjust", out.setup_adjust.clone()),
    ]
    .into_iter()
    .filter(|(_, values)| !values.is_empty())
    .collect()
}

/// The full record of a run, as stored by `--out`.
pub fn run_record(out: &Outcome, meta: &RunMeta, metrics: &[Reported]) -> J {
    let samples: Vec<_> = sample_sets(out)
        .into_iter()
        .map(|(name, values)| (name, sample_json(&values)))
        .collect();
    J::obj([
        ("schema", J::str(SCHEMA)),
        ("workload", J::str(meta.workload)),
        ("seed", J::Num(meta.seed as f64)),
        ("seconds", J::Num(meta.seconds)),
        ("traced", J::Bool(meta.traced)),
        ("correct", J::Bool(out.failed == 0)),
        ("attempted", J::Num(out.attempted as f64)),
        ("failed", J::Num(out.failed as f64)),
        (
            "failures",
            J::Arr(out.failures.iter().map(J::str).collect()),
        ),
        ("metrics", metrics_json(metrics)),
        ("samples", J::obj(samples)),
        (
            "exact",
            J::obj(out.exact.iter().map(|(k, v)| (*k, J::Num(*v)))),
        ),
        (
            "noise",
            J::obj([
                (
                    "available_parallelism",
                    J::Num(meta.host.available_parallelism as f64),
                ),
                (
                    "pinned_cpu",
                    meta.host
                        .pinned_cpu
                        .map_or(J::str("none"), |c| J::Num(c as f64)),
                ),
                ("loadavg_start", J::nums(&meta.host.loadavg)),
                ("threads", J::str(out.threads_note)),
                (
                    "phases",
                    J::Arr(
                        out.phases
                            .iter()
                            .map(|p| {
                                J::obj([
                                    ("name", J::str(p.name)),
                                    ("wall_s", J::Num(p.wall_s)),
                                    ("on_cpu_s", J::Num(p.on_cpu_s)),
                                    ("runq_wait_s", J::Num(p.runq_wait_s)),
                                    ("wait_share", J::Num(p.wait_share())),
                                    ("threads_live_max", J::Num(p.threads_live_max as f64)),
                                    ("noisy", J::Bool(p.noisy())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "rollup",
            J::Arr(
                meta.rollup
                    .iter()
                    .map(|r| {
                        J::obj([
                            ("span", J::str(r.name)),
                            ("count", J::Num(r.spans as f64)),
                            ("total_ms", J::Num(r.total_ms)),
                            ("self_ms", J::Num(r.self_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What a person reads: every metric by name with its unit, the samples
/// behind the medians, the noise record, and any failure.
pub fn human(out: &Outcome, meta: &RunMeta, metrics: &[Reported]) -> String {
    let mut s = format!(
        "== {} (seed {}, {} s, tracing {}) ==\n",
        meta.workload,
        meta.seed,
        meta.seconds,
        if meta.traced { "on" } else { "off" }
    );
    for m in metrics {
        s.push_str(&format!("{:<42} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    for (name, values) in sample_sets(out) {
        let q = summarize(&values);
        s.push_str(&format!(
            "  {name}: n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}\n",
            q.n, q.min, q.q1, q.median, q.q3, q.max
        ));
    }
    if !out.exact.is_empty() {
        let exact: Vec<String> = out.exact.iter().map(|(k, v)| format!("{k}={v}")).collect();
        s.push_str(&format!("  exact: {}\n", exact.join(" ")));
    }
    s.push_str(&format!(
        "  host: available_parallelism={} pinned to {} loadavg={:?}\n",
        meta.host.available_parallelism,
        meta.host
            .pinned_cpu
            .map_or("no CPU".to_string(), |c| format!("CPU {c}")),
        meta.host.loadavg
    ));
    if !out.threads_note.is_empty() {
        s.push_str(&format!("  threads: {}\n", out.threads_note));
    }
    for p in &out.phases {
        s.push_str(&format!(
            "  phase {}: wall {:.3} s, driving thread on-CPU {:.3} s, run-queue wait {:.4} s ({:.2} %), {} threads alive at most{}\n",
            p.name,
            p.wall_s,
            p.on_cpu_s,
            p.runq_wait_s,
            p.wait_share() * 100.0,
            p.threads_live_max,
            if p.noisy() {
                "  WARNING: noisy host, wait above 2 %"
            } else {
                ""
            }
        ));
    }
    if meta.traced {
        s.push_str(&render_rollup(meta.rollup));
    }
    s.push_str(&format!(
        "  operations: {} attempted, {} failed\n",
        out.attempted, out.failed
    ));
    for f in &out.failures {
        s.push_str(&format!("  FAILED: {f}\n"));
    }
    s
}

/// Appends `record` to the run-set at `path`, creating it if need be. A
/// run-set is what `compare` reads: one JSON object per line, one line per
/// run, so ten runs at ten seeds accumulate in one file.
pub fn append_run(path: &Path, record: &J) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", record.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The runs of a run-set document.
pub fn load_runs(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let run = seaice_obs::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if run.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
                return Err(format!("line {}: not a {SCHEMA} run record", i + 1));
            }
            Ok(run)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;

    fn host() -> Host {
        Host {
            available_parallelism: 2,
            pinned_cpu: Some(1),
            loadavg: [0.1, 0.2, 0.3],
        }
    }

    fn meta<'a>(host: &'a Host, traced: bool) -> RunMeta<'a> {
        RunMeta {
            workload: "label_cloudy",
            seed: 7,
            seconds: 1.0,
            traced,
            host,
            spans: 12,
            rollup: &[],
        }
    }

    fn outcome() -> Outcome {
        Outcome {
            setup_s: vec![0.5, 0.7, 0.6],
            tiles_per_s: vec![40.0, 42.0, 41.0],
            setup_adjust: vec![1.0, 0.5, 1.0],
            rep_adjust: vec![1.0, 0.5, 1.0],
            accuracy: 0.93,
            attempted: 96,
            ..Outcome::default()
        }
    }

    #[test]
    fn untraced_line_has_exactly_the_contract_keys_and_every_end_to_end_metric() {
        let host = host();
        let mut out = outcome();
        let m = reported(&mut out, &meta(&host, false));
        let doc = seaice_obs::json::parse(&result_line(&out, &m)).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());
        let v = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(v("tiles_per_s"), Some(41.0));
        assert_eq!(v("setup_s"), Some(0.6));
        assert_eq!(v("accuracy"), Some(0.93));
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }

    #[test]
    fn traced_line_reports_every_layer_and_rejects_undeclared_names() {
        let host = host();
        let mut out = outcome();
        out.layer("label.filter.share", 0.95);
        let m = reported(&mut out, &meta(&host, true));
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|r| r.name == n).unwrap().value;
        assert_eq!(get("label.filter.share"), 0.95);
        assert_eq!(get("obs.spans"), 12.0);
        assert_eq!(get("nn.matmul.ms_per_tile"), 0.0);
        assert_eq!(out.failed, 0);

        out.layer("label.typo", 1.0);
        reported(&mut out, &meta(&host, true));
        assert_eq!(out.failed, 1);
        let line = result_line(&out, &m);
        assert!(line.starts_with("{\"correct\": false, "));
    }

    #[test]
    fn run_sets_accumulate_runs() {
        // Next to the test executable: inside the build's target directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("seaice-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        let _ = std::fs::remove_file(&path);
        let host = host();
        for _ in 0..2 {
            let mut out = outcome();
            let meta = meta(&host, false);
            let m = reported(&mut out, &meta);
            append_run(&path, &run_record(&out, &meta, &m)).unwrap();
        }
        let runs = load_runs(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[1].get("workload").and_then(Value::as_str),
            Some("label_cloudy")
        );
        let sample = |name: &str, key: &str| {
            runs[0]
                .get("samples")
                .and_then(|s| s.get(name))
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
        };
        assert_eq!(sample("tiles_per_s", "n"), Some(3.0));
        // 42 tiles/s adjusted at half speed was 21 on the wall clock, and
        // 0.7 s adjusted at half speed was 1.4 s.
        assert_eq!(sample("tiles_per_s.wall_clock", "min"), Some(21.0));
        assert_eq!(sample("setup_s.wall_clock", "max"), Some(1.4));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_runs("{\"schema\": \"other\"}").is_err());
    }
}
