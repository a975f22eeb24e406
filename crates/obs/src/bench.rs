//! The machine-readable summaries: each summarising `reproduce` area
//! writes a `BENCH_<area>.json` in one common schema, and the comparator
//! diffs a current set of summaries against checked-in baselines,
//! flagging metrics that moved beyond their per-metric tolerance in the
//! *bad* direction (regressions only — improvements always pass).
//!
//! Schema (`seaice-bench/1`):
//!
//! ```json
//! {
//!   "schema": "seaice-bench/1",
//!   "area": "stream",
//!   "metrics": {
//!     "sim_makespan_secs": {
//!       "value": 16, "unit": "s",
//!       "higher_is_better": false, "tolerance": 0.05
//!     }
//!   }
//! }
//! ```
//!
//! Tolerances are relative: a metric regresses when it crosses
//! `tolerance * max(|baseline|, 1)` past the baseline in its bad
//! direction. Simulated costs carry tight tolerances, seeded counts loose
//! ones; exactness claims like `bit_identical` carry tolerance 0 and must
//! not move at all.

use crate::json::{escape, fmt_f64, parse, Obj};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The schema tag every summary carries.
pub const SCHEMA: &str = "seaice-bench/1";

/// One benchmark metric: a value plus the metadata the comparator needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Human-readable unit (`"req/s"`, `"ms"`, `"x"`, `"bool"`).
    pub unit: String,
    /// Which direction is good.
    pub higher_is_better: bool,
    /// Relative tolerance before a bad-direction move counts as a
    /// regression (0 = must not move at all).
    pub tolerance: f64,
}

/// A complete `BENCH_<area>.json` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// The reproduce area (`"label"`, `"mapreduce"`, `"chaos"`, ...).
    pub area: String,
    /// Metrics by name, deterministically ordered.
    pub metrics: BTreeMap<String, Metric>,
}

impl Summary {
    /// An empty summary for `area`.
    pub fn new(area: &str) -> Self {
        Summary {
            area: area.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a metric (builder style).
    pub fn metric(
        mut self,
        name: &str,
        value: f64,
        unit: &str,
        higher_is_better: bool,
        tolerance: f64,
    ) -> Self {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                higher_is_better,
                tolerance,
            },
        );
        self
    }

    /// The canonical file name: `BENCH_<area>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.area)
    }

    /// Renders the summary as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", escape(SCHEMA));
        let _ = writeln!(s, "  \"area\": \"{}\",", escape(&self.area));
        s.push_str("  \"metrics\": {");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"higher_is_better\": {}, \"tolerance\": {}}}",
                escape(name),
                fmt_f64(m.value),
                escape(&m.unit),
                m.higher_is_better,
                fmt_f64(m.tolerance)
            );
        }
        if !self.metrics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// Parses a summary, rejecting unknown schemas and shape errors.
    pub fn from_json(src: &str) -> Result<Summary, String> {
        let doc = parse(src)?;
        let root = Obj::root(&doc)?;
        let schema = root.str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let members = root.obj("metrics")?;
        let mut metrics = BTreeMap::new();
        for name in members.keys() {
            let m = members.obj(name)?;
            let metric = Metric {
                value: m.f64("value")?,
                unit: m.str("unit").unwrap_or("").to_string(),
                higher_is_better: m.bool("higher_is_better")?,
                tolerance: m.f64("tolerance")?,
            };
            metrics.insert(name.to_string(), metric);
        }
        Ok(Summary {
            area: root.str("area")?.to_string(),
            metrics,
        })
    }

    /// Writes `BENCH_<area>.json` into `dir`, returning the path. Errors
    /// are strings ready for stderr (the graceful path `reproduce` uses
    /// instead of panicking).
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(self.file_name());
        // Atomic (temp + fsync + rename) but unframed: BENCH files stay
        // plain JSON for every external consumer.
        let ctx = crate::durable::DurableCtx::disabled();
        let key = crate::durable::path_key(&path);
        crate::durable::write_atomic(&path, self.to_json().as_bytes(), &ctx, key)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads a summary from `path`.
    pub fn load(path: &Path) -> Result<Summary, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Summary::from_json(&src).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One flagged regression from [`compare`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// The area the metric belongs to.
    pub area: String,
    /// The metric name.
    pub metric: String,
    /// Baseline value (`None` when the metric vanished).
    pub baseline: f64,
    /// Current value (`None` renders as "missing").
    pub current: Option<f64>,
    /// The absolute slack the tolerance allowed.
    pub allowed: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.current {
            Some(cur) => write!(
                f,
                "{}/{}: {} -> {} (allowed slack {})",
                self.area,
                self.metric,
                fmt_f64(self.baseline),
                fmt_f64(cur),
                fmt_f64(self.allowed)
            ),
            None => write!(
                f,
                "{}/{}: baseline {} but the metric is missing from the current run",
                self.area,
                self.metric,
                fmt_f64(self.baseline)
            ),
        }
    }
}

/// Diffs `current` against `baseline`: every baseline metric must still
/// exist and must not have moved beyond its tolerance in the bad
/// direction. Metrics new in `current` are fine (the next baseline
/// refresh picks them up).
pub fn compare(baseline: &Summary, current: &Summary) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, base) in &baseline.metrics {
        let allowed = base.tolerance * base.value.abs().max(1.0);
        match current.metrics.get(name) {
            None => out.push(Regression {
                area: baseline.area.clone(),
                metric: name.clone(),
                baseline: base.value,
                current: None,
                allowed,
            }),
            Some(cur) => {
                let regressed = if base.higher_is_better {
                    cur.value < base.value - allowed
                } else {
                    cur.value > base.value + allowed
                };
                if regressed {
                    out.push(Regression {
                        area: baseline.area.clone(),
                        metric: name.clone(),
                        baseline: base.value,
                        current: Some(cur.value),
                        allowed,
                    });
                }
            }
        }
    }
    out
}

/// Lists the `BENCH_*.json` files directly inside `dir`, sorted by name.
pub fn list_bench_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Compares every baseline `BENCH_*.json` in `baseline_dir` against its
/// counterpart in `current_dir`. Returns the checked areas and the
/// regressions. A baseline file with no current counterpart is itself a
/// regression (the area stopped reporting).
pub fn compare_dirs(
    current_dir: &Path,
    baseline_dir: &Path,
) -> Result<(Vec<String>, Vec<Regression>), String> {
    let baselines = list_bench_files(baseline_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {} (run `reproduce all` first)",
            baseline_dir.display()
        ));
    }
    let mut checked = Vec::new();
    let mut regressions = Vec::new();
    for path in baselines {
        let base = Summary::load(&path)?;
        let file = base.file_name();
        let current_path = current_dir.join(&file);
        if !current_path.exists() {
            regressions.push(Regression {
                area: base.area.clone(),
                metric: "<file>".to_string(),
                baseline: base.metrics.len() as f64,
                current: None,
                allowed: 0.0,
            });
            checked.push(base.area);
            continue;
        }
        let current = Summary::load(&current_path)?;
        regressions.extend(compare(&base, &current));
        checked.push(base.area);
    }
    Ok((checked, regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_summary(p99: f64, rps: f64) -> Summary {
        Summary::new("serve")
            .metric("p99_ms", p99, "ms", false, 0.5)
            .metric("throughput_rps", rps, "req/s", true, 0.5)
            .metric("bit_identical", 1.0, "bool", true, 0.0)
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = serve_summary(12.5, 800.0);
        let parsed = Summary::from_json(&s.to_json()).expect("round-trips");
        assert_eq!(parsed, s);
        assert_eq!(parsed.file_name(), "BENCH_serve.json");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        assert!(Summary::from_json("{}").is_err());
        assert!(
            Summary::from_json(r#"{"schema": "other/9", "area": "x", "metrics": {}}"#)
                .expect_err("schema")
                .contains("unsupported schema")
        );
        let no_tol = r#"{"schema": "seaice-bench/1", "area": "x",
            "metrics": {"m": {"value": 1, "higher_is_better": true}}}"#;
        assert!(Summary::from_json(no_tol)
            .expect_err("tolerance")
            .contains("tolerance"));
    }

    #[test]
    fn within_tolerance_and_improvements_pass() {
        let base = serve_summary(10.0, 800.0);
        // 1.4x latency is inside the 0.5 tolerance; throughput improved.
        assert!(compare(&base, &serve_summary(14.0, 1600.0)).is_empty());
        // A huge latency *improvement* is fine too.
        assert!(compare(&base, &serve_summary(0.1, 800.0)).is_empty());
    }

    #[test]
    fn doubled_latency_is_flagged() {
        let base = serve_summary(10.0, 800.0);
        let regs = compare(&base, &serve_summary(20.0, 800.0));
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "p99_ms");
        assert!(regs[0].to_string().contains("p99_ms"));
    }

    #[test]
    fn zero_tolerance_metrics_must_not_move() {
        let base = serve_summary(10.0, 800.0);
        let mut broken = serve_summary(10.0, 800.0);
        if let Some(m) = broken.metrics.get_mut("bit_identical") {
            m.value = 0.0;
        }
        let regs = compare(&base, &broken);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "bit_identical");
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let base = serve_summary(10.0, 800.0);
        let mut gutted = serve_summary(10.0, 800.0);
        gutted.metrics.remove("throughput_rps");
        let regs = compare(&base, &gutted);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].current.is_none());
    }

    #[test]
    fn compare_dirs_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("obs_bench_{}", std::process::id()));
        let base_dir = dir.join("base");
        let cur_dir = dir.join("cur");
        std::fs::create_dir_all(&base_dir).expect("mkdir");
        std::fs::create_dir_all(&cur_dir).expect("mkdir");
        serve_summary(10.0, 800.0)
            .write_to_dir(&base_dir)
            .expect("write baseline");
        serve_summary(25.0, 800.0)
            .write_to_dir(&cur_dir)
            .expect("write current");
        let (checked, regs) = compare_dirs(&cur_dir, &base_dir).expect("compare");
        assert_eq!(checked, vec!["serve".to_string()]);
        assert_eq!(regs.len(), 1);
        // Same dir against itself: trivially clean.
        let (_, regs) = compare_dirs(&base_dir, &base_dir).expect("compare");
        assert!(regs.is_empty());
        // Empty baseline dir: a hard error, not a silent pass.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).expect("mkdir");
        assert!(compare_dirs(&cur_dir, &empty).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
