//! Spans recorded from outside the library: one per call into a layer's
//! public function, named after the layer metric it feeds, linked to the
//! span that caused it and tagged with the id of the tile / scene / step it
//! belongs to.
//!
//! Every span goes to `seaice_obs::trace` (so the run leaves a Chrome trace
//! that `validate_chrome_trace` accepts) and into a local tree from which
//! the self-time roll-up is computed at nanosecond resolution: a span's
//! self time is its duration minus the part its child spans cover.
//!
//! `obs::trace::enable()` is process-wide and one-way, and library
//! components capture their tracer when they are built. A recorder
//! therefore starts by buffering its events and only turns the process
//! tracer on at [`Spans::enable_obs`] — after the workload has taken its
//! untraced reference timing — flushing what it buffered.
//!
//! All recording happens on the thread that walks the workload; a
//! [`Spans::disabled`] recorder costs one branch per call.

use seaice_obs::trace::{self, Clock, Tracer, WallClock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: &'static str,
    dur_ns: u64,
    child_ns: u64,
}

/// An event waiting for the process tracer to be switched on.
struct Pending {
    name: &'static str,
    id: u64,
    parent: Option<&'static str>,
    start_us: u64,
    dur_us: u64,
}

fn emit(tracer: &Tracer, ev: &Pending) {
    let id = ev.id.to_string();
    let mut args = vec![("id", id.as_str())];
    if let Some(p) = ev.parent {
        args.push(("parent", p));
    }
    tracer.complete_with_args(ev.name, "layer", ev.start_us, ev.dur_us, &args);
}

struct Inner {
    tracer: Option<Tracer>,
    pending: Vec<Pending>,
    recs: Vec<Rec>,
    /// Indices into `recs` of the open spans, innermost last.
    stack: Vec<usize>,
}

/// Per-name totals over every recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct RollupRow {
    pub name: &'static str,
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Spans {
    inner: Option<RefCell<Inner>>,
}

impl Spans {
    /// A recorder that records nothing (the untraced runs).
    pub fn disabled() -> Self {
        Spans { inner: None }
    }

    /// Records from here on (the traced runs).
    pub fn recording() -> Self {
        Spans {
            inner: Some(RefCell::new(Inner {
                tracer: None,
                pending: Vec::new(),
                recs: Vec::new(),
                stack: Vec::new(),
            })),
        }
    }

    /// Turns the process-wide tracer on (idempotent) and hands it every
    /// span recorded so far. Library components built after this call (the
    /// serve engine, the stream scheduler) add their own events to the
    /// same trace.
    pub fn enable_obs(&self) {
        let Some(cell) = &self.inner else { return };
        let mut inner = cell.borrow_mut();
        if inner.tracer.is_some() {
            return;
        }
        trace::enable();
        let tracer = trace::tracer();
        for ev in inner.pending.drain(..) {
            emit(&tracer, &ev);
        }
        inner.tracer = Some(tracer);
    }

    /// The whole process trace as Chrome `trace_event` JSON.
    pub fn export_chrome_json(&self) -> String {
        self.enable_obs();
        trace::export_chrome_json()
    }

    /// Runs `f` inside a span called `name` for item `id`.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let Some(cell) = &self.inner else {
            return f();
        };
        let (index, parent) = {
            let mut inner = cell.borrow_mut();
            let parent = inner.stack.last().map(|&p| inner.recs[p].name);
            let index = inner.recs.len();
            inner.recs.push(Rec {
                name,
                dur_ns: 0,
                child_ns: 0,
            });
            inner.stack.push(index);
            (index, parent)
        };
        let start_us = WallClock.now_us();
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

        let mut inner = cell.borrow_mut();
        inner.stack.pop();
        inner.recs[index].dur_ns = dur_ns;
        if let Some(&p) = inner.stack.last() {
            inner.recs[p].child_ns += dur_ns;
        }
        let ev = Pending {
            name,
            id,
            parent,
            start_us,
            dur_us: dur_ns / 1000,
        };
        match &inner.tracer {
            Some(tracer) => emit(tracer, &ev),
            None => inner.pending.push(ev),
        }
        out
    }

    /// Spans recorded so far.
    pub fn count(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |c| c.borrow().recs.len() as u64)
    }

    /// Summed self time, in milliseconds, of the spans opened since `mark`
    /// (an earlier [`count`](Spans::count)) whose name is one of `names`.
    pub fn self_ms_since(&self, mark: u64, names: &[&str]) -> f64 {
        let Some(cell) = &self.inner else { return 0.0 };
        let own_ns: u64 = cell.borrow().recs[mark as usize..]
            .iter()
            .filter(|r| names.contains(&r.name))
            .map(|r| r.dur_ns.saturating_sub(r.child_ns))
            .sum();
        own_ns as f64 / 1e6
    }

    /// Self-time roll-up by span name, in name order.
    pub fn rollup(&self) -> Vec<RollupRow> {
        let Some(cell) = &self.inner else {
            return Vec::new();
        };
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for r in &cell.borrow().recs {
            let e = by_name.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.dur_ns;
            e.2 += r.dur_ns.saturating_sub(r.child_ns);
        }
        by_name
            .into_iter()
            .map(|(name, (spans, total, own))| RollupRow {
                name,
                spans,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect()
    }
}

/// Summed self time of every span called `name`, in milliseconds (0 when
/// the layer was never entered).
pub fn self_ms(rows: &[RollupRow], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.self_ms)
}

/// Summed duration (children included) of every span called `name`.
pub fn total_ms(rows: &[RollupRow], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.total_ms)
}

/// Renders the roll-up as the table a traced run prints.
pub fn render_rollup(rows: &[RollupRow]) -> String {
    let mut out = format!(
        "{:<34} {:>9} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>9} {:>12.3} {:>12.3}\n",
            r.name, r.spans, r.total_ms, r.self_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_records_nothing() {
        let s = Spans::disabled();
        assert_eq!(s.span("x", 0, || 5), 5);
        assert_eq!(s.count(), 0);
        assert!(s.rollup().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let s = Spans::recording();
        s.span("test.parent", 1, || {
            spin(300);
            s.span("test.child", 1, || spin(500));
            s.span("test.child", 2, || spin(500));
        });
        let rows = s.rollup();
        let parent = rows.iter().find(|r| r.name == "test.parent").unwrap();
        let child = rows.iter().find(|r| r.name == "test.child").unwrap();
        assert_eq!((parent.spans, child.spans), (1, 2));
        assert!(child.self_ms >= 1.0, "{child:?}");
        assert_eq!(child.self_ms, child.total_ms);
        // The parent's self time excludes both children exactly.
        assert!((parent.total_ms - parent.self_ms - child.total_ms).abs() < 1e-9);
        assert!(parent.self_ms >= 0.3 && parent.self_ms < parent.total_ms);
        assert_eq!(s.self_ms_since(0, &["test.child"]), child.self_ms);
        assert_eq!(s.self_ms_since(s.count(), &["test.child"]), 0.0);

        // Buffered until the tracer is switched on, then flushed to it,
        // parent-linked and tagged.
        assert!(!trace::export_chrome_json().contains("test.parent"));
        let json = s.export_chrome_json();
        let stats = trace::validate_chrome_trace(&json).unwrap();
        assert!(stats.complete >= 3);
        assert!(json.contains("\"parent\": \"test.parent\""));
        assert!(json.contains("\"id\": \"2\""));
    }
}
