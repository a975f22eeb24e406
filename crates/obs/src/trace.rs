//! Structured tracing spans with Chrome `trace_event` export.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s (begin/end event pairs),
//! one-shot complete events, and instant markers. Events carry a
//! process-unique sequential thread id and the name of the enclosing
//! span (parent linkage), and are buffered in a process-wide sink until
//! [`export_chrome_json`] renders them in the Chrome `trace_event` JSON
//! format (`chrome://tracing` / Perfetto loadable).
//!
//! Timestamps come from a [`Clock`], not from `Instant::now` at the call
//! site: wall-time layers (serve, bench, CLI) use the shared
//! [`WallClock`], while deterministic layers (mapreduce, distrib) charge
//! spans to a [`ManualClock`] driven by their *simulated* time. That
//! split is what keeps `seaice-lint`'s `wallclock-in-deterministic-path`
//! rule intact: deterministic crates never read the wall clock, they
//! advance a counter.
//!
//! Like the metrics registry, a disabled tracer is free: every emit is a
//! branch on a `None`.

use crate::json::Obj;
use crate::lock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A source of span timestamps, in microseconds from an arbitrary
/// per-process origin.
pub trait Clock: Send + Sync {
    /// The current time in microseconds.
    fn now_us(&self) -> u64;
}

/// Wall time, measured from a process-wide origin so every wall-clocked
/// tracer shares one timeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        let origin = ORIGIN.get_or_init(Instant::now);
        origin.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// A hand-driven clock for deterministic layers: mapreduce and distrib
/// advance it by their already-computed simulated durations, so their
/// spans land on the simulated timeline without any wall-clock read.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock at t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` and returns the *new* time.
    pub fn advance_us(&self, us: u64) -> u64 {
        self.0.fetch_add(us, Ordering::Relaxed).saturating_add(us)
    }

    /// Advances the clock to at least `us` (a monotone watermark) and
    /// returns the resulting time. It never moves the clock backwards, so
    /// concurrent writers — e.g. parallel pipeline stages each publishing
    /// their own simulated completion time — converge on the maximum.
    pub fn advance_to_us(&self, us: u64) -> u64 {
        self.0.fetch_max(us, Ordering::Relaxed).max(us)
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One buffered trace event.
#[derive(Clone, Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    /// Chrome phase: `B`/`E` (span begin/end), `X` (complete), `i`
    /// (instant).
    ph: char,
    ts_us: u64,
    dur_us: Option<u64>,
    tid: u64,
    args: Vec<(String, String)>,
}

#[derive(Default)]
struct Sink {
    events: Mutex<Vec<TraceEvent>>,
}

static SINK: OnceLock<Arc<Sink>> = OnceLock::new();
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Process-unique sequential thread id (Chrome `tid`).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Names of the open spans on this thread, innermost last — the
    /// parent linkage recorded on each begin event.
    static OPEN_SPANS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Turns tracing on for the rest of the process (idempotent). Events are
/// only buffered after this call; [`Tracer`] handles created before it
/// stay disabled.
pub fn enable() {
    let _ = ORIGIN.get_or_init(Instant::now);
    let _ = SINK.get_or_init(|| Arc::new(Sink::default()));
}

/// Whether [`enable`] has been called.
pub fn enabled() -> bool {
    SINK.get().is_some()
}

/// A wall-clocked tracer (disabled until [`enable`] is called).
pub fn tracer() -> Tracer {
    Tracer {
        sink: SINK.get().cloned(),
        clock: Arc::new(WallClock),
    }
}

/// A tracer charging its events to `clock` instead of wall time — the
/// sanctioned route for deterministic layers. Shares the global sink.
pub fn tracer_with_clock(clock: Arc<dyn Clock>) -> Tracer {
    Tracer {
        sink: SINK.get().cloned(),
        clock,
    }
}

/// Emits trace events. Cheap to clone; a tracer with no sink is inert.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
    clock: Arc<dyn Clock>,
}

impl Tracer {
    /// A tracer that never records.
    pub fn disabled() -> Self {
        Tracer {
            sink: None,
            clock: Arc::new(WallClock),
        }
    }

    /// Whether events from this tracer reach the sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn push(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            lock(&sink.events).push(ev);
        }
    }

    /// Opens a span; the returned guard emits the matching end event on
    /// drop. The begin event records the enclosing span's name as
    /// `parent`.
    pub fn span(&self, name: &str, cat: &'static str) -> SpanGuard {
        if self.sink.is_none() {
            return SpanGuard { tracer: None };
        }
        let parent = OPEN_SPANS.with(|s| s.borrow().last().cloned());
        OPEN_SPANS.with(|s| s.borrow_mut().push(name.to_string()));
        let mut args = Vec::new();
        if let Some(p) = parent {
            args.push(("parent".to_string(), p));
        }
        self.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: 'B',
            ts_us: self.clock.now_us(),
            dur_us: None,
            tid: tid(),
            args,
        });
        SpanGuard {
            tracer: Some((self.clone(), name.to_string())),
        }
    }

    /// Emits a complete (`X`) event covering `[start_us, start_us +
    /// dur_us)`. Useful when the interval was measured elsewhere (e.g. a
    /// queue wait stamped at enqueue, observed at dequeue).
    pub fn complete(&self, name: &str, cat: &'static str, start_us: u64, dur_us: u64) {
        self.complete_with_args(name, cat, start_us, dur_us, &[]);
    }

    /// [`complete`](Tracer::complete) with attached args (e.g. the task
    /// and executor indices of a mapreduce attempt).
    pub fn complete_with_args(
        &self,
        name: &str,
        cat: &'static str,
        start_us: u64,
        dur_us: u64,
        args: &[(&str, &str)],
    ) {
        if self.sink.is_none() {
            return;
        }
        self.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: 'X',
            ts_us: start_us,
            dur_us: Some(dur_us),
            tid: tid(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Emits a complete event ending at the clock's current time with
    /// duration `dur_us`.
    pub fn complete_ending_now(&self, name: &str, cat: &'static str, dur_us: u64) {
        if self.sink.is_none() {
            return;
        }
        let end = self.clock.now_us();
        self.complete(name, cat, end.saturating_sub(dur_us), dur_us);
    }

    /// Emits an instant marker (fault injections, generation rollovers).
    pub fn instant(&self, name: &str, cat: &'static str, args: &[(&str, &str)]) {
        if self.sink.is_none() {
            return;
        }
        self.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: 'i',
            ts_us: self.clock.now_us(),
            dur_us: None,
            tid: tid(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }
}

/// RAII span handle from [`Tracer::span`]; emits the end event on drop.
pub struct SpanGuard {
    tracer: Option<(Tracer, String)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, name)) = self.tracer.take() {
            OPEN_SPANS.with(|s| {
                s.borrow_mut().pop();
            });
            tracer.push(TraceEvent {
                name,
                cat: "",
                ph: 'E',
                ts_us: tracer.clock.now_us(),
                dur_us: None,
                tid: tid(),
                args: Vec::new(),
            });
        }
    }
}

/// Renders every buffered event as Chrome `trace_event` JSON
/// (`{"traceEvents": [...]}`). Empty (but valid) when tracing was never
/// enabled.
pub fn export_chrome_json() -> String {
    let mut out = String::from("{\"traceEvents\": [");
    if let Some(sink) = SINK.get() {
        let events = lock(&sink.events);
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&render_event(ev));
        }
        if !events.is_empty() {
            out.push('\n');
        }
    }
    out.push_str("]}\n");
    out
}

fn render_event(ev: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
        crate::json::escape(&ev.name),
        crate::json::escape(if ev.cat.is_empty() { "span" } else { ev.cat }),
        ev.ph,
        ev.ts_us,
        ev.tid
    );
    if let Some(dur) = ev.dur_us {
        s.push_str(&format!(", \"dur\": {dur}"));
    }
    if ev.ph == 'i' {
        // Thread-scoped instant marker.
        s.push_str(", \"s\": \"t\"");
    }
    if !ev.args.is_empty() {
        s.push_str(", \"args\": {");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": \"{}\"",
                crate::json::escape(k),
                crate::json::escape(v)
            ));
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Shape facts [`validate_chrome_trace`] reports about a trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events of any phase.
    pub events: usize,
    /// Matched begin/end pairs.
    pub span_pairs: usize,
    /// Complete (`X`) events.
    pub complete: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
}

/// Validates Chrome `trace_event` JSON: parses, requires the
/// `traceEvents` array (or a bare event array), checks every event for
/// the required fields, and verifies begin/end events balance per
/// thread with matching names. Returns shape stats on success.
pub fn validate_chrome_trace(src: &str) -> Result<TraceStats, String> {
    let doc = crate::json::parse(src)?;
    let events = match doc.get("traceEvents").and_then(|v| v.as_arr()) {
        Some(events) => events,
        None => doc
            .as_arr()
            .ok_or_else(|| "expected a `traceEvents` array or a bare event array".to_string())?,
    };
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    // Per-(pid, tid) stacks of open span names.
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ev = Obj::new(ev, format!("event {i}"))?;
        let (name, ph) = (ev.str("name")?, ev.str("ph")?);
        ev.f64("ts")?;
        let (pid, tid) = (ev.f64("pid")? as u64, ev.f64("tid")? as u64);
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry((pid, tid))
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: `E` for `{name}` with no open span"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: `E` for `{name}` but innermost open span is `{open}`"
                    ));
                }
                stats.span_pairs += 1;
            }
            "X" => stats.complete += 1,
            "i" | "I" => stats.instants += 1,
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced trace: span `{open}` on pid {pid} tid {tid} never ends"
            ));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so every test shares it; tests assert
    // on their own events (found by name) rather than on totals.

    #[test]
    fn manual_clock_advance_to_is_a_monotone_watermark() {
        let c = ManualClock::new();
        assert_eq!(c.advance_to_us(50), 50);
        // Moving the watermark backwards is a no-op.
        assert_eq!(c.advance_to_us(10), 50);
        assert_eq!(c.now_us(), 50);
        assert_eq!(c.advance_to_us(80), 80);
        // advance_us still composes on top of the watermark.
        assert_eq!(c.advance_us(5), 85);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let _g = t.span("ghost.span", "test");
        t.instant("ghost.instant", "test", &[]);
        t.complete("ghost.complete", "test", 0, 5);
        drop(_g);
        // Whatever the sink holds, none of it is ours.
        assert!(!export_chrome_json().contains("ghost."));
    }

    #[test]
    fn spans_nest_balance_and_link_parents() {
        enable();
        let t = tracer();
        assert!(t.is_enabled());
        {
            let _outer = t.span("test.outer", "test");
            {
                let _inner = t.span("test.inner", "test");
            }
        }
        t.instant("test.marker", "test", &[("kind", "demo")]);
        t.complete_ending_now("test.wait", "test", 7);
        let json = export_chrome_json();
        assert!(json.contains("\"name\": \"test.outer\""));
        // Parent linkage: inner's begin event names outer.
        assert!(json.contains("\"parent\": \"test.outer\""));
        assert!(json.contains("\"kind\": \"demo\""));
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.span_pairs >= 2);
        assert!(stats.instants >= 1);
        assert!(stats.complete >= 1);
    }

    #[test]
    fn manual_clock_times_do_not_touch_the_wall() {
        let clock = Arc::new(ManualClock::new());
        assert_eq!(clock.advance_us(1_000), 1_000);
        assert_eq!(clock.now_us(), 1_000);
        assert_eq!(clock.advance_us(500), 1_500);
        enable();
        let t = tracer_with_clock(clock.clone());
        t.complete_ending_now("test.sim.attempt", "mapreduce", 500);
        let json = export_chrome_json();
        // The complete event starts at 1500 - 500 = 1000 on the simulated
        // timeline.
        assert!(json.contains(
            "\"name\": \"test.sim.attempt\", \"cat\": \"mapreduce\", \"ph\": \"X\", \"ts\": 1000"
        ));
    }

    #[test]
    fn validator_rejects_unbalanced_and_malformed_traces() {
        let unbalanced = r#"{"traceEvents": [
            {"name": "a", "cat": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .expect_err("unbalanced")
            .contains("never ends"));

        let mismatched = r#"{"traceEvents": [
            {"name": "a", "cat": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "b", "cat": "x", "ph": "E", "ts": 2, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_chrome_trace(mismatched)
            .expect_err("mismatched")
            .contains("innermost open span"));

        let missing_field = r#"{"traceEvents": [{"name": "a", "ph": "B", "pid": 1, "tid": 1}]}"#;
        assert!(validate_chrome_trace(missing_field)
            .expect_err("missing ts")
            .contains("event 0.ts: missing field"));

        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\": 1}").is_err());
    }

    #[test]
    fn validator_accepts_balanced_multithread_traces() {
        let ok = r#"{"traceEvents": [
            {"name": "a", "cat": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "c", "cat": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 2},
            {"name": "a", "cat": "x", "ph": "E", "ts": 3, "pid": 1, "tid": 1},
            {"name": "c", "cat": "x", "ph": "E", "ts": 4, "pid": 1, "tid": 2},
            {"name": "w", "cat": "x", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 3},
            {"name": "f", "cat": "x", "ph": "i", "ts": 2, "pid": 1, "tid": 3, "s": "t"}
        ]}"#;
        let stats = validate_chrome_trace(ok).expect("valid");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.span_pairs, 2);
        assert_eq!(stats.complete, 1);
        assert_eq!(stats.instants, 1);
    }
}
