//! The process-wide metrics registry: named counters, gauges, and
//! log-spaced latency histograms ([`crate::latency`], the histogram the
//! serving layer already trusts).
//!
//! The design center is *zero cost when disabled*: a disabled
//! [`Recorder`] hands out handles whose hot-path methods are a branch on
//! a `None` — no allocation, no lock, no atomic — so every deterministic
//! and bit-identity code path behaves byte-identically whether or not
//! observability is compiled in the call sites. Enabled handles are a
//! single relaxed atomic op (counters/gauges) or a short mutex hold
//! (histograms), cheap enough to leave on in production serving.
//!
//! Registries are keyed by `BTreeMap` so every rendering (Prometheus
//! text, JSON) is deterministically ordered.

use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LatencyHistogram>>>>,
}

/// A handle to the metrics registry. Cloning is cheap (an `Arc` bump);
/// all clones share the same named instruments.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: every instrument it hands out is inert.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with an empty registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether instruments from this recorder actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The named counter, created on first use. Names are dotted paths
    /// (`serve.requests.submitted`); the Prometheus rendering maps dots
    /// to underscores.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.counters)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// The named gauge (an `f64` cell), created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.gauges)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
            )
        }))
    }

    /// The named log-spaced latency histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.histograms)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new()))),
            )
        }))
    }

    /// Renders every registered instrument in the Prometheus text
    /// exposition format (version 0.0.4), deterministically ordered by
    /// name. Disabled recorders render an empty exposition.
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = self.inner.as_ref() else {
            return String::new();
        };
        let mut out = String::new();
        for (name, cell) in lock(&inner.counters).iter() {
            let pname = prom_name(name);
            out.push_str(&format!("# TYPE {pname} counter\n"));
            out.push_str(&format!("{pname} {}\n", cell.load(Ordering::Relaxed)));
        }
        for (name, cell) in lock(&inner.gauges).iter() {
            let pname = prom_name(name);
            let v = f64::from_bits(cell.load(Ordering::Relaxed));
            out.push_str(&format!("# TYPE {pname} gauge\n"));
            out.push_str(&format!("{pname} {v}\n"));
        }
        for (name, cell) in lock(&inner.histograms).iter() {
            let pname = prom_name(name);
            let h = lock(cell);
            out.push_str(&format!("# TYPE {pname} histogram\n"));
            let mut cumulative = 0u64;
            for b in h.bucket_counts() {
                if b.count == 0 {
                    continue;
                }
                cumulative += b.count;
                out.push_str(&format!(
                    "{pname}_bucket{{le=\"{}\"}} {cumulative}\n",
                    b.upper_us
                ));
            }
            out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{pname}_sum {}\n", h.sum_us()));
            out.push_str(&format!("{pname}_count {}\n", h.count()));
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else
/// (the registry's dotted paths, mostly) to underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A monotonically increasing counter. Inert when obtained from a
/// disabled [`Recorder`].
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn incr(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins `f64` gauge. Inert when obtained from a disabled
/// [`Recorder`].
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (0.0 when inert).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A shared log-spaced latency histogram. Inert when obtained from a
/// disabled [`Recorder`].
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<LatencyHistogram>>>);

impl Histogram {
    /// Records one observation in microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if let Some(cell) = &self.0 {
            lock(cell).record_us(us);
        }
    }

    /// A point-in-time summary (`None` when inert).
    pub fn snapshot(&self) -> Option<LatencySnapshot> {
        self.0.as_ref().map(|cell| lock(cell).snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_are_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.incr(5);
        assert_eq!(c.get(), 0);
        let g = r.gauge("y");
        g.set(2.5);
        assert_eq!(g.get(), 0.0);
        let h = r.histogram("z");
        h.record_us(100);
        assert!(h.snapshot().is_none());
        assert_eq!(r.render_prometheus(), "");
    }

    #[test]
    fn named_instruments_are_shared_across_handles() {
        let r = Recorder::enabled();
        r.counter("a.b").incr(2);
        r.counter("a.b").incr(3);
        assert_eq!(r.clone().counter("a.b").get(), 5);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        r.histogram("h").record_us(10);
        r.histogram("h").record_us(1000);
        let snap = r.histogram("h").snapshot().expect("enabled");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_us, 1000);
    }

    #[test]
    fn prometheus_rendering_is_ordered_and_typed() {
        let r = Recorder::enabled();
        r.counter("serve.requests").incr(7);
        r.counter("a.first").incr(1);
        r.gauge("distrib.images_per_sec").set(42.5);
        r.histogram("serve.latency_us").record_us(3);
        let text = r.render_prometheus();
        // BTreeMap ordering: a.first before serve.requests.
        let a = text.find("a_first 1").expect("a.first rendered");
        let s = text.find("serve_requests 7").expect("counter rendered");
        assert!(a < s);
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("# TYPE distrib_images_per_sec gauge"));
        assert!(text.contains("distrib_images_per_sec 42.5"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
        assert!(text.contains("serve_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("serve_latency_us_sum 3"));
        assert!(text.contains("serve_latency_us_count 1"));
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let r = Recorder::enabled();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("contended");
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread joins");
        }
        assert_eq!(r.counter("contended").get(), 4000);
    }
}
