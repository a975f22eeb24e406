//! What every workload shares: its context, the shape of its result, and
//! the two measuring loops (repeated set-up, time-boxed reps).
//!
//! Both loops report **host-adjusted seconds**: the wall-clock seconds of an
//! interval times the host's speed over it, read off the [`Yardstick`]
//! before and after. They are what the interval would have taken on the
//! undisturbed reference host, and they are what every end-to-end time and
//! throughput is made of; the wall-clock values stay in the run record.

use crate::noise::{Phase, PhaseTimer, Yardstick};
use crate::spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs at least this many times per run; `setup_s` is the median.
pub const MIN_SETUP_REPS: usize = 3;

/// A cheap set-up is repeated beyond [`MIN_SETUP_REPS`] until it has used
/// this many seconds or run [`MAX_SETUP_REPS`] times: the shorter a
/// set-up, the more samples its median needs to repeat.
pub const SETUP_BUDGET_S: f64 = 2.0;
pub const MAX_SETUP_REPS: usize = 9;

/// A timed phase keeps going until it has both used its time budget and
/// taken at least this many samples.
pub const MIN_REPS: usize = 11;

/// How much of a workload's rep slows down with the yardstick when the host
/// does: its adjusted seconds are `wall × host_speed ^ exponent`. Pixel and
/// matrix loops are the yardstick's own kind of code and follow it fully.
pub const DENSE_LOOPS: f64 = 1.0;
/// The cache-hit path is hashing, a lock and a map lookup per tile, mostly
/// dependent loads that a busy sibling thread delays little: over 20 runs
/// its reps slowed down by the square root of what the yardstick did
/// (fitted exponents 0.38 and 0.43; see README.md, "Noise").
pub const LOOKUP_CHAINS: f64 = 0.5;

pub struct Ctx {
    pub seed: u64,
    /// Time budget of the measured phase(s), from `--seconds`.
    pub seconds: f64,
    /// Recording in a traced run, disabled otherwise.
    pub spans: Spans,
    /// A directory inside the build's target directory for files a workload
    /// must write (checkpoints, the Chrome trace).
    pub scratch: PathBuf,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Host-adjusted seconds of each set-up repetition; their median is the
    /// reported `setup_s`.
    pub setup_s: Vec<f64>,
    /// Throughput of each timed rep, in tiles per host-adjusted second;
    /// their median is the reported `tiles_per_s`.
    pub tiles_per_s: Vec<f64>,
    /// What each set-up repetition's and each timed rep's wall-clock seconds
    /// were multiplied by (`host_speed ^ exponent`; under 1 on a slowed-down
    /// host), index for index with the two vectors above.
    pub setup_adjust: Vec<f64>,
    pub rep_adjust: Vec<f64>,
    /// Share of output pixels equal to the workload's reference.
    pub accuracy: f64,
    /// Operations (tiles, images) attempted and failed; a failed same-work
    /// proof or a missed accuracy floor counts as a failed operation.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the human reading the output.
    pub failures: Vec<String>,
    /// Values that must repeat exactly at one seed (counts, MACs, bytes,
    /// simulated seconds, accuracies).
    pub exact: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of a traced run, by declared name.
    pub layers: BTreeMap<&'static str, f64>,
    pub phases: Vec<Phase>,
    /// Threads the workload keeps busy, in words.
    pub threads_note: &'static str,
}

impl Outcome {
    /// Records a failed check as one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records `n` failed operations under one line; nothing when `n` is 0.
    pub fn fail_ops(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what());
        }
    }

    /// Fails the run unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Checks `accuracy` against the floor recorded for this workload.
    pub fn require_floor(&mut self, what: &str, value: f64, floor: f64) {
        self.require(value >= floor, || {
            format!("{what} {value:.4} is under its floor {floor:.2}")
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Runs `setup` repeatedly (see [`MIN_SETUP_REPS`], [`SETUP_BUDGET_S`]),
/// keeping the last result and the host-adjusted seconds each repetition
/// took. Set-up is scene synthesis, labelling and training: dense loops.
pub fn repeat_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut yardstick = Yardstick::new();
    let start = Instant::now();
    let mut before = yardstick.read();
    loop {
        let t = Instant::now();
        let made = setup();
        let wall = t.elapsed().as_secs_f64();
        let after = yardstick.read();
        let adjust = Yardstick::host_speed(before, after).powf(DENSE_LOOPS);
        out.setup_s.push(wall * adjust);
        out.setup_adjust.push(adjust);
        before = after;
        let reps = out.setup_s.len();
        let spent = start.elapsed().as_secs_f64();
        if reps >= MAX_SETUP_REPS || (reps >= MIN_SETUP_REPS && spent >= SETUP_BUDGET_S) {
            return made;
        }
    }
}

/// Seconds `f` takes.
pub fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Runs `rep` (after one warm-up call) until `seconds` have passed and at
/// least [`MIN_REPS`] samples exist, reading the yardstick between reps.
/// `rep` receives the rep index, 0 being the warm-up, and returns the
/// seconds of the part of it that counts (see [`time`]). Returns those
/// seconds host-adjusted with `exponent` ([`DENSE_LOOPS`] or
/// [`LOOKUP_CHAINS`]); the adjustments and the phase's noise are recorded.
pub fn timed_reps(
    out: &mut Outcome,
    name: &'static str,
    seconds: f64,
    exponent: f64,
    mut rep: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let mut yardstick = Yardstick::new();
    rep(0);
    let mut secs = Vec::new();
    let mut phase = PhaseTimer::start(name);
    let mut before = yardstick.read();
    while secs.len() < MIN_REPS || phase.elapsed_s() < seconds {
        let wall = rep(secs.len() + 1);
        let after = yardstick.read();
        let adjust = Yardstick::host_speed(before, after).powf(exponent);
        secs.push(wall * adjust);
        out.rep_adjust.push(adjust);
        before = after;
        phase.observe_threads();
    }
    out.phases.push(phase.finish());
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_keeps_the_last() {
        let mut out = Outcome::default();
        let mut calls = 0;
        let v = repeat_setup(&mut out, || {
            calls += 1;
            calls
        });
        // An instant set-up never uses its budget: it runs the most times.
        assert_eq!((v, out.setup_s.len()), (MAX_SETUP_REPS, MAX_SETUP_REPS));
        assert_eq!(out.setup_adjust.len(), MAX_SETUP_REPS);
    }

    #[test]
    fn timed_reps_warm_up_once_and_take_the_minimum_sample() {
        let mut out = Outcome::default();
        let mut seen = Vec::new();
        let secs = timed_reps(&mut out, "t", 0.0, DENSE_LOOPS, |i| {
            seen.push(i);
            1.0
        });
        assert_eq!(secs.len(), MIN_REPS);
        // One second of wall clock each, adjusted by what was recorded.
        assert_eq!(secs, out.rep_adjust);
        assert!(secs.iter().all(|s| *s > 0.0));
        assert_eq!(seen, (0..=MIN_REPS).collect::<Vec<_>>());
        assert_eq!(out.phases.len(), 1);
    }

    #[test]
    fn failures_count_as_failed_operations() {
        let mut out = Outcome::default();
        out.require(true, || unreachable!());
        out.require_floor("accuracy", 0.8, 0.85);
        assert_eq!(out.failed, 1);
        assert!(out.failures[0].contains("0.8000"));
    }
}
