//! # seaice-faults
//!
//! Deterministic, seed-driven fault injection for the three execution
//! layers (`mapreduce` executors, `distrib` ranks, `serve` replicas).
//!
//! Real clusters lose executors, straggle, and restart mid-job; the
//! fault-tolerance machinery that copes with that is only trustworthy if
//! it can be exercised *reproducibly*. A [`FaultPlan`] is a pure function
//! from `(site, key)` to a [`FaultAction`]: the decision depends only on
//! the plan's seed, the site name, and a caller-supplied stable key (task
//! index + attempt, `(world, rank, epoch, step)`, request hash, …) — never
//! on thread scheduling — so a chaos test that kills executor 2 on task
//! 7's first attempt kills exactly that, every run.
//!
//! Two ways to arm a site:
//!
//! * **explicit kill lists** ([`FaultPlan::fail_keys`]) — fire a chosen
//!   action for an exact set of keys (the precision tool chaos tests use);
//! * **probabilistic rules** ([`FaultPlan::with_rule`]) — hash
//!   `(seed, site, key)` into `[0, 1)` and compare against per-action
//!   probabilities (the soak-style tool).
//!
//! The default [`FaultPlan::disabled`] plan has no rules and decides
//! [`FaultAction::None`] for everything in a handful of instructions, so
//! production paths thread a plan through unconditionally and the happy
//! path stays bit-identical (pinned by the existing differential tests).
//!
//! The crate also owns the workspace's seeded hashing: [`splitmix64`]
//! (the plans' key mixer, `seaice-s2`'s noise lattice hash) and
//! [`rng::ChaCha8`], the one seeded generator behind weight init,
//! dropout, loader shuffles, dataset splits and manual-label noise.
#![forbid(unsafe_code)]

pub mod rng;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fault point does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Nothing injected; proceed normally.
    None,
    /// Panic at the site (a crashed worker/executor/rank).
    Panic,
    /// Return a transient `io::Error` (a flaky read, a dropped packet).
    Error,
    /// Sleep for the rule's delay before proceeding (a straggler).
    Delay(Duration),
}

/// Probabilistic arming of one site. Probabilities are evaluated in the
/// order panic → error → delay against a single uniform draw, so their
/// sum should stay ≤ 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultRule {
    /// Probability a call at this site panics.
    pub panic_prob: f64,
    /// Probability a call at this site gets a transient error.
    pub error_prob: f64,
    /// Probability a call at this site is delayed by `delay`.
    pub delay_prob: f64,
    /// Straggler delay applied when the delay branch fires.
    pub delay: Duration,
}

impl FaultRule {
    /// A rule that panics with probability `p`.
    pub fn panics(p: f64) -> Self {
        Self {
            panic_prob: p,
            ..Self::default()
        }
    }
}

/// A deterministic fault plan: seed + per-site rules + explicit kill
/// lists. Cheap to share behind an `Arc`; decisions are lock-free and the
/// only mutable state is the fired-injection counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    // BTreeMaps, not HashMaps: the derived Debug on a plan appears in
    // chaos-test failure output, and that output must be byte-stable
    // across runs to diff cleanly.
    rules: BTreeMap<String, FaultRule>,
    /// Exact `(site, key)` → action injections, checked before rules.
    targeted: BTreeMap<(String, u64), FaultAction>,
    /// Number of injections fired (actions other than `None`).
    fired: AtomicU64,
    /// When armed by [`FaultPlan::recording`], every firing is appended
    /// here so a failed soak schedule can print its minimized
    /// `(seed, site, key)` repro line.
    log: Option<Mutex<Vec<FiredFault>>>,
}

/// One recorded firing: which site fired, at which key, doing what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// Site name the injection point passed to [`FaultPlan::fire`].
    pub site: String,
    /// Caller-supplied stable key.
    pub key: u64,
    /// The action that fired (never [`FaultAction::None`]).
    pub action: FaultAction,
}

impl FaultPlan {
    /// The no-op plan every production path uses by default: no rules, no
    /// targets, every decision is [`FaultAction::None`].
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An empty plan with a seed, ready for rules and kill lists.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Arms `site` with a probabilistic rule (builder-style).
    #[must_use]
    pub fn with_rule(mut self, site: &str, rule: FaultRule) -> Self {
        self.rules.insert(site.to_string(), rule);
        self
    }

    /// Arms exact keys at `site` with `action` (builder-style). This is
    /// the precision tool: `fail_keys("mapreduce.task", &[mix(7, 0)],
    /// Panic)` kills exactly task 7's first attempt.
    #[must_use]
    pub fn fail_keys(mut self, site: &str, keys: &[u64], action: FaultAction) -> Self {
        for &k in keys {
            self.targeted.insert((site.to_string(), k), action);
        }
        self
    }

    /// Turns on the fired-fault log (builder-style): every firing is
    /// recorded with its `(site, key, action)` so a failing chaos/soak
    /// schedule can be minimized to an exact repro line. Off by default —
    /// production paths pay only the atomic counter.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.log = Some(Mutex::new(Vec::new()));
        self
    }

    /// The firings recorded so far (empty unless
    /// [`recording`](FaultPlan::recording) armed the log). Order is the
    /// order firings were observed, which may interleave across threads.
    pub fn fired_log(&self) -> Vec<FiredFault> {
        self.log
            .as_ref()
            .map(|l| l.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .unwrap_or_default()
    }

    /// True when the plan can never fire (the disabled/default plan).
    pub fn is_disabled(&self) -> bool {
        self.rules.is_empty() && self.targeted.is_empty()
    }

    /// Total injections fired so far (all sites).
    pub fn injections_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Pure decision: what happens at `(site, key)`. Does **not** record
    /// a firing; use [`fire`](FaultPlan::fire) at actual injection points.
    pub fn decide(&self, site: &str, key: u64) -> FaultAction {
        if self.is_disabled() {
            return FaultAction::None;
        }
        // Allocation-free lookup would need a borrowed key pair; targeted
        // maps are tiny and chaos-only, so a transient String is fine.
        if let Some(&action) = self.targeted.get(&(site.to_string(), key)) {
            return action;
        }
        let Some(rule) = self.rules.get(site) else {
            return FaultAction::None;
        };
        let draw = unit_draw(self.seed, site, key);
        if draw < rule.panic_prob {
            FaultAction::Panic
        } else if draw < rule.panic_prob + rule.error_prob {
            FaultAction::Error
        } else if draw < rule.panic_prob + rule.error_prob + rule.delay_prob {
            FaultAction::Delay(rule.delay)
        } else {
            FaultAction::None
        }
    }

    /// Decides and records the firing. Injection points call this once
    /// per visit.
    pub fn fire(&self, site: &str, key: u64) -> FaultAction {
        let action = self.decide(site, key);
        if action != FaultAction::None {
            self.fired.fetch_add(1, Ordering::Relaxed);
            if let Some(log) = &self.log {
                log.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(FiredFault {
                        site: site.to_string(),
                        key,
                        action,
                    });
            }
        }
        action
    }

    /// Injection helper for panic-only sites: panics with a recognizable
    /// message when the plan says so, sleeps through `Delay`, and treats
    /// `Error` as a panic too (the site has no error channel).
    ///
    /// # Panics
    /// When the plan fires `Panic` or `Error` at `(site, key)`.
    pub fn maybe_panic(&self, site: &str, key: u64) {
        match self.fire(site, key) {
            FaultAction::None => {}
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Panic | FaultAction::Error => {
                // seaice-lint: allow(panic-in-library) reason="panicking is this function's documented purpose (# Panics above): it simulates a crash for the chaos harness, and callers opt in by arming a plan"
                panic!("injected fault at {site} (key {key})")
            }
        }
    }

    /// Injection helper for fallible sites: sleeps through `Delay`,
    /// returns a transient `io::Error` for `Error`, panics for `Panic`.
    ///
    /// # Errors
    /// `io::ErrorKind::Interrupted` when the plan fires `Error`.
    ///
    /// # Panics
    /// When the plan fires `Panic`.
    pub fn maybe_fail(&self, site: &str, key: u64) -> std::io::Result<()> {
        match self.fire(site, key) {
            FaultAction::None => Ok(()),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Error => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected transient fault at {site} (key {key})"),
            )),
            // seaice-lint: allow(panic-in-library) reason="panicking is this function's documented purpose (# Panics above): it simulates a crash for the chaos harness, and callers opt in by arming a plan"
            FaultAction::Panic => panic!("injected fault at {site} (key {key})"),
        }
    }
}

/// Mixes two stable identifiers into one key (task index + attempt,
/// rank + step, …). SplitMix64-style finalization keeps distinct pairs
/// from colliding in practice.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b))
}

/// Deterministic uniform draw in `[0, 1)` from `(seed, site, key)`.
fn unit_draw(seed: u64, site: &str, key: u64) -> f64 {
    let h = splitmix64(seed ^ fnv1a(site.as_bytes()) ^ splitmix64(key));
    // 53 mantissa bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The SplitMix64 finalizer: one step of the generator from state `x`
/// (the golden-ratio increment, then the two multiply–xorshift rounds).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(plan.is_disabled());
        for key in 0..1000 {
            assert_eq!(plan.decide("anything", key), FaultAction::None);
        }
        assert_eq!(plan.injections_fired(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::seeded(7).with_rule("s", FaultRule::panics(0.3));
        let b = FaultPlan::seeded(7).with_rule("s", FaultRule::panics(0.3));
        let c = FaultPlan::seeded(8).with_rule("s", FaultRule::panics(0.3));
        let decide_all = |p: &FaultPlan| (0..256).map(|k| p.decide("s", k)).collect::<Vec<_>>();
        assert_eq!(decide_all(&a), decide_all(&b));
        assert_ne!(decide_all(&a), decide_all(&c), "seed must matter");
    }

    #[test]
    fn probabilities_hit_roughly_the_requested_rate() {
        let plan = FaultPlan::seeded(42).with_rule("s", FaultRule::panics(0.25));
        let hits = (0..4000)
            .filter(|&k| plan.decide("s", k) == FaultAction::Panic)
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "panic rate {rate}");
    }

    #[test]
    fn action_branches_partition_the_draw() {
        let plan = FaultPlan::seeded(3).with_rule(
            "s",
            FaultRule {
                panic_prob: 0.2,
                error_prob: 0.2,
                delay_prob: 0.2,
                delay: Duration::from_millis(1),
            },
        );
        let mut counts = [0usize; 4];
        for k in 0..3000 {
            match plan.decide("s", k) {
                FaultAction::None => counts[0] += 1,
                FaultAction::Panic => counts[1] += 1,
                FaultAction::Error => counts[2] += 1,
                FaultAction::Delay(_) => counts[3] += 1,
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = if i == 0 { 0.4 } else { 0.2 };
            let rate = c as f64 / 3000.0;
            assert!(
                (rate - expected).abs() < 0.06,
                "branch {i} rate {rate} vs {expected}"
            );
        }
    }

    #[test]
    fn targeted_keys_override_rules() {
        let plan = FaultPlan::seeded(1)
            .with_rule("s", FaultRule::panics(0.0))
            .fail_keys("s", &[5, 9], FaultAction::Error);
        assert_eq!(plan.decide("s", 4), FaultAction::None);
        assert_eq!(plan.decide("s", 5), FaultAction::Error);
        assert_eq!(plan.decide("s", 9), FaultAction::Error);
        assert_eq!(plan.decide("other", 5), FaultAction::None, "site-scoped");
    }

    #[test]
    fn sites_draw_independently() {
        let plan = FaultPlan::seeded(11)
            .with_rule("a", FaultRule::panics(0.5))
            .with_rule("b", FaultRule::panics(0.5));
        let a: Vec<_> = (0..128).map(|k| plan.decide("a", k)).collect();
        let b: Vec<_> = (0..128).map(|k| plan.decide("b", k)).collect();
        assert_ne!(a, b, "sites must not share a stream");
    }

    #[test]
    fn maybe_fail_returns_transient_error() {
        let plan = FaultPlan::seeded(0).fail_keys("io", &[1], FaultAction::Error);
        assert!(plan.maybe_fail("io", 0).is_ok());
        let e = plan.maybe_fail("io", 1).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        assert_eq!(plan.injections_fired(), 1);
    }

    #[test]
    fn maybe_panic_panics_on_armed_key() {
        let plan = FaultPlan::seeded(0).fail_keys("w", &[3], FaultAction::Panic);
        plan.maybe_panic("w", 2); // disarmed key is a no-op
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_panic("w", 3)));
        assert!(caught.is_err());
    }

    #[test]
    fn recording_plan_logs_every_firing() {
        let plan = FaultPlan::seeded(0)
            .fail_keys("io", &[1, 3], FaultAction::Error)
            .recording();
        assert!(plan.maybe_fail("io", 0).is_ok());
        assert!(plan.maybe_fail("io", 1).is_err());
        assert!(plan.maybe_fail("io", 3).is_err());
        let log = plan.fired_log();
        assert_eq!(
            log,
            vec![
                FiredFault {
                    site: "io".into(),
                    key: 1,
                    action: FaultAction::Error
                },
                FiredFault {
                    site: "io".into(),
                    key: 3,
                    action: FaultAction::Error
                },
            ]
        );
        // Non-recording plans stay silent and free.
        let quiet = FaultPlan::seeded(0).fail_keys("io", &[1], FaultAction::Error);
        let _ = quiet.maybe_fail("io", 1);
        assert!(quiet.fired_log().is_empty());
    }

    #[test]
    fn mix_separates_pairs() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..64u64 {
            for b in 0..64u64 {
                assert!(seen.insert(mix(a, b)), "collision at ({a}, {b})");
            }
        }
    }
}
