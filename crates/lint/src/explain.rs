//! `--explain <rule>`: per-rule documentation blurbs. The first line of
//! each blurb doubles as the rule's SARIF `shortDescription`.

use crate::rules::{
    BLOCKING_UNDER_LOCK, LOCK_ORDER, MALFORMED_SUPPRESSION, NARROWING_CAST, PANIC_IN_LIB,
    RAW_FS_WRITE, TRANSITIVE_WALLCLOCK, UNORDERED_ITER, UNSAFE_AUDIT, UNUSED_SUPPRESSION,
    WALLCLOCK,
};

/// Every rule `--explain` knows: the nine suppressible rules plus the two
/// suppression meta-rules.
pub const ALL_RULES: &[&str] = &[
    WALLCLOCK,
    PANIC_IN_LIB,
    UNORDERED_ITER,
    UNSAFE_AUDIT,
    NARROWING_CAST,
    RAW_FS_WRITE,
    LOCK_ORDER,
    BLOCKING_UNDER_LOCK,
    TRANSITIVE_WALLCLOCK,
    UNUSED_SUPPRESSION,
    MALFORMED_SUPPRESSION,
];

/// The documentation blurb for one rule, or `None` for unknown names.
/// Format: one summary line, a blank line, what/why/how paragraphs, and
/// an example suppression (meta-rules are not suppressible and say so).
pub fn explain(rule: &str) -> Option<String> {
    let body = match rule {
        r if r == WALLCLOCK => {
            "Direct wall-clock read (Instant::now / SystemTime) in a deterministic path.\n\
             \n\
             What it catches: any `Instant::now` or `SystemTime::*` token in Library-kind\n\
             code outside the timing allowlist (crates/serve, crates/bench, crates/metrics,\n\
             crates/obs).\n\
             \n\
             Why: the repo's headline guarantees are bit-identity claims — auto-label\n\
             fusion, engine-vs-sequential equality, chaos-recovery byte-identity. A wall-\n\
             clock read anywhere in those paths makes output depend on the scheduler and\n\
             the wall, so replays stop reproducing. Deterministic code takes an injected\n\
             `seaice_obs::Clock` (ManualClock in tests, WallClock at the edges) instead.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(wallclock-in-deterministic-path) reason=\"log timestamp only, never feeds output\""
        }
        r if r == PANIC_IN_LIB => {
            "Panicking construct (.unwrap/.expect/panic!/unreachable!/todo!) in library code.\n\
             \n\
             What it catches: `.unwrap()`, `.expect()` method calls and `panic!`-family\n\
             macros in Library-kind files outside the panic allowlist (crates/bench).\n\
             \n\
             Why: serve workers and the stream scheduler supervise stages with\n\
             `catch_unwind`; a library panic is silently converted into a worker death\n\
             and can strand peers (PR 8's review found a `recv()` blocked forever behind\n\
             exactly this). Return `Result`, recover poisoned locks with\n\
             `unwrap_or_else(|e| e.into_inner())`, or document the impossibility.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(panic-in-library) reason=\"index bounded by the loop above\""
        }
        r if r == UNORDERED_ITER => {
            "Iteration over a HashMap/HashSet whose order can leak into output.\n\
             \n\
             What it catches: `.iter()/.keys()/.values()/.drain()/.into_iter()` or a `for`\n\
             loop over a binding whose type annotation or initializer names HashMap or\n\
             HashSet, outside tests.\n\
             \n\
             Why: hash iteration order is randomized across builds and platforms; any\n\
             artifact assembled from it (manifests, JSON, aggregated stats) silently loses\n\
             byte-stability. Use BTreeMap/BTreeSet, or collect-and-sort before consuming.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(unordered-iteration) reason=\"feeds a commutative sum; order cannot matter\""
        }
        r if r == UNSAFE_AUDIT => {
            "`unsafe` block without a `// SAFETY:` audit comment within three lines.\n\
             \n\
             What it catches: the `unsafe` keyword (everywhere, tests included) with no\n\
             comment containing `SAFETY:` on the same or the three preceding lines.\n\
             \n\
             Why: every crate carries `#![forbid(unsafe_code)]` except `seaice-nn` and\n\
             `seaice-label`, which are `deny` with one audited module each:\n\
             `crates/nn/src/ops/dispatch.rs`, where the AVX2 and AVX-512F twins of the\n\
             direct convolution kernels are called, and `crates/label/src/dispatch.rs`,\n\
             where those of the cloud/shadow filter's row passes are, each right after\n\
             its `is_x86_feature_detected!` with one `// SAFETY:` line (DESIGN.md 4.1,\n\
             4.10). The rule keeps those exceptions, and any future one, honest by\n\
             forcing the soundness invariant to be written down where reviewers will\n\
             see it.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(unsafe-without-audit) reason=\"audit lives on the containing fn, 5 lines up\""
        }
        r if r == NARROWING_CAST => {
            "Unguarded narrowing `as u8/i8/u16/i16` cast inside a kernel hot loop.\n\
             \n\
             What it catches: narrowing `as` casts inside `for`/`while`/`loop` bodies in\n\
             the kernel paths (imgproc, label, unet, nn/ops) with no clamp/min/round/`%`\n\
             guard in the same expression.\n\
             \n\
             Why: `as` wraps silently; one unguarded cast in a pixel kernel corrupts\n\
             masks for out-of-range inputs and the differential tests only catch it if\n\
             the fuzz corpus happens to cross the boundary. Clamp first, cast second.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(narrowing-cast-in-kernel) reason=\"value is a 0..=255 LUT index by construction\""
        }
        r if r == RAW_FS_WRITE => {
            "Raw `fs::write` / `File::create` in library code, bypassing the durable layer.\n\
             \n\
             What it catches: `fs::write(` and `File::create(` path calls in Library-kind\n\
             files other than `crates/obs/src/durable.rs` (which implements the protocol).\n\
             \n\
             Why: a crash mid-write leaves a torn, checksum-less file that recovery code\n\
             then trusts. Every persistence path goes through `seaice_obs::durable`\n\
             (SEAICE1 framing, write-temp -> fsync -> rename) so crashes are atomic —\n\
             that guarantee only holds if nothing writes around it.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(raw-fs-write-in-durable-path) reason=\"debug PPM dump, regenerable, never read back\""
        }
        r if r == LOCK_ORDER => {
            "Cycle in the workspace lock-order graph (deadlock-capable acquisition orders).\n\
             \n\
             What it catches: pass 2 builds a directed graph with an edge A -> B for every\n\
             acquisition of B while A's guard is live — in one fn body, or one call-hop\n\
             deep when the callee name resolves to exactly one workspace fn. Any cycle is\n\
             reported once with every acquisition along it as a related span; relocking\n\
             the same lock while held is the one-node cycle.\n\
             \n\
             Why: two threads taking the same pair of locks in opposing orders deadlock\n\
             under the right interleaving — the classic unreproducible hang. A single\n\
             global order (or lock scoping that never nests) makes the hang impossible\n\
             by construction rather than by luck.\n\
             \n\
             Suppression (attach to the primary span, the first acquisition):\n\
             // seaice-lint: allow(lock-order-inversion) reason=\"B is only constructed single-threaded before A exists\""
        }
        r if r == BLOCKING_UNDER_LOCK => {
            "Blocking call (send/recv/wait/join/sleep/file IO) while a mutex guard is live.\n\
             \n\
             What it catches: a call whose name is in the configured blocking set, or a\n\
             `fs::`/`File::` IO call, made while at least one lock guard is live in the\n\
             enclosing fn. Guard liveness is approximated by block scope, ended early by\n\
             `drop(g)`. Condvar handoffs (`cv.wait(g)` — the guard is an argument) are\n\
             exempt: the wait releases the lock atomically.\n\
             \n\
             Why: this is the exact bug class of the PR 8 hang — a worker blocked on\n\
             `recv()` holding state every other thread needed. Blocking under a lock\n\
             turns one slow (or dead) peer into a pipeline-wide stall, and a panic in\n\
             the blocking call poisons the guard on the way out.\n\
             \n\
             Suppression:\n\
             // seaice-lint: allow(blocking-call-under-lock) reason=\"try_recv is non-blocking despite the name match\""
        }
        r if r == TRANSITIVE_WALLCLOCK => {
            "Wall-clock reached from a deterministic path through a call chain.\n\
             \n\
             What it catches: taint from Instant::now / SystemTime propagated backward\n\
             through the workspace call graph; a Library-kind fn outside the timing\n\
             allowlist whose taint arrived via a call is reported with the full chain\n\
             down to the clock read. A call propagates taint only when every same-named\n\
             candidate fn is tainted, so the Clock trait (WallClock tainted, ManualClock\n\
             clean) never taints its callers.\n\
             \n\
             Why: `wallclock-in-deterministic-path` only sees direct reads, so wrapping\n\
             `Instant::now` in a helper two hops away silently defeated it. Time still\n\
             leaks into the deterministic output either way; the chain in the report\n\
             shows exactly where to inject the Clock instead.\n\
             \n\
             Suppression (attach to the primary span, the tainting call):\n\
             // seaice-lint: allow(transitive-wallclock) reason=\"chain ends in a log-only helper; output unaffected\""
        }
        r if r == UNUSED_SUPPRESSION => {
            "A `seaice-lint: allow(...)` comment that silenced nothing.\n\
             \n\
             What it catches: any suppression entry whose rule fired no diagnostic on the\n\
             line it covers.\n\
             \n\
             Why: stale allowances rot — code moves, the finding disappears, and the\n\
             suppression silently waits to mask the next real finding on that line.\n\
             Delete it (this meta-rule is itself not suppressible)."
        }
        r if r == MALFORMED_SUPPRESSION => {
            "A `seaice-lint:` comment the engine could not parse.\n\
             \n\
             What it catches: a suppression marker missing `allow(...)`, naming an\n\
             unknown rule, or lacking the mandatory `reason=\"...\"`.\n\
             \n\
             Why: a suppression that fails to parse silences nothing but *looks* like it\n\
             does; the reason is mandatory so every allowance carries its own review\n\
             trail. Fix the syntax:\n\
             // seaice-lint: allow(rule-name) reason=\"the invariant that makes this sound\"\n\
             (this meta-rule is itself not suppressible)."
        }
        _ => return None,
    };
    Some(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_blurb_with_summary_and_guidance() {
        for rule in ALL_RULES {
            let b = explain(rule).unwrap_or_else(|| panic!("no blurb for {rule}"));
            let first = b.lines().next().unwrap();
            assert!(!first.is_empty() && first.ends_with('.'), "{rule}: {first}");
            assert!(b.contains("What it catches"), "{rule} missing what-clause");
            assert!(b.contains("Why"), "{rule} missing why-clause");
        }
    }

    #[test]
    fn suppressible_rules_show_an_example_suppression() {
        for rule in crate::rules::RULES {
            let b = explain(rule).unwrap();
            assert!(
                b.contains(&format!("allow({rule})")),
                "{rule} blurb lacks an example suppression"
            );
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn all_rules_superset_of_suppressible_rules() {
        for r in crate::rules::RULES {
            assert!(ALL_RULES.contains(r));
        }
        assert_eq!(ALL_RULES.len(), crate::rules::RULES.len() + 2);
    }
}
