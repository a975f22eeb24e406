//! # seaice-bench
//!
//! The experiment harness behind the `reproduce` binary: one module per
//! table/figure of the paper, plus the chaos / stream / soak
//! demonstrations.
//!
//! ## What is measured where
//!
//! The paper's numbers come from hardware this repo does not have (a
//! 4-core i5, a 4-node Dataproc cluster, an 8-GPU DGX A100), so the
//! speedup tables run on **simulated** clocks: the discrete-event clock of
//! `seaice-mapreduce` and the calibrated performance models of
//! `seaice-distrib`, fed with the published hardware characteristics. The
//! *shapes* (speedup curves, crossovers, who wins) come from the models;
//! see DESIGN.md §1 for the substitution rationale.
//!
//! Every `BENCH_<area>.json` this crate writes holds only values that
//! re-produce on any host: a simulated cost, a count, or a bit-identity
//! claim. A target may *print* a host measurement next to the paper
//! number it anchors (Table I's ms/tile, the 66-scene timing), but the
//! wall-clock ruler for this code is the `benchmark/` package alone.
//!
//! Accuracy experiments (Tables IV–V, Figs. 11, 13, 14) involve no
//! hardware substitution: they run the real pipeline end to end at a
//! reduced scale and report real numbers.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaosbench;
pub mod night;
pub mod scale;
pub mod soakbench;
pub mod streambench;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table45;
pub mod workloads;

/// Serializes panic-hook swaps across the process: the hook is global,
/// so two chaos-style benches filtering concurrently would clobber each
/// other's saved hooks.
static PANIC_HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with panics whose `String` payload contains `needle`
/// suppressed from stderr; every other panic still goes through the
/// previously installed hook. The chaos benches use this so their
/// expected injected panics don't spray backtraces over the output.
///
/// Hook swaps are serialized on a process-wide lock (concurrent
/// filtered sections would race each other's take/set), and the
/// previously installed hook — whatever it was, not the std default —
/// is restored afterwards, even if `f` itself panics.
pub fn with_suppressed_panics<R>(needle: &str, f: impl FnOnce() -> R) -> R {
    use std::panic::PanicHookInfo;
    use std::sync::Arc;

    type Hook = Arc<dyn Fn(&PanicHookInfo<'_>) + Send + Sync>;

    let _serial = PANIC_HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev: Hook = Arc::from(std::panic::take_hook());

    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                drop(std::panic::take_hook());
                std::panic::set_hook(Box::new(move |info| prev(info)));
            }
        }
    }
    let _restore = Restore(Some(Arc::clone(&prev)));

    let needle = needle.to_string();
    std::panic::set_hook(Box::new(move |info| {
        let suppressed = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains(&needle));
        if !suppressed {
            prev(info);
        }
    }));
    f()
}
