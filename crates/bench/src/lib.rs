//! # seaice-bench
//!
//! The experiment harness behind the `reproduce` binary: one module per
//! table/figure of the paper. The robustness claims (chaos, stream and
//! soak recovery) live as tests: `tests/chaos.rs`, `tests/stream.rs` and
//! `tests/trace_export.rs` at the workspace root, and this crate's
//! `tests/soak.rs`.
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
//! The simulated costs re-produce on any host, so `tests/tables.rs`
//! asserts them exactly. A target may *print* a host measurement next to
//! the paper number it anchors (Table I's ms/tile, the 66-scene timing),
//! but the wall-clock ruler for this code is the `benchmark/` package
//! alone.
//!
//! Accuracy experiments (Tables IV–V, Figs. 11, 13, 14) involve no
//! hardware substitution: they run the real pipeline end to end at a
//! reduced scale and report real numbers.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod night;
pub mod scale;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table45;
pub mod workloads;
